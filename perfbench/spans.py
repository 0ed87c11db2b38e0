"""In-memory span tracing around the calls into hdgbem's layers.

`Tracer.install()` replaces each target in `TARGETS` with a wrapper that
records a span (name, start, end, parent, run id) and restores the
originals on `uninstall()`.  Names are patched where the caller looks them
up: `run_fixed_point` finds `solve_exterior` in `hdgbem.coupling`, and
`setup_level` finds `build_system` in `hdgbem.harness`, so those module
attributes are the ones replaced.  A target the program no longer has is
skipped and listed in `missing`, so a refactor of hdgbem leaves the traced
run working.  A span's layer is the part of its name before the first dot;
its self time is its duration minus the time its child spans cover.
"""

import functools
import json
import time

from hdgbem import bem, coupling, harness, hdg

LAYERS = ("geometry", "hdg", "bem", "coupling", "harness")

# (module, attribute or Class.attribute, span name)
TARGETS = (
    (harness, "setup_level", "harness.setup_level"),
    (harness, "build_annulus_mesh", "geometry.mesh"),
    (harness, "build_boundary_map", "geometry.map"),
    (harness, "build_extension_patches", "geometry.patches"),
    (harness, "proximity_parameter", "geometry.proximity"),
    (harness, "build_system", "hdg.build"),
    (harness, "assemble_layer_operators", "bem.operators"),
    (harness, "write_sweep_csv", "harness.write_sweep_csv"),
    (hdg, "HDGSystem.solve_trace", "hdg.solve_trace"),
    (hdg, "HDGSystem.recover", "hdg.recover"),
    (hdg, "HDGSystem.residual", "hdg.residual"),
    (hdg, "l2_errors", "hdg.l2_errors"),
    (hdg, "write_vtk", "hdg.write_vtk"),
    (hdg, "write_coefficients_csv", "hdg.write_csv"),
    (coupling, "run_fixed_point", "coupling.run_fixed_point"),
    (coupling, "ntd_step", "coupling.ntd_step"),
    (coupling, "monolithic_solve", "coupling.monolithic_solve"),
    (coupling, "write_iteration_log", "coupling.write_iteration_log"),
    (coupling, "solve_exterior", "bem.solve_exterior"),
    (coupling, "compute_u_infinity", "bem.u_infinity"),
    (coupling, "project_mean_zero", "bem.project"),
    (coupling, "InterfaceSampler.flux", "coupling.flux"),
    (coupling, "InterfaceSampler.mean_flux", "coupling.flux"),
    (coupling, "InterfaceSampler.trace_operator", "coupling.trace_operator"),
    (bem, "evaluate_exterior", "bem.evaluate"),
    (bem, "write_density_csv", "bem.write_csv"),
)
# the factorization is a lazy property; its first access is the factor span
LU_TARGET = (hdg, "HDGSystem.lu", "hdg.factor")


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "run", "error")

    def __init__(self, index, name, start, parent, run):
        self.index = index
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.error = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                "error": self.error}


class Tracer:
    """Records spans while installed; `span` also marks benchmark phases."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.missing = []
        self.run = 0

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, time.perf_counter(), parent, self.run)
        self.spans.append(rec)
        self._stack.append(rec.index)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec.error = type(exc).__name__
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_lu(self, prop):
        tracer = self

        def getter(system):
            if getattr(system, "_lu", None) is None:
                return tracer.span("hdg.factor", prop.fget, system)
            return prop.fget(system)
        return property(getter)

    def install(self):
        self.missing = []
        for module, path, name in TARGETS + (LU_TARGET,):
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module.__name__}.{path}")
                continue
            self._saved.append((owner, attr, original))
            if name == LU_TARGET[2]:
                setattr(owner, attr, self._wrap_lu(original))
            else:
                setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reports -----------------------------------------------------------

    def run_spans(self, run):
        return [s for s in self.spans if s.run == run]

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def summarize(spans):
    """Per-name totals, counts and self times, and self time per layer."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    total, count, self_time = {}, {}, {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        count[s.name] = count.get(s.name, 0) + 1
        self_time[s.name] = (self_time.get(s.name, 0.0) + s.duration
                             - child_time.get(s.index, 0.0))
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, own in self_time.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own
    return total, count, self_time, layer_self


def under(span, spans_by_index, name):
    """The nearest enclosing span called `name`, or None."""
    p = span.parent
    while p is not None:
        if spans_by_index[p].name == name:
            return spans_by_index[p]
        p = spans_by_index[p].parent
    return None
