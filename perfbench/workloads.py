"""Workloads of the benchmark and one replay of their hdgbem call sequence.

A replay is what one `hdgbem solve` or `hdgbem sweep` invocation does,
without the process start and config parsing, plus the monolithic oracle
and exterior evaluation:

    setup   setup_level (mesh, boundary map, patches, build_system, layer
            operators) and the first `system.lu`
    solve   every run_fixed_point call
    export  the files `hdgbem solve` writes, for the run at ACCURACY_OMEGA;
            a sweep adds its table
    oracle  monolithic_solve
    eval    evaluate_exterior over the workload's points

Each phase is timed by a `PhaseClock`.  After the timed phases the replay
checks every operation (each coupled run, the export set, the oracle call
and the evaluation) and scores it as passed or failed.  The accuracy gates
of a workload are data in its `gates`; errors without a gate are recorded
and not judged.
"""

import dataclasses
import gc
import math
import os
import tracemalloc

import numpy as np

from hdgbem import bem, coupling, harness, hdg
from hdgbem.basis import TriangleBasis
from hdgbem.errors import DivergenceError
from hdgbem.geometry import Curve

# offsets from the interface of the near/mixed point sets
OFFSETS = (1e-3, 1e-2, 0.1, 1.0)
# distances of the far point sets: r in [1.1, 10] on the unit circle
FAR_RANGE = (0.1, 9.0)
NEAR_MAX, FAR_MIN = 0.01, 0.1
# the relaxation weight whose converged run carries the accuracy metrics
ACCURACY_OMEGA = 0.5
# untraced replays repeat an oracle or evaluation shorter than this
MIN_PHASE_S = 0.5


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "solve" or "sweep": the CLI sequence replayed
    case: str               # manufactured case id, or "ellipse"
    k: int
    h: float
    n: int
    omegas: tuple
    tol: float
    far_points: int         # uniform distance in FAR_RANGE
    offset_points: int      # split evenly over OFFSETS
    gates: tuple = ()       # (metric, upper bound) pairs
    max_iterations: int = 100


WORKLOADS = {w.name: w for w in (
    Workload("dipole-fine", "solve", "dipole-plus-constant", k=2, h=0.025,
             n=32, omegas=(0.5,), tol=1e-10, far_points=20000,
             offset_points=4096,
             gates=(("err_q", 3.32e-5), ("err_u", 2.63e-6),
                    ("err_uinf", 2.7e-10), ("err_oracle", 1e-9),
                    ("err_eval_far", 1e-5))),
    Workload("bump-sweep", "sweep", "variable-kappa-bump", k=1, h=0.025,
             n=32, omegas=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
             tol=1e-8, far_points=2000, offset_points=4096,
             gates=(("err_q", 3.29e-3), ("err_oracle", 1e-6))),
    Workload("ellipse-near", "solve", "ellipse", k=1, h=0.025, n=64,
             omegas=(0.5,), tol=1e-10, far_points=0, offset_points=20480,
             gates=(("err_oracle", 1e-9),)),
)}


def smoke_variant(spec):
    """The same workload at h=0.1 with few points and no accuracy gates."""
    return dataclasses.replace(spec, h=0.1, far_points=min(spec.far_points, 200),
                               offset_points=4096, gates=())


def ellipse(a=1.3, b=0.9):
    return Curve.from_parametrization(
        lambda s: np.stack([a * np.cos(s), b * np.sin(s)], axis=-1),
        lambda s: np.stack([-a * np.sin(s), b * np.cos(s)], axis=-1),
        lambda s: np.stack([-a * np.cos(s), -b * np.sin(s)], axis=-1))


def build_case(spec):
    if spec.case != "ellipse":
        return harness.manufactured_case(spec.case, degree=spec.k)
    base = harness.manufactured_case("dipole-plus-constant", degree=spec.k)
    return harness.ManufacturedCase(
        "ellipse-dipole-plus-constant", base.kappa, base.f, base.u, base.q,
        base.grad_u, base.u_inf, ellipse(), base.gamma0,
        supports_coupling=True, description="dipole fields, elliptic interface")


def eval_points(spec, curve, seed):
    """Points y(t) + d n(t) outside the interface and their distances d.

    Far points take random t and d.  Per offset, half of the offset points
    sit on a fixed equispaced t grid whose size is a multiple of 512, so
    it holds every quadrature node of `evaluate_exterior` (8n nodes): close
    to the interface the error peaks right above a node, and the grid makes
    that maximum the same for every seed.  The other half take random t.
    On a convex curve y(t) is the closest point of y(t) + d n(t), so d is
    its exact distance.
    """
    rng = np.random.default_rng(seed)
    per = spec.offset_points // len(OFFSETS)
    grid = 2.0 * np.pi * np.arange(per // 2) / (per // 2)
    t = [rng.uniform(0.0, 2.0 * np.pi, size=spec.far_points)]
    for _ in OFFSETS:
        t += [grid, rng.uniform(0.0, 2.0 * np.pi, size=per - per // 2)]
    t = np.concatenate(t)
    dist = np.concatenate([rng.uniform(*FAR_RANGE, size=spec.far_points),
                           np.repeat(OFFSETS, per)])
    pts = curve.point(t) + dist[:, None] * curve.normal(t)
    return pts, dist


def interface_speed(curve):
    return curve.radius if curve.is_circle else curve.length() / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# one replay
# ---------------------------------------------------------------------------

class Replay:
    """Timings, checked operations and accuracy of one replay."""

    def __init__(self, clock):
        self.clock = clock
        self.ops = []             # (operation, passed, detail)
        self.accuracy = {}
        self.counts = {}
        self.eval_peak_mb = None

    def record(self, op, passed, detail=""):
        self.ops.append((op, bool(passed), detail))

    def gate(self, spec, name):
        bound = dict(spec.gates).get(name)
        value = self.accuracy.get(name, math.nan)
        return math.isfinite(value) and (bound is None or value <= bound)


def _setup(spec, case):
    bundle = harness.setup_level(case, spec.h, spec.k, n=spec.n)
    bundle.system.lu
    return bundle


def _couple(spec, case, bundle, omega):
    cfg = coupling.CouplingConfig(omega=omega, tol=spec.tol, n=spec.n,
                                  max_iterations=spec.max_iterations)
    try:
        return coupling.run_fixed_point(bundle.system, bundle.ops, f=case.f,
                                        u0=case.u0, config=cfg), None
    except DivergenceError as err:
        return err.state, err
    except Exception as err:        # scored as a failed operation
        return None, err


def _sweep_rows(spec, runs):
    rows = []
    for omega, state, err in runs:
        hist = state.history if state is not None else []
        rows.append({"omega": float(omega), "converged": err is None,
                     "iterations": spec.max_iterations if err else state.iteration,
                     "ratio": float(coupling.estimate_contraction(hist))
                     if len(hist) >= 3 else float("nan")})
    return rows


def _accuracy_state(runs):
    return {omega: state for omega, state, _ in runs}[ACCURACY_OMEGA]


def _export(spec, outdir, runs, rows):
    """Write the files of `hdgbem solve` for the run at ACCURACY_OMEGA.

    A sweep also writes its table.  The table alone takes well under a
    millisecond, mostly in file system calls, which no reference kernel
    tracks; the solve's files are what a sweep's user exports next.
    Returns the paths.
    """
    state = _accuracy_state(runs)
    paths = {name: os.path.join(outdir, name) for name in (
        "iterations.csv", "field.vtk", "coefficients.csv", "trace_g.csv",
        "density_lambda.csv")}
    coupling.write_iteration_log(state, paths["iterations.csv"])
    hdg.write_vtk(state.field, paths["field.vtk"])
    hdg.write_coefficients_csv(state.field, paths["coefficients.csv"])
    bem.write_density_csv(state.g, paths["trace_g.csv"])
    bem.write_density_csv(state.lam, paths["density_lambda.csv"])
    if spec.command == "sweep":
        paths["sweep.csv"] = os.path.join(outdir, "sweep.csv")
        harness.write_sweep_csv(rows, paths["sweep.csv"])
    return paths


def replay(spec, case, points, clock, outdir, tracer=None):
    """Run the timed phases once, then check their outputs."""
    span = tracer.span if tracer else (lambda _name, fn, *a, **kw: fn(*a, **kw))
    rep = Replay(clock)

    bundle = clock.time("setup", span, "phase.setup", _setup, spec, case)
    runs = []
    for omega in spec.omegas:
        state, err = clock.time("solve", span, "phase.solve", _couple,
                                spec, case, bundle, omega)
        runs.append((omega, state, err))
    rows = _sweep_rows(spec, runs)
    paths = clock.time("export", span, "phase.export", _guarded, _export,
                       spec, outdir, runs, rows)
    min_s = 0.0 if tracer else MIN_PHASE_S    # traced: one span per call
    oracle = clock.time("oracle", span, "phase.oracle", _guarded,
                        coupling.monolithic_solve, bundle.system, bundle.ops,
                        f=case.f, u0=case.u0, min_s=min_s)
    converged = {om: st for om, st, err in runs if err is None}
    ref_state = converged.get(ACCURACY_OMEGA)
    if tracer is not None:
        tracemalloc.start()
    values = clock.time("eval", span, "phase.eval", _guarded,
                        bem.evaluate_exterior, bundle.ops, ref_state.g,
                        ref_state.lam, ref_state.u_inf, points[0],
                        min_s=min_s) \
        if ref_state is not None else RuntimeError("no converged run")
    if tracer is not None:
        rep.eval_peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()

    _check_runs(spec, case, bundle, runs, rep)
    _check_export(spec, runs, rows, paths, rep)
    _check_oracle(spec, bundle, converged, oracle, rep)
    _check_eval(spec, case, points, values, rep)
    rep.counts = {
        "geometry.elements": len(bundle.mesh.elements),
        "geometry.boundary_edges": len(bundle.bmap.edge_ids),
        "hdg.matrix_nnz": int(bundle.system.matrix.nnz),
        "hdg.lu_nnz": int(bundle.system.lu.L.nnz + bundle.system.lu.U.nnz),
        "hdg.export_bytes": 0 if isinstance(paths, Exception) else
        sum(os.path.getsize(p) for p in paths.values()),
        "bem.eval_points": len(points[0]),
        "coupling.iterations": sum(st.iteration for _, st, _ in runs
                                   if st is not None),
    }
    if ref_state is not None and len(ref_state.history) >= 3:
        rep.counts["coupling.contraction"] = \
            coupling.estimate_contraction(ref_state.history)
    return rep


def _guarded(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as err:        # scored as a failed operation
        return err


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_runs(spec, case, bundle, runs, rep):
    for omega, state, err in runs:
        op = f"couple omega={omega}"
        if isinstance(err, DivergenceError):
            # the clean outcome for a weight the cap cannot accommodate
            rep.record(op, state.iteration == spec.max_iterations, "diverged")
            continue
        if err is not None:
            rep.record(op, False, f"{type(err).__name__}: {err}")
            continue
        finite = (np.all(np.isfinite(state.g.coefficients()))
                  and math.isfinite(state.u_inf) and state.converged)
        if omega != ACCURACY_OMEGA:
            rep.record(op, finite)
            continue
        err_q, err_u = hdg.l2_errors(state.field, bundle.system, case.u, case.q)
        rep.accuracy.update(err_q=err_q, err_u=err_u,
                            err_uinf=abs(state.u_inf - case.u_inf))
        passed = finite and all(rep.gate(spec, m)
                                for m in ("err_q", "err_u", "err_uinf"))
        rep.record(op, passed, f"err_q={err_q:.3e} err_u={err_u:.3e}")


def _lattice(r):
    return np.array([(i / r, j / r) for i in range(r + 1)
                     for j in range(r + 1 - i)])


def _vtk_matches(path, field):
    with open(path) as fh:
        text = fh.read()
    head, data = text.split("POINT_DATA ", 1)
    npts = int(data.split("\n", 1)[0])
    u_txt, q_txt = data.split("LOOKUP_TABLE default\n", 1)[1].split(
        "VECTORS q double\n")
    u = np.array(u_txt.split(), dtype=float)
    q = np.array(q_txt.split(), dtype=float).reshape(-1, 3)[:, :2]
    vals = TriangleBasis(field.k).eval(_lattice(max(field.k, 1)))
    u_ref = (field.U @ vals.T).ravel()
    q_ref = np.einsum("mcd,nd->mnc", field.Q, vals).reshape(-1, 2)
    if not (npts == len(u) == len(u_ref) == len(q) == len(q_ref)):
        return False
    scale = max(np.abs(u_ref).max(), np.abs(q_ref).max(), 1.0)
    return (np.abs(u - u_ref).max() <= 1e-12 * scale
            and np.abs(q - q_ref).max() <= 1e-12 * scale)


def _density_matches(path, poly):
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    sin = np.concatenate([[0.0], poly.sin, [0.0]])[:poly.n + 1]
    return (np.array_equal(table[:, 0], np.arange(poly.n + 1))
            and np.array_equal(table[:, 1], poly.cos)
            and np.array_equal(table[:, 2], sin))


def _log_matches(path, state):
    log = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return (np.array_equal(log[:, 1], state.history)
            and np.array_equal(log[:, 2], state.u_inf_history))


def _sweep_matches(path, rows):
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    want = np.array([[r["omega"], r["converged"], r["iterations"], r["ratio"]]
                     for r in rows])
    return (table.shape == want.shape
            and np.allclose(table[:, 0], want[:, 0], rtol=0, atol=1e-6)
            and np.array_equal(table[:, 1:3], want[:, 1:3])
            and np.allclose(table[:, 3], want[:, 3], rtol=1e-9, atol=0,
                            equal_nan=True))


def _export_matches(spec, runs, rows, paths):
    if spec.command == "sweep" and not _sweep_matches(paths["sweep.csv"], rows):
        return False
    state = _accuracy_state(runs)
    coeff = np.loadtxt(paths["coefficients.csv"], delimiter=",", skiprows=1,
                       ndmin=2)
    field = state.field
    blocks = np.concatenate([field.Q[:, 0], field.Q[:, 1], field.U], axis=1)
    return (_log_matches(paths["iterations.csv"], state)
            and np.array_equal(coeff[:, 0], np.arange(len(blocks)))
            and np.array_equal(coeff[:, 1:], blocks)
            and _vtk_matches(paths["field.vtk"], field)
            and _density_matches(paths["trace_g.csv"], state.g)
            and _density_matches(paths["density_lambda.csv"], state.lam))


def _check_export(spec, runs, rows, paths, rep):
    if isinstance(paths, Exception):
        rep.record("export", False, f"{type(paths).__name__}: {paths}")
        return
    try:
        rep.record("export", _export_matches(spec, runs, rows, paths))
    except (OSError, ValueError) as err:
        rep.record("export", False, f"{type(err).__name__}: {err}")


def _check_oracle(spec, bundle, converged, oracle, rep):
    if isinstance(oracle, Exception) or not converged:
        rep.record("oracle", False, repr(oracle))
        return
    _, g_or, _, u_inf_or = oracle
    speed = interface_speed(bundle.ops.curve)
    rep.accuracy["err_oracle"] = max(
        abs(st.u_inf - u_inf_or) + (st.g - g_or).l2_norm(speed=speed)
        for st in converged.values())
    rep.record("oracle", rep.gate(spec, "err_oracle"),
               f"err_oracle={rep.accuracy['err_oracle']:.3e}")


def _check_eval(spec, case, points, values, rep):
    if isinstance(values, Exception):
        rep.record("eval", False, f"{type(values).__name__}: {values}")
        return
    pts, dist = points
    err = np.abs(values - case.u(pts))
    far, near = err[dist >= FAR_MIN], err[dist <= NEAR_MAX]
    rep.accuracy["err_eval_far"] = float(far.max()) if len(far) else math.nan
    rep.accuracy["err_eval_near"] = float(near.max()) if len(near) else math.nan
    rep.record("eval", bool(np.all(np.isfinite(values)))
               and rep.gate(spec, "err_eval_far"),
               f"err_eval_far={rep.accuracy['err_eval_far']:.3e}")


def release():
    """Drop the previous replay's arrays before the next set-up."""
    gc.collect()
