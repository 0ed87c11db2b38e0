"""Same-run machine-speed reference and the rescaling of phase times.

The host's speed drifts by more than the bounds the benchmark enforces, so
every end-to-end time is rescaled by a fixed reference kernel timed in the
same process right before and right after each timed call:

    phase_s = wall_s * REF_NOMINAL_S / ref_s
    ref_s   = run_ref ** (1 - BRACKET_WEIGHT) * bracket_ref ** BRACKET_WEIGHT

`bracket_ref` is the mean of the two measurements around the call and
`run_ref` the mean of all measurements of the run.  The run mean carries the
slow drift in full; the bracket follows faster changes, but two short
samples estimate the speed over a whole call only roughly, so it gets
BRACKET_WEIGHT rather than all the weight.

The kernel does not depend on hdgbem.  It mixes the three kinds of work the
solver does: a sparse LU factorization with solves (scipy SuperLU), batched
small dense products (numpy einsum) and a Python-object loop.
"""

import gc
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Reference time that a rescaled phase is expressed against; with it the
# rescaled numbers read as seconds on a machine where one kernel run takes
# this long.  Fixed once: changing it rescales every recorded time.
REF_NOMINAL_S = 0.02
BRACKET_WEIGHT = 0.7

_REPEATS = 4


class Reference:
    """Fixed work timed between phases; `measure` returns its median time."""

    def __init__(self):
        side = 56
        lap = sp.diags([-1.0, 2.05, -1.0], [-1, 0, 1], shape=(side, side))
        eye = sp.identity(side)
        self.matrix = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
        rng = np.random.default_rng(12345)
        self.rhs = rng.standard_normal((self.matrix.shape[0], 8))
        self.blocks = rng.standard_normal((6000, 9, 9))
        self.vectors = rng.standard_normal((6000, 9))

    def _once(self):
        # a collector pause inside the kernel would be noise, not speed
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            lu = spla.splu(self.matrix)
            acc = 0.0
            for j in range(self.rhs.shape[1]):
                acc += float(lu.solve(self.rhs[:, j])[0])
            for _ in range(6):
                acc += float(np.einsum("mab,mb->ma", self.blocks,
                                       self.vectors)[0, 0])
            table = {}
            for i in range(8000):
                table[(i % 97, i)] = f"{i * 0.1:.16e}"
            acc += len(table)
            elapsed = time.perf_counter() - t0
        finally:
            if gc_was_enabled:
                gc.enable()
        if not np.isfinite(acc):
            raise RuntimeError("reference kernel produced a non-finite value")
        return elapsed

    def measure(self):
        return statistics.fmean(self._once() for _ in range(_REPEATS))


class PhaseClock:
    """Times the phases of one replay, each call bracketed by the reference.

    `time(phase, fn, ...)` runs `fn` and returns its result; the call's wall
    time and the reference measurements around it are kept in `calls`.  A
    call that repeats the same work can run again until `min_s` has passed;
    its wall time is then the mean over the repeats, which steadies a phase
    of a few tenths of a second.
    """

    def __init__(self, reference):
        self.reference = reference
        self.refs = [reference.measure()]
        self.calls = []           # (phase, wall, ref before, ref after)

    def time(self, phase, fn, *args, min_s=0.0, **kwargs):
        calls = 0
        t0 = time.perf_counter()
        try:
            while True:
                result = fn(*args, **kwargs)
                calls += 1
                if time.perf_counter() - t0 >= min_s:
                    return result
        finally:
            wall = (time.perf_counter() - t0) / max(calls, 1)
            self.refs.append(self.reference.measure())
            self.calls.append((phase, wall, self.refs[-2], self.refs[-1]))

    def wall(self):
        out = {}
        for phase, wall, _, _ in self.calls:
            out[phase] = out.get(phase, 0.0) + wall
        return out

    def rescaled(self, run_ref):
        """Phase totals in reference units; `run_ref` is the run's mean."""
        out = {}
        for phase, wall, before, after in self.calls:
            ref = (run_ref ** (1.0 - BRACKET_WEIGHT)
                   * (0.5 * (before + after)) ** BRACKET_WEIGHT)
            out[phase] = out.get(phase, 0.0) + wall * REF_NOMINAL_S / ref
        return out

    def span_scale(self, run_ref):
        """Rescaling factor for spans anywhere in this replay."""
        local = statistics.fmean(self.refs)
        return REF_NOMINAL_S / (run_ref ** (1.0 - BRACKET_WEIGHT)
                                * local ** BRACKET_WEIGHT)
