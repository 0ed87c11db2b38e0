"""The benchmark's workloads still run on the library and pass its gates.

``perfbench/workloads.py`` replays each workload through the public API,
at its smoke size and at full size with its accuracy gates; a library
change that drops or renames a name it calls, or moves an output past a
gate, fails here, not only when the benchmark runs.
"""

import importlib.util
import pathlib
import sys

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads
_SPEC.loader.exec_module(workloads)


class _NoClock:
    """A phase clock that runs each phase once and times nothing."""

    def time(self, phase, fn, *args, min_s=0.0, **kwargs):
        return fn(*args, **kwargs)


@pytest.mark.parametrize("name,full", [
    pytest.param(name, full, id=name + ("-full" if full else ""))
    for name in sorted(workloads.WORKLOADS) for full in (False, True)])
def test_smoke_replay_passes_every_operation(name, full, tmp_path):
    spec = workloads.WORKLOADS[name]
    if not full:
        spec = workloads.smoke_variant(spec)
    case = workloads.build_case(spec)
    points = workloads.eval_points(spec, case.gamma, seed=1)
    rep = workloads.replay(spec, case, points, _NoClock(), str(tmp_path))
    assert rep.ops
    assert all(passed for _, passed, _ in rep.ops), rep.ops
