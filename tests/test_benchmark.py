"""The benchmark's workloads still run on the library, at their smoke size.

``perfbench/workloads.py`` replays each workload through the public API;
a library change that drops or renames a name it calls fails here, not
only when the benchmark runs.
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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_replay_passes_every_operation(name, tmp_path):
    spec = workloads.smoke_variant(workloads.WORKLOADS[name])
    case = workloads.build_case(spec)
    points = workloads.eval_points(spec, case.gamma, seed=1)
    rep = workloads.replay(spec, case, points, _NoClock(), str(tmp_path))
    assert rep.ops
    assert all(passed for _, passed, _ in rep.ops), rep.ops
