"""Benchmark of hdgbem: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload dipole-fine --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; hdgbem is imported from ./src and
nowhere else.  The run replays the workload for about `--seconds` (see
MIN_REPLAYS) and reports the median of each metric over the replays.
Every replay checks its outputs.

With `--trace 0` the last line carries the end-to-end metrics; times are
rescaled by a same-run reference kernel (see refclock.py).  With
`--trace 1` it carries the per-layer metrics: untraced and traced replays
alternate, spans go to perfbench/out/, and a per-layer self-time table is
printed first.  The line before the result records the environment.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# A run starts no replay predicted to end after `--seconds`, except to
# reach MIN_REPLAYS; those may end up to GRACE times `--seconds`, which
# bounds a run's length when the machine is slow.  With --trace 1 untraced
# and traced replays alternate, so both kinds are measured.
MIN_REPLAYS = 3
GRACE = 1.15

E2E_UNITS = {
    "setup_s": "s", "solve_s": "s", "time_to_solution_s": "s",
    "export_s": "s", "oracle_s": "s", "eval_s": "s", "peak_rss_mb": "MB",
    "err_q": "1", "err_u": "1", "err_uinf": "1", "err_eval_far": "1",
    "err_eval_near": "1", "err_oracle": "1", "success_ratio": "1",
}
TIMED = ("setup_s", "solve_s", "time_to_solution_s", "export_s", "oracle_s",
         "eval_s")
COUNTS = ("geometry.elements", "geometry.boundary_edges", "hdg.matrix_nnz",
          "hdg.lu_nnz", "hdg.solve_trace_calls", "hdg.recover_calls",
          "hdg.export_bytes", "bem.project_calls", "bem.solve_exterior_calls",
          "bem.eval_points", "coupling.iterations", "coupling.interior_solves")
# span name -> per-layer metric of its total time
SPAN_TIMES = {
    "geometry.mesh": "geometry.mesh_s", "geometry.map": "geometry.map_s",
    "geometry.patches": "geometry.patches_s",
    "geometry.proximity": "geometry.proximity_s",
    "hdg.build": "hdg.build_s", "hdg.factor": "hdg.factor_s",
    "hdg.solve_trace": "hdg.solve_trace_s", "hdg.recover": "hdg.recover_s",
    "hdg.residual": "hdg.residual_s", "hdg.write_vtk": "hdg.write_vtk_s",
    "hdg.write_csv": "hdg.write_csv_s", "hdg.l2_errors": "hdg.l2_errors_s",
    "bem.operators": "bem.operators_s", "bem.project": "bem.project_s",
    "bem.solve_exterior": "bem.solve_exterior_s",
    "bem.evaluate": "bem.evaluate_s", "coupling.flux": "coupling.flux_s",
    "coupling.trace_operator": "coupling.trace_operator_s",
    "harness.setup_level": "harness.setup_level_s",
}
SPAN_COUNTS = {"hdg.solve_trace": "hdg.solve_trace_calls",
               "hdg.recover": "hdg.recover_calls",
               "bem.project": "bem.project_calls",
               "bem.solve_exterior": "bem.solve_exterior_calls"}


def layer_units():
    units = {name: "count" for name in COUNTS}
    for name in list(SPAN_TIMES.values()) + [
            "coupling.per_iteration_s", "coupling.oracle_self_s",
            "machine.ref_s", "tracing.overhead_s"]:
        units[name] = "s"
    for layer in ("geometry", "hdg", "bem", "coupling", "harness"):
        units[f"{layer}.self_s"] = "s"
    for name in TIMED:
        units[f"wall.{name}"] = "s"
    units.update({"coupling.useful_solve_ratio": "1",
                  "coupling.contraction": "1", "bem.eval_rss_mb": "MB"})
    return units


def import_hdgbem():
    """Import hdgbem from this checkout's src/; None when it is missing."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import hdgbem
    except ImportError as err:
        print(f"cannot import hdgbem from {src}: {err}", file=sys.stderr)
        return None
    if not os.path.abspath(hdgbem.__file__).startswith(src + os.sep):
        print(f"hdgbem imported from {hdgbem.__file__}, not {src}",
              file=sys.stderr)
        return None
    return hdgbem


def environment(ref_nominal_s):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "threads": THREADS, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
            "scipy_blas": f"{sp_blas.get('name')} {sp_blas.get('version')}",
            "ref_nominal_s": ref_nominal_s}


def phase_times(totals):
    """Named end-to-end times from per-phase totals of one replay."""
    out = {f"{p}_s": totals.get(p, 0.0) for p in
           ("setup", "solve", "export", "oracle", "eval")}
    out["time_to_solution_s"] = out["setup_s"] + out["solve_s"]
    return out


def traced_metrics(tracer, rep, run, run_ref):
    """Per-layer numbers from the spans of one traced replay."""
    from spans import summarize, under
    spans = tracer.run_spans(run)
    total, count, self_time, layer_self = summarize(spans)
    scale = rep.clock.span_scale(run_ref)
    out = {metric: total.get(name, 0.0) * scale
           for name, metric in SPAN_TIMES.items()}
    out.update({metric: count.get(name, 0)
                for name, metric in SPAN_COUNTS.items()})
    out.update({f"{layer}.self_s": t * scale for layer, t in layer_self.items()})
    out["coupling.oracle_self_s"] = \
        self_time.get("coupling.monolithic_solve", 0.0) * scale
    iterations = rep.counts["coupling.iterations"]
    out["coupling.per_iteration_s"] = \
        total.get("coupling.run_fixed_point", 0.0) * scale / max(iterations, 1)
    solves = useful = 0
    for s in spans:
        if s.name == "hdg.solve_trace":
            run_span = under(s, tracer.spans, "coupling.run_fixed_point")
            if run_span is not None:
                solves += 1
                useful += run_span.error is None
    out["coupling.interior_solves"] = solves
    out["coupling.useful_solve_ratio"] = useful / max(solves, 1)
    out["bem.eval_rss_mb"] = rep.eval_peak_mb
    return out


def more_replays(done, trace, predicted_end, seconds):
    if done < (2 if trace else 1):
        return True
    limit = seconds if done >= MIN_REPLAYS else GRACE * seconds
    return predicted_end <= limit


def median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def measure(spec, seed, seconds, trace):
    """Replay for `seconds` and return (result, report lines)."""
    import workloads
    from refclock import REF_NOMINAL_S, PhaseClock, Reference
    from spans import Tracer

    case = workloads.build_case(spec)
    points = workloads.eval_points(spec, case.gamma, seed)
    reference = Reference()
    tracer = Tracer() if trace else None
    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=OUT)
    untraced, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    try:
        while more_replays(len(untraced) + len(traced), trace,
                           time.perf_counter() - start + longest, seconds):
            began = time.perf_counter()
            workloads.release()
            clock = PhaseClock(reference)
            if trace and len(untraced) > len(traced):
                tracer.run = len(untraced) + len(traced)
                with tracer:
                    rep = workloads.replay(spec, case, points, clock, outdir,
                                           tracer)
                traced.append((tracer.run, rep))
            else:
                untraced.append(workloads.replay(spec, case, points, clock,
                                                 outdir))
            longest = max(longest, time.perf_counter() - began)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    reps = untraced + [rep for _, rep in traced]
    run_ref = statistics.fmean(r for rep in reps for r in rep.clock.refs)
    ops = [op for rep in reps for op in rep.ops]
    failed = [op for op in ops if not op[1]]
    report = [f"# {name}: FAILED {detail}" for name, _, detail in failed]
    scaled = [phase_times(rep.clock.rescaled(run_ref)) for rep in untraced]
    walls = [phase_times(rep.clock.wall()) for rep in untraced]
    for i, times in enumerate(scaled):
        report.append(f"# replay {i}: " + " ".join(
            f"{name}={times[name]:.4f}" for name in TIMED)
            + f" ref_s={statistics.fmean(untraced[i].clock.refs):.4f}")
    if not trace:
        metrics = {name: median_of(scaled, name) for name in TIMED}
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for name in ("err_q", "err_u", "err_uinf", "err_eval_far",
                     "err_eval_near", "err_oracle"):
            metrics[name] = statistics.median(
                rep.accuracy.get(name, float("nan")) for rep in reps)
        metrics["success_ratio"] = (len(ops) - len(failed)) / len(ops)
        units = E2E_UNITS
    else:
        rows = [traced_metrics(tracer, rep, run, run_ref) for run, rep in traced]
        metrics = {name: median_of(rows, name) for name in rows[0]}
        metrics.update(reps[-1].counts)
        for name in TIMED:
            metrics[f"wall.{name}"] = median_of(walls, name)
        metrics["machine.ref_s"] = run_ref
        traced_tts = [phase_times(rep.clock.rescaled(run_ref))
                      ["time_to_solution_s"] for _, rep in traced]
        metrics["tracing.overhead_s"] = (statistics.median(traced_tts)
                                         - median_of(scaled, "time_to_solution_s"))
        units = layer_units()
        spans_path = os.path.join(OUT, f"spans-{spec.name}-seed{seed}.jsonl")
        tracer.write(spans_path)
        report += self_time_table(spec.name, metrics, spans_path)
        if tracer.missing:
            report.append("# not traced, absent from hdgbem: "
                          + ", ".join(tracer.missing))
    result = {
        "correct": not failed and len(ops) > 0,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    report.append("# " + json.dumps({"env": environment(REF_NOMINAL_S),
                                     "untraced_replays": len(untraced),
                                     "traced_replays": len(traced)}))
    return result, report


def self_time_table(name, metrics, spans_path):
    layers = ("geometry", "hdg", "bem", "coupling", "harness")
    total = sum(metrics[f"{layer}.self_s"] for layer in layers)
    lines = [f"# per-layer self time, workload {name} (rescaled s, median of "
             f"traced replays; spans in {os.path.relpath(spans_path, ROOT)})",
             "# layer        self_s   share of all layer time"]
    for layer in layers:
        v = metrics[f"{layer}.self_s"]
        lines.append(f"# {layer:<10} {v:9.4f}   {v / total:7.1%}")
    lines.append(f"# tracing.overhead_s {metrics['tracing.overhead_s']:+.4f} "
                 f"(traced minus untraced time_to_solution_s)")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if import_hdgbem() is None:
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, report = measure(workloads.WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
