"""Command-line driver: mesh building, coupled solves, studies and sweeps.

Configuration is a plain-text key = value file with dotted section keys::

    geometry.fitted        = false
    material.kappa         = 1.0        # 1, or "bump" for the radial bump
    material.u_inf         = 0.0        # far-field constant of the data
    discretization.k       = 1
    discretization.h0      = 0.2
    discretization.levels  = 4
    coupling.omega         = 0.5
    coupling.tol           = 1e-8
    coupling.n             = 32
    coupling.max_iterations = 100
    sweep.omegas           = 0.1,0.2,...   # sweep subcommand only
    output.dir             = out

Lines starting with '#' are comments.  The output directory is created
before any work.  Exit status: 0 success, 1 solver failure, 2
configuration error, an output directory that cannot be created included.
"""

import argparse
import math
import os
import sys

from .coupling import CouplingConfig, run_fixed_point
from .errors import ConfigError, DivergenceError, HdgBemError
from .export import (save_mesh, write_coefficients_csv, write_density_csv, write_iteration_log,
                     write_mesh_report, write_study_csv, write_sweep_csv, write_vtk)
from .geometry import build_annulus_mesh, build_boundary_map, proximity_parameter
from .harness import convergence_study, manufactured_case, omega_sweep, setup_level

_DEFAULTS = {
    "geometry.fitted": "false",
    "material.kappa": "1.0",
    "material.u_inf": "0.0",
    "discretization.k": "1",
    "discretization.h0": "0.2",
    "discretization.levels": "4",
    "coupling.omega": "0.5",
    "coupling.tol": "1e-8",
    "coupling.n": "32",
    "coupling.max_iterations": "100",
    "sweep.omegas": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
    "output.dir": "out",
}


def parse_config(path):
    cfg = dict(_DEFAULTS)
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"line {lineno}: expected key = value",
                                      key=line)
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _DEFAULTS:
                    raise ConfigError(f"unknown configuration key {key!r}", key=key)
                cfg[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return cfg


def _get_float(cfg, key, positive=False):
    try:
        val = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}", key=key) from exc
    if not math.isfinite(val):
        raise ConfigError(f"{key} must be finite, got {val}", key=key)
    if positive and val <= 0:
        raise ConfigError(f"{key} must be positive, got {val}", key=key)
    return val


def _get_int(cfg, key, minimum=None):
    try:
        val = int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}", key=key) from exc
    if minimum is not None and val < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {val}", key=key)
    return val


def _get_bool(cfg, key):
    val = cfg[key].strip().lower()
    if val in ("true", "1", "yes"):
        return True
    if val in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true or false, got {cfg[key]!r}", key=key)


def _validated(cfg):
    out = {
        "fitted": _get_bool(cfg, "geometry.fitted"),
        "u_inf": _get_float(cfg, "material.u_inf"),
        "k": _get_int(cfg, "discretization.k", minimum=0),
        "h0": _get_float(cfg, "discretization.h0", positive=True),
        "levels": _get_int(cfg, "discretization.levels", minimum=1),
        "omega": _get_float(cfg, "coupling.omega"),
        "tol": _get_float(cfg, "coupling.tol", positive=True),
        "n": _get_int(cfg, "coupling.n", minimum=2),
        "max_iterations": _get_int(cfg, "coupling.max_iterations", minimum=1),
        "outdir": cfg["output.dir"],
    }
    if not 0.0 < out["omega"] <= 1.0:
        raise ConfigError(
            f"coupling.omega must lie in (0, 1], got {out['omega']}",
            key="coupling.omega")
    kappa_raw = cfg["material.kappa"].strip().lower()
    if kappa_raw == "bump":
        out["case_id"] = "variable-kappa-bump"
    else:
        try:
            kval = float(kappa_raw)
        except ValueError as exc:
            raise ConfigError("material.kappa must be a number or 'bump'",
                              key="material.kappa") from exc
        if kval != 1.0:
            raise ConfigError("scalar material.kappa other than 1 has no "
                              "manufactured datum; use 'bump'",
                              key="material.kappa")
        out["case_id"] = "dipole-plus-constant" if out["u_inf"] != 0.0 else "dipole"
    omegas = []
    for tok in cfg["sweep.omegas"].split(","):
        tok = tok.strip()
        if tok:
            try:
                omegas.append(float(tok))
            except ValueError as exc:
                raise ConfigError(f"sweep.omegas entry {tok!r} is not a number",
                                  key="sweep.omegas") from exc
    if not omegas:
        raise ConfigError("sweep.omegas lists no weight", key="sweep.omegas")
    if any(not 0.0 < w <= 1.0 for w in omegas):
        raise ConfigError("sweep.omegas entries must lie in (0, 1]",
                          key="sweep.omegas")
    out["omegas"] = omegas
    return out


def _case(params):
    return manufactured_case(params["case_id"], degree=params["k"],
                             constant=params["u_inf"])


def cmd_mesh(params):
    case = _case(params)
    mesh = build_annulus_mesh(case.gamma, case.gamma0, params["h0"],
                              fitted=params["fitted"])
    rep = proximity_parameter(build_boundary_map(mesh, case.gamma, case.gamma0, params["k"]))
    mesh_path = os.path.join(params["outdir"], "mesh.txt")
    save_mesh(mesh, mesh_path)
    report_path = os.path.join(params["outdir"], "mesh_report.csv")
    write_mesh_report(mesh, rep, params["h0"], report_path)
    print(f"mesh: {len(mesh.elements)} elements, h = {mesh.h:.4f}")
    print(f"proximity ratio R_h = {rep.R_h:.4e}, "
          f"max |n_h - n| = {rep.normal_deviation:.4e}")
    print(f"wrote {mesh_path} and {report_path}")
    return 0


def cmd_solve(params):
    case = _case(params)
    bundle = setup_level(case, params["h0"], params["k"], n=params["n"],
                         fitted=params["fitted"])
    cfg = CouplingConfig(omega=params["omega"], tol=params["tol"],
                         n=params["n"], max_iterations=params["max_iterations"])
    try:
        state = run_fixed_point(bundle.system, bundle.ops, f=case.f,
                                u0=case.u0, config=cfg)
    except DivergenceError as err:
        write_iteration_log(err.state, os.path.join(params["outdir"],
                                                    "iterations.csv"))
        print(f"solver failure: {err}", file=sys.stderr)
        return 1
    write_iteration_log(state, os.path.join(params["outdir"], "iterations.csv"))
    write_vtk(state.field, os.path.join(params["outdir"], "field.vtk"))
    write_coefficients_csv(state.field,
                           os.path.join(params["outdir"], "coefficients.csv"))
    write_density_csv(state.g, os.path.join(params["outdir"], "trace_g.csv"))
    write_density_csv(state.lam, os.path.join(params["outdir"], "density_lambda.csv"))
    print(f"converged in {state.iteration} iterations; "
          f"u_inf = {state.u_inf:.8f} (exact {case.u_inf})")
    print(f"last update norm {state.history[-1]:.3e}")
    return 0


def cmd_study(params):
    case = _case(params)
    hs = [params["h0"] * 0.5 ** i for i in range(params["levels"])]
    cfg = CouplingConfig(omega=params["omega"], tol=params["tol"],
                         n=params["n"], max_iterations=params["max_iterations"])
    report = convergence_study(case, params["k"], hs, n=params["n"],
                               config=cfg, fitted=params["fitted"])
    path = os.path.join(params["outdir"], "study.csv")
    write_study_csv(report, path)
    write_study_csv(report, os.path.join(params["outdir"], "study_full.csv"), full=True)
    print(report.summary())
    print(f"wrote {path}")
    if any(not row["converged"] for row in report.rows):
        return 1
    return 0


def cmd_sweep(params):
    case = _case(params)
    bundle = setup_level(case, params["h0"], params["k"], n=params["n"],
                         fitted=params["fitted"])
    rows, best = omega_sweep(bundle, case, params["omegas"], tol=params["tol"],
                             max_iterations=params["max_iterations"])
    path = os.path.join(params["outdir"], "sweep.csv")
    write_sweep_csv(rows, path)
    print("omega  converged  iterations  ratio")
    for r in rows:
        print(f"{r['omega']:5.2f}  {str(r['converged']):>9}  "
              f"{r['iterations']:10d}  {r['ratio']:.4f}")
    if best is not None:
        print(f"best omega = {best['omega']:.2f} "
              f"({best['iterations']} iterations)")
    print(f"wrote {path}")
    return 0


_COMMANDS = {"mesh": cmd_mesh, "solve": cmd_solve, "study": cmd_study,
             "sweep": cmd_sweep}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hdgbem",
        description="unfitted interior/exterior coupled diffusion solver")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="plain-text key = value configuration file")
    args = parser.parse_args(argv)
    try:
        params = _validated(parse_config(args.config))
        try:
            os.makedirs(params["outdir"], exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {params['outdir']!r}: {exc}",
                              key="output.dir") from exc
        return _COMMANDS[args.command](params)
    except ConfigError as err:
        where = f" ({err.key})" if err.key else ""
        print(f"config error{where}: {err}", file=sys.stderr)
        return 2
    except HdgBemError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
