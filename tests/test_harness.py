import subprocess
import sys

import numpy as np
import pytest

from hdgbem import (
    CouplingConfig,
    HDGSystem,
    convergence_study,
    manufactured_case,
    omega_sweep,
    pde_residual,
)
from hdgbem.cli import main as cli_main

N = 16


# ---------------------------------------------------------------------------
# manufactured cases
# ---------------------------------------------------------------------------

def test_dipole_point_value():
    case = manufactured_case("dipole")
    assert case.u(np.array([[2.0, 0.0]]))[0] == pytest.approx(0.5)


def test_dipole_interface_traces():
    case = manufactured_case("dipole")
    g = case.g_exact(N)
    lam = case.lam_exact(N)
    assert g.cos[1] == pytest.approx(1.0, abs=1e-13)
    assert lam.cos[1] == pytest.approx(-1.0, abs=1e-13)
    assert lam.cos[0] == 0.0                      # mean-zero density
    assert abs(lam.weighted_mean()) < 1e-13


def test_polynomial_patch_linear_data():
    case = manufactured_case("polynomial-patch", degree=1)
    assert case.f is None
    pts = np.array([[0.7, 0.1], [0.9, -0.4]])
    assert np.allclose(case.q(pts), [[-1.0, 0.0], [-1.0, 0.0]])
    assert not case.supports_coupling


def test_unknown_case_id():
    with pytest.raises(KeyError):
        manufactured_case("no-such-case")


@pytest.mark.parametrize("cid", ["dipole", "dipole-plus-constant",
                                 "variable-kappa-bump"])
def test_pde_residual_at_random_points(cid):
    case = manufactured_case(cid)
    rng = np.random.default_rng(11)
    r = 0.5 + 0.5 * rng.random(100)
    th = 2 * np.pi * rng.random(100)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    res_div, res_flux = pde_residual(case, pts)
    assert res_div.max() <= 1e-10
    assert res_flux.max() <= 1e-10


def test_kappa_bump_supported_inside_annulus():
    case = manufactured_case("variable-kappa-bump")
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    on_gamma = case.kappa.value(case.gamma.point(t))
    on_gamma0 = case.kappa.value(case.gamma0.point(t))
    assert np.allclose(on_gamma, np.eye(2))
    assert np.allclose(on_gamma0, np.eye(2))
    inside = case.kappa.value(np.array([[0.75, 0.0]]))
    assert inside[0, 0, 0] > 1.0


# ---------------------------------------------------------------------------
# studies and sweeps
# ---------------------------------------------------------------------------

def test_polynomial_patch_study_is_exact_with_flagged_rates():
    case = manufactured_case("polynomial-patch", degree=1)
    rep = convergence_study(case, 1, [0.2, 0.1], n=N)
    for row in rep.rows:
        assert row["err_q"] < 1e-9 and row["err_u"] < 1e-9
    assert rep.rate("err_u", 1) is None
    assert rep.rate("err_q", 1) is None


def test_study_rows_and_csv(tmp_path):
    case = manufactured_case("dipole")
    rep = convergence_study(case, 1, [0.25, 0.125], n=N,
                            config=CouplingConfig(n=N, tol=1e-9))
    assert rep.rows[0]["h"] > rep.rows[1]["h"]
    assert rep.rows[1]["err_u"] < rep.rows[0]["err_u"]
    assert rep.rate("err_u", 1) > 1.5
    path = tmp_path / "study.csv"
    rep.to_csv(path)
    rows = path.read_text().splitlines()
    assert rows[0] == "level,h,R_h,err_q,err_u,rate_q,rate_u,iters,ratio"
    assert len(rows) == 3


def test_omega_sweep_records_divergence():
    case = manufactured_case("dipole")
    rows, best = omega_sweep(case, 0.18, 1, [0.3, 0.6, 0.9], n=N,
                             tol=1e-8, max_iterations=40)
    assert [r["omega"] for r in rows] == [0.3, 0.6, 0.9]
    assert all(np.isfinite(r["ratio"]) and r["ratio"] > 0 for r in rows)
    assert any(r["converged"] and r["ratio"] < 1 for r in rows)
    assert not rows[-1]["converged"]
    assert best is not None and best["converged"]


# ---------------------------------------------------------------------------
# command-line driver
# ---------------------------------------------------------------------------

def _write_config(path, outdir, extra=()):
    lines = [
        "geometry.gamma_radius  = 1.0",
        "geometry.gamma0_radius = 0.5",
        "material.u_inf         = 3.0",
        "discretization.k       = 1",
        "discretization.h0      = 0.25",
        "discretization.levels  = 2",
        "coupling.omega         = 0.5",
        "coupling.tol           = 1e-8",
        f"coupling.n             = {N}",
        f"output.dir             = {outdir}",
    ]
    lines += list(extra)
    path.write_text("\n".join(lines) + "\n")


def test_cli_mesh_solve_study_sweep(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    _write_config(cfg, out, extra=["sweep.omegas = 0.3,0.6"])
    assert cli_main(["mesh", str(cfg)]) == 0
    assert (out / "mesh.txt").exists()
    assert (out / "mesh_report.csv").exists()
    assert cli_main(["solve", str(cfg)]) == 0
    for name in ("iterations.csv", "field.vtk", "coefficients.csv",
                 "trace_g.csv", "density_lambda.csv"):
        assert (out / name).exists()
    assert cli_main(["study", str(cfg)]) == 0
    study = (out / "study.csv").read_text().splitlines()
    assert study[0] == "level,h,R_h,err_q,err_u,rate_q,rate_u,iters,ratio"
    assert len(study) == 3
    assert cli_main(["sweep", str(cfg)]) == 0
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "omega,converged,iterations,ratio"


def test_cli_rejects_negative_omega(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling.omega = -0.5\n")
    assert cli_main(["solve", str(cfg)]) == 2
    assert "coupling.omega" in capsys.readouterr().err


def test_cli_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling.weight = 0.5\n")
    assert cli_main(["study", str(cfg)]) == 2
    assert "coupling.weight" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    assert cli_main(["mesh", str(tmp_path / "absent.cfg")]) == 2


def test_cli_runs_as_module(tmp_path):
    cfg = tmp_path / "run.cfg"
    _write_config(cfg, tmp_path / "out")
    proc = subprocess.run([sys.executable, "-m", "hdgbem", "mesh", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "proximity ratio" in proc.stdout


def test_deterministic_outputs(tmp_path):
    # identical configs produce byte-identical study tables
    outs = []
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.cfg"
        out = tmp_path / tag
        _write_config(cfg, out)
        assert cli_main(["study", str(cfg)]) == 0
        outs.append((out / "study.csv").read_bytes())
    assert outs[0] == outs[1]


def test_deterministic_sweep_outputs(tmp_path, monkeypatch):
    # identical configs produce byte-identical sweep tables, also when the
    # sweep crosses 2n trace solves and switches to the dense response
    blocks = []
    original = HDGSystem.solve_trace

    def counted(self, rhs):
        blocks.append(np.ndim(rhs) == 2)
        return original(self, rhs)
    monkeypatch.setattr(HDGSystem, "solve_trace", counted)
    outs = []
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.cfg"
        out = tmp_path / tag
        _write_config(cfg, out, extra=["sweep.omegas = 0.3,0.5,0.7,0.9"])
        assert cli_main(["sweep", str(cfg)]) == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert sum(blocks) == 2
    assert outs[0] == outs[1]


def test_deterministic_solve_outputs(tmp_path):
    # identical configs produce byte-identical solve files
    names = ("field.vtk", "coefficients.csv", "iterations.csv", "trace_g.csv",
             "density_lambda.csv")
    outs = []
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.cfg"
        out = tmp_path / tag
        _write_config(cfg, out)
        assert cli_main(["solve", str(cfg)]) == 0
        outs.append({name: (out / name).read_bytes() for name in names})
    for name in names:
        assert outs[0][name] == outs[1][name], name
