import os
import pathlib
import re
import runpy
import subprocess
import sys

import numpy as np
import pytest

from hdgbem import (
    CouplingConfig,
    DimensionError,
    DivergenceError,
    ManufacturedCase,
    assemble_layer_operators,
    convergence_study,
    manufactured_case,
    omega_sweep,
    run_fixed_point,
    save_mesh,
    setup_level,
    write_study_csv,
)
import hdgbem
from hdgbem import cli, harness
from hdgbem.cli import main as cli_main
from hdgbem.export import write_sweep_csv
from conftest import ellipse_curve
from reference import pde_residual

N = 16


# ---------------------------------------------------------------------------
# manufactured cases
# ---------------------------------------------------------------------------

def test_dipole_point_value():
    case = manufactured_case("dipole")
    assert case.u(np.array([[2.0, 0.0]]))[0] == pytest.approx(0.5)


def test_dipole_interface_traces():
    case = manufactured_case("dipole")
    ops = assemble_layer_operators(case.gamma, N)
    g = case.g_exact(ops)
    lam = case.lam_exact(ops)
    assert g.cos[1] == pytest.approx(1.0, abs=1e-13)
    assert lam.cos[1] == pytest.approx(-1.0, abs=1e-13)
    assert lam.cos[0] == 0.0                      # mean-zero density
    assert abs(ops.moments @ lam.coefficients()) < 1e-13


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
    write_study_csv(rep, path)
    rows = path.read_text().splitlines()
    assert rows[0] == "level,h,R_h,err_q,err_u,rate_q,rate_u,iters,ratio"
    assert len(rows) == 3


def test_fitted_coupled_study_converges_at_order_k_plus_1():
    # the outer chord nodes read the interface datum across their O(h^2)
    # sagitta through transfer paths; read at the closest curve point with no
    # path, rate_u was -0.73 (err_u 3.9e-4 -> 6.5e-4)
    case = manufactured_case("dipole-plus-constant", degree=2)
    rep = convergence_study(case, 2, [0.1, 0.05], n=32, fitted=True,
                            config=CouplingConfig(omega=0.5, tol=1e-10))
    assert all(row["converged"] for row in rep.rows)
    assert rep.rate("err_u", 1) >= 2.7


@pytest.fixture(scope="module")
def ellipse_study():
    # the dipole-plus-constant fields with a 1.3 x 0.9 elliptic interface
    gamma = ellipse_curve(1.3, 0.9)
    base = manufactured_case("dipole-plus-constant")
    case = ManufacturedCase("ellipse", base.kappa, base.f, base.u, base.q,
                            base.grad_u, base.u_inf, gamma, base.gamma0,
                            supports_coupling=True)
    return convergence_study(case, 1, [0.1, 0.05], n=32)


def test_study_on_ellipse_reports_finite_errors(ellipse_study):
    for row in ellipse_study.rows:
        assert row["converged"]
        for key in ("err_q", "err_u", "err_g", "err_uinf"):
            assert np.isfinite(row[key]), key


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: interface solve uses ½I−K")
def test_study_on_ellipse_converges_at_order_k_plus_1(ellipse_study):
    assert ellipse_study.rate("err_u", 1) >= 2 - 0.3


def test_omega_sweep_records_divergence():
    case = manufactured_case("dipole")
    rows, best = omega_sweep(setup_level(case, 0.18, 1, n=N), case, [0.3, 0.6, 0.9],
                             tol=1e-8, max_iterations=40)
    assert [r["omega"] for r in rows] == [0.3, 0.6, 0.9]
    assert all(np.isfinite(r["ratio"]) and r["ratio"] > 0 for r in rows)
    assert any(r["converged"] and r["ratio"] < 1 for r in rows)
    assert not rows[-1]["converged"]
    assert best is not None and best["converged"]


def test_omega_sweep_refuses_empty_weights(monkeypatch):
    case = manufactured_case("dipole")
    bundle = setup_level(case, 0.25, 1, n=N)

    def refuse(*args, **kwargs):
        raise AssertionError("omega_sweep ran a weight")

    monkeypatch.setattr(harness, "run_fixed_point", refuse)
    with pytest.raises(ValueError, match="at least one relaxation weight"):
        omega_sweep(bundle, case, [])


def test_omega_sweep_refuses_bad_weight_before_any_run(monkeypatch):
    # the refused weight comes last, so a sweep that builds each config
    # just before its run would first pay two coupled solves
    case = manufactured_case("dipole")
    bundle = setup_level(case, 0.25, 1, n=N)
    calls = []
    real = harness.run_fixed_point

    def counted(*args, **kwargs):
        calls.append(kwargs["config"].omega)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_fixed_point", counted)
    with pytest.raises(ValueError, match="relaxation weight must lie in"):
        omega_sweep(bundle, case, [0.5, 0.3, 1.5])
    assert calls == []


@pytest.mark.parametrize("hs", [[0.2, 0.25], [0.2, 0.2], [], [0.2, np.nan], [0.2, -0.1]],
                         ids=["rising", "repeated", "empty", "nan", "negative"])
def test_study_refuses_bad_hs_before_any_level(monkeypatch, hs):
    # rising h was refused only after both levels were built and solved,
    # no h at all gave an empty report, and a nan or negative second h
    # passed the ordering test and failed only after level 0 was solved
    calls = []
    real = harness.setup_level

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "setup_level", counted)
    with pytest.raises(ValueError, match="strictly decreasing h"):
        convergence_study(manufactured_case("dipole"), 1, hs)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2.5])
def test_setup_level_refuses_a_bad_density_degree_before_the_mesh(monkeypatch, n):
    # the layer operators were built last, after the mesh, the map and the
    # trace system
    calls = []
    monkeypatch.setattr(harness, "build_annulus_mesh",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(DimensionError, match=f"whole number >= 2, got {n}"):
        setup_level(manufactured_case("dipole"), 0.025, 2, n=n)
    assert calls == []


def _overflowing_level():
    # omega = 0.9 grows the tiny CLI level's iterate by about 1.4 per step:
    # after some 1050 steps the squared coefficients behind the update and
    # trace norms overflow, and inf <= tol * inf passed as convergence
    case = manufactured_case("dipole-plus-constant")
    return case, setup_level(case, 0.25, 1, n=N)


def test_overflowing_run_raises_divergence():
    case, bundle = _overflowing_level()
    with pytest.raises(DivergenceError, match="norm is not finite at iteration 1055") as err:
        run_fixed_point(bundle.system, bundle.ops, f=case.f, u0=case.u0,
                        config=CouplingConfig(omega=0.9, max_iterations=4000))
    state = err.value.state
    assert not state.converged
    assert state.iteration == len(state.history) == len(state.u_inf_history) == 1054
    assert np.all(np.isfinite(state.history)) and state.history[-1] > 1e150


def test_overflowing_sweep_row_is_unconverged_with_a_finite_ratio():
    case, bundle = _overflowing_level()
    rows, best = omega_sweep(bundle, case, [0.5, 0.9], max_iterations=4000)
    assert rows[0]["converged"] and best is rows[0]
    assert not rows[1]["converged"] and rows[1]["iterations"] == 1054
    assert 1.0 < rows[1]["ratio"] < np.inf


def test_cli_solve_of_an_overflowing_run_exits_1(tmp_path, capsys):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    _write_config(cfg, out, extra=["coupling.omega = 0.9", "coupling.max_iterations = 4000"])
    assert cli_main(["solve", str(cfg)]) == 1
    assert "not finite at iteration 1055" in capsys.readouterr().err
    assert len((out / "iterations.csv").read_text().splitlines()) == 1 + 1054
    assert not (out / "field.vtk").exists()


@pytest.mark.parametrize("degree", [0, 1.5, -1])
def test_polynomial_patch_refuses_a_degree_that_is_not_whole_and_positive(degree):
    # degrees 0 and 1.5 built u = x^2 and labelled it degree-0 and degree-1.5
    with pytest.raises(ValueError, match=f"whole number >= 1, got {degree}"):
        manufactured_case("polynomial-patch", degree=degree)


@pytest.mark.parametrize("degree", [2, 3, 2.0])
def test_polynomial_patch_above_degree_1_is_the_quadratic(degree):
    case = manufactured_case("polynomial-patch", degree=degree)
    assert case.f == -2.0 and case.description == "global degree-2 polynomial"


def test_negative_degree_is_refused():
    with pytest.raises(DimensionError, match="degree must be at least 0, got -1"):
        setup_level(manufactured_case("dipole"), 0.2, -1)


@pytest.mark.parametrize("k", [0.5, 1.5])
def test_fractional_degree_is_refused(k):
    # the edge rule behind the boundary map truncated k to the degree below
    with pytest.raises(DimensionError, match=f"degree must be a whole number, got {k}"):
        setup_level(manufactured_case("dipole"), 0.2, k)


def test_diverged_study_level_reports_its_iterations_and_ratio():
    # a level that hits the cap records the iterations it ran and their
    # contraction estimate, as the sweep does for the same run
    case = manufactured_case("dipole-plus-constant")
    rep = convergence_study(case, 1, [0.2], n=8,
                            config=CouplingConfig(omega=0.95, max_iterations=25))
    rows, _ = omega_sweep(setup_level(case, 0.2, 1, n=8), case, [0.95],
                          max_iterations=25)
    row = rep.rows[0]
    assert not row["converged"] and not rows[0]["converged"]
    assert row["iters"] == rows[0]["iterations"] == 25
    assert row["ratio"] == rows[0]["ratio"] > 1.0
    assert np.isnan(row["err_u"]) and np.isnan(row["err_uinf"])
    assert "   25  1.537" in rep.summary()


# ---------------------------------------------------------------------------
# command-line driver
# ---------------------------------------------------------------------------

def _write_config(path, outdir, extra=()):
    lines = [
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


def test_cli_sweep_honours_fitted(tmp_path):
    # the sweep runs on the level its config describes, fitted or not
    tables = {}
    for fitted in ("true", "false"):
        cfg, out = tmp_path / f"{fitted}.cfg", tmp_path / fitted
        _write_config(cfg, out, extra=["sweep.omegas = 0.3,0.6",
                                       f"geometry.fitted = {fitted}"])
        assert cli_main(["sweep", str(cfg)]) == 0
        tables[fitted] = (out / "sweep.csv").read_bytes()
    case = manufactured_case("dipole-plus-constant", degree=1, constant=3.0)
    rows, _ = omega_sweep(setup_level(case, 0.25, 1, n=N, fitted=True), case, [0.3, 0.6])
    write_sweep_csv(rows, tmp_path / "expected.csv")
    assert tables["true"] == (tmp_path / "expected.csv").read_bytes()
    assert tables["true"] != tables["false"]


def test_cli_mesh_builds_only_geometry(tmp_path, monkeypatch):
    # the mesh command writes setup_level's mesh and proximity report
    # without assembling the trace system or the layer operators
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    _write_config(cfg, out, extra=["discretization.k = 2"])
    bundle = setup_level(manufactured_case("dipole-plus-constant"), 0.25, 2, n=N)

    def refuse(*args, **kwargs):
        raise AssertionError("hdgbem mesh assembled a solver")

    monkeypatch.setattr(harness, "build_system", refuse)
    monkeypatch.setattr(harness, "assemble_layer_operators", refuse)
    assert cli_main(["mesh", str(cfg)]) == 0
    save_mesh(bundle.mesh, tmp_path / "expected.txt")
    assert (out / "mesh.txt").read_bytes() == (tmp_path / "expected.txt").read_bytes()
    rep, mesh = bundle.proximity, bundle.mesh
    assert (out / "mesh_report.csv").read_text().splitlines()[1] == (
        f"{0.25:.10e},{mesh.h:.10e},{len(mesh.elements)},{rep.R_h:.10e},"
        f"{rep.normal_deviation:.10e}")


def test_cli_rejects_negative_omega(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling.omega = -0.5\n")
    assert cli_main(["solve", str(cfg)]) == 2
    assert "coupling.omega" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["", " , "], ids=["empty", "blank-entries"])
def test_cli_rejects_empty_sweep_weights(value, tmp_path, capsys):
    # a sweep over no weight would build a level and write a header-only table
    cfg, out = tmp_path / "bad.cfg", tmp_path / "out"
    _write_config(cfg, out, extra=[f"sweep.omegas = {value}"])
    assert cli_main(["sweep", str(cfg)]) == 2
    assert "config error (sweep.omegas)" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("line", ["coupling.tol = inf", "coupling.tol = nan",
                                  "discretization.h0 = nan",
                                  "discretization.h0 = inf"])
def test_cli_rejects_non_finite_numbers(line, tmp_path, capsys):
    # a non-finite number is a configuration error: tol = inf would accept
    # the first update as converged, and h0 = nan cannot size a mesh
    cfg = tmp_path / "bad.cfg"
    _write_config(cfg, tmp_path / "out", extra=[line])
    assert cli_main(["solve", str(cfg)]) == 2
    assert f"{line.split()[0]} must be finite" in capsys.readouterr().err


def test_cli_refuses_a_tiny_h0(tmp_path, capsys):
    # a mesh too large for memory is a solver failure, not a traceback
    cfg = tmp_path / "tiny.cfg"
    _write_config(cfg, tmp_path / "out", extra=["discretization.h0 = 1e-300"])
    assert cli_main(["solve", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"solver failure: target_h=1e-300 needs about .* mesh vertices", err)


@pytest.mark.parametrize("outdir", ["", "a-file"], ids=["empty", "file"])
def test_cli_refuses_an_unusable_output_dir_before_any_work(outdir, tmp_path, monkeypatch,
                                                            capsys):
    # the study ran every level, then os.makedirs raised its own
    # FileNotFoundError or FileExistsError with exit status 1
    def refuse(*args, **kwargs):
        raise AssertionError("hdgbem study ran before checking output.dir")

    monkeypatch.setattr(cli, "convergence_study", refuse)
    (tmp_path / "a-file").write_text("")
    cfg = tmp_path / "run.cfg"
    _write_config(cfg, tmp_path / outdir if outdir else "")
    assert cli_main(["study", str(cfg)]) == 2
    assert "config error (output.dir): cannot create output directory" in (
        capsys.readouterr().err)


def test_cli_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling.weight = 0.5\n")
    assert cli_main(["study", str(cfg)]) == 2
    assert "coupling.weight" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["geometry.gamma_radius", "geometry.gamma0_radius"])
def test_cli_rejects_interface_radius_keys(key, tmp_path, capsys):
    # the manufactured data fix both radii, so no key sets them
    cfg = tmp_path / "bad.cfg"
    _write_config(cfg, tmp_path / "out", extra=[f"{key} = 1.0"])
    assert cli_main(["solve", str(cfg)]) == 2
    assert f"unknown configuration key {key!r}" in capsys.readouterr().err


def test_cli_bump_case_takes_configured_u_inf(tmp_path, capsys):
    cfg = tmp_path / "bump.cfg"
    _write_config(cfg, tmp_path / "out",
                  extra=["material.kappa = bump", "material.u_inf = 5.0"])
    assert cli_main(["solve", str(cfg)]) == 0
    found = re.search(r"u_inf = (\S+) \(exact (\S+)\)", capsys.readouterr().out)
    assert float(found.group(2)) == 5.0
    assert float(found.group(1)) == pytest.approx(5.0, abs=1e-2)


def test_cli_missing_config_file(tmp_path, capsys):
    assert cli_main(["mesh", str(tmp_path / "absent.cfg")]) == 2


def test_cli_runs_as_module(tmp_path):
    cfg = tmp_path / "run.cfg"
    _write_config(cfg, tmp_path / "out")
    # the child imports the same hdgbem as this test, installed or not
    src = str(pathlib.Path(hdgbem.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "hdgbem", "mesh", str(cfg)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "proximity ratio" in proc.stdout
    assert (tmp_path / "out" / "mesh.txt").exists()


# every file each command writes
COMMAND_OUTPUTS = {
    "mesh": ("mesh.txt", "mesh_report.csv"),
    "solve": ("iterations.csv", "field.vtk", "coefficients.csv", "trace_g.csv",
              "density_lambda.csv"),
    "study": ("study.csv", "study_full.csv"),
    "sweep": ("sweep.csv",),
}


@pytest.mark.parametrize("command", sorted(COMMAND_OUTPUTS))
def test_deterministic_outputs(tmp_path, command):
    # identical configs produce byte-identical files, and no others
    outs = []
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.cfg"
        out = tmp_path / tag
        _write_config(cfg, out, extra=["sweep.omegas = 0.3,0.5,0.7,0.9"])
        assert cli_main([command, str(cfg)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(outs[0]) == sorted(COMMAND_OUTPUTS[command])
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


# 01 runs in test_unfitted_mesh_demo, with assertions on its table
@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")
                                        if not p.name.startswith("01_")))
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_unfitted_mesh_demo(tmp_path, monkeypatch, capsys):
    # the longest transfer segment must shrink at every refinement, and the
    # finest mesh is written
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "01_unfitted_mesh.py"), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.strip()[:1].isdigit()]
    assert [float(r[0]) for r in rows] == [0.2, 0.1, 0.05, 0.025]
    lengths = [float(r[-1]) for r in rows]
    assert all(fine < coarse for coarse, fine in zip(lengths, lengths[1:]))
    assert (tmp_path / "annulus_mesh.txt").exists()
