import re
import runpy
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from cohadm import admm
from cohadm.admm import AdmmSolver
from cohadm.cli import main
from cohadm.fileio import RunWriter, parse_config, parse_mesh, write_mesh
from cohadm.mesh import GAUSS_PER_EDGE, break_mesh
from cohadm.meshgen import rect_strip

CONFIG = """\
material:
  youngs_modulus: 3000.0
  poisson_ratio: 0.2
  mode: plane_stress
  thickness: 1.0
cohesive:
  sigma_c: 3.0
  delta_c: 0.02287
admm:
  alpha: 100.0
  c_primal: 0.01
  c_dual: 0.01
schedule:
  bc_set: right
  direction: x
  u_end: {u_end}
  n_steps: {n_steps}
  fixed:
    - {{set: left, components: x}}
    - {{set: pin, components: y}}
"""


@pytest.fixture
def strip_inputs(tmp_path):
    mesh = rect_strip(10.0, 5.0, 6, 4)
    mesh_path = tmp_path / "strip.mesh"
    write_mesh(mesh, mesh_path)
    config_path = tmp_path / "run.yaml"
    config_path.write_text(CONFIG.format(u_end=0.002, n_steps=5))
    return mesh_path, config_path


def test_info_counts(strip_inputs, tmp_path, capsys):
    mesh = rect_strip(1.0, 1.0, 1, 1)   # two triangles
    path = tmp_path / "two.mesh"
    write_mesh(mesh, path)
    assert main(["info", "--mesh", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 elements, 1 interfaces, 12 DOFs" in out


def test_info_missing_file(tmp_path, capsys):
    assert main(["info", "--mesh", str(tmp_path / "none.mesh")]) == 1
    assert capsys.readouterr().err.startswith("error: io:")


def test_info_non_utf8_mesh_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.mesh"
    write_mesh(rect_strip(1.0, 1.0, 1, 1), path)
    path.write_bytes(path.read_bytes().replace(b"$Triangles", b"$Triangles # \xe9"))
    assert main(["info", "--mesh", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: mesh:") and err[0].endswith("not UTF-8 text")


def test_run_missing_mesh_exits_one(strip_inputs, tmp_path, capsys):
    _, config_path = strip_inputs
    code = main(["run", "--mesh", str(tmp_path / "none.mesh"),
                 "--config", str(config_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: io:")


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def walkthrough_inputs(tmp_path, capsys, monkeypatch):
    """Run scripts/make_inputs.py into tmp_path."""
    script = SCRIPTS / "make_inputs.py"
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path)])
    runpy.run_path(str(script), run_name="__main__")
    capsys.readouterr()
    return tmp_path


def test_make_inputs_script(walkthrough_inputs, capsys):
    """The walkthrough's input generator writes files the CLI accepts."""
    assert main(["info", "--mesh", str(walkthrough_inputs / "strip.mesh")]) == 0
    assert "strip.mesh: 200 elements," in capsys.readouterr().out
    assert main(["info", "--mesh", str(walkthrough_inputs / "porous.mesh")]) == 0
    for name in ("strip.yaml", "porous.yaml"):
        parse_config(walkthrough_inputs / name)


def test_same_outputs_script(walkthrough_inputs, capsys):
    """Two runs of the walkthrough strip match; a changed cell does not."""
    same_outputs = runpy.run_path(str(SCRIPTS / "same_outputs.py"))["main"]
    mesh, config = walkthrough_inputs / "strip.mesh", walkthrough_inputs / "strip.yaml"
    runs = [walkthrough_inputs / name for name in ("a", "b", "changed")]
    for out in runs[:2]:
        assert main(["run", "--mesh", str(mesh), "--config", str(config),
                     "--out", str(out)]) == 0
    assert same_outputs([str(runs[0]), str(runs[1])]) == 0

    shutil.copytree(runs[0], runs[2])
    table = runs[2] / "stress_strain.csv"
    lines = table.read_text().splitlines(keepends=True)
    cells = lines[5].split(",")
    assert cells[2] != "0"
    cells[2] = "0"   # the reaction force of step 4
    lines[5] = ",".join(cells)
    table.write_text("".join(lines))
    capsys.readouterr()
    assert same_outputs([str(runs[0]), str(runs[2])]) == 1
    assert capsys.readouterr().out.startswith("stress_strain.csv:6: ")


def test_same_outputs_curve_tolerance(walkthrough_inputs, capsys):
    """--curve-tol names the largest stress gap in percent of the first
    run's peak, its step and both iteration totals, and exits 1 above
    the tolerance."""
    same_outputs = runpy.run_path(str(SCRIPTS / "same_outputs.py"))["main"]
    mesh, config = walkthrough_inputs / "strip.mesh", walkthrough_inputs / "strip.yaml"
    run, moved = walkthrough_inputs / "run", walkthrough_inputs / "moved"
    assert main(["run", "--mesh", str(mesh), "--config", str(config),
                 "--out", str(run)]) == 0
    shutil.copytree(run, moved)
    table = moved / "stress_strain.csv"
    lines = table.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    stress, iters = header.index("avg_stress"), header.index("iterations")
    rows = [line.split(",") for line in lines[1:]]
    peak = max(float(cells[stress]) for cells in rows)
    total = sum(int(cells[iters]) for cells in rows)
    cells = rows[3]     # step 3: stress up by 0.5% of peak, 7 more iterations
    cells[stress] = repr(float(cells[stress]) + 0.005 * peak)
    cells[iters] = str(int(cells[iters]) + 7)
    table.write_text(lines[0] + "".join(",".join(cells) for cells in rows))
    capsys.readouterr()

    assert same_outputs(["--curve-tol", "1", str(run), str(moved)]) == 0
    assert capsys.readouterr().out == (
        f"largest stress gap 0.5% of peak at step 3; "
        f"iterations {total} / {total + 7}\n"
    )
    assert same_outputs(["--curve-tol", "0.4", str(run), str(moved)]) == 1
    assert same_outputs([str(run), str(moved)]) == 1
    (moved / "stress_strain.csv").write_text(lines[0] + "".join(lines[1:3]))
    capsys.readouterr()
    assert same_outputs(["--curve-tol", "1", str(run), str(moved)]) == 1
    assert "do not have the same steps" in capsys.readouterr().out


def test_solve_kernels_script(walkthrough_inputs, capsys):
    """The kernel timer names the factor size, both kernels' medians, the
    kernel the solver picks for the walkthrough strip, and the factor
    time on the solver's panel size and on scipy's default."""
    solve_kernels = runpy.run_path(str(SCRIPTS / "solve_kernels.py"))["main"]
    mesh, config = walkthrough_inputs / "strip.mesh", walkthrough_inputs / "strip.yaml"
    assert solve_kernels([str(mesh), str(config), "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert re.fullmatch(r"nnz [1-9][0-9]*", lines[0])
    for line, kernel in zip(lines[1:3], ("supernodal", "transposed")):
        assert re.fullmatch(
            rf"{kernel} [0-9.e+-]+ ms \(trans=[NT], median of 2 rounds\)", line
        )
    assert lines[3] == "picks transposed (SMALL_FACTOR_NNZ 6000000)"
    for line, panel in zip(lines[4:], (8, 20)):
        assert re.fullmatch(
            rf"panel {panel} [0-9.e+-]+ s \(splu CPU time, median of 2 rounds\)",
            line,
        )


def test_run_produces_outputs(strip_inputs, tmp_path, capsys):
    mesh_path, config_path = strip_inputs
    out = tmp_path / "res"
    code = main([
        "run", "--mesh", str(mesh_path), "--config", str(config_path),
        "--out", str(out),
    ])
    assert code == 0
    for name in ("stress_strain.csv", "crack_field.csv", "iterations.log", "seed.log"):
        assert (out / name).exists()
    assert "run complete" in capsys.readouterr().out
    seed = (out / "seed.log").read_text()
    assert re.search(r"mesh sha256 [0-9a-f]{64}", seed)
    assert "admm relaxation 1.5\nadmm anderson_window 5\n" in seed


def test_run_no_extrapolation_matches_default(strip_inputs, tmp_path):
    """Stress columns agree within 2 percent of peak with and without."""
    mesh_path, config_path = strip_inputs
    config_path.write_text(CONFIG.format(u_end=0.015, n_steps=40))
    off_path = tmp_path / "off.yaml"
    off_path.write_text(
        CONFIG.format(u_end=0.015, n_steps=40) + "policy: {extrapolation: false}\n"
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(out_a)]) == 0
    assert main(["run", "--mesh", str(mesh_path), "--config", str(off_path),
                 "--out", str(out_b)]) == 0

    def stresses(path):
        lines = (path / "stress_strain.csv").read_text().splitlines()[1:]
        return np.array([float(l.split(",")[3]) for l in lines])

    sa, sb = stresses(out_a), stresses(out_b)
    peak = max(sa.max(), sb.max())
    assert np.abs(sa - sb).max() <= 0.02 * peak
    # extrapolation actually engaged in the default run
    flags_a = [l.split(",")[6] for l in (out_a / "stress_strain.csv").read_text().splitlines()[1:]]
    assert "true" in flags_a


def test_run_bad_config_exits_one(strip_inputs, tmp_path, capsys):
    mesh_path, _ = strip_inputs
    bad = tmp_path / "bad.yaml"
    bad.write_text("material: {youngs_modulus: -3.0}\n")
    code = main(["run", "--mesh", str(mesh_path), "--config", str(bad),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config:")


def test_run_repeated_config_key_exits_one(strip_inputs, tmp_path, capsys):
    mesh_path, config_path = strip_inputs
    text = config_path.read_text()
    config_path.write_text(text.replace("alpha: 100.0", "alpha: 100.0\n  alpha: 60.0"))
    code = main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(tmp_path / "dup")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: config: {config_path}:11: repeated key 'alpha'"]


def test_run_non_finite_tolerance_exits_one(strip_inputs, tmp_path, capsys):
    mesh_path, config_path = strip_inputs
    text = config_path.read_text().replace("c_primal: 0.01", "c_primal: .inf")
    config_path.write_text(text)
    code = main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(tmp_path / "inf")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "admm.c_primal: must be finite" in err


def test_run_orphan_driven_set_exits_one(strip_inputs, tmp_path, capsys):
    """A driven set whose only node belongs to no triangle is a config error."""
    _, config_path = strip_inputs
    mesh = rect_strip(10.0, 5.0, 6, 4)
    mesh.nodes = np.vstack([mesh.nodes, [10.0, 2.5]])
    mesh.boundary_sets["right"] = np.array([mesh.n_nodes - 1])
    mesh_path = tmp_path / "orphan.mesh"
    write_mesh(mesh, mesh_path)
    code = main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(tmp_path / "orphan")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "boundary set 'right' has no nodes on any triangle" in err


def test_run_nonconvergence_exits_two(strip_inputs, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(admm, "MAX_ITERS", 4)
    mesh_path, config_path = strip_inputs
    text = config_path.read_text().replace("c_primal: 0.01", "c_primal: 1.0e-9")
    text = text.replace("c_dual: 0.01", "c_dual: 1.0e-9")
    config_path.write_text(text)
    code = main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(tmp_path / "nc")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: convergence:")
    # partial rows were flushed before the failure
    assert (tmp_path / "nc" / "stress_strain.csv").exists()


def test_failed_run_writes_its_fields(strip_inputs, tmp_path, capsys, monkeypatch):
    """A run that fails to converge still writes crack_field.csv, whole,
    for its last converged step."""
    monkeypatch.setattr(admm, "MAX_ITERS", 1)
    mesh_path, config_path = strip_inputs
    config_path.write_text(config_path.read_text() + "output:\n  per_step_fields: true\n")
    out = tmp_path / "nc"
    code = main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: convergence:")
    last = int((out / "stress_strain.csv").read_text().splitlines()[-1].split(",")[0])
    field = (out / "crack_field.csv").read_bytes()
    assert field == (out / f"crack_field_step{last:04d}.csv").read_bytes()
    n_points = GAUSS_PER_EDGE * len(break_mesh(parse_mesh(mesh_path)).interfaces)
    assert field.count(b"\n") == 1 + n_points


def test_run_blowup_exits_two(strip_inputs, tmp_path, capsys, monkeypatch):
    """A diverging step exits as a non-converged run does, with the rows
    of the steps before it flushed."""
    calls = []

    def growing(self, au, y, local):
        calls.append(None)
        return np.full_like(au, 1e-3 * 10.0 ** len(calls))

    monkeypatch.setattr(AdmmSolver, "delta_update", growing)
    mesh_path, config_path = strip_inputs
    code = main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(tmp_path / "nc")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: convergence: step 1 diverged at iteration ")
    assert len(calls) <= 20
    rows = (tmp_path / "nc" / "stress_strain.csv").read_text().splitlines()
    assert len(rows) == 2          # the header and step 0


def test_run_io_error_exits_one(strip_inputs, tmp_path, capsys, monkeypatch):
    mesh_path, config_path = strip_inputs

    def full_disk(self, row, state, delta_max):
        raise OSError("No space left on device")

    closed = []
    real_close = RunWriter.close

    def close(self):
        real_close(self)
        closed.append(self)

    monkeypatch.setattr(RunWriter, "on_step", full_disk)
    monkeypatch.setattr(RunWriter, "close", close)
    code = main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(tmp_path / "io")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: io: No space left on device")
    assert closed


def test_unknown_flag_exits_64(capsys):
    assert main(["run", "--bogus"]) == 64
    assert "error: usage:" in capsys.readouterr().err


def test_no_extrapolation_flag_is_gone(strip_inputs, tmp_path, capsys):
    """policy.extrapolation in the config is the one switch."""
    mesh_path, config_path = strip_inputs
    assert main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(tmp_path / "x"), "--no-extrapolation"]) == 64
    assert "error: usage:" in capsys.readouterr().err


def test_unknown_command_exits_64(capsys):
    assert main(["frobnicate"]) == 64


def test_local_oracle_reports_gap(capsys):
    assert main(["local-oracle", "--samples", "300", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    match = re.search(r"max_gap=([0-9.e+-]+)", out)
    assert match is not None
    assert float(match.group(1)) < 1e-8


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_local_oracle_rejects_non_positive_samples(samples, capsys):
    assert main(["local-oracle", "--samples", samples]) == 64
    err = capsys.readouterr().err
    assert "error: usage:" in err
    assert f"must be at least 1, got {samples}" in err
