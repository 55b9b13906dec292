import re

import numpy as np
import pytest

from cohadm.cli import main
from cohadm.fileio import RunWriter, write_mesh
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
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(out_a)]) == 0
    assert main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(out_b), "--no-extrapolation"]) == 0

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


def test_run_nonconvergence_exits_two(strip_inputs, tmp_path, capsys):
    mesh_path, config_path = strip_inputs
    text = config_path.read_text().replace("c_primal: 0.01", "c_primal: 1.0e-9")
    text = text.replace("c_dual: 0.01", "c_dual: 1.0e-9")
    text = text.replace("alpha: 100.0", "alpha: 100.0\n  max_iters: 4")
    config_path.write_text(text)
    code = main(["run", "--mesh", str(mesh_path), "--config", str(config_path),
                 "--out", str(tmp_path / "nc")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: convergence:")
    # partial rows were flushed before the failure
    assert (tmp_path / "nc" / "stress_strain.csv").exists()


def test_run_io_error_exits_one(strip_inputs, tmp_path, capsys, monkeypatch):
    mesh_path, config_path = strip_inputs

    def full_disk(self, row, state, cohesive_state):
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
