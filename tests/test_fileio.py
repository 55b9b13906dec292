import logging

from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from cohadm import fileio
from cohadm.admm import AdmmConfig
from cohadm.cohesive import CohesiveParams, point_status
from cohadm.driver import ExtrapolationPolicy, LoadSchedule, StepRow, run_quasistatic
from cohadm.elasticity import Material
from cohadm.errors import ConfigError, MeshParseError
from cohadm.fileio import (
    CRACK_FIELD_HEADER,
    STRESS_STRAIN_HEADER,
    RunWriter,
    format_step_row,
    parse_config,
    parse_mesh,
    write_crack_field,
    write_mesh,
)
from cohadm.mesh import InputMesh
from cohadm.meshgen import rect_strip

TWO_TRI = """\
# two-triangle unit square
$Nodes
4
1 0.0 0.0
2 1.0 0.0
3 1.0 1.0
4 0.0 1.0
$Triangles
2
1 1 2 3
2 1 3 4
$NodeSets
left 1 4

right 2 3

pin 1
"""

CONFIG = """\
material:
  youngs_modulus: 3000.0
  poisson_ratio: 0.2
  mode: plane_stress
  thickness: 1.0
cohesive:
  sigma_c: 3.0
  delta_c: 0.02287
  beta: 1.0
admm:
  alpha: 100.0
  c_primal: 0.01
  c_dual: 0.01
schedule:
  bc_set: right
  direction: x
  u_start: 0.0
  u_end: 0.002
  n_steps: 4
  fixed:
    - {set: left, components: x}
    - {set: pin, components: y}
policy:
  extrapolation: true
  quality_threshold: 2.0
output:
  directory: out
  per_step_fields: false
"""


@pytest.fixture
def mesh_file(tmp_path):
    path = tmp_path / "two.mesh"
    path.write_text(TWO_TRI)
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG)
    return path


class TestMeshParsing:
    def test_fixture_counts(self, mesh_file):
        mesh = parse_mesh(mesh_file)
        assert mesh.n_nodes == 4
        assert mesh.n_triangles == 2
        assert set(mesh.boundary_sets) == {"left", "right", "pin"}
        assert np.array_equal(mesh.boundary_sets["left"], [0, 3])
        from cohadm.mesh import break_mesh

        assert len(break_mesh(mesh).interfaces) == 1

    def test_dangling_triangle_index_line_number(self, tmp_path):
        bad = TWO_TRI.replace("1 1 2 3", "1 1 2 99")
        path = tmp_path / "bad.mesh"
        path.write_text(bad)
        with pytest.raises(MeshParseError) as err:
            parse_mesh(path)
        assert err.value.line == 10   # the offending triangle row
        assert "references node 99 of 4" in str(err.value)

    def test_clockwise_reoriented_with_warning(self, tmp_path, caplog):
        flipped = TWO_TRI.replace("1 1 2 3", "1 1 3 2")
        path = tmp_path / "cw.mesh"
        path.write_text(flipped)
        with caplog.at_level(logging.WARNING):
            mesh = parse_mesh(path)
        assert "re-oriented 1 clockwise" in caplog.text
        assert mesh.triangles[0].tolist() == [0, 1, 2]

    def test_duplicate_id_rejected(self, tmp_path):
        bad = TWO_TRI.replace("2 1.0 0.0", "1 1.0 0.0")
        path = tmp_path / "dup.mesh"
        path.write_text(bad)
        with pytest.raises(MeshParseError, match="contiguous"):
            parse_mesh(path)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "nosec.mesh"
        path.write_text("$Nodes\n0\n")
        with pytest.raises(MeshParseError, match=r"\$Triangles"):
            parse_mesh(path)

    def test_truncated_nodes_rejected(self, tmp_path):
        path = tmp_path / "trunc.mesh"
        path.write_text("$Nodes\n3\n1 0.0 0.0\n")
        with pytest.raises(MeshParseError, match="truncated"):
            parse_mesh(path)

    def test_bad_count_rejected(self, tmp_path):
        path = tmp_path / "count.mesh"
        for text, message in [
            ("$Nodes\nfour\n", "bad node count 'four'"),
            ("$Nodes\n", "missing node count"),
            ("$Nodes\n-1\n", "negative node count"),
            (TWO_TRI.replace("$Triangles\n2\n", "$Triangles\n-2\n"),
             "negative triangle count"),
        ]:
            path.write_text(text)
            with pytest.raises(MeshParseError, match=message):
                parse_mesh(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [("3 1.0 1.0", "3 one 1.0", "bad node row"),
         ("2 1 3 4", "2 1 3 four", "bad triangle row")],
        ids=["node", "triangle"],
    )
    def test_non_numeric_row_rejected(self, tmp_path, old, new, message):
        path = tmp_path / "row.mesh"
        path.write_text(TWO_TRI.replace(old, new))
        with pytest.raises(MeshParseError, match=message):
            parse_mesh(path)

    def test_duplicate_node_set_rejected(self, tmp_path):
        path = tmp_path / "sets.mesh"
        path.write_text(TWO_TRI + "\nleft 2\n")
        with pytest.raises(MeshParseError, match="duplicate node set 'left'"):
            parse_mesh(path)

    def test_non_finite_coordinate_rejected(self, tmp_path):
        path = tmp_path / "nan.mesh"
        path.write_text(TWO_TRI.replace("3 1.0 1.0", "3 nan 1.0"))
        with pytest.raises(MeshParseError, match="node 2 has a non-finite"):
            parse_mesh(path)

    def test_node_set_out_of_range(self, tmp_path):
        bad = TWO_TRI.replace("pin 1", "pin 17")
        path = tmp_path / "set.mesh"
        path.write_text(bad)
        with pytest.raises(MeshParseError, match="out of range"):
            parse_mesh(path)

    def test_node_set_spans_lines(self, tmp_path):
        text = TWO_TRI.replace("left 1 4", "left 1\n  4")
        path = tmp_path / "span.mesh"
        path.write_text(text)
        mesh = parse_mesh(path)
        assert np.array_equal(mesh.boundary_sets["left"], [0, 3])

    def test_round_trip_bit_exact(self, tmp_path):
        mesh = rect_strip(np.pi, np.e, 3, 2)
        path = tmp_path / "rt.mesh"
        write_mesh(mesh, path)
        back = parse_mesh(path)
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.triangles, mesh.triangles)
        for name in mesh.boundary_sets:
            assert np.array_equal(back.boundary_sets[name], mesh.boundary_sets[name])

    def test_irregular_rows_read_as_the_plain_file(self, tmp_path):
        """Blank lines, comments, tabs and repeated spaces inside a section
        read the same as the plain file."""
        mesh = rect_strip(np.pi, np.e, 3, 2)
        plain = tmp_path / "plain.mesh"
        write_mesh(mesh, plain)
        lines = plain.read_text().splitlines()
        lines[3] = lines[3].replace(" ", "\t") + "  # a comment"
        lines[4] = "  " + lines[4].replace(" ", "   ")
        lines.insert(5, "")
        irregular = tmp_path / "irregular.mesh"
        irregular.write_text("\n".join(lines) + "\n")
        back, want = parse_mesh(irregular), parse_mesh(plain)
        assert back.nodes.tobytes() == want.nodes.tobytes()
        assert back.triangles.tobytes() == want.triangles.tobytes()
        assert back.boundary_sets.keys() == want.boundary_sets.keys()

    def test_blank_and_comment_lines_change_no_outcome(self, tmp_path):
        """Blank and comment-only lines between the rows of $Nodes and
        $Triangles change the outcome of no single-line deletion: the mesh
        reads the same, or fails with the same message."""
        lines = TWO_TRI.splitlines()
        sets_at = lines.index("$NodeSets")

        def outcome(name, file_lines):
            path = tmp_path / name
            path.write_text("\n".join(file_lines) + "\n")
            try:
                mesh = parse_mesh(path)
            except MeshParseError as exc:
                return exc.message
            sets = {k: v.tobytes() for k, v in mesh.boundary_sets.items()}
            return mesh.nodes.tobytes(), mesh.triangles.tobytes(), sets

        for k in range(len(lines)):
            head = [line for i, line in enumerate(lines[:sets_at]) if i != k]
            tail = [line for i, line in enumerate(lines) if i >= sets_at and i != k]
            padded = [text for line in head for text in (line, "", "  # note")]
            assert outcome(f"p{k}.mesh", padded + tail) == outcome(
                f"m{k}.mesh", head + tail
            ), f"deleting line {k + 1}"

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("$Nodes\n10000000000000\n1 0.0 0.0\n", 4, "truncated node section"),
            ("$Nodes\n" + "1" * 30 + "\n1 0.0 0.0\n2 1.0 0.0\n", 5,
             "truncated node section"),
            (TWO_TRI.replace("2 1 3 4", "2 1 3 " + "9" * 30), 11, "bad triangle row"),
            (TWO_TRI.replace("pin 1", "pin " + "7" * 30), 17, "bad node id"),
        ],
        ids=["count_1e13", "count_30_digits", "triangle_node_30_digits",
             "set_id_30_digits"],
    )
    def test_oversized_number_rejected(self, tmp_path, text, line, message):
        """A count beyond the rows left is a truncated section, and a value
        beyond int64 a bad row or id; none allocates by the count."""
        path = tmp_path / "big.mesh"
        path.write_text(text)
        with pytest.raises(MeshParseError, match=message) as err:
            parse_mesh(path)
        assert err.value.line == line

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("pad", [0, 5000])
    def test_non_utf8_names_its_line(self, tmp_path, newline, pad):
        """The line holding the first byte that is not UTF-8, counted with
        every line break; 5000 comment lines put it past any read buffer."""
        text = "# pad\n" * pad + TWO_TRI
        data = text.replace("\n", newline).encode()
        path = tmp_path / "latin1.mesh"
        path.write_bytes(data.replace(b"3 1.0 1.0", b"3 1.0 1.0 # caf\xe9"))
        with pytest.raises(MeshParseError, match="not UTF-8 text") as err:
            parse_mesh(path)
        assert err.value.line == pad + 6

    @pytest.mark.parametrize("name", ["a#b", "two words", ""])
    def test_unreadable_set_name_refused(self, tmp_path, name):
        """'a#b' would read back as an empty set 'a'; 'two words' would
        not parse at all."""
        strip = rect_strip(1.0, 1.0, 1, 1)
        mesh = InputMesh(nodes=strip.nodes, triangles=strip.triangles,
                         boundary_sets={name: [0, 3]})
        path = tmp_path / "names.mesh"
        with pytest.raises(ValueError, match="cannot be written"):
            write_mesh(mesh, path)
        assert not path.exists()

    @given(text=st.text(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_parser_totality(self, tmp_path_factory, text):
        """Arbitrary input never crashes: structured error or valid mesh."""
        path = tmp_path_factory.mktemp("fuzz") / "fuzz.mesh"
        path.write_text(text, encoding="utf-8")
        try:
            parse_mesh(path)
        except MeshParseError:
            pass

    @given(data=st.binary(max_size=300))
    @example(data=b"$Nodes\n10000000000000\n")
    @example(data=b"$Nodes\n" + b"1" * 30 + b"\n")
    @example(data=b"$Nodes\n4\n$Triangles\n10000000000000\n")
    @settings(max_examples=150, deadline=None)
    def test_parser_totality_over_bytes(self, tmp_path_factory, data):
        """Arbitrary bytes, UTF-8 or not, fail cleanly or parse."""
        path = tmp_path_factory.mktemp("fuzz") / "fuzz.mesh"
        path.write_bytes(data)
        try:
            parse_mesh(path)
        except MeshParseError:
            pass

    def test_mutated_fixture_totality(self, tmp_path):
        """Every single-line deletion of a valid file fails cleanly or parses."""
        lines = TWO_TRI.splitlines()
        for k in range(len(lines)):
            mutated = "\n".join(lines[:k] + lines[k + 1 :])
            path = tmp_path / f"m{k}.mesh"
            path.write_text(mutated)
            try:
                parse_mesh(path)
            except MeshParseError as exc:
                assert exc.line >= 1
                assert exc.path.endswith(f"m{k}.mesh")


class TestConfigParsing:
    def test_full_parse(self, config_file):
        cfg = parse_config(config_file)
        assert cfg.material.youngs_modulus == 3000.0
        assert cfg.cohesive.sigma_c == 3.0
        assert cfg.schedule.fixed_sets == (("left", "x"), ("pin", "y"))
        assert cfg.policy.enabled is True
        assert cfg.output.directory == "out"

    def test_integer_for_float_key_reads_as_float(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            CONFIG.replace("youngs_modulus: 3000.0", "youngs_modulus: 3000")
        )
        value = parse_config(path).material.youngs_modulus
        assert type(value) is float and value == 3000.0

    def test_required_keys_only_take_dataclass_defaults(self, tmp_path):
        """Every key left out reads as its dataclass field's default."""
        path = tmp_path / "c.yaml"
        path.write_text(
            "material: {youngs_modulus: 3000.0, poisson_ratio: 0.2}\n"
            "cohesive: {sigma_c: 3.0, delta_c: 0.02287}\n"
            "admm: {}\n"
            "schedule: {bc_set: right, direction: x, u_end: 0.002, n_steps: 4}\n"
        )
        cfg = parse_config(path)
        assert cfg.material == Material(youngs_modulus=3000.0, poisson_ratio=0.2)
        assert cfg.cohesive == CohesiveParams(sigma_c=3.0, delta_c=0.02287)
        assert cfg.admm == AdmmConfig(c_primal=0.01, c_dual=0.01)
        assert cfg.schedule.u_start == 0.0
        assert cfg.schedule.fixed_sets == ()
        assert cfg.policy == ExtrapolationPolicy()
        assert cfg.output == fileio.OutputOptions()

    @pytest.mark.parametrize("admm", ["", "admm:\n"], ids=["absent", "null"])
    def test_section_of_defaults_is_optional(self, tmp_path, admm):
        path = tmp_path / "c.yaml"
        path.write_text(
            "material: {youngs_modulus: 3000.0, poisson_ratio: 0.2}\n"
            "cohesive: {sigma_c: 3.0, delta_c: 0.02287}\n"
            + admm
            + "schedule: {bc_set: right, direction: x, u_end: 0.002, n_steps: 4}\n"
            "policy:\n"
        )
        cfg = parse_config(path)
        assert cfg.admm == AdmmConfig()
        assert cfg.policy == ExtrapolationPolicy()

    def test_section_with_required_keys_is_not_optional(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(CONFIG.split("schedule:\n")[0])
        with pytest.raises(ConfigError, match="^schedule: missing section$"):
            parse_config(path)

    def test_invariant_error_names_section(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(CONFIG.replace("alpha: 100.0", "alpha: 0.5"))
        with pytest.raises(ConfigError, match="^admm: alpha must exceed 1$"):
            parse_config(path)

    def test_missing_key_names_dotted_path(self, tmp_path):
        text = CONFIG.replace("  sigma_c: 3.0\n", "")
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="cohesive.sigma_c"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        for text, message in [
            (CONFIG.replace("beta: 1.0", "beta: 1.0\n  gamma: 2.0"),
             "^cohesive.gamma: unknown key$"),
            # the per-step iteration cap is the constant admm.MAX_ITERS
            (CONFIG.replace("admm:\n  alpha: 100.0\n  c_primal: 0.01\n  c_dual: 0.01\n",
                            "admm: {max_iters: 5}\n"),
             "^admm.max_iters: unknown key$"),
            (CONFIG + "solver: {}\n", "^solver: unknown section$"),
        ]:
            path.write_text(text)
            with pytest.raises(ConfigError, match=message):
                parse_config(path)

    def test_repeated_section_key_rejected(self, tmp_path):
        """safe_load would keep the last value: here alpha 60."""
        path = tmp_path / "c.yaml"
        path.write_text(CONFIG.replace("alpha: 100.0", "alpha: 100.0\n  alpha: 60.0"))
        with pytest.raises(ConfigError, match=r"c\.yaml:12: repeated key 'alpha'$"):
            parse_config(path)

    def test_repeated_top_level_section_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(CONFIG + "admm: {alpha: 60.0}\n")
        with pytest.raises(ConfigError, match=r"c\.yaml:29: repeated key 'admm'$"):
            parse_config(path)

    def test_invalid_value_names_section(self, tmp_path):
        text = CONFIG.replace("youngs_modulus: 3000.0", "youngs_modulus: -3.0")
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="material"):
            parse_config(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_bytes(CONFIG.encode().replace(b"beta: 1.0", b"beta: 1.0 # \xe9"))
        with pytest.raises(ConfigError, match="c.yaml: not UTF-8 text$"):
            parse_config(path)

    def test_yaml_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("material: {youngs_modulus: [unclosed\n")
        with pytest.raises(ConfigError, match=r":\d+"):
            parse_config(path)

    @pytest.mark.parametrize("value", ["lots", "true"])
    def test_wrong_type_rejected(self, tmp_path, value):
        text = CONFIG.replace("n_steps: 4", f"n_steps: {value}")
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="schedule.n_steps"):
            parse_config(path)

    @pytest.mark.parametrize(
        "section, value", [("policy", "[1, 2]"), ("output", "5")]
    )
    def test_optional_section_must_be_mapping(self, tmp_path, section, value):
        text = CONFIG.split("policy:\n")[0] + f"{section}: {value}\n"
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"{section}: must be a mapping"):
            parse_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            (CONFIG.replace("- {set: pin, components: y}", "- pin"),
             r"^schedule.fixed\[1\]: must be a mapping$"),
            ("- material\n- cohesive\n", "top level must be a mapping$"),
        ],
        ids=["fixed_entry", "top_level"],
    )
    def test_non_mapping_rejected(self, tmp_path, text, message):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            parse_config(path)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("c_primal: 0.01", "c_primal: .nan", "admm.c_primal"),
            ("c_primal: 0.01", "c_primal: .inf", "admm.c_primal"),
            ("c_dual: 0.01", "c_dual: .inf", "admm.c_dual"),
            ("youngs_modulus: 3000.0", "youngs_modulus: .nan",
             "material.youngs_modulus"),
            ("u_end: 0.002", "u_end: -.inf", "schedule.u_end"),
        ],
        ids=["c_primal-nan", "c_primal-inf", "c_dual-inf", "youngs_modulus-nan",
             "u_end-minus_inf"],
    )
    def test_non_finite_float_rejected(self, tmp_path, old, new, key):
        path = tmp_path / "c.yaml"
        path.write_text(CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=f"{key}: must be finite"):
            parse_config(path)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 4-step elastic run written by RunWriter with per-step fields.

    Returns the record, the output directory and the (step, iter,
    primal, dual) entries the iteration sink received.
    """
    mesh = rect_strip(2.0, 1.0, 2, 2)
    mat = Material(youngs_modulus=3000.0, poisson_ratio=0.2,
                   mode="plane_stress", thickness=0.5)
    params = CohesiveParams(sigma_c=3.0, delta_c=0.02287, beta=1.0)
    sched = LoadSchedule(bc_set="right", direction="x", u_start=0.0,
                         u_end=0.001, n_steps=4,
                         fixed_sets=(("left", "x"), ("pin", "y")))
    out = tmp_path_factory.mktemp("small_run")
    writer = RunWriter(out, per_step_fields=True)
    residuals = []

    def on_iteration(*entry):
        residuals.append(entry)
        writer.on_iteration(*entry)

    record = run_quasistatic(
        mesh, mat, params, sched, AdmmConfig(),
        setup_sink=writer.bind,
        step_sink=writer.on_step,
        iteration_sink=on_iteration,
    )
    writer.finalize(record)
    return record, out, residuals


class TestOutputs:
    def test_stress_strain_schema(self, small_run):
        _, out, _ = small_run
        with open(out / "stress_strain.csv", newline="") as fh:
            text = fh.read()
        lines = text.split("\n")
        # the header the README documents and perfbench/run.py reads by name
        assert lines[0] == STRESS_STRAIN_HEADER == (
            "step,u_applied,reaction_force,avg_stress,avg_strain,"
            "iterations,extrapolated,wall_ms"
        )
        # header + (n_steps + 1) rows + trailing newline
        assert len([l for l in lines if l]) == 1 + 5
        assert "\r" not in text

    def test_step_row_cells(self):
        """Each cell is formatted by its field's declared type."""
        row = StepRow(
            step=np.int64(3), u_applied=0.1, reaction_force=np.float64(2 / 3),
            avg_stress=-1e-300, avg_strain=0.0, iterations=17,
            extrapolated=np.bool_(True), wall_ms=12.5,
        )
        assert format_step_row(row) == (
            "3,0.10000000000000001,0.66666666666666663,-1e-300,"
            "0,17,true,12.5"
        )
        row.extrapolated = False
        assert format_step_row(row).split(",")[6] == "false"

    def test_stress_column_consistency(self, small_run):
        record, out, _ = small_run
        lines = (out / "stress_strain.csv").read_text().splitlines()[1:]
        section = record.height * record.thickness
        for row in (l.split(",") for l in lines):
            force, stress, strain = float(row[2]), float(row[3]), float(row[4])
            u = float(row[1])
            assert abs(stress - force / section) <= 1e-12 * max(abs(stress), 1.0)
            assert abs(strain - u / record.width) <= 1e-12 * max(abs(strain), 1.0)

    def test_crack_field_pre_activation(self, small_run):
        record, out, _ = small_run
        lines = (out / "crack_field.csv").read_text().splitlines()
        assert lines[0] == CRACK_FIELD_HEADER
        assert len(lines) - 1 == record.jump.n_points
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[-1] == "closed"
            assert float(fields[5]) == 0.0

    def test_crack_field_writes_zero_without_sign(self, small_run, tmp_path):
        """An opening or history of -0.0 (the beta = 1 local solve gives
        the sliding opening of some closed points so) is written as 0."""
        record, _, _ = small_run
        params = CohesiveParams(sigma_c=3.0, delta_c=0.02287, beta=1.0)
        n = record.jump.n_points
        path = tmp_path / "crack_field.csv"
        write_crack_field(
            path, record.jump, params, np.full(2 * n, -0.0), np.full(n, -0.0)
        )
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == n
        for row in rows:
            assert row[3:6] == ["0", "0", "0"] and row[6] == "closed"
            assert "-0" not in row[1:3]

    def test_iterations_log_rows(self, small_run):
        record, out, _ = small_run
        lines = (out / "iterations.log").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) - 1 == record.total_iterations

    def test_point_status_classification(self):
        params = CohesiveParams(sigma_c=3.0, delta_c=0.02287, beta=1.0)
        dc = params.delta_c
        delta = np.array([[0.0, 0.0], [0.1, 0.0], [0.4 * dc, 0.0], [0.0, 0.0]])
        delta_max = np.array([0.0, 0.5 * dc, 0.5 * dc, dc])
        assert point_status(delta, delta_max, params).tolist() == [
            "closed", "opening", "unloading", "failed",
        ]

    @pytest.mark.parametrize("failure", ["point_status", "row_format"])
    def test_failed_crack_field_write_keeps_previous(
        self, small_run, tmp_path, monkeypatch, failure
    ):
        """A write that raises leaves the earlier file intact and no temp file."""
        record, _, _ = small_run
        params = CohesiveParams(sigma_c=3.0, delta_c=0.02287, beta=1.0)
        path = tmp_path / "crack_field.csv"
        delta = record.final_state.delta
        delta_max = record.delta_max
        write_crack_field(path, record.jump, params, delta, delta_max)
        before = path.read_bytes()

        def broken(*args):
            raise RuntimeError("injected")

        if failure == "point_status":
            monkeypatch.setattr(fileio, "point_status", broken)
            expected = RuntimeError
        else:
            # fails on the first row, after the temp file is open
            monkeypatch.setattr(fileio, "_CRACK_FIELD_ROW", "%d\n")
            expected = TypeError
        with pytest.raises(expected):
            write_crack_field(path, record.jump, params, 2 * delta, delta_max)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["crack_field.csv"]

    def test_writer_closes_csv_when_log_open_fails(self, tmp_path, monkeypatch):
        """A failed open of iterations.log leaks no stress_strain.csv handle."""
        (tmp_path / "iterations.log").mkdir()
        opened = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(fileio, "open", recording_open, raising=False)
        with pytest.raises(OSError):
            RunWriter(tmp_path)
        assert len(opened) == 1
        assert opened[0].name.endswith("stress_strain.csv")
        assert opened[0].closed

    def test_incremental_writer_matches_record(self, small_run, tmp_path):
        record, out, residuals = small_run
        rows = (out / "stress_strain.csv").read_text().splitlines()[1:]
        assert rows == [format_step_row(r) for r in record.rows]
        log = (out / "iterations.log").read_text().splitlines()[1:]
        assert log == [f"{s} {i} {p:.17g} {d:.17g}" for s, i, p, d in residuals]
        params = CohesiveParams(sigma_c=3.0, delta_c=0.02287, beta=1.0)
        write_crack_field(
            tmp_path / "final.csv", record.jump, params,
            record.final_state.delta, record.delta_max,
        )
        final = (tmp_path / "final.csv").read_text()
        assert (out / "crack_field.csv").read_text() == final
        # one field dump per emitted row (baseline + 4 steps)
        dumps = sorted(out.glob("crack_field_step*.csv"))
        assert len(dumps) == 5
        assert dumps[-1].read_text() == final
