"""Plain-text mesh format, YAML run configuration, and CSV outputs.

Mesh files have three fixed-order sections: `$Nodes` (count, then
`id x y` with 1-based contiguous ids), `$Triangles` (count, then
`id n1 n2 n3`), and `$NodeSets` (a set name followed by whitespace-
separated ids, terminated by a blank line). `#` starts a comment.
All parse failures carry the file path and line number.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
from dataclasses import MISSING, dataclass, fields
from typing import get_type_hints

import numpy as np
import yaml

from .admm import AdmmConfig
from .cohesive import CohesiveParams, point_status
from .driver import ExtrapolationPolicy, LoadSchedule, RunRecord, StepRow
from .elasticity import Material
from .errors import ConfigError, MeshError, MeshParseError
from .mesh import InputMesh, triangle_signed_areas

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# mesh files
# ---------------------------------------------------------------------------

def _clean_lines(path):
    """Yield (line number, stripped text) with comments removed."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            yield lineno, text


def parse_mesh(path) -> InputMesh:
    """Parse a mesh file and validate the result.

    Clockwise triangles are re-oriented with a logged warning; structural
    problems raise MeshParseError with the offending line.
    """
    lines = list(_clean_lines(path))
    pos = 0
    n_lines = len(lines)

    def skip_blank():
        nonlocal pos
        while pos < n_lines and not lines[pos][1]:
            pos += 1

    def expect_section(name):
        nonlocal pos
        skip_blank()
        if pos >= n_lines or lines[pos][1] != name:
            lineno = lines[pos][0] if pos < n_lines else n_lines + 1
            raise MeshParseError(path, lineno, f"expected section {name}")
        pos += 1

    def read_count(what):
        nonlocal pos
        skip_blank()
        if pos >= n_lines:
            raise MeshParseError(path, n_lines + 1, f"missing {what} count")
        lineno, text = lines[pos]
        try:
            count = int(text)
        except ValueError:
            raise MeshParseError(path, lineno, f"bad {what} count {text!r}") from None
        if count < 0:
            raise MeshParseError(path, lineno, f"negative {what} count")
        pos += 1
        return count

    def read_rows(count, n_fields, cast, what):
        nonlocal pos
        rows = np.empty((count, n_fields - 1), dtype=float if cast is float else np.int64)
        linenos = np.empty(count, dtype=np.int64)
        for k in range(count):
            skip_blank()
            if pos >= n_lines:
                raise MeshParseError(path, n_lines + 1, f"truncated {what} section")
            lineno, text = lines[pos]
            parts = text.split()
            if len(parts) != n_fields:
                raise MeshParseError(
                    path, lineno, f"expected {n_fields} fields, got {len(parts)}"
                )
            try:
                ident = int(parts[0])
                values = [cast(v) for v in parts[1:]]
            except ValueError:
                raise MeshParseError(path, lineno, f"bad {what} row {text!r}") from None
            if ident != k + 1:
                raise MeshParseError(
                    path, lineno, f"{what} ids must be 1-based contiguous; got {ident}"
                )
            rows[k] = values
            linenos[k] = lineno
            pos += 1
        return rows, linenos

    expect_section("$Nodes")
    n_nodes = read_count("node")
    nodes, _ = read_rows(n_nodes, 3, float, "node")

    expect_section("$Triangles")
    n_tris = read_count("triangle")
    tris, tri_lines = read_rows(n_tris, 4, int, "triangle")
    bad = (tris < 1) | (tris > n_nodes)
    if np.any(bad):
        row = int(np.argmax(bad.any(axis=1)))
        raise MeshParseError(
            path, int(tri_lines[row]),
            f"triangle {row + 1} references node {int(tris[row][bad[row]][0])} "
            f"of {n_nodes}",
        )
    tris = tris - 1  # to 0-based

    skip_blank()
    sets: dict[str, np.ndarray] = {}
    if pos < n_lines:
        if lines[pos][1] != "$NodeSets":
            raise MeshParseError(path, lines[pos][0], "expected section $NodeSets")
        pos += 1
        current_name = None
        current_ids: list[int] = []
        current_line = 0

        def close_set():
            nonlocal current_name, current_ids
            if current_name is not None:
                if current_name in sets:
                    raise MeshParseError(
                        path, current_line, f"duplicate node set {current_name!r}"
                    )
                ids = np.asarray(current_ids, dtype=np.int64)
                if ids.size and (ids.min() < 1 or ids.max() > n_nodes):
                    raise MeshParseError(
                        path, current_line,
                        f"node set {current_name!r} references a node out of range",
                    )
                sets[current_name] = ids - 1
                current_name, current_ids = None, []

        while pos < n_lines:
            lineno, text = lines[pos]
            pos += 1
            if not text:
                close_set()
                continue
            parts = text.split()
            if current_name is None:
                current_name = parts[0]
                current_line = lineno
                parts = parts[1:]
            try:
                current_ids.extend(int(v) for v in parts)
            except ValueError:
                raise MeshParseError(path, lineno, f"bad node id in {text!r}") from None
        close_set()

    # re-orient clockwise triangles before invariant validation
    if n_tris:
        areas = triangle_signed_areas(nodes, tris)
        flipped = areas < 0
        if np.any(flipped):
            tris[flipped] = tris[flipped][:, [0, 2, 1]]
            log.warning(
                "%s: re-oriented %d clockwise triangle(s)", path, int(flipped.sum())
            )
    mesh = InputMesh(nodes=nodes, triangles=tris, boundary_sets=sets)
    try:
        mesh.validate()
    except MeshError as exc:
        raise MeshParseError(path, n_lines, str(exc)) from exc
    return mesh


def write_mesh(mesh: InputMesh, path) -> None:
    """Write a mesh file; coordinates round-trip bit-exactly via repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("$Nodes\n")
        fh.write(f"{mesh.n_nodes}\n")
        for i, (x, y) in enumerate(mesh.nodes, start=1):
            fh.write(f"{i} {float(x)!r} {float(y)!r}\n")
        fh.write("$Triangles\n")
        fh.write(f"{mesh.n_triangles}\n")
        for i, (a, b, c) in enumerate(mesh.triangles + 1, start=1):
            fh.write(f"{i} {a} {b} {c}\n")
        fh.write("$NodeSets\n")
        for name, ids in mesh.boundary_sets.items():
            fh.write(name + " " + " ".join(str(i + 1) for i in ids) + "\n\n")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass
class OutputOptions:
    directory: str = "out"
    per_step_fields: bool = False


@dataclass
class RunConfig:
    material: Material
    cohesive: CohesiveParams
    admm: AdmmConfig
    schedule: LoadSchedule
    policy: ExtrapolationPolicy
    output: OutputOptions


def _section(data: dict, name: str) -> dict:
    if name not in data:
        raise ConfigError(f"{name}: missing section")
    value = data[name]
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: must be a mapping")
    return value


def _take(section: dict, path: str, key: str, kind):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required key")
    value = section.pop(key)
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    # YAML true/false load as bool, which Python counts as an int
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(
            f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: must be finite, got {value}")
    return value


def _reject_unknown(section: dict, path: str) -> None:
    if section:
        key = sorted(section)[0]
        raise ConfigError(f"{path}.{key}: unknown key")


# YAML keys that differ from the dataclass field they set
_YAML_NAMES = {"enabled": "extrapolation", "fixed_sets": "fixed"}


def _fixed_sets(entries: list) -> tuple:
    """schedule.fixed: a list of {set, components} mappings."""
    fixed = []
    for i, entry in enumerate(entries):
        path = f"schedule.fixed[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: must be a mapping")
        entry = dict(entry)
        fixed.append(
            (_take(entry, path, "set", str), _take(entry, path, "components", str))
        )
        _reject_unknown(entry, path)
    return tuple(fixed)


def _read_section(data: dict, name: str, cls):
    """Build `cls` from section `name`, one YAML key per dataclass field.

    A key that is left out takes the field's default; a field without a
    default is a required key. A section whose fields all have defaults
    may itself be left out or null.
    """
    cls_fields = fields(cls)
    if data.get(name) is None and all(f.default is not MISSING for f in cls_fields):
        section = {}
    else:
        section = dict(_section(data, name))
    kinds = get_type_hints(cls)
    values = {}
    for f in cls_fields:
        key = _YAML_NAMES.get(f.name, f.name)
        if key not in section and f.default is not MISSING:
            continue
        if f.name == "fixed_sets":
            values[f.name] = _fixed_sets(_take(section, name, key, list))
        else:
            values[f.name] = _take(section, name, key, kinds[f.name])
    _reject_unknown(section, name)
    try:
        return cls(**values)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration.

    Each section of RunConfig is read from its dataclass's fields, so the
    defaults are the dataclasses' own. Syntax errors carry the YAML line
    number; invariant violations name the offending section or dotted key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ConfigError(f"{where}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    sections = get_type_hints(RunConfig)
    config = RunConfig(
        **{name: _read_section(data, name, cls) for name, cls in sections.items()}
    )
    for key in data:
        if key not in sections:
            raise ConfigError(f"{key}: unknown section")
    return config


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

STRESS_STRAIN_HEADER = ",".join(f.name for f in fields(StepRow))
CRACK_FIELD_HEADER = "gauss_point,x,y,delta_n,delta_s,delta_max,status"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# a cell is formatted by its field's declared type, not its value's, so
# a numpy scalar in a row cannot change how its column is written
_CELL = {int: str, float: _fmt, bool: lambda b: "true" if b else "false"}
_STEP_KINDS = get_type_hints(StepRow)


def format_step_row(row: StepRow) -> str:
    return ",".join(
        _CELL[_STEP_KINDS[f.name]](getattr(row, f.name)) for f in fields(StepRow)
    )


_CRACK_FIELD_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"


def write_crack_field(path, jump, params: CohesiveParams, delta, delta_max) -> None:
    """Write one row per Gauss point, replacing `path` only on success."""
    delta = np.asarray(delta).reshape(-1, 2)
    columns = (
        range(jump.n_points),
        jump.points[:, 0].tolist(),
        jump.points[:, 1].tolist(),
        delta[:, 0].tolist(),
        delta[:, 1].tolist(),
        np.asarray(delta_max).tolist(),
        point_status(delta, delta_max, params).tolist(),
    )
    # write beside the target and rename, so a failed write never
    # replaces an earlier field with a partial one
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CRACK_FIELD_HEADER + "\n")
            fh.writelines(_CRACK_FIELD_ROW % row for row in zip(*columns))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class RunWriter:
    """Incremental, crash-safe writer wired into the driver sinks.

    Rows are flushed after every load step so a crashed or aborted run
    leaves a usable partial stress_strain.csv behind.
    """

    def __init__(self, out_dir, per_step_fields: bool = False):
        self.out_dir = str(out_dir)
        self.per_step_fields = per_step_fields
        os.makedirs(self.out_dir, exist_ok=True)
        self._ss = open(
            os.path.join(self.out_dir, "stress_strain.csv"),
            "w", encoding="utf-8", newline="\n",
        )
        self._ss.write(STRESS_STRAIN_HEADER + "\n")
        try:
            self._it = open(
                os.path.join(self.out_dir, "iterations.log"),
                "w", encoding="utf-8", newline="\n",
            )
        except OSError:
            self._ss.close()
            raise
        self._it.write("# step iter primal_inf dual_inf\n")
        self._jump = None
        self._params = None

    def bind(self, mesh, jump, solver) -> None:
        self._jump = jump
        self._params = solver.params

    def on_iteration(self, step, it, primal, dual) -> None:
        self._it.write(f"{step} {it} {_fmt(primal)} {_fmt(dual)}\n")

    def on_step(self, row: StepRow, state, cohesive_state) -> None:
        self._ss.write(format_step_row(row) + "\n")
        self._ss.flush()
        self._it.flush()
        if self.per_step_fields and self._jump is not None:
            write_crack_field(
                os.path.join(self.out_dir, f"crack_field_step{row.step:04d}.csv"),
                self._jump,
                self._params,
                state.delta,
                cohesive_state.delta_max,
            )

    def finalize(self, record: RunRecord) -> None:
        if record.final_state is not None and self._jump is not None:
            write_crack_field(
                os.path.join(self.out_dir, "crack_field.csv"),
                self._jump,
                self._params,
                record.final_state.delta,
                record.cohesive_state.delta_max,
            )
        self.close()

    def close(self) -> None:
        if not self._ss.closed:
            self._ss.close()
        if not self._it.closed:
            self._it.close()
