"""Plain-text mesh format, YAML run configuration, and CSV outputs.

Mesh files are UTF-8 text in three fixed-order sections: `$Nodes` (count,
then `id x y` with 1-based contiguous ids), `$Triangles` (count, then
`id n1 n2 n3`) and `$NodeSets` (each set a name and ids, ended by a blank
line). `#` starts a comment, blank lines may stand anywhere, and counts and
ids are integers that fit int64. Parse failures carry the path and line.
"""

from __future__ import annotations

import contextlib
import itertools
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

def _section_rows(path, texts, linenos, at, name, n_fields, cast):
    """Section `name` from texts[at]: its header, count and that many rows.

    Returns the rows' values without the ids, read as whole columns, and the
    index of the next text. Only when the columns do not read are the rows
    that exist scanned, to raise at the first faulty one or as truncated."""
    what = name[1:-1].lower()  # "$Nodes" -> "node"
    if at == len(texts) or texts[at] != name:
        raise MeshParseError(path, linenos[at], f"expected section {name}")
    at += 1
    try:
        count = int(texts[at])
    except IndexError:
        raise MeshParseError(path, linenos[at], f"missing {what} count") from None
    except ValueError:
        raise MeshParseError(
            path, linenos[at], f"bad {what} count {texts[at]!r}"
        ) from None
    if count < 0:
        raise MeshParseError(path, linenos[at], f"negative {what} count")
    at += 1
    rows = texts[at:at + count]
    dtype = np.float64 if cast is float else np.int64
    stride = n_fields + 1
    # '#' never survives comment removal, so as a token it can only be the
    # mark the join puts after each row
    tokens = " # ".join([*rows, ""]).split()
    if len(tokens) == stride * count and tokens[n_fields::stride] == ["#"] * count:
        with contextlib.suppress(ValueError, OverflowError):
            ids = np.fromiter(map(int, tokens[::stride]), np.int64, count)
            values = np.stack([
                np.fromiter(map(cast, tokens[j::stride]), dtype, count)
                for j in range(1, n_fields)
            ], axis=1)
            if np.array_equal(ids, np.arange(1, count + 1)):
                return values, at + count
    for k, text in enumerate(rows):
        lineno, parts = linenos[at + k], text.split()
        if len(parts) != n_fields:
            raise MeshParseError(
                path, lineno, f"expected {n_fields} fields, got {len(parts)}"
            )
        try:
            ident = int(parts[0])
            row = [cast(v) for v in parts[1:]]
            if ident == k + 1:  # a wrong id is named before a value beyond int64
                np.array(row, dtype)
        except (ValueError, OverflowError):
            raise MeshParseError(path, lineno, f"bad {what} row {text!r}") from None
        if ident != k + 1:
            raise MeshParseError(
                path, lineno, f"{what} ids must be 1-based contiguous; got {ident}"
            )
    raise MeshParseError(path, linenos[at + len(rows)], f"truncated {what} section")


def _node_sets(path, texts, linenos, n_nodes) -> dict[str, np.ndarray]:
    """The 0-based node sets in `texts`; a blank line, a gap in linenos, ends one."""
    sets: dict[str, np.ndarray] = {}
    starts = [k for k in range(len(texts)) if k == 0 or linenos[k] > linenos[k - 1] + 1]
    for first, end in zip(starts, [*starts[1:], len(texts)]):
        name, ids = texts[first].split()[0], []
        for k in range(first, end):
            try:  # the first line of a set starts with its name
                ids.append([int(v) for v in texts[k].split()[k == first:]])
            except ValueError:
                raise MeshParseError(
                    path, linenos[k], f"bad node id in {texts[k]!r}"
                ) from None
        if name in sets:
            raise MeshParseError(path, linenos[first], f"duplicate node set {name!r}")
        for k, line_ids in enumerate(ids, start=first):
            if line_ids and not -2**63 <= min(line_ids) <= max(line_ids) < 2**63:
                raise MeshParseError(path, linenos[k], f"bad node id in {texts[k]!r}")
        ids = np.array([i for line_ids in ids for i in line_ids], dtype=np.int64)
        if ids.size and (ids.min() < 1 or ids.max() > n_nodes):
            raise MeshParseError(
                path, linenos[first],
                f"node set {name!r} references a node out of range",
            )
        sets[name] = ids - 1
    return sets


def parse_mesh(path) -> InputMesh:
    """Parse a mesh file into an InputMesh, which checks itself when built.

    Clockwise triangles are re-oriented with a logged warning first. Every
    failure raises MeshParseError with the offending line; a failed mesh
    check names the file's last line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so exc.object is all of it
        line = len((exc.object[:exc.start] + b"?").splitlines())
        raise MeshParseError(path, line, "not UTF-8 text") from None
    n_lines = len(lines) - (lines[-1] == "")  # a final line break adds no line
    lines = [line.partition("#")[0].strip() for line in lines]
    # text k is on line linenos[k]; a last lineno, past the end, marks a missing line
    texts = list(filter(None, lines))
    linenos = [*itertools.compress(range(1, n_lines + 1), lines), n_lines + 1]

    nodes, at = _section_rows(path, texts, linenos, 0, "$Nodes", 3, float)
    n_nodes = len(nodes)
    tris, at = _section_rows(path, texts, linenos, at, "$Triangles", 4, int)
    bad = (tris < 1) | (tris > n_nodes)
    if np.any(bad):
        row = int(np.argmax(bad.any(axis=1)))
        raise MeshParseError(
            path, linenos[at - len(tris) + row],
            f"triangle {row + 1} references node {int(tris[row][bad[row]][0])} "
            f"of {n_nodes}",
        )
    tris = tris - 1  # to 0-based
    if at < len(texts) and texts[at] != "$NodeSets":
        raise MeshParseError(path, linenos[at], "expected section $NodeSets")
    sets = _node_sets(path, texts[at + 1:], linenos[at + 1:-1], n_nodes)

    # re-orient clockwise triangles before the mesh checks its invariants
    flipped = triangle_signed_areas(nodes, tris) < 0
    if np.any(flipped):
        tris[flipped] = tris[flipped][:, [0, 2, 1]]
        log.warning(
            "%s: re-oriented %d clockwise triangle(s)", path, int(flipped.sum())
        )
    try:
        return InputMesh(nodes=nodes, triangles=tris, boundary_sets=sets)
    except MeshError as exc:
        raise MeshParseError(path, n_lines, str(exc)) from exc


def write_mesh(mesh: InputMesh, path) -> None:
    """Write a mesh file; coordinates round-trip bit-exactly via repr.

    Raises ValueError for a boundary-set name that would not read back:
    one that is empty, holds whitespace or holds the comment mark `#`.
    """
    for name in mesh.boundary_sets:
        if "#" in name or name.split() != [name]:
            raise ValueError(f"boundary set name {name!r} cannot be written")
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


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key repeated within one mapping, which
    `yaml.safe_load` would let replace the earlier value silently."""

    def __init__(self, stream, path):
        super().__init__(stream)
        self.path = path

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if not isinstance(key_node, yaml.ScalarNode):
                continue    # an unhashable key is the base class's error
            key = self.construct_object(key_node)
            if key in seen:
                line = key_node.start_mark.line + 1
                raise ConfigError(f"{self.path}:{line}: repeated key '{key}'")
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def parse_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration.

    Each section of RunConfig is read from its dataclass's fields, so the
    defaults are the dataclasses' own. Syntax errors and repeated keys
    carry the YAML line number; invariant violations name the offending
    section or dotted key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loader = _ConfigLoader(fh, path)
            try:
                data = loader.get_single_data()
            finally:
                loader.dispose()
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ConfigError(f"{where}: invalid YAML: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
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
    # + 0.0 turns -0.0 (the sliding opening of some closed points) into 0
    floats = np.column_stack([jump.points, delta, delta_max]) + 0.0
    columns = (
        range(jump.n_points),
        *floats.T.tolist(),
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

    def on_step(self, row: StepRow, state, delta_max) -> None:
        self._ss.write(format_step_row(row) + "\n")
        self._ss.flush()
        self._it.flush()
        if self.per_step_fields and self._jump is not None:
            write_crack_field(
                os.path.join(self.out_dir, f"crack_field_step{row.step:04d}.csv"),
                self._jump,
                self._params,
                state.delta,
                delta_max,
            )

    def finalize(self, record: RunRecord) -> None:
        if record.final_state is not None and self._jump is not None:
            write_crack_field(
                os.path.join(self.out_dir, "crack_field.csv"),
                self._jump,
                self._params,
                record.final_state.delta,
                record.delta_max,
            )
        self.close()

    def close(self) -> None:
        if not self._ss.closed:
            self._ss.close()
        if not self._it.closed:
            self._it.close()
