#!/usr/bin/env python3
"""Check that two `cohadm run` output directories hold the same results.

    python scripts/same_outputs.py out/a out/b

crack_field.csv, iterations.log and seed.log must match byte for byte.
stress_strain.csv must match on every column except wall_ms, the one
column that records time rather than results. Prints the first
difference and exits 1, or exits 0 when the directories match.
"""

import argparse
import itertools
import sys
from pathlib import Path

EXACT_FILES = ("crack_field.csv", "iterations.log", "seed.log")
TABLE_FILE = "stress_strain.csv"
TIME_COLUMN = b"wall_ms"


def _lines(path: Path, drop_time: bool) -> list[bytes]:
    lines = path.read_bytes().split(b"\n")
    if not drop_time:
        return lines
    header = lines[0].split(b",")
    if TIME_COLUMN not in header:
        return lines
    skip = header.index(TIME_COLUMN)
    return [
        b",".join(cell for i, cell in enumerate(line.split(b",")) if i != skip)
        for line in lines
    ]


def first_difference(dir_a: Path, dir_b: Path) -> str | None:
    """Describe the first difference between the two directories, if any."""
    for name in (*EXACT_FILES, TABLE_FILE):
        paths = (dir_a / name, dir_b / name)
        for path in paths:
            if not path.is_file():
                return f"{path}: missing"
        a, b = (_lines(path, name == TABLE_FILE) for path in paths)
        pairs = itertools.zip_longest(a, b)
        for lineno, (line_a, line_b) in enumerate(pairs, start=1):
            if line_a != line_b:
                return f"{name}:{lineno}: {line_a!r} != {line_b!r}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    difference = first_difference(args.dir_a, args.dir_b)
    if difference is None:
        print(f"same outputs: {args.dir_a} and {args.dir_b}")
        return 0
    print(difference)
    return 1


if __name__ == "__main__":
    sys.exit(main())
