#!/usr/bin/env python3
"""Check that two `cohadm run` output directories hold the same results.

    python scripts/same_outputs.py out/a out/b
    python scripts/same_outputs.py --curve-tol 1 out/a out/b

crack_field.csv, iterations.log and seed.log must match byte for byte.
stress_strain.csv must match on every column except wall_ms, the one
column that records time rather than results. Prints the first
difference and exits 1, or exits 0 when the directories match.

With --curve-tol PCT, for runs that are not byte-identical, only the
stress_strain.csv curves are compared: step by step, the avg_stress gap
in percent of the first run's peak stress. Prints the largest gap, the
step where it occurs and both runs' iteration totals, and exits 1 when
the gap exceeds PCT or the runs do not have the same steps.
"""

import argparse
import csv
import itertools
import math
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


def _curve(directory: Path) -> tuple[list[int], list[float], int]:
    """Steps, avg_stress and the iteration total of one run's table."""
    with open(directory / TABLE_FILE, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return (
        [int(r["step"]) for r in rows],
        [float(r["avg_stress"]) for r in rows],
        sum(int(r["iterations"]) for r in rows),
    )


def curve_gap(dir_a: Path, dir_b: Path, tol_pct: float) -> tuple[bool, str]:
    """Whether the stress curves agree within tol_pct % of run a's peak,
    and a line that says by how much."""
    for path in (dir_a / TABLE_FILE, dir_b / TABLE_FILE):
        if not path.is_file():
            return False, f"{path}: missing"
    steps_a, stress_a, iters_a = _curve(dir_a)
    steps_b, stress_b, iters_b = _curve(dir_b)
    totals = f"iterations {iters_a} / {iters_b}"
    if not steps_a or steps_a != steps_b:
        return False, f"{TABLE_FILE}: the runs do not have the same steps; {totals}"
    gaps = [abs(a - b) for a, b in zip(stress_a, stress_b)]
    worst = max(range(len(gaps)), key=gaps.__getitem__)
    peak = max(map(abs, stress_a))
    if peak > 0.0:
        gap_pct = 100.0 * gaps[worst] / peak
    else:   # a flat zero curve: any gap is infinitely large
        gap_pct = math.inf if gaps[worst] else 0.0
    line = (
        f"largest stress gap {gap_pct:.4g}% of peak at step {steps_a[worst]}; "
        f"{totals}"
    )
    return gap_pct <= tol_pct, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument(
        "--curve-tol", type=float, metavar="PCT",
        help="compare only the stress curves, within PCT %% of the first "
             "run's peak stress",
    )
    args = parser.parse_args(argv)
    if args.curve_tol is not None:
        within, line = curve_gap(args.dir_a, args.dir_b, args.curve_tol)
        print(line)
        return 0 if within else 1
    difference = first_difference(args.dir_a, args.dir_b)
    if difference is None:
        print(f"same outputs: {args.dir_a} and {args.dir_b}")
        return 0
    print(difference)
    return 1


if __name__ == "__main__":
    sys.exit(main())
