#!/usr/bin/env python3
"""cohadm benchmark: end-to-end and per-layer metrics of whole runs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload porous_ramp --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --self-check       # tiny input, both modes, seconds
    python3 perfbench/run.py --report           # every workload, both modes

A run writes the workload's mesh and YAML config from the seed, then runs
the workload in fresh child processes (perfbench/child.py) with BLAS and
OpenMP pinned to one thread, each doing what `cohadm run` does. Full runs
repeat while the next one is predicted to end within --seconds; set-up-only
runs then fill the remaining time, so set-up time is a median of several.
With --trace 1 the first full run is traced (per-layer metrics) and the
untraced runs after it give the tracing overhead.

Each child runs on one core while probe.py samples that core's speed;
its run is cut into segments at every sink call and each segment's time
is scaled to a quiet core. The time metrics are medians of the scaled
times; the measured times are kept in result.json.

Every full run is checked: all steps converge, the written stress-strain
curve stays within 1% of peak of the stored reference curve, the crack
field and iteration log are complete, and the iteration count repeats.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; lines before it name every
metric with its unit, and the host facts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170             # every child must end within this of the start
MAX_FULL_RUNS = 25
MAX_SETUP_RUNS = 4
MIN_SETUP_SAMPLES = 2
CURVE_BOUND = 0.01            # share of the reference peak (criterion 6)
BYTES_PER_FACTOR_ENTRY = 12   # float64 value + int32 row index
STATUSES = ("closed", "opening", "unloading", "failed")

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "COHADM_THREADS": "1",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "iterations": "count",
    "ms_per_iter": "ms",
    "peak_rss_mb": "MB",
}


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------

def last_level_cache_bytes() -> int:
    best_level, size = -1, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        value = int(text.rstrip("KMG")) * scale
        if level > best_level:
            best_level, size = level, value
    return size


def stream_probe(llc_bytes: int) -> dict:
    """Best-of-three read bandwidth over an array of at least 4x the LLC."""
    import numpy as np

    array_bytes = max(4 * llc_bytes, 256 * 1024**2)
    array = np.ones(array_bytes // 8)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        array.sum()
        best = min(best, time.perf_counter() - t0)
    del array
    return {"stream_gbs": array_bytes / best / 1e9,
            "stream_array_mb": array_bytes / 1024**2}


def host_facts() -> dict:
    import numpy
    import scipy

    llc = last_level_cache_bytes()
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "llc_mb": llc / 1024**2,
        **stream_probe(llc),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "child_thread_env": THREAD_ENV,
    }


# ---------------------------------------------------------------------------
# child runs and their checks
# ---------------------------------------------------------------------------

def run_child(paths: dict, tag: str, deadline: float, sensitivity: float,
              trace=False, setup_only=False) -> tuple[dict, float]:
    """Run one child process; returns its result and its elapsed seconds.

    The child runs on one core, with the probe sampling that core's speed
    for the whole run; the child's segments are then scaled by it.
    """
    from probe import Probe

    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise HarnessError(f"no time left for child {tag}")
    result_path = paths["dir"] / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    out_dir = paths["dir"] / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    cpu = max(os.sched_getaffinity(0))
    cmd = [sys.executable, str(HERE / "child.py"),
           "--mesh", str(paths["mesh"]), "--config", str(paths["config"]),
           "--out", str(out_dir), "--result", str(result_path), "--cpu", str(cpu)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    with Probe(cpu) as probe:
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"child {tag} ran past the {RUN_LIMIT_S} s limit") from exc
    elapsed = time.perf_counter() - t0
    if proc.returncode not in (0, 3) or not result_path.exists():
        raise HarnessError(f"child {tag} failed with exit code {proc.returncode}")
    res = json.loads(result_path.read_text(encoding="utf-8"))
    scale_segments(res, probe, sensitivity)
    return res, elapsed


def scale_segments(res: dict, probe, sensitivity: float) -> None:
    """Add each segment's estimated duration on a quiet core (see probe.py)."""
    import numpy as np

    keys = [k for k in ("setup_segments", "step_segments") if k in res]
    if not keys:                       # the run did not converge
        return
    durations = np.concatenate([res[k] for k in keys]
                               + ([[res["final_s"]]] if "final_s" in res else []))
    ends = res["t0"] + np.cumsum(durations)
    slowdown = probe.slowdown(ends - durations, ends)
    scaled = (durations / slowdown ** sensitivity).tolist()
    res["scaled_wall_s"] = sum(scaled)
    for k in keys:
        res["scaled_" + k], scaled = scaled[:len(res[k])], scaled[len(res[k]):]
    res["probe_slowdown"] = float(np.median(slowdown))
    res["probe_samples"] = len(probe.durations)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_outputs(res: dict, out_dir: Path, workload, reference: dict) -> list[str]:
    """Problems with one full run's outputs; empty when the run is correct."""
    if not res["converged"]:
        return [f"did not converge: {res.get('error', '')}"]
    problems = []
    rows = _read_csv(out_dir / "stress_strain.csv")
    if len(rows) != workload.n_steps + 1:
        problems.append(f"{len(rows)} stress-strain rows, expected {workload.n_steps + 1}")
    else:
        ref = reference["avg_stress"]
        gap = max(abs(float(r["avg_stress"]) - s) for r, s in zip(rows, ref))
        if not gap <= CURVE_BOUND * reference["peak"]:
            problems.append(f"stress curve off the reference by {gap:.4g} "
                            f"(bound {CURVE_BOUND * reference['peak']:.4g})")
        if sum(int(r["iterations"]) for r in rows) != res["iterations"]:
            problems.append("stress-strain iteration column disagrees with the run")
    field = _read_csv(out_dir / "crack_field.csv")
    statuses = {}
    for row in field:
        statuses[row["status"]] = statuses.get(row["status"], 0) + 1
    if len(field) != res["gauss_points"] or set(statuses) - set(STATUSES):
        problems.append("crack field incomplete or with unknown statuses")
    res["statuses"] = {s: statuses.get(s, 0) for s in STATUSES}
    with open(out_dir / "iterations.log", encoding="utf-8") as fh:
        logged = sum(1 for line in fh if not line.startswith("#"))
    if logged != res["iterations"]:
        problems.append(f"iteration log has {logged} rows, expected {res['iterations']}")
    res["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
    return problems


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run a workload for about `seconds`; return metrics and bookkeeping."""
    from workloads import WORKLOADS, config_text, load_reference, write_inputs

    deadline = time.perf_counter() + RUN_LIMIT_S

    if name not in WORKLOADS:
        raise HarnessError(f"unknown workload {name!r}")
    workload = WORKLOADS[name]
    reference = load_reference(name)
    run_dir = WORK / name
    shutil.rmtree(run_dir, ignore_errors=True)
    mesh_path, config_path = write_inputs(workload, seed, run_dir / "inputs")
    paths = {"dir": run_dir, "mesh": mesh_path, "config": config_path}
    host = host_facts()

    full, failures, traced = [], [], None
    iteration_counts = set()
    start = time.perf_counter()
    longest = 0.0

    def fits(estimate):
        return time.perf_counter() - start + estimate <= seconds

    def full_run(tag, with_trace):
        nonlocal longest
        res, elapsed = run_child(paths, tag, deadline, workload.sensitivity,
                                 trace=with_trace)
        longest = max(longest, elapsed)
        problems = check_outputs(res, run_dir / "out", workload, reference)
        if res["converged"]:
            iteration_counts.add(res["iterations"])
            if len(iteration_counts) > 1:
                problems.append("iteration count did not repeat")
        if problems:
            failures.append({"run": tag, "problems": problems})
            print(f"  {tag}: FAILED: {'; '.join(problems)}")
        return res

    if trace:
        traced = full_run("traced", True)
    while not full or (fits(longest) and len(full) < MAX_FULL_RUNS):
        full.append(full_run(f"full{len(full)}", False))
    setups = [r for r in full if "setup_s" in r]
    if not trace:
        # a set-up-only child costs its set-up plus interpreter start-up
        estimate = (min(r["setup_s"] for r in setups) if setups else 0.0) + 1.0
        for k in range(MAX_SETUP_RUNS):
            if len(setups) >= MIN_SETUP_SAMPLES and not fits(estimate):
                break
            res, elapsed = run_child(paths, f"setup{k}", deadline,
                                     workload.sensitivity, setup_only=True)
            estimate = min(estimate, elapsed)
            if "setup_s" in res:
                setups.append(res)

    good = [r for r in full if r["converged"]]
    attempted = len(full) + (1 if traced else 0)
    summary = {
        "workload": name, "seed": seed, "trace": trace,
        "parameters": {"mesh": workload.mesh, "config": config_text(workload)},
        "host": host,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "full_runs": len(full),
        "setup_samples": len(setups),
        "measured_s": time.perf_counter() - start,
    }
    if good:
        host["sparse_backend"] = good[0]["backend"]
    if trace:
        summary["metrics"] = layer_metrics(traced, good, host)
    else:
        summary["metrics"] = end_to_end_metrics(good, setups)
    summary["reps"] = [
        {k: v for k, v in r.items() if k != "spans"}
        for r in full + ([traced] if traced else [])
    ]
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1),
                                         encoding="utf-8")
    return summary


def end_to_end_metrics(good: list[dict], setups: list[dict]) -> dict:
    if not good:
        return {}
    med = statistics.median
    return {
        "wall_s": med(r["scaled_wall_s"] for r in good),
        "setup_s": med(sum(r["scaled_setup_segments"]) for r in setups),
        "iterations": good[0]["iterations"],   # checked to repeat
        "ms_per_iter": med(1e3 * sum(r["scaled_step_segments"]) / r["iterations"]
                           for r in good),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in good),
    }


LAYER_UNITS = {
    "fileio.parse_s": "s",
    "fileio.write_s": "s",
    "fileio.write_iterlog_s": "s",
    "fileio.write_steps_s": "s",
    "fileio.write_crack_field_s": "s",
    "fileio.bytes_written": "bytes",
    "mesh.break_mesh_s": "s",
    "mesh.jump_operator_s": "s",
    "mesh.interfaces": "count",
    "mesh.gauss_points": "count",
    "elasticity.assemble_s": "s",
    "elasticity.reaction_ms": "ms",
    "admm.order_s": "s",
    "admm.factorize_s": "s",
    "admm.factor_nnz": "count",
    "admm.u_update_ms": "ms",
    "admm.solve_ms": "ms",
    "admm.delta_update_ms": "ms",
    "admm.y_update_ms": "ms",
    "admm.residuals_ms": "ms",
    "admm.step_other_ms": "ms",
    "admm.solve_gbs_computed": "GB/s",
    "admm.solve_bw_fraction": "ratio",
    "cohesive.local_solve_ms": "ms",
    "cohesive.status_closed": "count",
    "cohesive.status_opening": "count",
    "cohesive.status_unloading": "count",
    "cohesive.status_failed": "count",
    "driver.steps": "count",
    "driver.iters_per_step_max": "count",
    "driver.extrapolated_steps": "count",
    "driver.extrapolation_accept": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(traced: dict, untraced: list[dict], host: dict) -> dict:
    """Per-layer numbers from the traced run's span totals."""
    if not traced or not traced["converged"]:
        return {}
    spans = traced["spans"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def per_call(name):
        entry = spans.get(name)
        return entry["total_s"] / entry["calls"] if entry else 0.0

    iters = traced["iterations"]
    phases = {
        "admm.u_update_ms": "admm.AdmmSolver.u_update",
        "admm.delta_update_ms": "admm.AdmmSolver.delta_update",
        "admm.y_update_ms": "admm.multiplier_update",
        "admm.residuals_ms": "admm.AdmmSolver.check_convergence",
    }
    metrics = {k: 1e3 * total(v) / iters for k, v in phases.items()}
    step_other = total("admm.AdmmSolver.run_step") - sum(total(v) for v in phases.values())
    solve_s = per_call("admm.Factorization.solve")
    solve_gbs = (traced["factor_nnz"] * BYTES_PER_FACTOR_ENTRY / solve_s / 1e9
                 if solve_s > 0 and traced["factor_nnz"] > 0 else 0.0)
    writes = {
        "fileio.write_iterlog_s": total("fileio.RunWriter.on_iteration"),
        "fileio.write_steps_s": total("fileio.RunWriter.on_step"),
        "fileio.write_crack_field_s": total("fileio.RunWriter.finalize"),
    }
    eligible = traced["eligible_steps"]
    metrics.update(
        {
            "fileio.parse_s": total("fileio.parse_config") + total("fileio.parse_mesh"),
            "fileio.write_s": sum(writes.values()),
            **writes,
            "fileio.bytes_written": traced["bytes_written"],
            "mesh.break_mesh_s": total("mesh.break_mesh"),
            "mesh.jump_operator_s": total("mesh.build_jump_operator"),
            "mesh.interfaces": traced["interfaces"],
            "mesh.gauss_points": traced["gauss_points"],
            "elasticity.assemble_s": total("elasticity.assemble_stiffness"),
            "elasticity.reaction_ms": 1e3 * per_call("elasticity.reaction_force"),
            "admm.order_s": total("admm.element_dissection_order"),
            "admm.factorize_s": total("admm.factorize_system"),
            "admm.factor_nnz": traced["factor_nnz"],
            "admm.solve_ms": 1e3 * total("admm.Factorization.solve") / iters,
            "admm.step_other_ms": 1e3 * step_other / iters,
            "admm.solve_gbs_computed": solve_gbs,
            "admm.solve_bw_fraction": solve_gbs / host["stream_gbs"],
            "cohesive.local_solve_ms": 1e3 * total("cohesive.solve_local_batch") / iters,
            **{f"cohesive.status_{s}": traced["statuses"][s] for s in STATUSES},
            "driver.steps": traced["steps"],
            "driver.iters_per_step_max": traced["iters_per_step_max"],
            "driver.extrapolated_steps": traced["extrapolated_steps"],
            "driver.extrapolation_accept": (
                traced["extrapolated_steps"] / eligible if eligible else 0.0
            ),
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": (
                traced["scaled_wall_s"]
                - statistics.median(r["scaled_wall_s"] for r in untraced)
                if untraced else 0.0
            ),
        }
    )
    return {k: metrics[k] for k in LAYER_UNITS}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def result_line(summary: dict) -> dict:
    units = LAYER_UNITS if summary["trace"] else END_TO_END_UNITS
    metrics = summary["metrics"]
    return {
        "correct": summary["failed"] == 0 and set(metrics) == set(units),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units
                    if k in metrics},
    }


def print_summary(summary: dict, line: dict) -> None:
    mode = "per-layer (traced)" if summary["trace"] else "end-to-end"
    verdict = "correct" if line["correct"] else "INCORRECT"
    print(f"{summary['workload']} seed {summary['seed']}, {mode}: {verdict}; "
          f"{summary['attempted']} runs attempted, {summary['failed']} failed, "
          f"{summary['setup_samples']} set-up samples, backend "
          f"{summary['host'].get('sparse_backend', '?')}; measured wall_s of each "
          "full run " + " ".join(f"{r['wall_s']:.2f}" for r in summary["reps"]
                                if "wall_s" in r))
    for name, m in line["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print("host " + json.dumps(summary["host"], sort_keys=True))


def validate_schema(line: dict, benchmark: dict, trace: bool) -> list[str]:
    """Check a result line against BENCHMARK.json's metric names and units."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if not isinstance(line["correct"], bool):
        problems.append("correct must be true or false")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(line["failed"], int):
        problems.append("failed must be a whole number")
    declared = benchmark["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    if want != got:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(want) ^ set(got))}")
    for name, m in line["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            problems.append(f"{name} is not a number")
    return problems


def self_check(seconds: float) -> int:
    """Run the tiny workload in both modes and validate the result schema."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [w["name"] for w in benchmark["workloads"]]
    from workloads import SELF_CHECK, WORKLOADS

    problems = [f"workload {w} not defined" for w in declared if w not in WORKLOADS]
    problems += [f"no reference curve for {w}" for w in declared
                 if not (HERE / "reference" / f"{w}.json").is_file()]
    for trace in (False, True):
        summary = measure(SELF_CHECK, 0, seconds, trace)
        line = result_line(summary)
        print_summary(summary, line)
        problems += validate_schema(line, benchmark, trace)
        if not line["correct"]:
            problems.append(f"tiny run incorrect (trace={trace}): {summary['failures']}")
    for p in problems:
        print(f"self-check: {p}")
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def write_reference(name: str) -> None:
    """Store the workload's stress-strain curve from one run of this code."""
    from workloads import WORKLOADS, reference_path, write_inputs

    run_dir = WORK / name
    shutil.rmtree(run_dir, ignore_errors=True)
    mesh_path, config_path = write_inputs(WORKLOADS[name], 0, run_dir / "inputs")
    res, _ = run_child({"dir": run_dir, "mesh": mesh_path, "config": config_path},
                       "reference", time.perf_counter() + RUN_LIMIT_S,
                       WORKLOADS[name].sensitivity)
    if not res["converged"]:
        raise HarnessError(f"{name} did not converge")
    rows = _read_csv(run_dir / "out" / "stress_strain.csv")
    stresses = [float(r["avg_stress"]) for r in rows]
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                    capture_output=True, text=True, check=False).stdout.strip()
    reference_path(name).parent.mkdir(exist_ok=True)
    reference_path(name).write_text(json.dumps({
        "workload": name,
        "program_commit": commit,
        "iterations": res["iterations"],
        "peak": max(stresses),
        "avg_stress": stresses,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"{name}: {res['iterations']} iterations, peak {max(stresses):.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny input in both modes; validates the result schema")
    parser.add_argument("--report", action="store_true",
                        help="every workload but the self-check one, both modes")
    parser.add_argument("--write-reference", action="store_true",
                        help="store --workload's reference curve from this code")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (args.self_check or args.report or args.workload):
        parser.error("--workload is required")
    sys.path[:0] = [str(HERE), str(SRC)]
    os.environ.update(THREAD_ENV)      # before numpy loads in this process too
    try:
        if not (SRC / "cohadm" / "__init__.py").is_file():
            raise HarnessError(f"no cohadm sources under {SRC}")
        if args.self_check:
            return self_check(min(args.seconds, 3.0))
        if args.write_reference:
            write_reference(args.workload)
            return 0
        if args.report:
            from workloads import SELF_CHECK, WORKLOADS

            ok = True
            for name in [n for n in WORKLOADS if n != SELF_CHECK]:
                for trace in (False, True):
                    summary = measure(name, args.seed, args.seconds, trace)
                    line = result_line(summary)
                    print_summary(summary, line)
                    ok = ok and line["correct"]
            return 0 if ok else 1
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    line = result_line(summary)
    print_summary(summary, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
