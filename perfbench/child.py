"""One repetition of a workload, as `cohadm run` does it, in this process.

    python3 perfbench/child.py --mesh M --config C --out DIR --result R.json
        [--trace] [--setup-only] [--cpu N]

Calls only public functions: `parse_config`, `parse_mesh`, `RunWriter`
and `run_quasistatic` with the writer's sinks. Times are taken at the
sinks: set-up ends when `setup_sink` fires, load stepping ends at the
last `step_sink`, and the run ends when `RunWriter.finalize` returns.
The run is also cut into segments at every sink call (and after each
parse), and each segment's duration is written to the result, so the
parent can compare the same stretch of work across repetitions.
With --setup-only the run is stopped at `setup_sink`. With --trace the
module boundaries are wrapped (see spans.py) and the per-layer totals
are written to the result. Exit code 3 means the run did not converge.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter


class _SetupDone(Exception):
    pass


def _factor_nnz(backend):
    """Stored entries of the factors, and the backend's class name."""
    lu = getattr(backend, "_lu", None)
    nnz = int(lu.L.nnz + lu.U.nnz) if lu is not None else -1
    return nnz, type(backend).__name__


def _diffs(times: list[float]) -> list[float]:
    return [b - a for a, b in zip(times, times[1:])]


def _peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    VmHWM starts afresh at exec; ru_maxrss would also count the memory
    the parent held when it forked this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mesh", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int, help="run on this core only")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from cohadm import driver, fileio
    from cohadm.errors import ConvergenceError

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}
    solver_box = {}
    ticks = []            # segment boundaries: parses, set-up, every sink call
    t0 = perf_counter()
    config = fileio.parse_config(args.config)
    ticks.append(perf_counter())
    mesh = fileio.parse_mesh(args.mesh)
    writer = fileio.RunWriter(args.out, per_step_fields=config.output.per_step_fields)
    ticks.append(perf_counter())

    def setup_sink(broken, jump, solver):
        marks["setup"] = perf_counter()
        ticks.append(marks["setup"])
        solver_box["solver"] = solver
        solver_box["mesh"] = broken
        if args.setup_only:
            raise _SetupDone
        writer.bind(broken, jump, solver)

    def iteration_sink(step, it, primal, dual):
        writer.on_iteration(step, it, primal, dual)
        ticks.append(perf_counter())

    def step_sink(row, state, cohesive_state):
        writer.on_step(row, state, cohesive_state)
        marks["step"] = perf_counter()
        ticks.append(marks["step"])

    result = {"converged": True, "t0": t0}
    try:
        record = driver.run_quasistatic(
            mesh, config.material, config.cohesive, config.schedule,
            config.admm, config.policy,
            setup_sink=setup_sink, step_sink=step_sink,
            iteration_sink=iteration_sink,
        )
        writer.finalize(record)
        t_end = perf_counter()
    except _SetupDone:
        writer.close()
        result["setup_s"] = marks["setup"] - t0
        result["setup_segments"] = _diffs([t0] + ticks)
    except ConvergenceError as exc:
        writer.close()
        result.update(converged=False, error=str(exc))
    else:
        rows = record.rows[1:]
        result.update(
            wall_s=t_end - t0,
            setup_s=marks["setup"] - t0,
            stepping_s=marks["step"] - marks["setup"],
            iterations=record.total_iterations,
            steps=len(rows),
            iters_per_step_max=max(r.iterations for r in rows),
            extrapolated_steps=sum(r.extrapolated for r in rows),
            eligible_steps=sum(r.step >= 3 for r in rows),
            setup_segments=_diffs([t0] + ticks[:3]),
            step_segments=_diffs(ticks[2:]),
            final_s=t_end - marks["step"],
        )
    solver = solver_box.get("solver")
    if solver is not None:
        broken = solver_box["mesh"]
        nnz, backend = _factor_nnz(solver.fact.backend)
        result.update(
            factor_nnz=nnz, backend=backend,
            interfaces=len(broken.interfaces), gauss_points=solver.n_points,
        )
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["spans"] = tracer.totals()
        tracer.dump(Path(args.result).with_suffix(".spans.jsonl"))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0 if result["converged"] else 3


if __name__ == "__main__":
    sys.exit(main())
