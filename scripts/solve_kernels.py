#!/usr/bin/env python3
"""Time the SuperLU factorization and its two solve kernels on the
operator a run would factor.

    python scripts/solve_kernels.py out/demo/porous.mesh out/demo/porous.yaml
    OPENBLAS_NUM_THREADS=1 taskset -c 0 python scripts/solve_kernels.py M C

Builds the set-up of `cohadm run` for MESH and CONFIG and the factor
of K + rho A'A at the configured alpha, then times SuperLU's solve with
trans="N" (`supernodal`) and trans="T" (`transposed`) on one random
right-hand side, in alternating rounds. Prints the factor's stored
entries, the median ms per solve of each kernel and the kernel the
solver picks (admm.SMALL_FACTOR_NNZ). Then factors the operator again in
alternating rounds on panels of admm.PANEL_SIZE and of scipy's default
20 columns, and prints the median CPU seconds of each. Both constants
can so be checked on another host.
"""

import argparse
import statistics
import time

import numpy as np

from cohadm import admm
from cohadm.driver import build_problem
from cohadm.fileio import parse_config, parse_mesh

ROUND_S = 0.05          # each round times solves for about this long
DEFAULT_PANEL = 20      # scipy's panel_size


def time_kernels(lu, rhs, rounds: int) -> dict[str, float]:
    """Median ms per solve of each kernel over alternating rounds."""
    start = time.perf_counter()
    lu.solve(rhs)
    reps = max(1, int(ROUND_S / max(time.perf_counter() - start, 1e-6)))
    samples = {name: [] for name in admm.SOLVE_KERNELS}
    order = list(admm.SOLVE_KERNELS)
    for _ in range(rounds):
        for name in order:
            trans = admm.SOLVE_KERNELS[name]
            start = time.perf_counter()
            for _ in range(reps):
                lu.solve(rhs, trans=trans)
            samples[name].append(1e3 * (time.perf_counter() - start) / reps)
        order.reverse()
    return {name: statistics.median(ms) for name, ms in samples.items()}


def reduced_operator(solver: admm.AdmmSolver):
    """The free-free block of K + rho A'A that the solver factored."""
    fact = solver.fact
    free = np.zeros(len(fact.free) + len(fact.fixed), dtype=bool)
    free[fact.free] = True
    operator = admm._node_block_operator(solver.K, solver.jump.A, solver.rho)
    return admm._reduce(operator, free, fact.fixed)[0]


def time_factor(reduced, rounds: int) -> dict[int, float]:
    """Median CPU s of the factorization on each panel size over
    alternating rounds."""
    panels = [admm.PANEL_SIZE, DEFAULT_PANEL]
    samples = {panel: [] for panel in panels}
    for _ in range(rounds):
        for panel in panels:
            start = time.process_time()
            admm._SuperLuBackend(reduced, panel_size=panel)
            samples[panel].append(time.process_time() - start)
        panels.reverse()
    return {panel: statistics.median(s) for panel, s in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mesh")
    parser.add_argument("config")
    parser.add_argument("--rounds", type=int, default=20,
                        help="alternating rounds per kernel and per panel "
                             "size (default 20)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    config = parse_config(args.config)
    solver = build_problem(
        parse_mesh(args.mesh), config.material, config.cohesive, config.schedule
    ).solver(config.admm)
    backend = solver.fact.backend
    if backend is None:
        print("every DOF is fixed: no factor to solve with")
        return 1
    rhs = np.random.default_rng(0).normal(size=backend._lu.shape[0])
    medians = time_kernels(backend._lu, rhs, args.rounds)
    print(f"nnz {backend.nnz}")
    for name, ms in medians.items():
        print(f"{name} {ms:.4g} ms (trans={admm.SOLVE_KERNELS[name]}, "
              f"median of {args.rounds} rounds)")
    print(f"picks {backend.kernel} "
          f"(SMALL_FACTOR_NNZ {admm.SMALL_FACTOR_NNZ})")
    seconds = time_factor(reduced_operator(solver), args.rounds)
    for panel, s in seconds.items():
        print(f"panel {panel} {s:.4g} s (splu CPU time, "
              f"median of {args.rounds} rounds)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
