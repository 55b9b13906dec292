#!/usr/bin/env python3
"""Extrapolation warm-start study on the porous-plate problem.

Runs the same displacement ramp with and without linear extrapolation of
the warm start and reports total iteration counts, the per-step iteration
profile, and the stress-strain agreement. Writes one stress_strain CSV
per variant under --out.
"""

import argparse
import time

import numpy as np

from cohadm.admm import AdmmConfig
from cohadm.cohesive import CohesiveParams
from cohadm.driver import ExtrapolationPolicy, LoadSchedule, run_quasistatic
from cohadm.elasticity import Material
from cohadm.fileio import RunWriter
from cohadm.meshgen import porous_plate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/extrapolation_study")
    parser.add_argument("--elements", type=int, default=2000,
                        help="approximate element count")
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args()

    nx = max(8, int(round((args.elements / 2) ** 0.5)))
    mesh = porous_plate(width=50.0, height=50.0, nx=nx, ny=nx,
                        n_pores=8, seed=args.seed)
    material = Material(youngs_modulus=30000.0, poisson_ratio=0.2,
                        mode="plane_stress", thickness=1.0)
    cohesive = CohesiveParams(sigma_c=3.0, delta_c=0.02287, beta=1.0)
    schedule = LoadSchedule(
        bc_set="right", direction="x", u_start=0.0, u_end=0.0297,
        n_steps=args.steps, fixed_sets=(("left", "x"), ("pin", "y")),
    )
    config = AdmmConfig(alpha=100.0, c_primal=0.01, c_dual=0.01)
    print(f"mesh: {mesh.n_triangles} elements, {mesh.n_nodes} nodes")

    records = {}
    for label, enabled in (("with", True), ("without", False)):
        writer = RunWriter(f"{args.out}/{label}_extrapolation")
        t0 = time.perf_counter()
        record = run_quasistatic(
            mesh, material, cohesive, schedule, config,
            policy=ExtrapolationPolicy(enabled=enabled),
            setup_sink=writer.bind,
            step_sink=writer.on_step,
            iteration_sink=writer.on_iteration,
        )
        wall = time.perf_counter() - t0
        writer.finalize(record)
        records[label] = record
        print(f"{label:>7} extrapolation: {record.total_iterations:6d} iterations, "
              f"{wall:6.1f} s, peak stress {record.peak_stress:.4f}")

    with_x, without = records["with"], records["without"]
    ratio = with_x.total_iterations / without.total_iterations
    peak = max(with_x.peak_stress, without.peak_stress)
    gap = np.abs(with_x.stresses - without.stresses).max()
    print(f"iteration ratio (with/without): {ratio:.3f}")
    print(f"max stress-strain deviation: {gap / peak:.2%} of peak")
    used = sum(r.extrapolated for r in with_x.rows)
    print(f"extrapolated warm starts: {used} of {args.steps} steps")


if __name__ == "__main__":
    main()
