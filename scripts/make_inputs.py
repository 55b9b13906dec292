#!/usr/bin/env python3
"""Generate ready-to-run mesh and config files for the CLI.

Writes a plain uniaxial strip and a porous plate, each with a matching
YAML config, into the target directory:

    python scripts/make_inputs.py out/demo
    cohadm info --mesh out/demo/strip.mesh
    cohadm run --mesh out/demo/strip.mesh --config out/demo/strip.yaml \
        --out out/demo/strip_results
"""

import argparse
import os

from cohadm.fileio import write_mesh
from cohadm.meshgen import porous_plate, rect_strip

STRIP_CONFIG = """\
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
  u_end: 0.03
  n_steps: 300
  fixed:
    - {set: left, components: x}
    - {set: pin, components: y}
policy:
  extrapolation: true
output:
  directory: out
"""

POROUS_CONFIG = STRIP_CONFIG.replace("u_end: 0.03", "u_end: 0.0297").replace(
    "youngs_modulus: 3000.0", "youngs_modulus: 30000.0"
).replace("n_steps: 300", "n_steps: 100")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("target", help="output directory")
    args = parser.parse_args()
    os.makedirs(args.target, exist_ok=True)

    strip = rect_strip(10.0, 5.0, 10, 10)
    write_mesh(strip, os.path.join(args.target, "strip.mesh"))
    with open(os.path.join(args.target, "strip.yaml"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(STRIP_CONFIG)

    plate = porous_plate(width=50.0, height=50.0, nx=32, ny=32,
                         n_pores=8, seed=4)
    write_mesh(plate, os.path.join(args.target, "porous.mesh"))
    with open(os.path.join(args.target, "porous.yaml"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(POROUS_CONFIG)

    print(f"wrote strip.mesh ({strip.n_triangles} elements) and "
          f"porous.mesh ({plate.n_triangles} elements) to {args.target}")


if __name__ == "__main__":
    main()
