"""Workload definitions: mesh recipe, run configuration and reference curve.

Each workload reproduces one acceptance-suite problem. The benchmark
seed never changes the physical problem: it relabels the input node ids
with a seeded permutation before the mesh file is written, so every seed
yields a different but isomorphic mesh file. Triangle order and each
triangle's vertex order are kept, so the duplicated-node system the
solver builds is the same for every seed and the stored reference curve
applies to all of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# criterion-1..9 material and interface constants
SIGMA_C, DELTA_C = 3.0, 0.02287


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mesh: dict                     # meshgen function name and its arguments
    youngs_modulus: float
    beta: float
    tolerance: float
    u_end: float
    n_steps: int
    extrapolation: bool
    # log of the workload's slowdown over log of the probe's (probe.py),
    # fitted on 26 to 33 runs of 60 s per workload on a 2-CPU shared Xeon host
    sensitivity: float


_POROUS = dict(width=50.0, height=50.0, n_pores=8, pore_radius=[2.0, 4.0],
               min_gap=3.0, margin=4.0, seed=4)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="porous_ramp",
            why="criterion-5 porous plate, many iterations on a small factor: "
                "tests iterations per run (warm starts, relaxation)",
            mesh={"meshgen": "porous_plate", "nx": 32, "ny": 32, **_POROUS},
            youngs_modulus=30000.0, beta=1.0, tolerance=0.01,
            u_end=0.0297, n_steps=100, extrapolation=True,
            sensitivity=2.0,       # interpreter and small-kernel bound
        ),
        Workload(
            name="strip_30k",
            why="criterion-8 30k-element strip before activation: tests setup "
                "and the triangular solve on a large factor; iteration levers "
                "bypassed",
            mesh={"meshgen": "rect_strip", "width": 10.0, "height": 10.0,
                  "nx": 122, "ny": 122},
            youngs_modulus=3000.0, beta=1.0, tolerance=5e-4,
            u_end=0.005, n_steps=5, extrapolation=False,
            sensitivity=1.0,       # memory bound: triangular solves on a 39M-entry factor
        ),
        Workload(
            name="mixed_peak",
            why="porous plate nx=24 at mixity beta=2 through peak into "
                "softening: every point takes the general cohesive path",
            mesh={"meshgen": "porous_plate", "nx": 24, "ny": 24, **_POROUS},
            youngs_modulus=30000.0, beta=2.0, tolerance=0.01,
            u_end=0.01188, n_steps=40, extrapolation=True,
            sensitivity=2.0,       # not fitted: taken from porous_ramp
        ),
        Workload(
            name="tiny",
            why="criterion-2 200-element strip: harness self-check only",
            mesh={"meshgen": "rect_strip", "width": 10.0, "height": 5.0,
                  "nx": 10, "ny": 10},
            youngs_modulus=3000.0, beta=1.0, tolerance=0.01,
            u_end=0.005, n_steps=10, extrapolation=True,
            sensitivity=1.0,       # not fitted: self-check only
        ),
    )
}

SELF_CHECK = "tiny"

CONFIG_TEMPLATE = """\
material:
  youngs_modulus: {youngs_modulus!r}
  poisson_ratio: 0.2
  mode: plane_stress
  thickness: 1.0
cohesive:
  sigma_c: {sigma_c!r}
  delta_c: {delta_c!r}
  beta: {beta!r}
admm:
  alpha: 100.0
  c_primal: {tolerance!r}
  c_dual: {tolerance!r}
schedule:
  bc_set: right
  direction: x
  u_start: 0.0
  u_end: {u_end!r}
  n_steps: {n_steps}
  fixed:
    - {{set: left, components: x}}
    - {{set: pin, components: y}}
policy:
  extrapolation: {extrapolation}
  quality_threshold: 2.0
output:
  directory: out
"""


def config_text(w: Workload) -> str:
    return CONFIG_TEMPLATE.format(
        youngs_modulus=w.youngs_modulus, sigma_c=SIGMA_C, delta_c=DELTA_C,
        beta=w.beta, tolerance=w.tolerance, u_end=w.u_end, n_steps=w.n_steps,
        extrapolation="true" if w.extrapolation else "false",
    )


def build_mesh(w: Workload, seed: int):
    """The workload's input mesh with node ids relabelled by `seed`."""
    from cohadm.meshgen import porous_plate, rect_strip
    from cohadm.mesh import InputMesh

    args = dict(w.mesh)
    function = args.pop("meshgen")
    if function == "porous_plate":
        args["pore_radius"] = tuple(args["pore_radius"])
        mesh = porous_plate(**args)
    else:
        mesh = rect_strip(**args)
    perm = np.random.default_rng(seed).permutation(mesh.n_nodes)
    nodes = np.empty_like(mesh.nodes)
    nodes[perm] = mesh.nodes
    return InputMesh(
        nodes=nodes,
        triangles=perm[mesh.triangles],
        boundary_sets={k: np.sort(perm[v]) for k, v in mesh.boundary_sets.items()},
    )


def write_inputs(w: Workload, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write `<name>.mesh` and `<name>.yaml` for the workload and seed."""
    from cohadm.fileio import write_mesh

    directory.mkdir(parents=True, exist_ok=True)
    mesh_path = directory / f"{w.name}.mesh"
    config_path = directory / f"{w.name}.yaml"
    write_mesh(build_mesh(w, seed), mesh_path)
    config_path.write_text(config_text(w), encoding="utf-8")
    return mesh_path, config_path


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> dict:
    with open(reference_path(name), encoding="utf-8") as fh:
        return json.load(fh)
