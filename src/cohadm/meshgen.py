"""Structured mesh builders for fixtures, demos and benchmarks.

These produce simple triangulations of rectangles, optionally perforated
by random circular pores, with the boundary sets the load schedules
expect ('left', 'right', 'pin'). Isoperimetric meshing of the kind used
to reduce crack-path bias is out of scope; these grids are intended for
verification problems, not production fracture studies.
"""

from __future__ import annotations

import numpy as np

from .mesh import InputMesh, edge_components, interior_edges


def rect_strip(
    width: float,
    height: float,
    nx: int,
    ny: int,
) -> InputMesh:
    """Rectangle triangulated into 2*nx*ny elements with '/' diagonals.

    Boundary sets: 'left' and 'right' are the vertical edges, 'bottom'
    and 'top' the horizontal ones, 'pin' the single node at the origin.
    """
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([xx.reshape(-1), yy.reshape(-1)], axis=1)

    def nid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            ll, lr = nid(i, j), nid(i + 1, j)
            ul, ur = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append([ll, lr, ur])
            tris.append([ll, ur, ul])
    triangles = np.array(tris, dtype=np.int64)

    idx = np.arange(len(nodes))
    sets = {
        "left": idx[nodes[:, 0] == 0.0],
        "right": idx[nodes[:, 0] == width],
        "bottom": idx[nodes[:, 1] == 0.0],
        "top": idx[nodes[:, 1] == height],
        "pin": np.array([nid(0, 0)]),
    }
    return InputMesh(nodes=nodes, triangles=triangles, boundary_sets=sets)


def two_triangle_diamond(span: float = 2.0) -> InputMesh:
    """Two triangles sharing one vertical interface edge.

    The diamond is pulled apart between the 'left' and 'right' corner
    nodes; the shared edge has length `span` and the interface area
    equals span times the thickness.
    """
    h = span / 2.0
    nodes = np.array(
        [[0.0, 0.0], [h, -h], [h, h], [2.0 * h, 0.0]]
    )
    triangles = np.array([[0, 1, 2], [1, 3, 2]], dtype=np.int64)
    sets = {
        "left": np.array([0]),
        "right": np.array([3]),
        "pin": np.array([0]),
    }
    return InputMesh(nodes=nodes, triangles=triangles, boundary_sets=sets)


def _sample_pores(rng, width, height, n_pores, r_lo, r_hi, margin, min_gap):
    """Rejection-sample non-overlapping pore centers and radii.

    Raises ValueError if fewer than n_pores fit within 20,000 attempts.
    """
    centers = []
    radii = []
    attempts = 0
    while len(centers) < n_pores and attempts < 20_000:
        attempts += 1
        r = rng.uniform(r_lo, r_hi)
        c = np.array(
            [
                rng.uniform(margin + r, width - margin - r),
                rng.uniform(margin + r, height - margin - r),
            ]
        )
        ok = all(
            np.hypot(*(c - c2)) >= r + r2 + min_gap
            for c2, r2 in zip(centers, radii)
        )
        if ok:
            centers.append(c)
            radii.append(r)
    if len(centers) < n_pores:
        raise ValueError(
            f"placed only {len(centers)} of {n_pores} pores in {attempts} "
            "attempts; use fewer or smaller pores, or a larger plate"
        )
    return np.array(centers), np.array(radii)


def _largest_edge_component(triangles: np.ndarray, n_nodes: int) -> np.ndarray:
    """Mask of the largest edge-connected block of triangles."""
    edges = interior_edges(triangles, n_nodes)
    _, label = edge_components(edges, len(triangles))
    return label == np.argmax(np.bincount(label))


def porous_plate(
    width: float = 50.0,
    height: float = 50.0,
    nx: int = 32,
    ny: int = 32,
    n_pores: int = 8,
    pore_radius: tuple[float, float] = (2.0, 4.0),
    min_gap: float = 3.0,
    margin: float = 4.0,
    seed: int = 0,
) -> InputMesh:
    """Rectangular plate with randomly embedded circular pores.

    Triangles whose centroid falls inside a pore are removed and the
    largest edge-connected component is kept, so the result always
    satisfies the mesh invariants. Deterministic for a given seed.
    Raises ValueError if not all n_pores pores fit on the plate.
    """
    base = rect_strip(width, height, nx, ny)
    rng = np.random.default_rng(seed)
    centers, radii = _sample_pores(
        rng, width, height, n_pores, pore_radius[0], pore_radius[1],
        margin, min_gap,
    )
    centroids = base.nodes[base.triangles].mean(axis=1)
    keep = np.ones(len(base.triangles), dtype=bool)
    for c, r in zip(centers, radii):
        keep &= np.hypot(*(centroids - c).T) > r
    triangles = base.triangles[keep]
    triangles = triangles[_largest_edge_component(triangles, len(base.nodes))]

    used = np.unique(triangles)
    remap = np.full(len(base.nodes), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    nodes = base.nodes[used]
    triangles = remap[triangles]
    sets = {}
    for name, ids in base.boundary_sets.items():
        kept = remap[ids]
        sets[name] = kept[kept >= 0]
    if sets["left"].size == 0 or sets["right"].size == 0:
        raise ValueError("pores removed an entire loading edge; adjust margins")
    if sets["pin"].size == 0:
        corner = np.argmin(nodes[:, 0] ** 2 + nodes[:, 1] ** 2)
        sets["pin"] = np.array([corner])
    return InputMesh(nodes=nodes, triangles=triangles, boundary_sets=sets)
