"""Discontinuous triangle-mesh topology.

Builds the duplicated-node discretization used by the fracture solver:
every triangle owns three private copies of its vertices, so elements are
coupled only through interface terms. Each interior edge of the input mesh
becomes an interface carrying Gauss points, a unit normal/tangent frame,
and effective areas. The jump operator maps nodal displacements to opening
2-vectors (normal, tangential) at every interface Gauss point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import MeshError

# local edge e of triangle (v0, v1, v2) runs v[e] -> v[(e+1) % 3]
_EDGE_LOCAL = np.array([[0, 1], [1, 2], [2, 0]])

# One record per interior edge of the input mesh, shared by two triangles.
# The minus side is the triangle with the lower id; the normal points from
# the minus side to the plus side and is fixed at the reference
# configuration. The tangent is the normal rotated by +90 degrees.
INTERFACE_DTYPE = np.dtype(
    [
        ("minus_tri", np.int64),
        ("minus_edge", np.int64),
        ("plus_tri", np.int64),
        ("plus_edge", np.int64),
        ("normal", np.float64, (2,)),
        ("tangent", np.float64, (2,)),
        ("length", np.float64),
    ]
)


def triangle_signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed area of each triangle (positive for counterclockwise)."""
    p0 = nodes[triangles[:, 0]]
    p1 = nodes[triangles[:, 1]]
    p2 = nodes[triangles[:, 2]]
    return 0.5 * (
        (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
        - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    )


@dataclass
class InputMesh:
    """Conforming triangulation as read from a mesh file.

    Attributes
    ----------
    nodes : (n, 2) float array
        Node coordinates.
    triangles : (m, 3) int array
        Counterclockwise node indices per triangle.
    boundary_sets : dict
        Named node-index sets used for boundary conditions and reaction
        measurement.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_sets: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_sets = {
            name: np.asarray(ids, dtype=np.int64)
            for name, ids in self.boundary_sets.items()
        }

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def validate(self) -> None:
        """Check all structural invariants, raising MeshError on failure."""
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshError("nodes must be an (n, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (m, 3) array")
        if not np.isfinite(self.nodes).all():
            bad = int(np.argmin(np.isfinite(self.nodes).all(axis=1)))
            raise MeshError(f"node {bad} has a non-finite coordinate")
        n = self.n_nodes
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= n
        ):
            bad = int(np.argmax((self.triangles < 0) | (self.triangles >= n)))
            raise MeshError(f"triangle {bad // 3} references a node out of range")
        areas = triangle_signed_areas(self.nodes, self.triangles)
        scale = max(np.abs(self.nodes).max(initial=0.0), 1.0)
        if np.any(areas <= 1e-14 * scale**2):
            bad = int(np.argmin(areas))
            raise MeshError(
                f"triangle {bad} has non-positive signed area {areas[bad]:g} "
                "(nodes must be counterclockwise and not collinear)"
            )
        for name, ids in self.boundary_sets.items():
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise MeshError(f"boundary set '{name}' references a node out of range")
        # builds the edge table, which raises on non-manifold edges
        if edge_components(self.triangles, n)[0] > 1:
            raise MeshError("mesh is not edge-connected")


@dataclass
class BrokenMesh:
    """Duplicated-node mesh: triangle t owns private nodes 3t, 3t+1, 3t+2."""

    nodes: np.ndarray          # (3m, 2) private node coordinates
    triangles: np.ndarray      # (m, 3) private node indices
    origin_of: np.ndarray      # (3m,) private node -> input node
    interfaces: np.ndarray     # (E,) INTERFACE_DTYPE records
    input_mesh: InputMesh

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_dof(self) -> int:
        return 2 * len(self.nodes)

    def private_nodes_of(self, input_nodes) -> np.ndarray:
        """All private copies of the given input node ids, sorted."""
        mask = np.isin(self.origin_of, np.asarray(input_nodes, dtype=np.int64))
        return np.flatnonzero(mask)

    def dofs_of(self, input_nodes, component: str) -> np.ndarray:
        """DOF indices ('x', 'y' or 'xy') of all private copies of the nodes."""
        priv = self.private_nodes_of(input_nodes)
        comps = {"x": [0], "y": [1], "xy": [0, 1]}[component]
        return np.sort(np.concatenate([2 * priv + c for c in comps]))


def interior_edges(triangles: np.ndarray, n_nodes: int) -> np.ndarray:
    """(E, 4) rows (minus_tri, minus_edge, plus_tri, plus_edge), one per
    edge shared by two triangles, sorted by (minus_tri, minus_edge).

    The minus side is the lower triangle id. Raises MeshError if any edge
    is shared by more than two triangles.
    """
    ends = triangles[:, _EDGE_LOCAL]                      # (m, 3, 2)
    keys = (ends.min(axis=2) * n_nodes + ends.max(axis=2)).reshape(-1)
    # stable, so each shared edge lists its lower triangle id first
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    crowded = np.flatnonzero(sorted_keys[2:] == sorted_keys[:-2])
    if crowded.size:
        key = divmod(int(sorted_keys[crowded[0]]), n_nodes)
        raise MeshError(
            f"non-manifold edge {key}: shared by more than two triangles"
        )
    first = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    minus, plus = order[first], order[first + 1]
    rank = np.argsort(minus)
    minus, plus = minus[rank], plus[rank]
    return np.stack([minus // 3, minus % 3, plus // 3, plus % 3], axis=1)


def edge_components(triangles: np.ndarray, n_nodes: int) -> tuple[int, np.ndarray]:
    """Count and per-triangle labels of the edge-connected blocks.

    Labels are numbered in order of each block's lowest triangle id.
    """
    pairs = interior_edges(triangles, n_nodes)
    m = len(triangles)
    adjacency = sp.coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 2])), shape=(m, m)
    )
    return connected_components(adjacency, directed=False)


def break_mesh(mesh: InputMesh) -> BrokenMesh:
    """Duplicate nodes per triangle and enumerate interface edges.

    Every interior edge of the input mesh (shared by exactly two
    triangles) yields one INTERFACE_DTYPE record; boundary edges yield
    none. Orientation is deterministic: the lower triangle id is the
    minus side and the normal points minus -> plus.

    Raises
    ------
    MeshError
        If the input mesh violates its invariants or has a non-manifold
        edge.
    """
    mesh.validate()
    m = mesh.n_triangles
    flat = mesh.triangles.reshape(-1)
    nodes = mesh.nodes[flat].copy()
    triangles = np.arange(3 * m, dtype=np.int64).reshape(m, 3)
    origin_of = flat.copy()

    minus_tri, minus_edge, plus_tri, plus_edge = interior_edges(
        mesh.triangles, mesh.n_nodes
    ).T
    interfaces = np.zeros(len(minus_tri), dtype=INTERFACE_DTYPE)
    interfaces["minus_tri"] = minus_tri
    interfaces["minus_edge"] = minus_edge
    interfaces["plus_tri"] = plus_tri
    interfaces["plus_edge"] = plus_edge
    ends = mesh.triangles[minus_tri[:, None], _EDGE_LOCAL[minus_edge]]   # (E, 2)
    vec = mesh.nodes[ends[:, 1]] - mesh.nodes[ends[:, 0]]
    length = np.hypot(vec[:, 0], vec[:, 1])
    tangent_dir = vec / length[:, None]
    # outward normal of the CCW minus triangle's edge a -> b
    normal = np.stack([tangent_dir[:, 1], -tangent_dir[:, 0]], axis=1)
    interfaces["normal"] = normal
    interfaces["tangent"] = np.stack([-normal[:, 1], normal[:, 0]], axis=1)
    interfaces["length"] = length
    return BrokenMesh(
        nodes=nodes,
        triangles=triangles,
        origin_of=origin_of,
        interfaces=interfaces,
        input_mesh=mesh,
    )


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [0, 1] (weights sum to 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
class JumpOperator:
    """Sparse map from nodal displacements to interface openings.

    ``A`` has one row pair per interface Gauss point: row 2i is the
    normal opening and row 2i+1 the tangential opening at point i.
    Applying A to any displacement field that is continuous across all
    interfaces gives zero.

    Attributes
    ----------
    A : csr_matrix, shape (2 * n_points, n_dof)
    areas : (n_points,) float array
        Effective area per Gauss point (quadrature weight x edge length
        x thickness).
    points : (n_points, 2) float array
        Gauss point positions in the reference configuration.
    """

    A: sp.csr_matrix
    areas: np.ndarray
    points: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.areas)

    @property
    def n_dof(self) -> int:
        return self.A.shape[1]


def build_jump_operator(
    mesh: BrokenMesh, gauss_per_edge: int = 2, thickness: float = 1.0
) -> JumpOperator:
    """Assemble the jump operator and interface quadrature data.

    For a nodal field u, row pair i of the result gives the difference
    (plus side minus minus side) of the interpolated displacement at
    Gauss point i, rotated into the (normal, tangent) frame of its edge.

    Parameters
    ----------
    mesh : BrokenMesh
    gauss_per_edge : int
        Quadrature points per interface edge (>= 1). Two points integrate
        the linear jump fields of 3-node triangles exactly.
    thickness : float
        Out-of-plane thickness entering the effective areas.
    """
    if gauss_per_edge < 1:
        raise ValueError("gauss_per_edge must be >= 1")
    if not 0 < thickness < math.inf:
        raise ValueError("thickness must be positive and finite")
    edges = mesh.interfaces
    n_edges = len(edges)
    n_points = n_edges * gauss_per_edge
    n_dof = mesh.n_dof
    s, w = gauss_rule(gauss_per_edge)
    minus_tri, minus_edge = edges["minus_tri"], edges["minus_edge"]
    plus_tri, plus_edge = edges["plus_tri"], edges["plus_edge"]
    normals, tangents, lengths = edges["normal"], edges["tangent"], edges["length"]

    # private node pairs bounding each side, aligned so that index 0 sits
    # at the same geometric endpoint on both sides
    m_nodes = mesh.triangles[minus_tri[:, None], _EDGE_LOCAL[minus_edge]]   # (E, 2)
    p_nodes = mesh.triangles[plus_tri[:, None], _EDGE_LOCAL[plus_edge]]    # (E, 2)
    swap = mesh.origin_of[p_nodes[:, 0]] != mesh.origin_of[m_nodes[:, 0]]
    p_nodes[swap] = p_nodes[swap][:, ::-1]
    if np.any(mesh.origin_of[p_nodes] != mesh.origin_of[m_nodes]):
        raise MeshError("interface sides do not reference the same segment")

    P = mesh.nodes[m_nodes[:, 0]]
    Q = mesh.nodes[m_nodes[:, 1]]
    points = P[:, None, :] + s[None, :, None] * (Q - P)[:, None, :]  # (E, g, 2)
    areas = (w[None, :] * lengths[:, None] * thickness).reshape(-1)

    # per Gauss point: 4 contributing nodes with signed shape weights
    shape = np.stack([1.0 - s, s], axis=1)                 # (g, 2)
    cols_nodes = np.concatenate([p_nodes, m_nodes], axis=1)  # (E, 4)
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    weights = np.concatenate([shape, shape], axis=1) * signs  # (g, 4)

    # rows: (E, g, 2, 4, 2) -> flattened COO triplets
    gp_index = (
        np.arange(n_edges)[:, None] * gauss_per_edge + np.arange(gauss_per_edge)
    )  # (E, g)
    frame = np.stack([normals, tangents], axis=1)          # (E, 2, 2)
    data = (
        weights[None, :, None, :, None] * frame[:, None, :, None, :]
    )  # (E, g, row_comp, node, xy)
    rows = np.broadcast_to(
        (2 * gp_index)[:, :, None, None, None] + np.arange(2)[None, None, :, None, None],
        data.shape,
    )
    cols = np.broadcast_to(
        (2 * cols_nodes)[:, None, None, :, None] + np.arange(2)[None, None, None, None, :],
        data.shape,
    )
    A = sp.coo_matrix(
        (data.reshape(-1), (rows.reshape(-1), cols.reshape(-1))),
        shape=(2 * n_points, n_dof),
    ).tocsr()

    return JumpOperator(
        A=A,
        areas=areas,
        points=points.reshape(-1, 2),
    )
