"""Discontinuous triangle-mesh topology and the interface jump operator.

Builds the duplicated-node discretization used by the fracture solver:
every triangle owns three private copies of its vertices, so elements are
coupled only through interface terms. Each interior edge of the input mesh
becomes an interface. The jump operator owns the interface geometry: it
places two Gauss points on each interface, fixes a unit (normal, tangent)
frame there in the reference configuration, and maps nodal displacements
to opening 2-vectors (normal, tangential) at every Gauss point.
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

# Gauss points per interface edge: two integrate the linear jump fields
# of 3-node triangles exactly
GAUSS_PER_EDGE = 2


def csr_index_dtype(*sizes: int) -> type:
    """Index dtype of a sparse matrix whose dimensions and entry count are
    `sizes`: int32 when they all fit, as scipy itself would choose."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


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

    Construction raises MeshError on the first invariant that fails, so
    every InputMesh is valid; its arrays are not changed afterwards.

    Attributes
    ----------
    nodes : (n, 2) float array
        Node coordinates.
    triangles : (m, 3) int array
        Counterclockwise node indices per triangle.
    boundary_sets : dict
        Named node-index sets used for boundary conditions and reaction
        measurement.
    interfaces : (E, 4) int array
        The `interior_edges` table, built once by the connectivity check.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_sets: dict[str, np.ndarray] = field(default_factory=dict)
    interfaces: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_sets = {
            name: np.asarray(ids, dtype=np.int64)
            for name, ids in self.boundary_sets.items()
        }
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
        # raises on non-manifold edges
        self.interfaces = interior_edges(self.triangles, n)
        if edge_components(self.interfaces, self.n_triangles)[0] > 1:
            raise MeshError("mesh is not edge-connected")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


@dataclass
class BrokenMesh:
    """Duplicated-node mesh: triangle t owns private nodes 3t, 3t+1, 3t+2.

    `interfaces` is the input mesh's own `interior_edges` table (the same
    array, not a copy): one row (minus_tri, minus_edge, plus_tri,
    plus_edge) per interior edge. It is topology only;
    `build_jump_operator` derives each interface's frame and length from
    the node coordinates.
    """

    nodes: np.ndarray          # (3m, 2) private node coordinates
    triangles: np.ndarray      # (m, 3) private node indices
    origin_of: np.ndarray      # (3m,) private node -> input node
    interfaces: np.ndarray     # (E, 4) int rows, see interior_edges
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

    The minus side is the lower triangle id; an edge index e names the
    local edge v[e] -> v[(e+1) % 3] of its triangle. Raises MeshError if
    any edge is shared by more than two triangles.
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


def edge_components(edges: np.ndarray, n_triangles: int) -> tuple[int, np.ndarray]:
    """Count and per-triangle labels of the edge-connected blocks.

    `edges` is an `interior_edges` table of the `n_triangles` triangles.
    Labels are numbered in order of each block's lowest triangle id.
    """
    adjacency = sp.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 2])),
        shape=(n_triangles, n_triangles),
    )
    return connected_components(adjacency, directed=False)


def break_mesh(mesh: InputMesh) -> BrokenMesh:
    """Duplicate nodes per triangle; the interfaces are the input mesh's.

    Every interior edge of the input mesh (shared by exactly two
    triangles) is one interface, the lower triangle id its minus side;
    boundary edges yield none. The mesh was checked when it was built,
    so nothing is checked or sorted again here.
    """
    m = mesh.n_triangles
    flat = mesh.triangles.reshape(-1)
    return BrokenMesh(
        nodes=mesh.nodes[flat].copy(),
        triangles=np.arange(3 * m, dtype=np.int64).reshape(m, 3),
        origin_of=flat.copy(),
        interfaces=mesh.interfaces,
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
        The one stored form of the operator: products with A^T go
        through ``A.T``, a CSC view over these same arrays.
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


def build_jump_operator(mesh: BrokenMesh, thickness: float = 1.0) -> JumpOperator:
    """Assemble the jump operator and interface quadrature data.

    For a nodal field u, row pair i of the result gives the difference
    (plus side minus minus side) of the interpolated displacement at
    Gauss point i, rotated into the (normal, tangent) frame of its edge.
    Each edge carries GAUSS_PER_EDGE points. Its frame is fixed at the
    reference configuration: the tangent t = (Q - P) / |Q - P| runs along
    the minus triangle's edge P -> Q, and the normal (t_y, -t_x) points
    out of the counterclockwise minus triangle, toward the plus side.

    Parameters
    ----------
    mesh : BrokenMesh
    thickness : float
        Out-of-plane thickness entering the effective areas.
    """
    if not 0 < thickness < math.inf:
        raise ValueError("thickness must be positive and finite")
    minus_tri, minus_edge, plus_tri, plus_edge = mesh.interfaces.T
    n_edges = len(minus_tri)
    n_points = n_edges * GAUSS_PER_EDGE
    s, w = gauss_rule(GAUSS_PER_EDGE)

    # private node pairs bounding each side, index 0 at the same endpoint:
    # counterclockwise neighbours run their shared edge in opposite senses
    m_nodes = mesh.triangles[minus_tri[:, None], _EDGE_LOCAL[minus_edge]]      # (E, 2)
    p_nodes = mesh.triangles[plus_tri[:, None], _EDGE_LOCAL[plus_edge, ::-1]]  # (E, 2)
    if np.any(mesh.origin_of[p_nodes] != mesh.origin_of[m_nodes]):
        raise MeshError("interface sides do not reference the same segment")

    P = mesh.nodes[m_nodes[:, 0]]
    Q = mesh.nodes[m_nodes[:, 1]]
    vec = Q - P
    lengths = np.hypot(vec[:, 0], vec[:, 1])
    tangents = vec / lengths[:, None]
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)
    points = P[:, None, :] + s[None, :, None] * vec[:, None, :]  # (E, g, 2)
    areas = (w[None, :] * lengths[:, None] * thickness).reshape(-1)

    # per Gauss point: the 4 nodes of both sides with their signed shape
    # weights, in ascending node order. The minus triangle has the lower
    # id, so its private nodes number below the plus side's; each side's
    # pair is put in order by one comparison, its weights swapped with it.
    shape = np.stack([1.0 - s, s], axis=1)                 # (g, 2)
    orders = np.stack([shape, shape[:, ::-1]])             # (2, g, 2)
    side_nodes, side_weights = [], []
    for pair, sign in ((m_nodes, -1.0), (p_nodes, 1.0)):
        swap = pair[:, 0] > pair[:, 1]
        side_nodes.append(np.where(swap[:, None], pair[:, ::-1], pair))
        side_weights.append(sign * orders[swap.astype(np.intp)])
    cols_nodes = np.concatenate(side_nodes, axis=1)        # (E, 4)
    weights = np.concatenate(side_weights, axis=2)         # (E, g, 4)

    # row (point, component) holds its 8 entries in ascending column order:
    # (E, g, row_comp, node, xy) flattens straight into canonical CSR
    frame = np.stack([normals, tangents], axis=1)          # (E, 2, 2)
    data = weights[:, :, None, :, None] * frame[:, None, :, None, :]
    index = csr_index_dtype(mesh.n_dof, data.size)
    cols = (2 * cols_nodes.astype(index))[:, None, None, :, None] + np.arange(
        2, dtype=index
    )
    A = sp.csr_matrix(
        (
            data.reshape(-1),
            np.broadcast_to(cols, data.shape).reshape(-1),
            np.arange(0, data.size + 1, 2 * cols_nodes.shape[1], dtype=index),
        ),
        shape=(2 * n_points, mesh.n_dof),
    )
    A.has_canonical_format = True

    return JumpOperator(
        A=A,
        areas=areas,
        points=points.reshape(-1, 2),
    )
