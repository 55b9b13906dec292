"""Independent reference computations used to verify the package.

Everything here is written from first principles with plain loops and
dense algebra so it shares no code path with the production solver,
except the references at the end: they build the solver's operators
through scipy's general COO and CSR routines, so a test can check bit
for bit what the package lays out directly.
"""

import numpy as np
import scipy.sparse as sp


def d_matrix(E, nu, mode):
    if mode == "plane_stress":
        c = E / (1.0 - nu * nu)
        return c * np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, (1.0 - nu) / 2.0]])
    c = E / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return c * np.array(
        [[1.0 - nu, nu, 0.0], [nu, 1.0 - nu, 0.0], [0.0, 0.0, (1.0 - 2.0 * nu) / 2.0]]
    )


def cst_energy(xy, u, E, nu, mode, thickness):
    """Constant-strain energy of one triangle from an affine fit of u."""
    xy = np.asarray(xy, dtype=float)
    u = np.asarray(u, dtype=float).reshape(3, 2)
    dX = np.column_stack([xy[1] - xy[0], xy[2] - xy[0]])
    dU = np.column_stack([u[1] - u[0], u[2] - u[0]])
    G = dU @ np.linalg.inv(dX)          # du_i/dx_j
    eps = np.array([G[0, 0], G[1, 1], G[0, 1] + G[1, 0]])
    area = 0.5 * abs(np.linalg.det(dX))
    return 0.5 * eps @ d_matrix(E, nu, mode) @ eps * area * thickness


def conforming_stiffness(nodes, triangles, E, nu, mode, thickness):
    """Dense global CST stiffness on the shared-node (conforming) mesh."""
    n = len(nodes)
    K = np.zeros((2 * n, 2 * n))
    D = d_matrix(E, nu, mode)
    for tri in triangles:
        x = nodes[tri, 0]
        y = nodes[tri, 1]
        area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
        b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]]) / (2 * area)
        c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]]) / (2 * area)
        B = np.zeros((3, 6))
        for i in range(3):
            B[0, 2 * i] = b[i]
            B[1, 2 * i + 1] = c[i]
            B[2, 2 * i] = c[i]
            B[2, 2 * i + 1] = b[i]
        ke = B.T @ D @ B * area * thickness
        dofs = np.array([[2 * t, 2 * t + 1] for t in tri]).reshape(-1)
        for i in range(6):
            for j in range(6):
                K[dofs[i], dofs[j]] += ke[i, j]
    return K


def conforming_solve(mesh, E, nu, mode, thickness, bc):
    """Direct dense solve of the conforming problem.

    bc maps DOF index -> prescribed value. Returns the full displacement
    vector over the input-mesh nodes.
    """
    K = conforming_stiffness(mesh.nodes, mesh.triangles, E, nu, mode, thickness)
    n = K.shape[0]
    fixed = np.array(sorted(bc), dtype=np.int64)
    values = np.array([bc[d] for d in fixed])
    free = np.setdiff1d(np.arange(n), fixed)
    u = np.zeros(n)
    u[fixed] = values
    rhs = -K[np.ix_(free, fixed)] @ values
    u[free] = np.linalg.solve(K[np.ix_(free, free)], rhs)
    return u


def reaction_on(K, u, node_ids):
    """Internal force summed over input-mesh nodes (conforming)."""
    f = K @ u
    node_ids = np.asarray(node_ids)
    return np.array([f[2 * node_ids].sum(), f[2 * node_ids + 1].sum()])


def coo_stiffness(mesh, material):
    """The broken-mesh stiffness scattered through COO triplets.

    Takes the production element blocks and places them by the mesh's
    own triangle table, so it checks the layout `assemble_stiffness`
    writes directly, not the element arithmetic.
    """
    from cohadm.elasticity import element_stiffness

    ke = element_stiffness(mesh, material)
    dofs = np.empty((mesh.n_triangles, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    rows = np.repeat(dofs, 6, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, 6)).reshape(-1)
    return sp.coo_matrix(
        (ke.reshape(-1), (rows, cols)), shape=(mesh.n_dof, mesh.n_dof)
    ).tocsr()


def coo_jump_operator(mesh):
    """The jump operator A through COO triplets, one per (Gauss point,
    component, node, axis), with each edge's nodes in the order plus
    side then minus side, as the interface table gives them."""
    from cohadm.mesh import gauss_rule

    edge_local = np.array([[0, 1], [1, 2], [2, 0]])
    minus_tri, minus_edge, plus_tri, plus_edge = mesh.interfaces.T
    n_edges = len(minus_tri)
    s, _ = gauss_rule(2)
    m_nodes = mesh.triangles[minus_tri[:, None], edge_local[minus_edge]]
    p_nodes = mesh.triangles[plus_tri[:, None], edge_local[plus_edge, ::-1]]
    vec = mesh.nodes[m_nodes[:, 1]] - mesh.nodes[m_nodes[:, 0]]
    tangents = vec / np.hypot(vec[:, 0], vec[:, 1])[:, None]
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)
    frame = np.stack([normals, tangents], axis=1)              # (E, 2, 2)
    shape = np.stack([1.0 - s, s], axis=1)                     # (g, 2)
    weights = np.concatenate([shape, -shape], axis=1)          # (g, 4)
    nodes = np.concatenate([p_nodes, m_nodes], axis=1)         # (E, 4)
    data = weights[None, :, None, :, None] * frame[:, None, :, None, :]
    point = np.arange(2 * n_edges).reshape(n_edges, 2)
    rows = 2 * point[:, :, None, None, None] + np.arange(2)[:, None, None]
    cols = 2 * nodes[:, None, None, :, None] + np.arange(2)
    rows, cols = np.broadcast_arrays(rows, cols)
    return sp.coo_matrix(
        (data.reshape(-1), (rows.reshape(-1), cols.reshape(-1))),
        shape=(4 * n_edges, mesh.n_dof),
    ).tocsr()


def internal_force(K, A, rho, state):
    """K u + A^T (y + rho (A u - delta)) over every DOF, from whole-matrix
    products with the CSC transpose of A."""
    au = A @ state.u
    return K @ state.u + A.T @ (state.y + rho * (au - state.delta))


def assert_same_csr(got, want):
    """Same CSR arrays bit for bit: row pointers, column indices with
    their dtype, and values, explicit zeros and signs of zero included."""
    assert got.format == want.format == "csr"
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
