import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohadm.errors import MeshError
from cohadm.mesh import (
    InputMesh,
    break_mesh,
    build_jump_operator,
    gauss_rule,
    interior_edges,
)
from cohadm.meshgen import porous_plate, rect_strip


def brute_force_interior_edges(triangles):
    """(minus_tri, minus_edge, plus_tri, plus_edge) of every node pair
    shared by exactly two triangles, sorted by the minus side."""
    seen = {}
    for t, tri in enumerate(triangles):
        for e, (a, b) in enumerate(((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))):
            key = (min(a, b), max(a, b))
            seen.setdefault(key, []).append((t, e))
    return sorted(
        owners[0] + owners[1] for owners in seen.values() if len(owners) == 2
    )


def test_two_triangles_counts(two_triangle_square):
    bm = break_mesh(two_triangle_square)
    assert bm.n_nodes == 6
    assert len(bm.interfaces) == 1
    assert bm.n_dof == 12
    # coincident private copies sit at identical coordinates
    for p in range(bm.n_nodes):
        assert np.array_equal(bm.nodes[p], two_triangle_square.nodes[bm.origin_of[p]])


def test_single_triangle_no_interfaces():
    mesh = InputMesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
    )
    bm = break_mesh(mesh)
    assert bm.n_nodes == 3
    assert len(bm.interfaces) == 0
    jump = build_jump_operator(bm, 2)
    assert jump.A.shape == (0, 6) and jump.n_points == 0


def test_structured_2x2_counts():
    mesh = rect_strip(2.0, 2.0, 2, 2)
    bm = break_mesh(mesh)
    assert bm.n_triangles == 8
    assert bm.n_nodes == 24
    assert len(bm.interfaces) == len(brute_force_interior_edges(mesh.triangles)) == 8


@pytest.mark.parametrize("relabel", [False, True])
def test_interior_edges_match_loop_reference(relabel):
    mesh = porous_plate(nx=12, ny=12, n_pores=3, seed=1)
    triangles = mesh.triangles
    if relabel:
        triangles = np.random.default_rng(3).permutation(mesh.n_nodes)[triangles]
    got = interior_edges(triangles, mesh.n_nodes)
    assert got.tolist() == [list(r) for r in brute_force_interior_edges(triangles)]


def test_non_manifold_edge_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1.0, 0.5]])
    tris = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])  # edge (0,1) used 3 times
    with pytest.raises(MeshError, match="non-manifold"):
        break_mesh(InputMesh(nodes=nodes, triangles=tris))


def test_out_of_range_index_rejected():
    mesh = InputMesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 9]]),
    )
    with pytest.raises(MeshError, match="out of range"):
        mesh.validate()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_coordinate_rejected(value):
    mesh = InputMesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, value]]),
        triangles=np.array([[0, 1, 2]]),
    )
    with pytest.raises(MeshError, match="node 2 has a non-finite coordinate"):
        mesh.validate()


def test_clockwise_triangle_rejected():
    mesh = InputMesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 2, 1]]),
    )
    with pytest.raises(MeshError, match="signed area"):
        mesh.validate()


def test_disconnected_mesh_rejected():
    nodes = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [6.0, 5.0], [5.0, 6.0]]
    )
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(MeshError, match="edge-connected"):
        InputMesh(nodes=nodes, triangles=tris).validate()


def test_interface_orientation_deterministic(two_triangle_square):
    bm = break_mesh(two_triangle_square)
    ie = bm.interfaces[0]
    normal, tangent = ie["normal"], ie["tangent"]
    assert ie["minus_tri"] == 0 and ie["plus_tri"] == 1
    assert np.isclose(normal @ tangent, 0.0)
    assert np.isclose(np.hypot(*normal), 1.0)
    # tangent is the normal rotated by +90 degrees
    assert np.allclose(tangent, [-normal[1], normal[0]])
    # normal points from triangle 0 toward triangle 1's centroid
    c0 = bm.nodes[bm.triangles[0]].mean(axis=0)
    c1 = bm.nodes[bm.triangles[1]].mean(axis=0)
    assert normal @ (c1 - c0) > 0


def test_gauss_rule_weights():
    for n in (1, 2, 3, 4):
        s, w = gauss_rule(n)
        assert np.isclose(w.sum(), 1.0)
        assert np.all((s > 0) & (s < 1))
        # integrates degree 2n-1 monomial exactly on [0, 1]
        k = 2 * n - 1
        assert np.isclose((w * s**k).sum(), 1.0 / (k + 1), rtol=1e-12)


@pytest.mark.parametrize("gauss_per_edge", [1, 2, 3])
@pytest.mark.parametrize("thickness", [1.0, 0.37])
def test_effective_area_conservation(gauss_per_edge, thickness):
    mesh = rect_strip(3.0, 2.0, 3, 2)
    bm = break_mesh(mesh)
    jump = build_jump_operator(bm, gauss_per_edge, thickness)
    per_edge = jump.areas.reshape(-1, gauss_per_edge).sum(axis=1)
    assert np.allclose(per_edge, bm.interfaces["length"] * thickness, rtol=1e-12)


def test_uniform_translation_annihilated(two_triangle_square):
    bm = break_mesh(two_triangle_square)
    jump = build_jump_operator(bm, 2)
    u = np.tile([1.0, 1.0], bm.n_nodes)
    assert np.abs(jump.A @ u).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    tx=st.floats(-5, 5),
    ty=st.floats(-5, 5),
    omega=st.floats(-2, 2),
    cx=st.floats(-3, 3),
    cy=st.floats(-3, 3),
)
def test_rigid_motions_annihilated(tx, ty, omega, cx, cy):
    mesh = rect_strip(2.0, 2.0, 2, 2)
    bm = break_mesh(mesh)
    jump = build_jump_operator(bm, 2)
    u = np.empty(bm.n_dof)
    u[0::2] = tx - omega * (bm.nodes[:, 1] - cy)
    u[1::2] = ty + omega * (bm.nodes[:, 0] - cx)
    norm = max(np.linalg.norm(u), 1e-30)
    assert np.abs(jump.A @ u).max() <= 1e-10 * norm


def test_pure_normal_opening(two_triangle_square):
    bm = break_mesh(two_triangle_square)
    jump = build_jump_operator(bm, 2)
    ie = bm.interfaces[0]
    c = 0.25
    u = np.zeros(bm.n_dof)
    for node in bm.triangles[ie["plus_tri"]]:
        u[2 * node : 2 * node + 2] = c * ie["normal"]
    openings = (jump.A @ u).reshape(-1, 2)
    assert np.allclose(openings[:, 0], c, atol=1e-14)
    assert np.allclose(openings[:, 1], 0.0, atol=1e-14)


def test_jump_matches_pointwise_interpolation(two_triangle_square):
    """Direct shape-function evaluation at each Gauss point."""
    bm = break_mesh(two_triangle_square)
    jump = build_jump_operator(bm, 2)
    rng = np.random.default_rng(11)
    u = rng.normal(size=bm.n_dof)
    got = (jump.A @ u).reshape(-1, 2)

    ie = bm.interfaces[0]
    edge_local = [(0, 1), (1, 2), (2, 0)]

    def side_nodes(tri, edge):
        a, b = edge_local[edge]
        return bm.triangles[tri][a], bm.triangles[tri][b]

    ma, mb = side_nodes(ie["minus_tri"], ie["minus_edge"])
    pa, pb = side_nodes(ie["plus_tri"], ie["plus_edge"])
    if bm.origin_of[pa] != bm.origin_of[ma]:
        pa, pb = pb, pa
    P, Q = bm.nodes[ma], bm.nodes[mb]
    for k in range(jump.n_points):
        x = jump.points[k]
        s = np.linalg.norm(x - P) / np.linalg.norm(Q - P)
        u_minus = (1 - s) * u[2 * ma : 2 * ma + 2] + s * u[2 * mb : 2 * mb + 2]
        u_plus = (1 - s) * u[2 * pa : 2 * pa + 2] + s * u[2 * pb : 2 * pb + 2]
        diff = u_plus - u_minus
        assert np.isclose(got[k, 0], ie["normal"] @ diff, atol=1e-12)
        assert np.isclose(got[k, 1], ie["tangent"] @ diff, atol=1e-12)


def test_row_support_bounded():
    mesh = rect_strip(3.0, 2.0, 3, 2)
    bm = break_mesh(mesh)
    jump = build_jump_operator(bm, 2)
    per_row = np.diff(jump.A.indptr)
    assert per_row.max() <= 8   # 2 edges x 2 nodes x 2 components


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(-np.pi, np.pi))
def test_frame_consistency_under_rotation(theta):
    """Rotating geometry and field leaves local openings unchanged."""
    mesh = rect_strip(2.0, 1.0, 2, 1)
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotated = InputMesh(
        nodes=mesh.nodes @ R.T,
        triangles=mesh.triangles.copy(),
        boundary_sets=mesh.boundary_sets,
    )
    bm = break_mesh(mesh)
    bm_rot = break_mesh(rotated)
    jump = build_jump_operator(bm, 2)
    jump_rot = build_jump_operator(bm_rot, 2)

    rng = np.random.default_rng(5)
    u = rng.normal(size=bm.n_dof)
    u_rot = (u.reshape(-1, 2) @ R.T).reshape(-1)

    normals = bm.interfaces["normal"]
    assert np.allclose(bm_rot.interfaces["normal"], normals @ R.T, atol=1e-10)
    assert np.allclose(jump_rot.A @ u_rot, jump.A @ u, atol=1e-10)


def test_private_node_expansion(two_triangle_square):
    bm = break_mesh(two_triangle_square)
    priv = bm.private_nodes_of([0])
    assert len(priv) == 2          # node 0 belongs to both triangles
    assert all(bm.origin_of[p] == 0 for p in priv)
    dofs = bm.dofs_of([0], "y")
    assert np.array_equal(dofs, 2 * priv + 1)
