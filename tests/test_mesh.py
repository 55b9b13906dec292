import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohadm import mesh as mesh_module
from cohadm.admm import AdmmConfig
from cohadm.cli import main
from cohadm.driver import LoadSchedule, run_quasistatic
from cohadm.errors import MeshError
from cohadm.fileio import parse_mesh, write_mesh
from cohadm.mesh import (
    GAUSS_PER_EDGE,
    InputMesh,
    break_mesh,
    build_jump_operator,
    gauss_rule,
    interior_edges,
)
from cohadm.meshgen import porous_plate, rect_strip

from oracles import assert_same_csr, coo_jump_operator

EDGE_LOCAL = [(0, 1), (1, 2), (2, 0)]


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


def minus_segment(bm, i):
    """Endpoints P -> Q of interface i as its minus triangle runs it."""
    minus_tri, minus_edge = bm.interfaces[i][:2]
    a, b = EDGE_LOCAL[minus_edge]
    return bm.nodes[bm.triangles[minus_tri][a]], bm.nodes[bm.triangles[minus_tri][b]]


def expected_frame(bm, i):
    """(normal, tangent) of interface i from the geometry alone: the unit
    edge direction, and the perpendicular toward the plus centroid."""
    P, Q = minus_segment(bm, i)
    tangent = (Q - P) / np.linalg.norm(Q - P)
    normal = np.array([-tangent[1], tangent[0]])
    plus_centroid = bm.nodes[bm.triangles[bm.interfaces[i][2]]].mean(axis=0)
    if normal @ (plus_centroid - 0.5 * (P + Q)) < 0:
        normal = -normal
    return normal, tangent


def frame_through_jump(bm, jump, i):
    """(normal, tangent) of interface i read from jump.A: translating the
    plus triangle by v opens the edge by (normal @ v, tangent @ v)."""
    frame = np.empty((2, 2))
    for comp in (0, 1):
        u = np.zeros(bm.n_dof)
        u[2 * bm.triangles[bm.interfaces[i][2]] + comp] = 1.0
        openings = (jump.A @ u).reshape(-1, 2)
        rows = openings[i * GAUSS_PER_EDGE : (i + 1) * GAUSS_PER_EDGE]
        assert np.allclose(rows, rows[0], atol=1e-14)
        frame[:, comp] = rows[0]
    return frame[0], frame[1]


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
    jump = build_jump_operator(bm)
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


def count_calls(monkeypatch, names):
    """Count calls of the named `cohadm.mesh` globals from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(mesh_module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(mesh_module, name, counting)
    return calls


EDGE_WORK = ("interior_edges", "connected_components")
ONCE_EACH = dict.fromkeys(EDGE_WORK, 1)


def test_run_builds_the_edge_table_once(tmp_path, monkeypatch, soft_material, params):
    """parse_mesh through set-up checks the mesh and sorts its edges once."""
    path = tmp_path / "strip.mesh"
    write_mesh(rect_strip(4.0, 2.0, 4, 2), path)
    calls = count_calls(monkeypatch, EDGE_WORK)
    at_setup = {}
    schedule = LoadSchedule(bc_set="right", direction="x", u_end=1e-4, n_steps=1,
                            fixed_sets=(("left", "x"), ("pin", "y")))
    run_quasistatic(parse_mesh(path), soft_material, params, schedule, AdmmConfig(),
                    setup_sink=lambda *_: at_setup.update(calls))
    assert at_setup == ONCE_EACH


def test_info_builds_the_edge_table_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "strip.mesh"
    write_mesh(rect_strip(4.0, 2.0, 4, 2), path)
    calls = count_calls(monkeypatch, EDGE_WORK)
    assert main(["info", "--mesh", str(path)]) == 0
    assert calls == ONCE_EACH


def test_broken_mesh_shares_the_edge_table():
    mesh = rect_strip(4.0, 2.0, 4, 2)
    assert break_mesh(mesh).interfaces is mesh.interfaces


def test_porous_plate_refuses_too_few_pores():
    with pytest.raises(ValueError, match="placed only 1 of 20 pores"):
        porous_plate(width=10.0, height=10.0, nx=4, ny=4, n_pores=20,
                     pore_radius=(2.0, 3.0), min_gap=1.0, margin=1.0, seed=0)


def test_non_manifold_edge_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1.0, 0.5]])
    tris = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])  # edge (0,1) used 3 times
    with pytest.raises(MeshError, match="non-manifold"):
        InputMesh(nodes=nodes, triangles=tris)


def test_out_of_range_index_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cases = [
        (dict(triangles=np.array([[0, 1, 9]])),
         "triangle 0 references a node out of range"),
        (dict(triangles=np.array([[0, 1, 2]]),
              boundary_sets={"right": np.array([1, 3])}),
         "boundary set 'right' references a node out of range"),
    ]
    for fields, message in cases:
        with pytest.raises(MeshError, match=message):
            InputMesh(nodes=nodes, **fields)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_coordinate_rejected(value):
    with pytest.raises(MeshError, match="node 2 has a non-finite coordinate"):
        InputMesh(
            nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, value]]),
            triangles=np.array([[0, 1, 2]]),
        )


def test_clockwise_triangle_rejected():
    with pytest.raises(MeshError, match="signed area"):
        InputMesh(
            nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            triangles=np.array([[0, 2, 1]]),
        )


def test_disconnected_mesh_rejected():
    nodes = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [6.0, 5.0], [5.0, 6.0]]
    )
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(MeshError, match="edge-connected"):
        InputMesh(nodes=nodes, triangles=tris)


def test_interface_orientation_deterministic(two_triangle_square):
    bm = break_mesh(two_triangle_square)
    jump = build_jump_operator(bm)
    minus_tri, _, plus_tri, _ = bm.interfaces[0]
    assert minus_tri == 0 and plus_tri == 1
    normal, tangent = frame_through_jump(bm, jump, 0)
    expected_normal, expected_tangent = expected_frame(bm, 0)
    assert np.allclose(normal, expected_normal, atol=1e-14)
    assert np.allclose(tangent, expected_tangent, atol=1e-14)
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


@pytest.mark.parametrize("thickness", [1.0, 0.37])
def test_effective_area_conservation(thickness):
    mesh = rect_strip(3.0, 2.0, 3, 2)
    bm = break_mesh(mesh)
    jump = build_jump_operator(bm, thickness)
    per_edge = jump.areas.reshape(len(bm.interfaces), -1).sum(axis=1)
    lengths = [
        np.linalg.norm(np.subtract(*minus_segment(bm, i)))
        for i in range(len(bm.interfaces))
    ]
    assert np.allclose(per_edge, np.array(lengths) * thickness, rtol=1e-12)


@pytest.mark.parametrize("thickness", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_bad_thickness_rejected(thickness):
    bm = break_mesh(rect_strip(3.0, 2.0, 3, 2))
    with pytest.raises(ValueError, match="thickness"):
        build_jump_operator(bm, thickness)


def test_uniform_translation_annihilated(two_triangle_square):
    bm = break_mesh(two_triangle_square)
    jump = build_jump_operator(bm)
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
    jump = build_jump_operator(bm)
    u = np.empty(bm.n_dof)
    u[0::2] = tx - omega * (bm.nodes[:, 1] - cy)
    u[1::2] = ty + omega * (bm.nodes[:, 0] - cx)
    norm = max(np.linalg.norm(u), 1e-30)
    assert np.abs(jump.A @ u).max() <= 1e-10 * norm


def test_pure_normal_opening(two_triangle_square):
    bm = break_mesh(two_triangle_square)
    jump = build_jump_operator(bm)
    normal, _ = expected_frame(bm, 0)
    c = 0.25
    u = np.zeros(bm.n_dof)
    for node in bm.triangles[bm.interfaces[0][2]]:
        u[2 * node : 2 * node + 2] = c * normal
    openings = (jump.A @ u).reshape(-1, 2)
    assert np.allclose(openings[:, 0], c, atol=1e-14)
    assert np.allclose(openings[:, 1], 0.0, atol=1e-14)


def test_jump_matches_pointwise_interpolation(two_triangle_square):
    """Direct shape-function evaluation at each Gauss point."""
    bm = break_mesh(two_triangle_square)
    jump = build_jump_operator(bm)
    rng = np.random.default_rng(11)
    u = rng.normal(size=bm.n_dof)
    got = (jump.A @ u).reshape(-1, 2)

    minus_tri, minus_edge, plus_tri, plus_edge = bm.interfaces[0]
    normal, tangent = expected_frame(bm, 0)

    def side_nodes(tri, edge):
        a, b = EDGE_LOCAL[edge]
        return bm.triangles[tri][a], bm.triangles[tri][b]

    ma, mb = side_nodes(minus_tri, minus_edge)
    pa, pb = side_nodes(plus_tri, plus_edge)
    if bm.origin_of[pa] != bm.origin_of[ma]:
        pa, pb = pb, pa
    P, Q = bm.nodes[ma], bm.nodes[mb]
    for k in range(jump.n_points):
        x = jump.points[k]
        s = np.linalg.norm(x - P) / np.linalg.norm(Q - P)
        u_minus = (1 - s) * u[2 * ma : 2 * ma + 2] + s * u[2 * mb : 2 * mb + 2]
        u_plus = (1 - s) * u[2 * pa : 2 * pa + 2] + s * u[2 * pb : 2 * pb + 2]
        diff = u_plus - u_minus
        assert np.isclose(got[k, 0], normal @ diff, atol=1e-12)
        assert np.isclose(got[k, 1], tangent @ diff, atol=1e-12)


@pytest.mark.parametrize(
    "mesh",
    [
        lambda: rect_strip(3.0, 2.0, 3, 2),
        lambda: porous_plate(
            width=10.0, height=10.0, nx=8, ny=8, n_pores=2,
            pore_radius=(1.0, 1.5), min_gap=1.0, margin=1.5, seed=4,
        ),
    ],
    ids=["strip", "porous"],
)
def test_jump_operator_matches_coo_reference(mesh):
    """A is written straight into canonical CSR, 8 entries a row; it
    equals the operator assembled from COO triplets bit for bit, the
    explicit zeros of axis-aligned frames included."""
    bm = break_mesh(mesh())
    A = build_jump_operator(bm).A
    assert_same_csr(A, coo_jump_operator(bm))
    assert (np.diff(A.indptr) == 8).all()
    assert (A.data == 0).any()


def test_row_support_bounded():
    mesh = rect_strip(3.0, 2.0, 3, 2)
    bm = break_mesh(mesh)
    jump = build_jump_operator(bm)
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
    jump = build_jump_operator(bm)
    jump_rot = build_jump_operator(bm_rot)

    rng = np.random.default_rng(5)
    u = rng.normal(size=bm.n_dof)
    u_rot = (u.reshape(-1, 2) @ R.T).reshape(-1)

    assert np.array_equal(bm_rot.interfaces, bm.interfaces)
    for i in range(len(bm.interfaces)):
        normal, tangent = frame_through_jump(bm, jump, i)
        normal_rot, tangent_rot = frame_through_jump(bm_rot, jump_rot, i)
        for got, want in zip((normal, tangent), expected_frame(bm, i)):
            assert np.allclose(got, want, atol=1e-12)
        for got, want in zip((normal_rot, tangent_rot), expected_frame(bm_rot, i)):
            assert np.allclose(got, want, atol=1e-10)
        assert np.allclose(normal_rot, R @ normal, atol=1e-10)
        assert np.allclose(tangent_rot, R @ tangent, atol=1e-10)
    assert np.allclose(jump_rot.A @ u_rot, jump.A @ u, atol=1e-10)


def test_private_node_expansion(two_triangle_square):
    bm = break_mesh(two_triangle_square)
    priv = bm.private_nodes_of([0])
    assert len(priv) == 2          # node 0 belongs to both triangles
    assert all(bm.origin_of[p] == 0 for p in priv)
    dofs = bm.dofs_of([0], "y")
    assert np.array_equal(dofs, 2 * priv + 1)
