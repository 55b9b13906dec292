import numpy as np
import pytest

from cohadm.elasticity import (
    Material,
    assemble_stiffness,
    elastic_energy,
    element_b_matrices,
)
from cohadm.mesh import InputMesh, break_mesh
from cohadm.meshgen import porous_plate, rect_strip

from oracles import assert_same_csr, coo_stiffness, cst_energy


def single_triangle(coords):
    return break_mesh(
        InputMesh(nodes=np.asarray(coords, dtype=float), triangles=np.array([[0, 1, 2]]))
    )


def test_material_validation():
    with pytest.raises(ValueError):
        Material(youngs_modulus=-1.0, poisson_ratio=0.3)
    with pytest.raises(ValueError):
        Material(youngs_modulus=1.0, poisson_ratio=0.5)
    with pytest.raises(ValueError):
        Material(youngs_modulus=1.0, poisson_ratio=0.3, mode="3d")
    with pytest.raises(ValueError):
        Material(youngs_modulus=1.0, poisson_ratio=0.3, thickness=0.0)


def test_plane_modes_agree_at_zero_poisson():
    ps = Material(youngs_modulus=7.0, poisson_ratio=0.0, mode="plane_stress")
    pe = Material(youngs_modulus=7.0, poisson_ratio=0.0, mode="plane_strain")
    assert np.allclose(ps.d_matrix(), pe.d_matrix())


def test_rigid_translation_zero_energy(soft_material, two_triangle_square):
    bm = break_mesh(two_triangle_square)
    stiff = assemble_stiffness(bm, soft_material)
    u = np.tile([0.3, -0.7], bm.n_nodes)
    assert abs(elastic_energy(stiff, u)) < 1e-9 * soft_material.youngs_modulus


@pytest.mark.parametrize(
    "mesh",
    [
        # the mixed_peak benchmark plate and a strip, both with non-dyadic
        # cell sizes, on which B^T D B alone rounds asymmetrically
        lambda: porous_plate(width=50.0, height=50.0, nx=24, ny=24, n_pores=8,
                             pore_radius=(2.0, 4.0), min_gap=3.0, margin=4.0,
                             seed=4),
        lambda: rect_strip(10.0, 10.0, 6, 6),
    ],
    ids=["porous", "strip"],
)
def test_stiffness_exactly_symmetric(mesh):
    """K equals K^T bit for bit, which the transposed solve kernel needs."""
    K = assemble_stiffness(break_mesh(mesh()), Material(30000.0, 0.2))
    Kt = K.T.tocsr()
    K.sort_indices()
    Kt.sort_indices()
    assert np.array_equal(K.indptr, Kt.indptr)
    assert np.array_equal(K.indices, Kt.indices)
    assert K.data.tobytes() == Kt.data.tobytes()


@pytest.mark.parametrize(
    "mesh",
    [
        lambda: porous_plate(
            width=10.0, height=10.0, nx=8, ny=8, n_pores=2,
            pore_radius=(1.0, 1.5), min_gap=1.0, margin=1.5, seed=4,
        ),
        lambda: rect_strip(10.0, 10.0, 6, 6),
    ],
    ids=["porous", "strip"],
)
def test_stiffness_matches_coo_reference(mesh):
    """K is written straight into canonical CSR from the element blocks;
    it equals the blocks scattered through COO triplets bit for bit."""
    bm = break_mesh(mesh())
    material = Material(30000.0, 0.2)
    assert_same_csr(assemble_stiffness(bm, material), coo_stiffness(bm, material))


def test_unit_right_triangle_uniaxial():
    """Area 1/2, E=1, nu=0, eps_xx=1: energy = area * E * eps^2 / 2 = 0.25."""
    bm = single_triangle([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mat = Material(youngs_modulus=1.0, poisson_ratio=0.0, thickness=1.0)
    stiff = assemble_stiffness(bm, mat)
    u = np.zeros(6)
    u[0::2] = bm.nodes[:, 0]   # u_x = x
    assert np.isclose(elastic_energy(stiff, u), 0.25, rtol=1e-14)


def test_element_energy_matches_affine_oracle():
    rng = np.random.default_rng(2)
    mat = Material(
        youngs_modulus=217.0, poisson_ratio=0.29, mode="plane_strain", thickness=0.8
    )
    for _ in range(50):
        coords = rng.uniform(-2, 2, size=(3, 2))
        d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
        area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
        if area < 0.05:
            continue
        bm = single_triangle(coords)
        stiff = assemble_stiffness(bm, mat)
        u = rng.normal(size=6)
        expected = cst_energy(
            coords, u, mat.youngs_modulus, mat.poisson_ratio, mat.mode, mat.thickness
        )
        assert np.isclose(elastic_energy(stiff, u), expected, rtol=1e-10)


def test_energy_zero_and_quadratic(soft_material, two_triangle_square):
    bm = break_mesh(two_triangle_square)
    stiff = assemble_stiffness(bm, soft_material)
    assert elastic_energy(stiff, np.zeros(bm.n_dof)) == 0.0
    u = np.random.default_rng(3).normal(size=bm.n_dof)
    assert np.isclose(
        elastic_energy(stiff, 2 * u), 4 * elastic_energy(stiff, u), rtol=1e-12
    )


def test_energy_matches_per_element_sum(soft_material, two_triangle_square):
    bm = break_mesh(two_triangle_square)
    stiff = assemble_stiffness(bm, soft_material)
    rng = np.random.default_rng(4)
    u = rng.normal(size=bm.n_dof)
    total = 0.0
    for tri in bm.triangles:
        dofs = np.array([[2 * t, 2 * t + 1] for t in tri]).reshape(-1)
        total += cst_energy(
            bm.nodes[tri],
            u[dofs],
            soft_material.youngs_modulus,
            soft_material.poisson_ratio,
            soft_material.mode,
            soft_material.thickness,
        )
    assert np.isclose(elastic_energy(stiff, u), total, rtol=1e-10)


def test_block_diagonal_and_rigid_modes(soft_material, two_triangle_square):
    bm = break_mesh(two_triangle_square)
    K = assemble_stiffness(bm, soft_material).toarray()
    # duplicated nodes decouple the elements entirely
    assert np.allclose(K[:6, 6:], 0.0)
    for t in range(2):
        block = K[6 * t : 6 * t + 6, 6 * t : 6 * t + 6]
        assert np.allclose(block, block.T, atol=1e-12)
        eig = np.linalg.eigvalsh(block)
        scale = eig.max()
        assert (np.abs(eig) < 1e-10 * scale).sum() == 3   # two translations + rotation
        assert np.all(eig > -1e-10 * scale)


def test_stiffness_scales_linearly_with_modulus(two_triangle_square):
    bm = break_mesh(two_triangle_square)
    base = Material(youngs_modulus=10.0, poisson_ratio=0.25)
    scaled = Material(youngs_modulus=70.0, poisson_ratio=0.25)
    k1 = assemble_stiffness(bm, base)
    k7 = assemble_stiffness(bm, scaled)
    assert np.allclose(k7.toarray(), 7.0 * k1.toarray(), rtol=1e-14)


def test_b_matrix_constant_strain():
    rng = np.random.default_rng(9)
    coords = rng.uniform(0, 1, size=(3, 2))
    d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
    if d1[0] * d2[1] - d1[1] * d2[0] < 0:
        coords = coords[[0, 2, 1]]
    B, area = element_b_matrices(coords, np.array([[0, 1, 2]]))
    # affine field u = G x reproduces its own strain
    G = rng.normal(size=(2, 2))
    u = (coords @ G.T).reshape(-1)
    eps = B[0] @ u
    assert np.allclose(eps, [G[0, 0], G[1, 1], G[0, 1] + G[1, 0]], atol=1e-12)
