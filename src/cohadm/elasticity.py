"""Linear-elastic bulk: constant-strain triangles on the broken mesh.

Because every triangle owns private nodes, the assembled stiffness is
block diagonal (one 6x6 block per element); elements talk to each other
only through the interface terms added by the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import (
    BrokenMesh,
    JumpOperator,
    csr_index_dtype,
    freeze,
    triangle_signed_areas,
)


@dataclass(frozen=True)
class Material:
    """Isotropic linear-elastic material for 2D analysis."""

    youngs_modulus: float
    poisson_ratio: float
    mode: str = "plane_stress"   # or "plane_strain"
    thickness: float = 1.0

    def __post_init__(self):
        # each bound is written so that NaN fails it
        if not 0 < self.youngs_modulus < math.inf:
            raise ValueError("youngs_modulus must be positive and finite")
        if not (-1.0 < self.poisson_ratio < 0.5):
            raise ValueError("poisson_ratio must lie in (-1, 0.5)")
        if self.mode not in ("plane_stress", "plane_strain"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.thickness < math.inf:
            raise ValueError("thickness must be positive and finite")

    def d_matrix(self) -> np.ndarray:
        """3x3 constitutive matrix in Voigt order (xx, yy, xy)."""
        e, nu = self.youngs_modulus, self.poisson_ratio
        if self.mode == "plane_stress":
            c = e / (1.0 - nu * nu)
            return c * np.array(
                [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)]]
            )
        c = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
        return c * np.array(
            [
                [1.0 - nu, nu, 0.0],
                [nu, 1.0 - nu, 0.0],
                [0.0, 0.0, 0.5 * (1.0 - 2.0 * nu)],
            ]
        )


def element_b_matrices(nodes: np.ndarray, triangles: np.ndarray):
    """Strain-displacement matrices and areas for all CST elements.

    Each triangle must have positive area, as InputMesh checks.

    Returns
    -------
    B : (m, 3, 6) array
        eps = B @ u_e with u_e = (u0x, u0y, u1x, u1y, u2x, u2y) and
        eps = (eps_xx, eps_yy, gamma_xy).
    area : (m,) array
    """
    area = triangle_signed_areas(nodes, triangles)
    p = nodes[triangles]                      # (m, 3, 2)
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    m = len(triangles)
    B = np.zeros((m, 3, 6))
    B[:, 0, 0::2] = b
    B[:, 1, 1::2] = c
    B[:, 2, 0::2] = c
    B[:, 2, 1::2] = b
    B /= (2.0 * area)[:, None, None]
    return B, area


def element_stiffness(mesh: BrokenMesh, mat: Material) -> np.ndarray:
    """(m, 6, 6) CST element blocks B'DB a t, exactly symmetric.

    Each block is in the DOF order (u0x, u0y, u1x, u1y, u2x, u2y) of its
    triangle.
    """
    B, area = element_b_matrices(mesh.nodes, mesh.triangles)
    ke = B.transpose(0, 2, 1) @ (mat.d_matrix() @ B)
    ke *= (area * mat.thickness)[:, None, None]
    # B^T D B rounds differently above and below the diagonal; each
    # (i, j) entry comes from one element (private nodes), so averaging
    # the block with its transpose makes K exactly symmetric
    return 0.5 * (ke + ke.transpose(0, 2, 1))


def assemble_stiffness(mesh: BrokenMesh, mat: Material) -> sp.csr_matrix:
    """Assemble the global CST stiffness K on the broken mesh.

    Returns K as a CSR matrix over the broken-mesh DOFs (node-major:
    2 i, 2 i + 1 are node i's x and y). One-point integration, exact for
    constant-strain triangles.

    Triangle t owns private nodes 3t..3t+2 and so DOFs 6t..6t+5: row
    6t + i of K is row i of the element block, and the blocks laid end
    to end are K's canonical CSR arrays, with no sort or sum. K equals
    its transpose bit for bit, so a transposed solve with a factor of
    K + rho A^T A solves the same system (admm.SMALL_FACTOR_NNZ). K's
    arrays are returned read-only (`mesh.freeze`): a solver's factor of
    K + rho A^T A must keep matching K.
    """
    ke = element_stiffness(mesh, mat)
    n_dof = mesh.n_dof
    index = csr_index_dtype(n_dof, ke.size)
    dofs = np.arange(n_dof, dtype=index).reshape(-1, 1, 6)
    K = sp.csr_matrix(
        (
            ke.reshape(-1),
            np.broadcast_to(dofs, ke.shape).reshape(-1),
            np.arange(0, ke.size + 1, 6, dtype=index),
        ),
        shape=(n_dof, n_dof),
    )
    K.has_canonical_format = True
    freeze(K.data, K.indices, K.indptr)
    return K


def elastic_energy(K: sp.csr_matrix, u: np.ndarray) -> float:
    """Total elastic energy (1/2) u^T K u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (K.shape[0],):
        raise ValueError(
            f"displacement length {u.shape} does not match {K.shape[0]} DOFs"
        )
    return 0.5 * float(u @ (K @ u))


def reaction_force(
    K: sp.csr_matrix,
    jump: JumpOperator,
    rho: float,
    state,
    node_set,
) -> np.ndarray:
    """Reaction force 2-vector summed over the (private) node set.

    The internal force is the gradient of the augmented Lagrangian,
    K u + A^T (y + rho (A u - delta)): zero on free DOFs at a converged
    step, the reaction on constrained ones. Its A^T term is formed over
    every DOF through the CSC view A.T; the node set's rows are summed
    per component.

    Parameters
    ----------
    K : the stiffness from assemble_stiffness
    state : object with u, delta, y arrays
        A converged step solution.
    node_set : array of private node indices
        Use BrokenMesh.private_nodes_of to expand an input-node set.
    """
    node_set = np.asarray(node_set, dtype=np.int64)
    if node_set.size == 0:
        raise ValueError("reaction node set is empty")
    rows = np.concatenate([2 * node_set, 2 * node_set + 1])
    v = state.y + rho * (jump.A @ state.u - state.delta)
    f = K[rows] @ state.u + (jump.A.T @ v)[rows]
    n = len(node_set)
    return np.array([f[:n].sum(), f[n:].sum()])
