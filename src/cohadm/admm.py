"""ADMM fixed-point loop for one quasistatic load step.

Each iteration alternates a global linear solve for the displacements, an
independent closed-form minimization per interface Gauss point for the
openings, and a gradient ascent update of the Lagrange multipliers.
Convergence is judged on pressure-normalized primal and dual residuals,
so the tolerances are meaningful across mesh resolutions and penalty
values. The factorized operator K + rho A^T A is constant for an entire
run; only right-hand sides change between iterations and steps.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cohesive import CohesiveParams, CohesiveState, solve_local_batch, validate_penalty
from .elasticity import StiffnessMatrix, reaction_force
from .errors import ConfigError, ConvergenceError, SingularSystemError
from .mesh import JumpOperator

log = logging.getLogger(__name__)


@dataclass
class SolverState:
    """Optimization state z = (u, delta, y).

    u is the nodal displacement vector; delta and y are flat stacked
    per-Gauss-point 2-vectors (openings and Lagrange multipliers).
    """

    u: np.ndarray
    delta: np.ndarray
    y: np.ndarray

    @classmethod
    def zeros(cls, n_dof: int, n_points: int) -> "SolverState":
        return cls(
            u=np.zeros(n_dof),
            delta=np.zeros(2 * n_points),
            y=np.zeros(2 * n_points),
        )

    def copy(self) -> "SolverState":
        return SolverState(self.u.copy(), self.delta.copy(), self.y.copy())


@dataclass(frozen=True)
class AdmmConfig:
    """ADMM parameters.

    alpha scales the penalty rho = alpha * mean(a_i) * sigma_c / delta_c;
    c_primal and c_dual are pressure tolerances on the residual infinity
    norms; max_iters caps the iterations of a single load step.
    """

    alpha: float = 100.0
    c_primal: float = 0.01
    c_dual: float = 0.01
    max_iters: int = 100_000

    def __post_init__(self):
        if self.alpha <= 1:
            raise ConfigError("alpha must exceed 1")
        if self.c_primal <= 0 or self.c_dual <= 0:
            raise ConfigError("tolerances must be positive")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")

    def penalty(self, areas: np.ndarray, params: CohesiveParams) -> float:
        """rho = alpha * mean(a_i) * sigma_c / delta_c (0 if no interfaces)."""
        if np.size(areas) == 0:
            return 0.0
        return float(
            self.alpha * np.mean(areas) * params.sigma_c / params.delta_c
        )


@dataclass
class Residuals:
    """Pressure-normalized primal and dual residuals of one iteration."""

    primal: np.ndarray
    dual: np.ndarray
    primal_inf: float
    dual_inf: float
    converged: bool


@dataclass
class StepResult:
    """Converged solution of one load step."""

    state: SolverState
    iterations: int
    reaction: np.ndarray | None


def _rigid_basis(coords: np.ndarray) -> np.ndarray:
    """(n_dof, 3) basis of rigid motions: two translations + rotation."""
    n = len(coords)
    basis = np.zeros((2 * n, 3))
    basis[0::2, 0] = 1.0
    basis[1::2, 1] = 1.0
    center = coords.mean(axis=0) if n else np.zeros(2)
    basis[0::2, 2] = -(coords[:, 1] - center[1])
    basis[1::2, 2] = coords[:, 0] - center[0]
    return basis


def element_dissection_order(
    coords: np.ndarray,
    n_triangles: int,
    neighbor_pairs: np.ndarray,
    leaf: int = 16,
) -> np.ndarray:
    """DOF elimination order by geometric nested dissection of elements.

    Not on the run path: SuperLU orders the operator itself. Kept only
    because perfbench/spans.py wraps this name for its `admm.order_s` span.

    Relies on the triangle-major private-node layout (triangle t owns
    nodes 3t..3t+2). Recursively splits the element set at the median
    centroid coordinate; elements whose neighbor crosses the cut are
    eliminated last. Keeps the factor fill near the 2D optimum, which
    the generic orderings of the sparse backends miss on this
    duplicated-node structure.
    """
    centroids = coords.reshape(n_triangles, 3, 2).mean(axis=1)
    if len(neighbor_pairs):
        ones = np.ones(2 * len(neighbor_pairs), dtype=np.int8)
        rows = np.concatenate([neighbor_pairs[:, 0], neighbor_pairs[:, 1]])
        cols = np.concatenate([neighbor_pairs[:, 1], neighbor_pairs[:, 0]])
        adj = sp.coo_matrix(
            (ones, (rows, cols)), shape=(n_triangles, n_triangles)
        ).tocsr()
        indptr, indices = adj.indptr, adj.indices
    else:
        indptr = np.zeros(n_triangles + 1, dtype=np.int64)
        indices = np.zeros(0, dtype=np.int64)

    in_other = np.zeros(n_triangles, dtype=bool)
    order = np.empty(n_triangles, dtype=np.int64)
    cursor = [0]

    def emit(idx):
        order[cursor[0] : cursor[0] + len(idx)] = idx
        cursor[0] += len(idx)

    def recurse(idx):
        if len(idx) <= leaf:
            emit(idx)
            return
        pts = centroids[idx]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        coord = pts[:, axis]
        # cut at the widest coordinate gap near the count median: on
        # structured grids the gap between cell columns is wider than the
        # gap between the two triangle centroids inside a cell, so the
        # cut does not split cells and the separator stays one layer thin
        levels = np.unique(coord)
        if len(levels) > 1:
            median_val = np.partition(coord, len(coord) // 2)[len(coord) // 2]
            pos = int(np.clip(np.searchsorted(levels, median_val), 1, len(levels) - 1))
            window = max(1, len(levels) // 8)
            lo_gap = max(1, pos - window)
            hi_gap = min(len(levels) - 1, pos + window)
            gaps = levels[lo_gap : hi_gap + 1] - levels[lo_gap - 1 : hi_gap]
            best = lo_gap + int(np.argmax(gaps))
            cut = 0.5 * (levels[best - 1] + levels[best])
            side = coord > cut
        else:
            side = np.zeros(len(idx), dtype=bool)
        if side.all() or not side.any():
            ranked = idx[np.argsort(coord, kind="stable")]
            half = len(idx) // 2
            a, b = ranked[:half], ranked[half:]
        else:
            a, b = idx[~side], idx[side]
        in_other[b] = True
        sep = np.fromiter(
            (in_other[indices[indptr[v] : indptr[v + 1]]].any() for v in a),
            dtype=bool,
            count=len(a),
        )
        in_other[b] = False
        recurse(a[~sep])
        recurse(b)
        emit(a[sep])

    recurse(np.arange(n_triangles, dtype=np.int64))
    return (6 * order[:, None] + np.arange(6)[None, :]).reshape(-1)


class _SuperLuBackend:
    """SuperLU factor of the reduced operator, which is SPD.

    Symmetric mode with a zero pivot threshold takes every pivot from the
    diagonal, so the minimum-degree ordering of A + A^T serves as a
    symmetric elimination order; on this operator it fills far less than
    the COLAMD ordering of a general LU.
    """

    def __init__(self, reduced: sp.csc_matrix):
        self._lu = spla.splu(
            reduced,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


@dataclass
class Factorization:
    """Reusable factorization of the Dirichlet-reduced K + rho A^T A."""

    matrix: sp.csr_matrix          # full (unreduced) operator
    backend: _SuperLuBackend | None   # None when every DOF is fixed
    free: np.ndarray
    fixed: np.ndarray
    coupling: sp.csr_matrix        # rows free, columns fixed

    def checksum(self) -> str:
        """Digest of the operator; constant across all steps of a run."""
        h = hashlib.sha256()
        h.update(self.matrix.indptr.tobytes())
        h.update(self.matrix.indices.tobytes())
        h.update(self.matrix.data.tobytes())
        return h.hexdigest()

    def solve(self, rhs: np.ndarray, bc_values: np.ndarray) -> np.ndarray:
        """Solve with prescribed values on the fixed DOFs."""
        u = np.empty(self.matrix.shape[0])
        u[self.fixed] = bc_values
        if self.backend is None:
            return u
        reduced = rhs[self.free]
        if len(self.fixed):
            reduced = reduced - self.coupling @ bc_values
        u[self.free] = self.backend.solve(reduced)
        return u


def factorize_system(
    K: sp.spmatrix,
    A: sp.spmatrix,
    rho: float,
    dirichlet_dofs: np.ndarray,
    coords: np.ndarray,
) -> Factorization:
    """Factor K + rho A^T A with the constrained DOFs eliminated.

    The penalty term ties the duplicated elements together, so the null
    space of the unconstrained operator is exactly the global rigid
    motions of the structure. Raises SingularSystemError naming how many
    of them the Dirichlet set leaves free.
    """
    dirichlet_dofs = np.unique(np.asarray(dirichlet_dofs, dtype=np.int64))
    n_dof = K.shape[0]
    if dirichlet_dofs.size and (
        dirichlet_dofs.min() < 0 or dirichlet_dofs.max() >= n_dof
    ):
        raise ConfigError("Dirichlet DOF index out of range")

    basis = _rigid_basis(coords)
    restricted = basis[dirichlet_dofs]
    rank = np.linalg.matrix_rank(restricted) if dirichlet_dofs.size else 0
    n_rigid = 3 - int(rank)
    if n_rigid > 0:
        raise SingularSystemError(n_rigid)

    M = (K + rho * (A.T @ A)).tocsr()
    M.sum_duplicates()
    mask = np.ones(n_dof, dtype=bool)
    mask[dirichlet_dofs] = False
    free = np.flatnonzero(mask)
    reduced = M[free][:, free].tocsc()
    coupling = M[free][:, dirichlet_dofs].tocsr()

    backend = None
    if len(free):
        try:
            backend = _SuperLuBackend(reduced)
        except (ArithmeticError, RuntimeError) as exc:
            # not positive definite despite the rigid-mode check
            raise SingularSystemError(0) from exc
    return Factorization(
        matrix=M, backend=backend, free=free, fixed=dirichlet_dofs,
        coupling=coupling,
    )


def multiplier_update(y: np.ndarray, rho: float, au: np.ndarray, delta: np.ndarray):
    """Dual ascent y + rho (A u - delta); no clipping."""
    return y + rho * (au - delta)


class AdmmSolver:
    """Holds the factorized system and runs load steps to convergence.

    Exclusive access is assumed while run_step executes; the underlying
    matrices are immutable and may be shared across threads.
    """

    def __init__(
        self,
        stiffness: StiffnessMatrix,
        jump: JumpOperator,
        params: CohesiveParams,
        config: AdmmConfig,
        dirichlet_dofs: np.ndarray,
        coords: np.ndarray,
        reaction_nodes: np.ndarray | None = None,
        iteration_sink=None,
    ):
        self.stiffness = stiffness
        self.jump = jump
        self.params = params
        self.config = config
        self.rho = config.penalty(jump.areas, params)
        validate_penalty(self.rho, jump.areas, params)
        self.fact = factorize_system(
            stiffness.K, jump.A, self.rho, dirichlet_dofs, coords
        )
        self.dirichlet_dofs = self.fact.fixed
        self.reaction_nodes = reaction_nodes
        self.iteration_sink = iteration_sink
        self._areas2 = np.repeat(jump.areas, 2)

    @property
    def n_points(self) -> int:
        return self.jump.n_points

    def initial_state(self) -> SolverState:
        return SolverState.zeros(self.jump.n_dof, self.jump.n_points)

    def u_update(
        self, y: np.ndarray, delta: np.ndarray, bc_values: np.ndarray
    ) -> np.ndarray:
        """Global quadratic minimization at fixed openings and multipliers."""
        rhs = -(self.jump.A.T @ (y - self.rho * delta))
        return self.fact.solve(rhs, bc_values)

    def delta_update(
        self, au: np.ndarray, y: np.ndarray, delta_max: np.ndarray
    ) -> np.ndarray:
        """Separable closed-form minimization at every Gauss point."""
        p = (y + self.rho * au).reshape(-1, 2)
        delta = solve_local_batch(
            p, self.jump.areas, delta_max, self.rho, self.params
        )
        return delta.reshape(-1)

    def check_convergence(
        self, au: np.ndarray, delta: np.ndarray, delta_prev: np.ndarray
    ) -> Residuals:
        """Pressure residuals: element-wise division by effective areas."""
        r = self.rho * (au - delta) / self._areas2
        s = self.rho * (self.jump.A.T @ ((delta - delta_prev) / self._areas2))
        primal_inf = float(np.abs(r).max(initial=0.0))
        dual_inf = float(np.abs(s).max(initial=0.0))
        return Residuals(
            primal=r,
            dual=s,
            primal_inf=primal_inf,
            dual_inf=dual_inf,
            converged=(
                primal_inf < self.config.c_primal
                and dual_inf < self.config.c_dual
            ),
        )

    def run_step(
        self,
        state0: SolverState,
        bc_values: np.ndarray,
        cohesive_state: CohesiveState,
        step: int = 0,
    ) -> StepResult:
        """Iterate u -> delta -> y until both residuals pass.

        The damage history is frozen during the iterations and committed
        only on success, so each step minimizes a fixed functional.
        Raises ConvergenceError when the iteration cap is exhausted.
        """
        u = state0.u
        delta = state0.delta.copy()
        y = state0.y.copy()
        delta_max = cohesive_state.delta_max

        for it in range(1, self.config.max_iters + 1):
            u = self.u_update(y, delta, bc_values)
            au = self.jump.A @ u
            delta_prev = delta
            delta = self.delta_update(au, y, delta_max)
            y = multiplier_update(y, self.rho, au, delta)
            res = self.check_convergence(au, delta, delta_prev)
            if self.iteration_sink is not None:
                self.iteration_sink(step, it, res.primal_inf, res.dual_inf)
            if res.converged:
                state = SolverState(u=u, delta=delta, y=y)
                cohesive_state.commit(delta, self.params)
                reaction = None
                if self.reaction_nodes is not None:
                    reaction = reaction_force(
                        self.stiffness, self.jump, self.rho, state,
                        self.reaction_nodes,
                    )
                return StepResult(state=state, iterations=it, reaction=reaction)
        raise ConvergenceError(
            step, self.config.max_iters, res.primal_inf, res.dual_inf
        )
