"""ADMM fixed-point loop for one quasistatic load step.

Each iteration alternates a global linear solve for the displacements, an
independent closed-form minimization per interface Gauss point for the
openings, and a gradient ascent update of the Lagrange multipliers.
Convergence is judged on pressure-normalized primal and dual residuals,
so the tolerances are meaningful across mesh resolutions and penalty
values. A solver's factorized operator K + rho A^T A is constant for its
whole life; only right-hand sides change between iterations and steps.

The opening and multiplier updates use the over-relaxed jump
r A u + (1 - r) delta_prev (Boyd et al., "Distributed Optimization and
Statistical Learning via ADMM", FnT ML 2011, section 3.4.3), which has
the same fixed point as the plain map and reaches it in fewer
iterations. The stopping test keeps the plain A u.

While the openings going into and coming out of an iteration are all
zero, the next iterate depends on y alone, so type-II Anderson
acceleration (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011) extrapolates
y alone from the last few iterates, as Zhang, Peng, Deng & Liu
("Accelerating ADMM for Efficient Simulation and Optimization", ACM TOG
38(6), 2019) advise. A nonzero opening or a rising residual clears the
history, so acceleration never chooses between crack branches. The
boundary values enter the map only as a constant offset, so a step
starts from the differences the last one returned as `AndersonRows`
(Parks, de Sturler, Mackey, Johnson & Maiti, SIAM J. Sci. Comput. 28(5),
2006, recycle Krylov subspaces across a sequence of linear systems).
While no opening moves, the dual residual is zero and its A^T product
is skipped.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cohesive import (
    CohesiveParams, LocalSolveContext, solve_local_batch, validate_penalty,
)
from .elasticity import reaction_force
from .errors import ConfigError, ConvergenceError, SingularSystemError, StagnationError
from .mesh import JumpOperator, freeze

log = logging.getLogger(__name__)

# Over-relaxation factor r of the jump fed to the delta and y updates.
# From r = 1.6 a load step that already converges in one or two
# iterations takes more, and from r = 1.7 extrapolated elastic steps
# need 3-5 iterations instead of at most 2.
RELAXATION = 1.5

# Anderson window m: how many past iterate differences the accelerated
# y update combines; 0 turns acceleration off.
ANDERSON_WINDOW = 5

# Stored factor entries (SuperLU.nnz) up to which a solve runs SuperLU's
# transposed substitution, trans="T"; a larger factor keeps the default
# "N". The reduced operator equals its transpose bit for bit, so both
# solve the same system. Fastest ms per solve, "T" against "N", one core
# of a 2-CPU shared Xeon host, one BLAS thread, node-blocked factors:
# 0.84 / 1.07 on the criterion-5 porous plate (0.64M entries), 0.95 /
# 1.16 at 0.89M (2k strip), 5.14 / 5.60 at 4.44M (8k strip), 6.47 / 7.31
# at 5.68M, within noise of each other at 6.86M and 10.2M, and 40.9 /
# 39.7 at 20.3M (the 30k strip). scripts/solve_kernels.py re-measures
# the pair on one mesh.
SMALL_FACTOR_NNZ = 6_000_000

# SuperLU.solve's `trans` argument of each solve kernel
SOLVE_KERNELS = {"supernodal": "N", "transposed": "T"}

# Columns per panel of SuperLU's left-looking factorization, the unit of
# both its symbolic depth-first search and its dense updates (scipy's
# default is 20). The ordering and the fill do not depend on it. Median
# CPU s of splu, panel 8 against 20, one core of a 2-CPU shared Xeon
# host, one BLAS thread, seed-0 operators, alternating rounds: 0.0282 /
# 0.0297 on the criterion-5 porous plate (0.64M entries, 8 faster in 6
# of 10), 0.0342 / 0.0379 at 0.89M (2k strip, 15 of 20), 0.200 / 0.225
# at 4.44M (8k strip, 9 of 10) and 1.125 / 1.277 at 20.3M (the 30k
# strip, 8 of 8). Panel 4 was fastest at 2k and 8k, but 4 and 6 each
# lost a round of 8 to panel 20 at 30k, where 8 lost none.
# scripts/solve_kernels.py re-measures the pair.
PANEL_SIZE = 8

# A load step fails once r = max(primal / c_primal, dual / c_dual)
# exceeds this many times its least value within the step.
BLOWUP_FACTOR = 1e6

# A load step fails once r sets no new least value in this many
# iterations. The uniform strip's snap step goes 514-567 iterations
# without one and converges; 2000 caps a stalled 30k step near 2 min.
STALL_WINDOW = 2000

# The last resort after the two rules above: a load step fails after
# this many iterations. The longest converging step of the seed-0
# benchmark workloads takes 93.
MAX_ITERS = 100_000


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


@dataclass(frozen=True)
class AdmmConfig:
    """ADMM parameters.

    alpha scales the penalty rho = alpha * mean(a_i) * sigma_c / delta_c;
    c_primal and c_dual are pressure tolerances on the residual infinity
    norms. The iteration cap of a load step is the constant MAX_ITERS.
    """

    alpha: float = 100.0
    c_primal: float = 0.01
    c_dual: float = 0.01

    def __post_init__(self):
        # each bound is written so that NaN fails it
        if not self.alpha > 1:
            raise ConfigError("alpha must exceed 1")
        if not math.isfinite(self.alpha):
            raise ConfigError("alpha must be finite")
        if not (0 < self.c_primal < math.inf and 0 < self.c_dual < math.inf):
            raise ConfigError("tolerances must be positive and finite")

    def penalty(self, areas: np.ndarray, params: CohesiveParams) -> float:
        """rho = alpha * mean(a_i) * sigma_c / delta_c (0 if no interfaces)."""
        if np.size(areas) == 0:
            return 0.0
        return float(
            self.alpha * np.mean(areas) * params.sigma_c / params.delta_c
        )


@dataclass(frozen=True, eq=False)
class AndersonRows:
    """The Anderson differences a load step leaves, made at penalty rho:
    rows [0, count) of the read-only ring buffers d_f and d_g, the next
    row to write, `slot`, and the Gram matrix d_f d_f' of those rows."""

    rho: float
    d_f: np.ndarray
    d_g: np.ndarray
    gram: np.ndarray
    count: int
    slot: int


@dataclass
class StepResult:
    """Converged solution of one load step, and the Anderson rows it
    leaves (None when it leaves none)."""

    state: SolverState
    iterations: int
    anderson: AndersonRows | None = None


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


def element_dissection_order(*args, **kwargs):
    """Not on the run path: SuperLU orders the operator itself.

    The name stays only because perfbench/spans.py wraps it for its
    `admm.order_s` span.
    """
    raise NotImplementedError("SuperLU orders the operator itself")


class _SuperLuBackend:
    """SuperLU factor of the reduced operator, which is SPD.

    Symmetric mode with a zero pivot threshold takes every pivot from the
    diagonal, so the minimum-degree ordering of A + A^T serves as a
    symmetric elimination order; on this operator it fills far less than
    the COLAMD ordering of a general LU. factorize_system hands it an
    operator with full 2x2 node blocks, so minimum degree eliminates a
    node's two DOFs together as one supervariable (George & Liu, SIAM
    Review 31(1), 1989). The solve kernel is chosen once, from the size
    of the factor (SMALL_FACTOR_NNZ), and the factorization runs on
    panels of PANEL_SIZE columns (Li, "An overview of SuperLU", ACM TOMS
    31(3), 2005, on the panel of the left-looking gstrf).
    """

    def __init__(self, reduced: sp.csc_matrix, panel_size: int = PANEL_SIZE):
        self._lu = spla.splu(
            reduced,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            panel_size=panel_size,
            options={"SymmetricMode": True},
        )
        small = self.nnz <= SMALL_FACTOR_NNZ
        self.kernel = "transposed" if small else "supernodal"
        self._trans = SOLVE_KERNELS[self.kernel]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs, trans=self._trans)

    @property
    def nnz(self) -> int:
        """Stored entries of the factor, supernodal storage included."""
        return int(self._lu.nnz)


@dataclass
class Factorization:
    """Reusable factorization of the Dirichlet-reduced K + rho A^T A."""

    backend: _SuperLuBackend | None   # None when every DOF is fixed
    free: np.ndarray
    fixed: np.ndarray
    coupling: sp.csr_matrix        # rows free, columns fixed

    def solve(
        self, b: np.ndarray, bc_values: np.ndarray, lifted: np.ndarray
    ) -> np.ndarray:
        """The u with u = bc_values on the fixed DOFs and M u = b on the
        free ones: the minimizer of (1/2) u'Mu - b'u.

        `lifted` is `coupling @ bc_values`, the same for every b solved
        at these boundary values.
        """
        u = np.empty(len(self.free) + len(self.fixed))
        u[self.fixed] = bc_values
        if self.backend is None:
            return u
        reduced = b[self.free]
        reduced -= lifted
        u[self.free] = self.backend.solve(reduced)
        return u


def factorize_system(
    K: sp.spmatrix, A: sp.spmatrix, rho: float, dirichlet_dofs: np.ndarray,
    coords: np.ndarray,
) -> Factorization:
    """Factor K + rho A^T A with the constrained DOFs eliminated.

    The penalty term ties the duplicated elements together, so the null
    space of the unconstrained operator is exactly the global rigid
    motions of the structure. Raises SingularSystemError naming how many
    of them the Dirichlet set leaves free. The DOFs keep the caller's
    order, which `bc_values` follow by position; a repeated or
    out-of-range DOF raises ConfigError.

    Every 2x2 node block the operator touches is stored whole, with the
    x-y entries of rho A^T A that cancel to zero kept as explicit zeros.
    The values are those of K + rho A^T A bit for bit, and the factor
    fills 10-16% less (the README's factor paragraph). The full operator
    is built once, in CSR, and is freed before the factorization, which
    reads the free-free block's arrays as they are.
    """
    dirichlet_dofs = np.asarray(dirichlet_dofs, dtype=np.int64)
    n_dof = K.shape[0]
    if dirichlet_dofs.size and (
        dirichlet_dofs.min() < 0 or dirichlet_dofs.max() >= n_dof
    ):
        raise ConfigError("Dirichlet DOF index out of range")
    if np.unique(dirichlet_dofs).size < dirichlet_dofs.size:
        raise ConfigError("Dirichlet DOFs must not repeat")

    basis = _rigid_basis(coords)
    restricted = basis[dirichlet_dofs]
    rank = np.linalg.matrix_rank(restricted) if dirichlet_dofs.size else 0
    n_rigid = 3 - int(rank)
    if n_rigid > 0:
        raise SingularSystemError(n_rigid)

    mask = np.ones(n_dof, dtype=bool)
    mask[dirichlet_dofs] = False
    free = np.flatnonzero(mask)
    # no name holds the full operator, so _reduce can free it
    reduced, coupling = _reduce(
        _node_block_operator(K, A, rho), mask, dirichlet_dofs
    )

    backend = None
    if len(free):
        try:
            backend = _SuperLuBackend(reduced)
        except (ArithmeticError, RuntimeError) as exc:
            # not positive definite despite the rigid-mode check
            raise SingularSystemError(0) from exc
    return Factorization(
        backend=backend, free=free, fixed=dirichlet_dofs, coupling=coupling
    )


def _node_block_operator(
    K: sp.spmatrix, A: sp.spmatrix, rho: float
) -> sp.csr_matrix:
    """K + rho A^T A in canonical CSR, every node block stored whole.

    The product and the sum run on 2x2 blocks, so the x-y entries of
    rho A^T A that cancel to zero stay stored; a block drops out only
    when all four of its entries are zero. Each entry sums the same
    products in the same order as scipy's CSR product and sum, so the
    values are theirs bit for bit.
    """
    A_blocks = A.tobsr(blocksize=(2, 2))
    # the product is symmetric entry for entry, so its transpose is the
    # product itself, with the blocks of each row in sorted order
    AtA = (A_blocks.T @ A_blocks).T
    AtA.data *= rho
    return (K.tobsr(blocksize=(2, 2)) + AtA).tocsr()


def _reduce(M: sp.csr_matrix, free_mask: np.ndarray, fixed: np.ndarray):
    """Split the free rows of the canonical CSR M by column.

    Returns the free-free block, as CSC arrays for SuperLU, and the
    free-fixed coupling as CSR with columns numbered by position in
    `fixed`. The CSC arrays are the CSR arrays of the free-free block
    itself: M equals its transpose bit for bit, and so does that block.
    Within each row the coupling keeps M's column order.
    """
    rows = M[free_mask]
    del M       # the full operator must not live through the split
    n_free = rows.shape[0]
    index = rows.indices.dtype
    column = np.empty(len(free_mask), dtype=index)
    column[free_mask] = np.arange(n_free, dtype=index)
    column[fixed] = np.arange(len(fixed), dtype=index)
    keep = free_mask[rows.indices]
    # the few entries in fixed columns, and how many precede each row
    moved = np.flatnonzero(~keep)
    moved_before = np.searchsorted(moved, rows.indptr).astype(index)
    reduced = sp.csc_matrix(
        (rows.data[keep], column[rows.indices[keep]], rows.indptr - moved_before),
        shape=(n_free, n_free),
    )
    reduced.has_canonical_format = True
    coupling = sp.csr_matrix(
        (rows.data[moved], column[rows.indices[moved]], moved_before),
        shape=(n_free, len(fixed)),
    )
    return reduced, coupling


def multiplier_update(y: np.ndarray, rho: float, au: np.ndarray, delta: np.ndarray):
    """Dual ascent y + rho (A u - delta); no clipping.

    run_step passes the over-relaxed jump as `au`.
    """
    return y + rho * (au - delta)


def _max_abs(v: np.ndarray) -> float:
    """Infinity norm of v without an |v| temporary; 0 when v is empty.

    max and min propagate NaN, and adding 0.0 turns the -0.0 that an
    all-zero v can give into 0.0.
    """
    return max(float(v.max(initial=0.0)), -float(v.min(initial=0.0))) + 0.0


class _Anderson:
    """Type-II Anderson acceleration of the multipliers, y = G(y), in one
    load step.

    The residual f = scale * (G(y) - y) and the map value g = G(y) of
    consecutive iterates are differenced into two ring buffers of m rows.
    The next iterate is g - dG' gamma, with gamma minimizing
    |f - dF' gamma| through the m x m Gram matrix dF dF'. One product
    dF f per iteration gives both the right-hand side and, differenced
    against the last one, the Gram column of the newest row. When the
    residual norm rises the differences are dropped and the plain
    iterate is taken. The dot products are np.einsum sums, in a fixed
    order on one thread, so the iterates do not depend on the BLAS
    thread count.

    The step starts from the rows an earlier one left, never writes them
    (its first push copies them) and hands its own on by `rows`; no
    difference spans the step boundary. The caller steps only while the
    openings going into and coming out of an iteration are all zero and
    clears the rows otherwise, so a carried row can change the path of a
    step but not its fixed point, and the openings, all zero, are left
    out of f and g.
    """

    def __init__(self, window: int, scale: np.ndarray, rows: AndersonRows | None = None):
        n = len(scale)
        self.scale = scale
        self.proj = np.empty(window)      # d_f f of the last iterate
        self.f, self.f_prev = np.empty(n), np.empty(n)
        self.w = np.empty(n)
        self.clear()
        self.carried = rows       # the caller's rows, until the first push
        if rows is None:
            self.d_f, self.d_g = np.empty((window, n)), np.empty((window, n))
            self.gram = np.empty((window, window))
        else:
            self.d_f, self.d_g, self.gram = rows.d_f, rows.d_g, rows.gram
            self.count, self.slot = rows.count, rows.slot

    def clear(self) -> None:
        """Forget every iterate, the last one included."""
        self.count = 0        # valid rows of d_f / d_g, filled from row 0
        self.slot = 0         # row the next difference goes to
        self.norm_prev = None
        self.g_prev = None    # the last map value

    def rows(self, rho: float) -> AndersonRows | None:
        """The valid rows, read-only, for the next step; None if none."""
        if not self.count:
            return None
        if self.carried is None:
            freeze(self.d_f, self.d_g, self.gram)
            self.carried = AndersonRows(
                rho, self.d_f, self.d_g, self.gram, self.count, self.slot
            )
        return self.carried

    def step(self, y, y_g):
        """Accelerated successor of y, or None for plain.

        y_g = G(y); it is kept until the next call and must not be
        modified. The result is a buffer that the next call overwrites.
        """
        f = np.subtract(y_g, y, out=self.f)
        f *= self.scale
        norm = float(np.sqrt(np.einsum("i,i", f, f)))
        new = None
        if self.norm_prev is not None:
            if norm > self.norm_prev:
                self.count = self.slot = 0
            else:
                new = self._push(y_g)
        self.norm_prev = norm
        self.f, self.f_prev = self.f_prev, f
        self.g_prev = y_g
        k = self.count
        if k == 0:
            return None
        proj = np.einsum("ij,j->i", self.d_f[:k], f)
        if new is not None:
            # d_j (f - f_prev) for every older row j
            column = proj - self.proj[:k]
            column[new] = self.gram[new, new]
            self.gram[new, :k] = column
            self.gram[:k, new] = column
        self.proj[:k] = proj
        # rows scaled to unit length, so the cut-off sees angles, not sizes
        unit = 1.0 / np.sqrt(np.diag(self.gram)[:k])
        gamma = unit * np.linalg.lstsq(
            self.gram[:k, :k] * np.outer(unit, unit), proj * unit, rcond=None
        )[0]
        w = np.dot(gamma, self.d_g[:k], out=self.w)
        return np.subtract(y_g, w, out=w)

    def _push(self, y_g):
        """Store f - f_prev and g - g_prev; return their row, or None."""
        if self.carried is not None:
            # write to copies: the caller's rows stay as they were
            self.d_f, self.d_g, self.gram = (
                a.copy() for a in (self.d_f, self.d_g, self.gram)
            )
            self.carried = None
        s = self.slot
        d_f = np.subtract(self.f, self.f_prev, out=self.d_f[s])
        size2 = float(np.einsum("i,i", d_f, d_f))
        if not size2 > 0.0:
            # a repeated residual: the row is spoilt, start over
            self.count = self.slot = 0
            return None
        np.subtract(y_g, self.g_prev, out=self.d_g[s])
        self.gram[s, s] = size2
        self.count = min(self.count + 1, len(self.d_f))
        self.slot = (s + 1) % len(self.d_f)
        return s


class AdmmSolver:
    """Holds the factorized system and runs load steps to convergence.

    The solver holds only what is fixed for its life: the CSR stiffness
    K it was given, the penalty, checked here before the factorization,
    the factor of K + rho A^T A and the residual buffers. The A^T
    products run through A.T, a CSC view over the jump's own arrays, so
    A is stored once. K and A are shared, not copied, and read-only as
    their builders return them: a write to either raises ValueError, so
    the factor matches the operator the iteration applies.
    What is fixed for one load step, because the damage history and the
    boundary values are frozen while it iterates, run_step builds as
    locals: coupling @ bc_values and the LocalSolveContext. A step only
    solves, and what carries between steps (the damage history and the
    Anderson rows) goes in and out as arguments and results; the caller
    commits the history and takes the reaction (`reaction`) on the nodes
    it chooses. So a kept solver (driver.Problem.solver) holds nothing of
    a run. Exclusive access is assumed while run_step executes; the
    underlying matrices are immutable and may be shared across threads.
    """

    def __init__(
        self, K: sp.csr_matrix, jump: JumpOperator, params: CohesiveParams,
        config: AdmmConfig, dirichlet_dofs: np.ndarray, coords: np.ndarray,
    ):
        self.K = K
        self.jump = jump
        self.params = params
        self.config = config
        self.rho = config.penalty(jump.areas, params)
        validate_penalty(self.rho, jump.areas, params)
        t_build = time.perf_counter()
        self.fact = factorize_system(K, jump.A, self.rho, dirichlet_dofs, coords)
        backend = self.fact.backend
        log.info(
            "factor: alpha=%g built in %.3f s, nnz=%d, kernel=%s",
            config.alpha, time.perf_counter() - t_build,
            backend.nnz if backend is not None else 0,
            backend.kernel if backend is not None else "none",
        )
        self._areas2 = np.repeat(jump.areas, 2)
        self._a_t = jump.A.T    # a read-only CSC view: no copy of A
        self._drive = np.empty(2 * jump.n_points)      # rho delta - y
        self._primal = np.empty(2 * jump.n_points)
        self._jump_step = np.empty(2 * jump.n_points)

    @property
    def n_points(self) -> int:
        return self.jump.n_points

    def u_update(
        self, y: np.ndarray, delta: np.ndarray, bc_values: np.ndarray,
        lifted: np.ndarray,
    ) -> np.ndarray:
        """Global quadratic minimization at fixed openings and multipliers.

        `lifted` is `fact.coupling @ bc_values`. The minimizer solves
        M u = A^T (rho delta - y) on the free DOFs.
        """
        drive = np.multiply(delta, self.rho, out=self._drive)
        np.subtract(drive, y, out=drive)
        return self.fact.solve(self._a_t @ drive, bc_values, lifted)

    def delta_update(
        self, au: np.ndarray, y: np.ndarray, local: LocalSolveContext
    ) -> np.ndarray:
        """Separable closed-form minimization at every Gauss point.

        `local` is the LocalSolveContext of the step's damage history.
        """
        p = (y + self.rho * au).reshape(-1, 2)
        return solve_local_batch(p, local).reshape(-1)

    def check_convergence(
        self, au: np.ndarray, delta: np.ndarray, delta_prev: np.ndarray
    ) -> tuple[float, float]:
        """Infinity norms of the pressure-normalized primal and dual
        residuals: element-wise division by effective areas. A NaN
        residual gives a NaN norm. The dual is exactly 0.0, with no A^T
        product, when no opening moved."""
        r = np.subtract(au, delta, out=self._primal)
        r *= self.rho
        r /= self._areas2
        jump_step = np.subtract(delta, delta_prev, out=self._jump_step)
        if not jump_step.any():
            return _max_abs(r), 0.0
        jump_step /= self._areas2
        s = self._a_t @ jump_step
        s *= self.rho
        return _max_abs(r), _max_abs(s)

    def reaction(self, state: SolverState, nodes: np.ndarray) -> np.ndarray:
        """Summed internal force (Fx, Fy) on `nodes` in `state`."""
        return reaction_force(self.K, self.jump, self.rho, state, nodes)

    def run_step(
        self, state0: SolverState, bc_values: np.ndarray, delta_max: np.ndarray,
        anderson: AndersonRows | None = None, step: int = 0, iteration_sink=None,
    ) -> StepResult:
        """Iterate u -> delta -> y until both residuals pass.

        The damage history delta_max is frozen, so each step minimizes a
        fixed functional; committing the converged openings to it is the
        caller's concern. Anderson acceleration starts from the rows
        `anderson` an earlier step left, unless they were made at another
        penalty, and the result carries the rows this step leaves; the
        returned state is always the output of the plain map. No argument
        is written to. iteration_sink(step, iter, primal, dual), when
        given, sees every iteration of this call and of no other. Raises
        ConvergenceError after MAX_ITERS iterations or at the first
        non-finite residual, and its subclass StagnationError once
        the relative residual r = max(primal / c_primal, dual / c_dual),
        which is at least 1 until the step converges, exceeds
        BLOWUP_FACTOR times its least value so far ("diverged") or sets
        no new least value in STALL_WINDOW iterations ("stalled").
        """
        delta, y = state0.delta, state0.y
        c_primal, c_dual = self.config.c_primal, self.config.c_dual
        best, best_it = math.inf, 0
        au_hat = np.empty_like(delta)
        if anderson is not None and anderson.rho != self.rho:
            anderson = None
        history = None
        if ANDERSON_WINDOW > 0 and self.n_points:
            # residual of y in pressure units
            history = _Anderson(ANDERSON_WINDOW, 1.0 / self._areas2, anderson)
            # whether an opening going into the iteration is nonzero; each
            # iteration scans only the openings it puts out
            open_in = delta.any()
        lifted = self.fact.coupling @ bc_values
        local = LocalSolveContext(self.jump.areas, delta_max, self.rho, self.params)
        for it in range(1, MAX_ITERS + 1):
            u = self.u_update(y, delta, bc_values, lifted)
            au = self.jump.A @ u
            # au_hat = r A u + (1 - r) delta, without temporaries
            np.subtract(au, delta, out=au_hat)
            au_hat *= RELAXATION
            au_hat += delta
            delta_g = self.delta_update(au_hat, y, local)
            y_g = multiplier_update(y, self.rho, au_hat, delta_g)
            primal, dual = self.check_convergence(au, delta_g, delta)
            if iteration_sink is not None:
                iteration_sink(step, it, primal, dual)
            if not (np.isfinite(primal) and np.isfinite(dual)):
                raise ConvergenceError(step, it, primal, dual)
            if primal < c_primal and dual < c_dual:
                state = SolverState(u=u, delta=delta_g, y=y_g)
                rows = history.rows(self.rho) if history is not None else None
                return StepResult(state=state, iterations=it, anderson=rows)
            r = max(primal / c_primal, dual / c_dual)
            if r < best:
                best, best_it = r, it
            elif r > BLOWUP_FACTOR * best:
                raise StagnationError(step, it, primal, dual, best, best_it, "diverged")
            elif it - best_it >= STALL_WINDOW:
                raise StagnationError(step, it, primal, dual, best, best_it, "stalled")
            accelerated = None
            if history is not None:
                open_out = delta_g.any()
                if open_in or open_out:
                    history.clear()
                else:
                    accelerated = history.step(y, y_g)
                open_in = open_out
            delta = delta_g
            y = y_g if accelerated is None else accelerated
        raise ConvergenceError(step, MAX_ITERS, primal, dual)
