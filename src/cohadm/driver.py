"""Quasistatic load stepping with linear extrapolation warm starts.

Each load step prescribes an increment of boundary displacement and
re-minimizes the energy from a warm start: the previous converged state
or, when the previous linear prediction proved accurate enough, the
extrapolation 2 z_k - z_{k-1}, feasible because the constraint is
linear. The step after one that activated a Gauss point runs at the
lower penalty scale min(alpha, ACTIVATION_ALPHA) from a second factor,
built when first needed; the best penalty follows the crack's phase, the
simplest form of residual balancing (Boyd et al., FnT ML 2011, section
3.4.1). All that passes from one step to the next is one `RunState`,
which `advance` maps to the next, so a step can be solved again. Each
step records an average stress / average strain row for crash-safe
incremental sinks.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .admm import AdmmConfig, AdmmSolver, AndersonRows, SolverState
from .cohesive import CohesiveParams, commit_history, dissipated_energy, validate_penalty
from .elasticity import Material, assemble_stiffness
from .errors import ConfigError, ConvergenceError
from .mesh import (
    BrokenMesh, InputMesh, JumpOperator, break_mesh, build_jump_operator, freeze,
)

log = logging.getLogger(__name__)

# Penalty scale alpha of the load step after one that activated a Gauss
# point; that step runs at min(alpha, ACTIVATION_ALPHA). On the
# criterion-5 porous plate at alpha 100, the opening steps 4-25 take
# 1604 of 2489 iterations, against 1019 at alpha 60, while the other
# steps do best at 100; switching after activation steps alone takes
# 1746 iterations, with the curve within 0.14% of peak.
ACTIVATION_ALPHA = 60.0


@dataclass(frozen=True, kw_only=True)
class LoadSchedule:
    """Monotone displacement ramp applied to one boundary set.

    bc_set nodes are driven along `direction` ('x' or 'y') from u_start
    to u_end in n_steps uniform increments; fixed_sets lists
    (set name, components) pairs pinned to zero, components one of
    'x', 'y', 'xy'. u_start must be 0: step 0 is the all-zero state,
    which meets no other boundary value.
    """

    bc_set: str
    direction: str
    u_start: float = 0.0
    u_end: float
    n_steps: int
    fixed_sets: tuple = ()

    def __post_init__(self):
        if self.direction not in ("x", "y"):
            raise ConfigError("schedule direction must be 'x' or 'y'")
        if self.u_start != 0:
            raise ConfigError("u_start must be 0")
        # written so that NaN fails it
        if not -math.inf < self.u_end < math.inf:
            raise ConfigError("u_end must be finite")
        # bool counts as an int in Python; numpy integers are Integral
        v = self.n_steps
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
            raise ConfigError("n_steps must be an integer of at least 1")
        for entry in self.fixed_sets:
            if len(entry) != 2 or entry[1] not in ("x", "y", "xy"):
                raise ConfigError("fixed_sets entries must be (set name, 'x'|'y'|'xy')")

    def applied(self, step: int) -> float:
        """Prescribed displacement at step k (step 0 is the baseline)."""
        return self.u_end * step / self.n_steps


@dataclass(frozen=True)
class ExtrapolationPolicy:
    """Gate for extrapolated warm starts: a step starts from the
    extrapolation when the last prediction's quality exceeds the
    threshold. At 1 that is when the prediction beat the last state; a
    stale prediction rates exactly 1 and is never used."""

    enabled: bool = True
    quality_threshold: float = 1.0

    def __post_init__(self):
        # each bound is written so that NaN fails it
        if not 1 <= self.quality_threshold < math.inf:
            raise ConfigError("quality_threshold must be at least 1 and finite")


@dataclass
class StepRow:
    step: int
    u_applied: float
    reaction_force: float
    avg_stress: float
    avg_strain: float
    iterations: int
    extrapolated: bool
    wall_ms: float


@dataclass
class RunRecord:
    """Per-step outputs of a quasistatic run plus the final fields."""

    width: float
    height: float
    thickness: float
    rows: list[StepRow] = field(default_factory=list)
    dissipation: list[float] = field(default_factory=list)
    final_state: SolverState | None = None
    delta_max: np.ndarray | None = None
    jump: object = None

    @property
    def total_iterations(self) -> int:
        return sum(r.iterations for r in self.rows)

    @property
    def stresses(self) -> np.ndarray:
        return np.array([r.avg_stress for r in self.rows])

    @property
    def strains(self) -> np.ndarray:
        return np.array([r.avg_strain for r in self.rows])

    @property
    def peak_stress(self) -> float:
        return float(self.stresses.max())


class StateScale:
    """Nondimensionalization for norms over the mixed-unit state."""

    def __init__(self, params: CohesiveParams, mean_area: float):
        self.u_scale = self.delta_scale = params.delta_c
        self.y_scale = max(mean_area, 1e-300) * params.sigma_c

    def norm(self, a: SolverState, b: SolverState) -> float:
        """Euclidean norm of the scaled a - b, in a thread-independent order."""
        du = (a.u - b.u) / self.u_scale
        dd = (a.delta - b.delta) / self.delta_scale
        dy = (a.y - b.y) / self.y_scale
        return float(np.sqrt(sum(np.einsum("i,i", v, v) for v in (du, dd, dy))))


def extrapolate(z_k: SolverState, z_km1: SolverState) -> SolverState:
    """Linear prediction 2 z_k - z_{k-1}, componentwise over (u, delta, y)."""
    return SolverState(
        u=2.0 * z_k.u - z_km1.u,
        delta=2.0 * z_k.delta - z_km1.delta,
        y=2.0 * z_k.y - z_km1.y,
    )


def extrapolation_quality(
    z_k: SolverState, z_km1: SolverState, z_tilde_k: SolverState, scale: StateScale
) -> float:
    """Accuracy ratio |z_k - z_{k-1}| / |z_k - z~_k| of the last prediction.

    Infinity means a perfect prediction; values above the policy
    threshold enable extrapolation for the next step.
    """
    denom = scale.norm(z_k, z_tilde_k)
    if denom == 0.0:
        return np.inf
    return scale.norm(z_k, z_km1) / denom


@dataclass(frozen=True, eq=False)
class Problem:
    """A run's set-up, built once by `build_problem`: the broken mesh,
    its jump operator, K (both read-only as built), the cohesive law,
    the sorted Dirichlet DOFs with the positions of the driven ones
    among them, the private nodes the reaction is taken on, the load's
    component `axis`, and the specimen's extent along and across it."""

    mesh: BrokenMesh
    jump: JumpOperator
    K: sp.csr_matrix
    cohesive: CohesiveParams
    dirichlet: np.ndarray
    driven_pos: np.ndarray
    reaction_nodes: np.ndarray
    axis: int
    width: float
    height: float
    thickness: float
    _solvers: dict = field(default_factory=dict, init=False, repr=False)

    def solver(self, config: AdmmConfig) -> AdmmSolver:
        """The AdmmSolver of `config`: built, and its factor with it, on
        the first request for an equal config, then the same object."""
        if config not in self._solvers:
            self._solvers[config] = AdmmSolver(
                self.K, self.jump, self.cohesive, config, self.dirichlet,
                self.mesh.nodes,
            )
        return self._solvers[config]


def build_problem(
    input_mesh: InputMesh, material: Material, cohesive: CohesiveParams,
    schedule: LoadSchedule,
) -> Problem:
    """Break the mesh, lay out the boundary conditions and build the jump
    operator and K. Raises ConfigError for an unknown boundary set, a
    driven set with no node on any triangle, and driven and fixed sets
    that overlap on the driven component."""
    mesh = break_mesh(input_mesh)
    sets = input_mesh.boundary_sets
    for name in (schedule.bc_set, *(name for name, _ in schedule.fixed_sets)):
        if name not in sets:
            raise ConfigError(f"unknown boundary set {name!r}")
    driven = mesh.dofs_of(sets[schedule.bc_set], schedule.direction)
    if not driven.size:
        raise ConfigError(
            f"boundary set {schedule.bc_set!r} has no nodes on any triangle"
        )
    fixed = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        mesh.dofs_of(sets[name], components) for name, components in schedule.fixed_sets
    ])
    if np.intersect1d(driven, fixed).size:
        raise ConfigError(
            "driven and fixed boundary sets overlap on the driven component"
        )
    dirichlet = np.unique(np.concatenate([driven, fixed]))
    extent = np.ptp(input_mesh.nodes, axis=0)
    axis = "xy".index(schedule.direction)
    return Problem(
        mesh=mesh,
        jump=build_jump_operator(mesh, thickness=material.thickness),
        K=assemble_stiffness(mesh, material),
        cohesive=cohesive,
        dirichlet=dirichlet,
        driven_pos=np.searchsorted(dirichlet, driven),
        reaction_nodes=mesh.private_nodes_of(sets[schedule.bc_set]),
        axis=axis,
        width=float(extent[axis]),
        height=float(extent[1 - axis]),
        thickness=material.thickness,
    )


def _activation_config(
    config: AdmmConfig, jump, params: CohesiveParams
) -> AdmmConfig:
    """Config of the steps after an activation step.

    `config` itself when alpha is already at most ACTIVATION_ALPHA, and
    when the lower penalty breaks the strong-convexity bound, which is
    logged.
    """
    lower = replace(config, alpha=min(config.alpha, ACTIVATION_ALPHA))
    if lower == config:
        return config
    try:
        validate_penalty(lower.penalty(jump.areas, params), jump.areas, params)
    except ConfigError as exc:
        log.info(
            "activation alpha %g refused, every step runs at alpha %g: %s",
            lower.alpha, config.alpha, exc,
        )
        return config
    return lower


@dataclass(frozen=True, eq=False, kw_only=True)
class RunState:
    """All that passes from load step `step` to the next: its converged
    state `z` and the one before (None at step 0), the rating `quality`
    of the last prediction (None until one is measured), the damage
    history `delta_max`, read-only and new each step, whether the step
    damaged a pristine Gauss point, and the Anderson rows it left."""

    step: int
    z: SolverState
    z_before: SolverState | None = None
    quality: float | None = None
    delta_max: np.ndarray
    activated: bool = False
    anderson: AndersonRows | None = None


def start(problem: Problem) -> tuple[RunState, StepRow]:
    """Step 0: the all-zero state, an undamaged history and a zero row."""
    jump = problem.jump
    delta_max = np.zeros(jump.n_points)
    freeze(delta_max)
    z = SolverState.zeros(jump.n_dof, jump.n_points)
    return RunState(step=0, z=z, delta_max=delta_max), StepRow(
        step=0, u_applied=0.0, reaction_force=0.0, avg_stress=0.0, avg_strain=0.0,
        iterations=0, extrapolated=False, wall_ms=0.0,
    )


def advance(
    problem: Problem, state: RunState, target: float, config: AdmmConfig,
    policy: ExtrapolationPolicy, iteration_sink=None,
) -> tuple[RunState, StepRow]:
    """Solve step state.step + 1 with the driven DOFs at `target` on the
    problem's solver of `config`, from 2 z - z_before when the last
    prediction rated above the policy's threshold and from z otherwise;
    return the next RunState and the step's row. Nothing of `state` is
    written, so a step can be solved again from it. Raises
    ConvergenceError as AdmmSolver.run_step does."""
    k, z = state.step + 1, state.z
    solver = problem.solver(config)
    bc_values = np.zeros(len(problem.dirichlet))
    bc_values[problem.driven_pos] = target
    # quality is only measured with the policy enabled, from step 2 on
    use_extrap = state.quality is not None and state.quality > policy.quality_threshold
    # one prediction per step: the warm start when the gate is open,
    # and the trial whose accuracy sets the gate for the next step
    trial = (
        extrapolate(z, state.z_before)
        if policy.enabled and state.z_before is not None else None
    )
    t0 = time.perf_counter()
    result = solver.run_step(
        trial if use_extrap else z, bc_values, state.delta_max, state.anderson,
        step=k, iteration_sink=iteration_sink,
    )
    delta_max = state.delta_max.copy()
    commit_history(delta_max, result.state.delta, problem.cohesive)
    freeze(delta_max)
    force = float(solver.reaction(result.state, problem.reaction_nodes)[problem.axis])
    wall_ms = 1e3 * (time.perf_counter() - t0)
    quality = None
    if trial is not None:
        areas = problem.jump.areas
        scale = StateScale(problem.cohesive, float(np.mean(areas)) if areas.size else 1.0)
        quality = extrapolation_quality(result.state, z, trial, scale)
    # the history never decreases, so a new nonzero is a new crack point
    activated = np.count_nonzero(delta_max) > np.count_nonzero(state.delta_max)
    return RunState(
        step=k, z=result.state, z_before=z, quality=quality, delta_max=delta_max,
        activated=activated, anderson=result.anderson,
    ), StepRow(
        step=k, u_applied=target, reaction_force=force,
        avg_stress=force / (problem.height * problem.thickness),
        avg_strain=target / problem.width, iterations=result.iterations,
        extrapolated=use_extrap, wall_ms=wall_ms,
    )


def run_quasistatic(
    input_mesh: InputMesh,
    material: Material,
    cohesive: CohesiveParams,
    schedule: LoadSchedule,
    admm_config: AdmmConfig,
    policy: ExtrapolationPolicy = ExtrapolationPolicy(),
    setup_sink=None,
    step_sink=None,
    iteration_sink=None,
) -> RunRecord:
    """Run the full load schedule and collect the stress-strain record.

    `build_problem` sets the run up, and each step is one `advance` from
    the last RunState, at alpha min(alpha, ACTIVATION_ALPHA) after a step
    that damaged a pristine Gauss point. setup_sink(mesh, jump, solver)
    fires once after the configured factor is built, before step 1;
    step_sink(row, state, delta_max) after step 0 and every converged
    step, with that step's own damage history (crash-safe flushing is
    the caller's concern); iteration_sink(step, iter, primal, dual) after
    every ADMM iteration. On non-convergence the raised ConvergenceError
    carries the partial record, up to the last converged step, as
    `partial_record`.
    """
    problem = build_problem(input_mesh, material, cohesive, schedule)
    jump = problem.jump
    activation_config = _activation_config(admm_config, jump, cohesive)
    if setup_sink is not None:
        setup_sink(problem.mesh, jump, problem.solver(admm_config))
    record = RunRecord(width=problem.width, height=problem.height,
                       thickness=problem.thickness, jump=jump)
    state, row = start(problem)
    while True:
        record.rows.append(row)
        record.final_state, record.delta_max = state.z, state.delta_max
        record.dissipation.append(dissipated_energy(state.delta_max, jump.areas, cohesive))
        if step_sink is not None:
            step_sink(row, state.z, state.delta_max)
        if state.step == schedule.n_steps:
            return record
        config = activation_config if state.activated else admm_config
        try:
            state, row = advance(
                problem, state, schedule.applied(state.step + 1), config, policy,
                iteration_sink,
            )
        except ConvergenceError as exc:
            exc.partial_record = record
            raise
        log.info(
            "step %d/%d: u=%.6g force=%.6g iters=%d extrap=%s alpha=%g",
            row.step, schedule.n_steps, row.u_applied, row.reaction_force,
            row.iterations, row.extrapolated, config.alpha,
        )
