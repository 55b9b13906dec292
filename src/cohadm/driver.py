"""Quasistatic load stepping with linear extrapolation warm starts.

Each load step prescribes an increment of boundary displacement and
re-minimizes the energy from a warm start. The warm start is either the
previous converged state or, when the previous linear prediction proved
accurate enough, the extrapolation 2 z_k - z_{k-1}, which is feasible
because the constraint is linear. The step after one that activated a
Gauss point runs at the lower penalty scale min(alpha, ACTIVATION_ALPHA)
from a second factor, built when first needed; the best penalty follows
the crack's phase, which is the simplest form of residual balancing
(Boyd et al., FnT ML 2011, section 3.4.1). Records an average stress /
average strain row per step and supports crash-safe incremental sinks.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .admm import AdmmConfig, AdmmSolver, SolverState
from .cohesive import (
    CohesiveParams,
    commit_history,
    dissipated_energy,
    validate_penalty,
)
from .elasticity import Material, assemble_stiffness
from .errors import ConfigError, ConvergenceError
from .mesh import BrokenMesh, InputMesh, break_mesh, build_jump_operator

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
    'x', 'y', 'xy'.
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
        # each bound is written so that NaN fails it
        for name in ("u_start", "u_end"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite")
        # bool counts as an int in Python; numpy integers are Integral
        v = self.n_steps
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
            raise ConfigError("n_steps must be an integer of at least 1")
        for entry in self.fixed_sets:
            if len(entry) != 2 or entry[1] not in ("x", "y", "xy"):
                raise ConfigError(
                    "fixed_sets entries must be (set name, 'x'|'y'|'xy')"
                )

    def applied(self, step: int) -> float:
        """Prescribed displacement at step k (step 0 is the baseline)."""
        return self.u_start + (self.u_end - self.u_start) * step / self.n_steps


@dataclass(frozen=True)
class ExtrapolationPolicy:
    """Gate for extrapolated warm starts."""

    enabled: bool = True
    quality_threshold: float = 2.0

    def __post_init__(self):
        # each bound is written so that NaN fails it
        if not 1 < self.quality_threshold < math.inf:
            raise ConfigError("quality_threshold must exceed 1 and be finite")


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
        self.u_scale = params.delta_c
        self.delta_scale = params.delta_c
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
    z_k: SolverState,
    z_km1: SolverState,
    z_tilde_k: SolverState,
    scale: StateScale,
) -> float:
    """Accuracy ratio |z_k - z_{k-1}| / |z_k - z~_k| of the last prediction.

    Infinity means a perfect prediction; values above the policy
    threshold enable extrapolation for the next step.
    """
    denom = scale.norm(z_k, z_tilde_k)
    if denom == 0.0:
        return np.inf
    return scale.norm(z_k, z_km1) / denom


def _dirichlet_layout(mesh: BrokenMesh, schedule: LoadSchedule):
    """Sorted constrained DOFs and the positions of the driven ones."""
    sets = mesh.input_mesh.boundary_sets
    if schedule.bc_set not in sets:
        raise ConfigError(f"unknown boundary set {schedule.bc_set!r}")
    driven = mesh.dofs_of(sets[schedule.bc_set], schedule.direction)
    if not driven.size:
        raise ConfigError(
            f"boundary set {schedule.bc_set!r} has no nodes on any triangle"
        )
    fixed_parts = []
    for name, components in schedule.fixed_sets:
        if name not in sets:
            raise ConfigError(f"unknown boundary set {name!r}")
        fixed_parts.append(mesh.dofs_of(sets[name], components))
    fixed = (
        np.unique(np.concatenate(fixed_parts)) if fixed_parts else
        np.zeros(0, dtype=np.int64)
    )
    overlap = np.intersect1d(driven, fixed)
    if overlap.size:
        raise ConfigError(
            "driven and fixed boundary sets overlap on the driven component"
        )
    all_dofs = np.unique(np.concatenate([driven, fixed]))
    driven_pos = np.searchsorted(all_dofs, driven)
    return all_dofs, driven_pos


def _activation_config(
    config: AdmmConfig, jump, params: CohesiveParams
) -> AdmmConfig | None:
    """Config of the steps after an activation step, or None for `config`.

    None when alpha is already at most ACTIVATION_ALPHA, and when the
    lower penalty breaks the strong-convexity bound, which is logged.
    """
    alpha = min(config.alpha, ACTIVATION_ALPHA)
    if alpha == config.alpha:
        return None
    lower = replace(config, alpha=alpha)
    try:
        validate_penalty(lower.penalty(jump.areas, params), jump.areas, params)
    except ConfigError as exc:
        log.info(
            "activation alpha %g refused, every step runs at alpha %g: %s",
            alpha, config.alpha, exc,
        )
        return None
    return lower


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

    Each step is a solve that changes nothing outside the solver but its
    Anderson rows; this loop then commits the converged openings to the
    damage history delta_max and takes the reaction on the loaded nodes.
    A step that turns a pristine Gauss point into a damaged one sends the
    next step to a second solver at alpha min(alpha, ACTIVATION_ALPHA),
    built from the same K and jump when first needed and dropped when the
    run ends; the states carry over unchanged, each solver keeps its own
    Anderson rows, and a step's reaction uses its own penalty.

    setup_sink(mesh, jump, solver) fires once after assembly, with the
    solver at the configured alpha;
    step_sink(row, state, delta_max) after every converged step
    (crash-safe flushing is the caller's concern); iteration_sink(step,
    iter, primal, dual) after every ADMM iteration. On non-convergence
    the raised ConvergenceError carries the partial record as
    `partial_record`, with the damage history and the state of the last
    converged step. Both solvers share the one K and jump, read-only as
    built, so their factors match the operators for the whole run.
    """
    mesh = break_mesh(input_mesh)
    dirichlet, driven_pos = _dirichlet_layout(mesh, schedule)
    jump = build_jump_operator(mesh, thickness=material.thickness)
    K = assemble_stiffness(mesh, material)
    reaction_nodes = mesh.private_nodes_of(
        input_mesh.boundary_sets[schedule.bc_set]
    )
    solver = AdmmSolver(
        K,
        jump,
        cohesive,
        admm_config,
        dirichlet,
        mesh.nodes,
        iteration_sink=iteration_sink,
    )
    activation_config = _activation_config(admm_config, jump, cohesive)
    activation_solver = None
    if setup_sink is not None:
        setup_sink(mesh, jump, solver)

    lo = input_mesh.nodes.min(axis=0)
    hi = input_mesh.nodes.max(axis=0)
    extent = hi - lo
    axis = 0 if schedule.direction == "x" else 1
    width = float(extent[axis])
    height = float(extent[1 - axis])
    section = height * material.thickness
    # the record holds the live damage history and the last converged
    # state, so a ConvergenceError's partial record has both
    delta_max = np.zeros(jump.n_points)
    record = RunRecord(
        width=width,
        height=height,
        thickness=material.thickness,
        delta_max=delta_max,
        jump=jump,
    )
    scale = StateScale(
        cohesive, float(np.mean(jump.areas)) if jump.n_points else 1.0
    )

    def emit(row: StepRow, state: SolverState) -> None:
        record.rows.append(row)
        record.final_state = state
        record.dissipation.append(
            dissipated_energy(delta_max, jump.areas, cohesive)
        )
        if step_sink is not None:
            step_sink(row, state, delta_max)

    z_prev = solver.initial_state()      # z_{k-1}
    emit(
        StepRow(
            step=0,
            u_applied=schedule.applied(0),
            reaction_force=0.0,
            avg_stress=0.0,
            avg_strain=schedule.applied(0) / width,
            iterations=0,
            extrapolated=False,
            wall_ms=0.0,
        ),
        z_prev,
    )

    z_before = None                      # z_{k-2}
    quality = None
    n_damaged = 0
    activated = False                    # the last step damaged a pristine point
    for k in range(1, schedule.n_steps + 1):
        step_solver = solver
        if activated and activation_config is not None:
            if activation_solver is None:
                activation_solver = AdmmSolver(
                    K, jump, cohesive, activation_config, dirichlet,
                    mesh.nodes, iteration_sink=iteration_sink,
                )
            step_solver = activation_solver
        target = schedule.applied(k)
        bc_values = np.zeros(len(dirichlet))
        bc_values[driven_pos] = target
        # quality is only measured with the policy enabled, from step 2 on
        use_extrap = quality is not None and quality > policy.quality_threshold
        # one prediction per step: the warm start when the gate is open,
        # and the trial whose accuracy sets the gate for the next step
        trial = (
            extrapolate(z_prev, z_before)
            if policy.enabled and z_before is not None else None
        )
        warm = trial if use_extrap else z_prev
        t0 = time.perf_counter()
        try:
            result = step_solver.run_step(warm, bc_values, delta_max, step=k)
        except ConvergenceError as exc:
            exc.partial_record = record
            raise
        commit_history(delta_max, result.state.delta, cohesive)
        # the history never decreases, so a new nonzero is a new crack point
        damaged = np.count_nonzero(delta_max)
        activated, n_damaged = damaged > n_damaged, damaged
        force = float(step_solver.reaction(result.state, reaction_nodes)[axis])
        wall_ms = 1e3 * (time.perf_counter() - t0)

        emit(
            StepRow(
                step=k,
                u_applied=target,
                reaction_force=force,
                avg_stress=force / section,
                avg_strain=target / width,
                iterations=result.iterations,
                extrapolated=use_extrap,
                wall_ms=wall_ms,
            ),
            result.state,
        )
        log.info(
            "step %d/%d: u=%.6g force=%.6g iters=%d extrap=%s alpha=%g",
            k, schedule.n_steps, target, force, result.iterations, use_extrap,
            step_solver.config.alpha,
        )

        z_new = result.state
        if trial is not None:
            quality = extrapolation_quality(z_new, z_prev, trial, scale)
        z_before, z_prev = z_prev, z_new

    return record
