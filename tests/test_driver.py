import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohadm
from cohadm import admm, driver
from cohadm.admm import AdmmConfig, SolverState
from cohadm.cohesive import CohesiveParams, commit_history, dissipated_energy
from cohadm.driver import (
    ExtrapolationPolicy,
    LoadSchedule,
    StateScale,
    build_problem,
    extrapolate,
    extrapolation_quality,
    run_quasistatic,
)
from cohadm.elasticity import Material
from cohadm.errors import ConfigError, ConvergenceError
from cohadm.mesh import InputMesh
from cohadm.meshgen import rect_strip

from oracles import conforming_solve, conforming_stiffness, reaction_on

SC, DC = 3.0, 0.02287


def small_strip_schedule(u_end, n_steps):
    return LoadSchedule(
        bc_set="right",
        direction="x",
        u_start=0.0,
        u_end=u_end,
        n_steps=n_steps,
        fixed_sets=(("left", "x"), ("pin", "y")),
    )


class TestExtrapolate:
    def make_state(self,*values):
        u, d, y = values
        return SolverState(u=np.atleast_1d(np.asarray(u, dtype=float)),
                           delta=np.atleast_1d(np.asarray(d, dtype=float)),
                           y=np.atleast_1d(np.asarray(y, dtype=float)))

    def test_constant_sequence(self):
        z = self.make_state([1.0, 2.0], [0.5], [3.0])
        out = extrapolate(z, z)
        assert np.array_equal(out.u, z.u)
        assert np.array_equal(out.delta, z.delta)
        assert np.array_equal(out.y, z.y)

    def test_linear_arithmetic(self):
        z1 = self.make_state([1.0], [1.0], [1.0])
        z2 = self.make_state([2.0], [2.0], [2.0])
        out = extrapolate(z2, z1)
        assert out.u[0] == out.delta[0] == out.y[0] == 3.0

    def test_quality_perfect_prediction_is_infinite(self, params):
        scale = StateScale(params, mean_area=1.0)
        z1 = self.make_state([1.0], [0.0], [0.0])
        z2 = self.make_state([2.0], [0.0], [0.0])
        assert extrapolation_quality(z2, z1, z2, scale) == np.inf

    def test_quality_stale_prediction_is_one(self, params):
        scale = StateScale(params, mean_area=1.0)
        z1 = self.make_state([1.0], [0.0], [0.0])
        z2 = self.make_state([2.0], [0.0], [0.0])
        assert extrapolation_quality(z2, z1, z1, scale) == pytest.approx(1.0)

    def test_gate_is_strict_at_threshold(self, params):
        # ratio exactly 2 must not trigger extrapolation
        scale = StateScale(params, mean_area=1.0)
        z1 = self.make_state([0.0], [0.0], [0.0])
        z2 = self.make_state([2.0], [0.0], [0.0])
        tilde = self.make_state([1.0], [0.0], [0.0])   # error 1, step 2
        ratio = extrapolation_quality(z2, z1, tilde, scale)
        assert ratio == pytest.approx(2.0)
        policy = ExtrapolationPolicy(enabled=True, quality_threshold=2.0)
        assert not (ratio > policy.quality_threshold)


class TestScheduleValidation:
    def test_bad_direction(self):
        with pytest.raises(ConfigError):
            LoadSchedule(bc_set="right", direction="z", u_start=0, u_end=1, n_steps=1)

    def test_bad_steps(self):
        with pytest.raises(ConfigError):
            LoadSchedule(bc_set="right", direction="x", u_start=0, u_end=1, n_steps=0)

    def test_bad_fixed_entry(self):
        with pytest.raises(ConfigError):
            LoadSchedule(
                bc_set="right", direction="x", u_start=0, u_end=1, n_steps=1,
                fixed_sets=(("left", "q"),),
            )

    def test_unknown_set_rejected(self, soft_material, params):
        mesh = rect_strip(2.0, 1.0, 2, 1)
        sched = LoadSchedule(
            bc_set="nope", direction="x", u_start=0, u_end=1e-3, n_steps=1
        )
        with pytest.raises(ConfigError, match="nope"):
            run_quasistatic(mesh, soft_material, params, sched, AdmmConfig())

    def test_unknown_fixed_set_rejected(self, soft_material, params):
        mesh = rect_strip(2.0, 1.0, 2, 1)
        sched = LoadSchedule(
            bc_set="right", direction="x", u_start=0, u_end=1e-3, n_steps=1,
            fixed_sets=(("nope", "y"),),
        )
        with pytest.raises(ConfigError, match="unknown boundary set 'nope'"):
            run_quasistatic(mesh, soft_material, params, sched, AdmmConfig())

    def test_overlapping_driven_and_fixed(self, soft_material, params):
        mesh = rect_strip(2.0, 1.0, 2, 1)
        sched = LoadSchedule(
            bc_set="right", direction="x", u_start=0, u_end=1e-3, n_steps=1,
            fixed_sets=(("right", "x"),),
        )
        with pytest.raises(ConfigError, match="overlap"):
            run_quasistatic(mesh, soft_material, params, sched, AdmmConfig())

    def test_nonzero_u_start_rejected(self):
        """Step 0 is the all-zero state, which meets no other boundary
        value, so a ramp must start at 0."""
        for value in (1e-3, -1e-3):
            with pytest.raises(ConfigError, match="u_start must be 0"):
                LoadSchedule(bc_set="right", direction="x", u_start=value,
                             u_end=1e-2, n_steps=2)

    def test_policy_threshold_validated(self):
        with pytest.raises(ConfigError):
            ExtrapolationPolicy(enabled=True, quality_threshold=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build, error",
    [
        (lambda v: AdmmConfig(alpha=v), ConfigError),
        (lambda v: AdmmConfig(c_primal=v), ConfigError),
        (lambda v: AdmmConfig(c_dual=v), ConfigError),
        (lambda v: CohesiveParams(sigma_c=v, delta_c=DC), ValueError),
        (lambda v: CohesiveParams(sigma_c=SC, delta_c=v), ValueError),
        (lambda v: CohesiveParams(sigma_c=SC, delta_c=DC, beta=v), ValueError),
        (lambda v: Material(youngs_modulus=v, poisson_ratio=0.2), ValueError),
        (lambda v: Material(youngs_modulus=1.0, poisson_ratio=v), ValueError),
        (lambda v: Material(youngs_modulus=1.0, poisson_ratio=0.2, thickness=v),
         ValueError),
        (lambda v: ExtrapolationPolicy(quality_threshold=v), ConfigError),
        (lambda v: LoadSchedule(bc_set="right", direction="x", u_start=v,
                                u_end=1e-3, n_steps=1), ConfigError),
        (lambda v: LoadSchedule(bc_set="right", direction="x", u_end=v,
                                n_steps=1), ConfigError),
    ],
    ids=["alpha", "c_primal", "c_dual", "sigma_c", "delta_c", "beta",
         "youngs_modulus", "poisson_ratio", "thickness", "quality_threshold",
         "u_start", "u_end"],
)
def test_non_finite_setting_rejected(build, error, value):
    with pytest.raises(error):
        build(value)


COUNT_SETTINGS = {
    "max_iters": lambda v: AdmmConfig(max_iters=v),
    "n_steps": lambda v: LoadSchedule(bc_set="right", direction="x",
                                      u_end=1e-3, n_steps=v),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.5, True])
@pytest.mark.parametrize("name", sorted(COUNT_SETTINGS))
def test_non_integer_count_rejected(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        COUNT_SETTINGS[name](value)


@pytest.mark.parametrize("name", sorted(COUNT_SETTINGS))
def test_numpy_integer_count_accepted(name):
    assert getattr(COUNT_SETTINGS[name](np.int64(3)), name) == 3


class TestElasticRun:
    def test_slope_matches_conforming_modulus(self, soft_material):
        """With activation unreachable the response is exactly linear."""
        rigid = CohesiveParams(sigma_c=1e9, delta_c=DC, beta=1.0)
        mesh = rect_strip(4.0, 2.0, 4, 2)
        sched = small_strip_schedule(u_end=4e-3, n_steps=6)
        rec = run_quasistatic(mesh, soft_material, rigid, sched, AdmmConfig())

        pull = sched.u_end
        bc = {2 * n: 0.0 for n in mesh.boundary_sets["left"]}
        bc.update({2 * n: pull for n in mesh.boundary_sets["right"]})
        bc[2 * mesh.boundary_sets["pin"][0] + 1] = 0.0
        u = conforming_solve(mesh, soft_material.youngs_modulus,
                             soft_material.poisson_ratio, soft_material.mode,
                             soft_material.thickness, bc)
        K = conforming_stiffness(mesh.nodes, mesh.triangles,
                                 soft_material.youngs_modulus,
                                 soft_material.poisson_ratio, soft_material.mode,
                                 soft_material.thickness)
        f_ref = reaction_on(K, u, mesh.boundary_sets["right"])[0]
        slope_ref = f_ref / pull

        strains = rec.strains[1:]
        stresses = rec.stresses[1:]
        slope = np.polyfit(strains, stresses, 1)[0]
        slope_ref_stress = slope_ref * rec.width / (rec.height * rec.thickness)
        assert abs(slope - slope_ref_stress) <= 1e-3 * abs(slope_ref_stress)
        # linearity of the recorded curve
        fit = slope * strains
        assert np.abs(stresses - fit).max() <= 1e-3 * stresses.max()

    def test_extrapolation_active_from_step_three(self, soft_material):
        rigid = CohesiveParams(sigma_c=1e9, delta_c=DC, beta=1.0)
        mesh = rect_strip(4.0, 2.0, 4, 2)
        sched = small_strip_schedule(u_end=4e-3, n_steps=6)
        rec = run_quasistatic(mesh, soft_material, rigid, sched, AdmmConfig())
        flags = [r.extrapolated for r in rec.rows]
        assert flags[:3] == [False, False, False]   # baseline, step 1, step 2
        assert all(flags[3:])
        assert all(r.iterations <= 2 for r in rec.rows[3:])


@pytest.fixture(scope="module")
def residual_log():
    """(step, iter, primal, dual) of every iteration of fracture_record."""
    return []


FRACTURE_SCHEDULE = LoadSchedule(
    bc_set="right", direction="x", u_start=0.0, u_end=0.012, n_steps=60,
    fixed_sets=(("left", "x"), ("pin", "y")),
)
FRACTURE_MATERIAL = Material(youngs_modulus=3000.0, poisson_ratio=0.2,
                             mode="plane_stress", thickness=1.0)


def fracture_run(config=AdmmConfig(), iteration_sink=None, beta=1.0, step_sink=None):
    """60 steps on a 4x4-cell strip, through the peak into softening."""
    params = CohesiveParams(sigma_c=SC, delta_c=DC, beta=beta)
    return run_quasistatic(
        rect_strip(4.0, 2.0, 4, 4), FRACTURE_MATERIAL, params, FRACTURE_SCHEDULE,
        config, iteration_sink=iteration_sink, step_sink=step_sink,
    )


@pytest.fixture(scope="module")
def fracture_record(residual_log):
    return fracture_run(iteration_sink=lambda *entry: residual_log.append(entry))


class TestFractureRun:
    def test_row_count_includes_baseline(self, fracture_record):
        assert len(fracture_record.rows) == 61
        assert fracture_record.rows[0].step == 0
        assert fracture_record.rows[0].iterations == 0

    def test_iteration_counts_positive(self, fracture_record):
        assert all(r.iterations >= 1 for r in fracture_record.rows[1:])

    def test_dissipation_monotone(self, fracture_record):
        d = np.array(fracture_record.dissipation)
        assert d[-1] > 0.0          # the run actually cracks
        assert np.all(np.diff(d) >= -1e-15)

    def test_damage_and_openings_admissible(self, fracture_record, params):
        state = fracture_record.final_state
        delta = state.delta.reshape(-1, 2)
        assert delta[:, 0].min() >= 0.0              # no interpenetration
        assert np.all(fracture_record.delta_max >= 0.0)

    def test_determinism(self, fracture_record):
        again = fracture_run()
        assert [r.iterations for r in again.rows] == [
            r.iterations for r in fracture_record.rows
        ]
        assert [r.extrapolated for r in again.rows] == [
            r.extrapolated for r in fracture_record.rows
        ]
        a = np.array([r.reaction_force for r in again.rows])
        b = np.array([r.reaction_force for r in fracture_record.rows])
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_residual_log_matches_iterations(self, fracture_record, residual_log):
        assert len(residual_log) == fracture_record.total_iterations
        expected = [
            (row.step, it)
            for row in fracture_record.rows
            for it in range(1, row.iterations + 1)
        ]
        assert [entry[:2] for entry in residual_log] == expected

    def test_nonconvergence_keeps_the_converged_steps(self, fracture_record):
        """A cap that the pre-activation steps meet and the snap step does
        not: the error's partial record holds the step-0 row and the k - 1
        converged steps before the failing step k, with the damage history
        and the state of step k - 1."""
        cap = 100
        k = next(r.step for r in fracture_record.rows if r.iterations > cap)
        assert k > 1
        with pytest.raises(ConvergenceError) as err:
            fracture_run(AdmmConfig(max_iters=cap))
        assert err.value.step == k
        record = err.value.partial_record
        assert [r.step for r in record.rows] == list(range(k))
        assert [r.iterations for r in record.rows] == [
            r.iterations for r in fracture_record.rows[:k]
        ]
        assert record.dissipation == fracture_record.dissipation[:k]
        params = CohesiveParams(sigma_c=SC, delta_c=DC, beta=1.0)
        assert dissipated_energy(
            record.delta_max, record.jump.areas, params
        ) == record.dissipation[-1]
        assert record.final_state is not None
        # the history already holds the last converged openings
        committed = record.delta_max.copy()
        commit_history(committed, record.final_state.delta, params)
        assert np.array_equal(committed, record.delta_max)

    def test_relaxation_keeps_curve_and_saves_iterations(self, monkeypatch):
        """The over-relaxed map reaches the plain map's curve in fewer iterations.

        The uniform strip localizes into one crack after the peak, and the
        step where that happens moves with the tolerance: at c = 0.01 it
        is step 50 for the plain map and step 40 for the relaxed one, and
        both move to step 27-28 at c = 1e-3. The curves are compared at
        1e-3 so that both maps resolve the same localization step.
        """
        assert admm.RELAXATION > 1.0
        tight = AdmmConfig(c_primal=1e-3, c_dual=1e-3)
        relaxed = fracture_run(tight)
        monkeypatch.setattr(admm, "RELAXATION", 1.0)
        plain = fracture_run(tight)
        peak = max(relaxed.stresses.max(), plain.stresses.max())
        assert peak > 0.0
        assert np.abs(relaxed.stresses - plain.stresses).max() <= 0.01 * peak
        assert relaxed.total_iterations < plain.total_iterations


def test_each_step_sink_gets_its_own_history():
    """Every step, step 0 included, hands the sink a damage history of its
    own, read-only, so a sink may keep them all: they never decrease from
    step to step, and the last is the record's."""
    kept = []
    record = fracture_run(step_sink=lambda row, state, delta_max: kept.append(delta_max))
    assert len(kept) == len(record.rows) == 61
    for earlier, later in zip(kept, kept[1:]):
        assert not np.shares_memory(earlier, later)
        assert np.all(later >= earlier)
    assert all(not history.flags.writeable for history in kept)
    assert not kept[0].any() and kept[-1].any()
    assert kept[-1] is record.delta_max


def state_bytes(state):
    """Every array and number of a RunState past step 0 that holds
    Anderson rows, as comparable values."""
    z, before, rows = state.z, state.z_before, state.anderson
    k = rows.count
    arrays = (z.u, z.delta, z.y, before.u, before.delta, before.y,
              state.delta_max, rows.d_f[:k], rows.d_g[:k], rows.gram[:k, :k])
    numbers = (state.step, state.quality, state.activated, rows.rho, k, rows.slot)
    return [a.tobytes() for a in arrays], numbers


def test_advance_again_from_the_same_state(params):
    """A step solved twice from one RunState gives the same next state,
    Anderson rows and row (but for wall_ms), and leaves that state as it
    was, so a step can be retried or forked. At this tolerance step 2
    pushes rows onto the ones step 1 left."""
    problem = build_problem(
        rect_strip(4.0, 2.0, 4, 4), FRACTURE_MATERIAL, params, FRACTURE_SCHEDULE
    )
    config, policy = AdmmConfig(c_primal=1e-6, c_dual=1e-6), ExtrapolationPolicy()
    state, _ = driver.advance(
        problem, driver.start(problem)[0], FRACTURE_SCHEDULE.applied(1), config,
        policy,
    )
    before = state_bytes(state)
    target = FRACTURE_SCHEDULE.applied(2)
    first, first_row = driver.advance(problem, state, target, config, policy)
    again, again_row = driver.advance(problem, state, target, config, policy)
    assert state_bytes(state) == before
    assert first.anderson.d_f is not state.anderson.d_f     # the step pushed rows
    assert state_bytes(first) == state_bytes(again)
    assert first.quality is not None
    first_row.wall_ms = again_row.wall_ms = 0.0
    assert first_row == again_row


def test_nonconvergence_carries_partial_record(soft_material, params):
    mesh = rect_strip(4.0, 2.0, 4, 2)
    sched = small_strip_schedule(u_end=0.03, n_steps=3)
    cfg = AdmmConfig(alpha=100.0, c_primal=1e-9, c_dual=1e-9, max_iters=5)
    rows_seen = []
    with pytest.raises(ConvergenceError) as err:
        run_quasistatic(
            mesh, soft_material, params, sched, cfg,
            step_sink=lambda row, state, delta_max: rows_seen.append(row.step),
        )
    record = err.value.partial_record
    assert record.rows[0].step == 0
    assert rows_seen == [r.step for r in record.rows]
    assert err.value.step == len(record.rows)   # failing step index


def single_triangle():
    return InputMesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_sets={
            "left": np.array([0, 2]), "right": np.array([1]), "pin": np.array([0]),
        },
    )


UNIT_CST = Material(
    youngs_modulus=1.0, poisson_ratio=0.0, mode="plane_stress", thickness=1.0
)


def test_single_triangle_without_interfaces(params):
    """No interfaces: one iteration per step, reactions of the bare CST."""
    sched = small_strip_schedule(u_end=3.0, n_steps=3)
    record = run_quasistatic(single_triangle(), UNIT_CST, params, sched, AdmmConfig())
    assert [r.iterations for r in record.rows[1:]] == [1, 1, 1]
    forces = [r.reaction_force for r in record.rows[1:]]
    assert np.allclose(forces, [0.5, 1.0, 1.5], rtol=1e-12)


def test_every_dof_prescribed(params):
    """No free DOF: no factor, one iteration per step, and u is the
    prescribed field."""
    sched = LoadSchedule(
        bc_set="right", direction="x", u_start=0.0, u_end=3.0, n_steps=3,
        fixed_sets=(("left", "xy"), ("right", "y")),
    )
    mesh = single_triangle()
    problem = build_problem(mesh, UNIT_CST, params, sched)
    assert problem.solver(AdmmConfig()).fact.backend is None
    record = run_quasistatic(mesh, UNIT_CST, params, sched, AdmmConfig())
    assert [r.iterations for r in record.rows[1:]] == [1, 1, 1]
    broken = problem.mesh
    expected = np.zeros(broken.n_dof)
    expected[broken.dofs_of(mesh.boundary_sets["right"], "x")] = 3.0
    assert np.array_equal(record.final_state.u, expected)


def test_problem_keeps_one_solver_per_config(soft_material, params, monkeypatch):
    """problem.solver builds a solver, and its factor, on the first
    request for a config, and returns that solver for every equal one."""
    rhos = count_factors(monkeypatch)
    problem = build_problem(
        rect_strip(4.0, 2.0, 4, 2), soft_material, params, small_strip_schedule(1e-3, 2)
    )
    solver = problem.solver(AdmmConfig())
    assert problem.solver(AdmmConfig()) is solver
    lower = problem.solver(AdmmConfig(alpha=60.0))
    assert lower is not solver
    assert problem.solver(AdmmConfig(alpha=60.0)) is lower
    assert rhos == [solver.rho, lower.rho]
    for kept in (solver, lower):
        assert kept.K is problem.K and kept.jump is problem.jump


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("operand", ["A", "K", "areas"])
def test_operator_mutation_raises(soft_material, params, operand):
    """K, A and the areas are read-only as built: a write fails where it
    is made, before any iteration could read a changed operator."""
    mesh = rect_strip(4.0, 2.0, 4, 2)

    def tamper(broken, jump, solver):
        target = {"A": jump.A.data, "K": solver.K.data, "areas": jump.areas}
        target[operand][0] *= 2.0

    steps, iterations = [], []
    with pytest.raises(ValueError, match="read-only"):
        run_quasistatic(
            mesh, soft_material, params, small_strip_schedule(0.001, 2),
            AdmmConfig(), setup_sink=tamper,
            step_sink=lambda row, *_: steps.append(row.step),
            iteration_sink=lambda *entry: iterations.append(entry),
        )
    assert 1 not in steps
    assert iterations == []


def test_empty_driven_set_rejected(soft_material, params):
    """A driven set with no node on any triangle fails before step 1: an
    empty set, and a set whose one node no triangle references."""
    empty = rect_strip(4.0, 2.0, 4, 2)
    empty.boundary_sets["right"] = np.zeros(0, dtype=np.int64)
    orphan = rect_strip(4.0, 2.0, 4, 2)
    orphan.nodes = np.vstack([orphan.nodes, [4.0, 0.5]])
    orphan.boundary_sets["right"] = np.array([orphan.n_nodes - 1])
    for mesh in (empty, orphan):
        with pytest.raises(
            ConfigError, match="boundary set 'right' has no nodes on any triangle"
        ):
            run_quasistatic(
                mesh, soft_material, params, small_strip_schedule(0.001, 2),
                AdmmConfig(),
            )


def count_factors(monkeypatch):
    """Make every factorization append its rho to the returned list."""
    rhos = []
    factorize = admm.factorize_system

    def counted(K, A, rho, *args):
        rhos.append(rho)
        return factorize(K, A, rho, *args)

    monkeypatch.setattr(admm, "factorize_system", counted)
    return rhos


def record_step_penalties(monkeypatch):
    """Make every step append (damaged points at its start, rho), and
    every reaction its rho, to the returned lists."""
    steps, reactions = [], []
    run_step, reaction = admm.AdmmSolver.run_step, admm.AdmmSolver.reaction

    def run_step_logged(
        self, state0, bc_values, delta_max, anderson=None, step=0,
        iteration_sink=None,
    ):
        steps.append((np.count_nonzero(delta_max), self.rho))
        return run_step(
            self, state0, bc_values, delta_max, anderson, step, iteration_sink
        )

    def reaction_logged(self, state, nodes):
        reactions.append(self.rho)
        return reaction(self, state, nodes)

    monkeypatch.setattr(admm.AdmmSolver, "run_step", run_step_logged)
    monkeypatch.setattr(admm.AdmmSolver, "reaction", reaction_logged)
    return steps, reactions


class TestActivationPenalty:
    """The step after one that activates a Gauss point runs at alpha
    min(alpha, ACTIVATION_ALPHA), from a second factor built on demand."""

    def test_second_factor_only_when_a_step_activates(
        self, soft_material, monkeypatch
    ):
        assert driver.ACTIVATION_ALPHA == 60.0
        rhos = count_factors(monkeypatch)
        rigid = CohesiveParams(sigma_c=1e9, delta_c=DC, beta=1.0)
        run_quasistatic(
            rect_strip(4.0, 2.0, 4, 2), soft_material, rigid,
            small_strip_schedule(u_end=4e-3, n_steps=6), AdmmConfig(),
        )
        assert len(rhos) == 1
        rhos.clear()
        fracture_run(AdmmConfig(alpha=60.0))
        assert len(rhos) == 1
        rhos.clear()
        fracture_run(AdmmConfig(alpha=100.0))
        assert len(rhos) == 2
        assert rhos[1] == pytest.approx(0.6 * rhos[0], rel=1e-14)

    def test_both_solvers_share_the_read_only_operators(self, monkeypatch):
        """The activation solver factors and iterates on the same K and A
        arrays as the configured one: nothing is copied."""
        factored = []
        factorize = admm.factorize_system

        def kept(K, A, rho, *args):
            factored.append((K, A))
            return factorize(K, A, rho, *args)

        monkeypatch.setattr(admm, "factorize_system", kept)
        run_step, solvers = admm.AdmmSolver.run_step, []

        def run_step_logged(
            self, state0, bc_values, delta_max, anderson=None, step=0,
            iteration_sink=None,
        ):
            solvers.append(self)
            return run_step(
                self, state0, bc_values, delta_max, anderson, step, iteration_sink
            )

        monkeypatch.setattr(admm.AdmmSolver, "run_step", run_step_logged)
        fracture_run(AdmmConfig(alpha=100.0))
        solvers = list(dict.fromkeys(solvers))
        assert len(solvers) == len(factored) == 2
        K, A = factored[0]
        for (K_i, A_i), solver in zip(factored, solvers):
            held = [(K_i, K), (solver.K, K), (A_i, A), (solver.jump.A, A),
                    (solver._a_t, A)]
            for m, first in held:
                for name in ("data", "indices", "indptr"):
                    array = getattr(m, name)
                    assert np.shares_memory(array, getattr(first, name))
                    assert not array.flags.writeable
            assert solver.jump is solvers[0].jump

    def test_step_after_activation_runs_at_lower_rho(self, monkeypatch):
        steps, reactions = record_step_penalties(monkeypatch)
        record = fracture_run()
        damaged = [n for n, _ in steps]
        rhos = [rho for _, rho in steps]
        high, low = rhos[0], 0.6 * rhos[0]
        # step k + 1 starts with more damaged points exactly when step k
        # activated one; step 1 follows no step
        after_activation = [False] + [
            later > earlier for earlier, later in zip(damaged, damaged[1:])
        ]
        assert 0 < sum(after_activation) < len(steps) - 1
        for k, (lower, rho) in enumerate(zip(after_activation, rhos), start=1):
            assert rho == pytest.approx(low if lower else high, rel=1e-14), k
        # each step's reaction at the penalty it was solved at
        assert reactions == rhos
        assert len(steps) == len(record.rows) - 1

    def test_no_anderson_rows_cross_a_switch(self, monkeypatch):
        """Rows belong to the penalty they were made at, and a step drops
        rows of another one. On the fracture strip the first step at a
        new penalty, either way, is given no rows at all, so one history
        per run loses nothing to the switch; rows do carry between steps
        at one penalty."""
        run_step = admm.AdmmSolver.run_step
        given = []

        def run_step_logged(
            self, state0, bc_values, delta_max, anderson=None, step=0,
            iteration_sink=None,
        ):
            given.append((self.rho, anderson))
            return run_step(
                self, state0, bc_values, delta_max, anderson, step, iteration_sink
            )

        monkeypatch.setattr(admm.AdmmSolver, "run_step", run_step_logged)
        fracture_run()
        switches = [
            (rho, rows) for (before, _), (rho, rows) in zip(given, given[1:])
            if rho != before
        ]
        assert len({rho for rho, _ in switches}) == 2      # both ways
        assert all(rows is None for _, rows in switches)
        assert any(rows is not None for _, rows in given)

    def test_switch_keeps_the_fracture_curve(self, monkeypatch):
        """Within 1% of peak of the fixed-penalty curve. As for the
        relaxed map, the snap step moves with the map at c = 0.01, so the
        curves are compared at c = 1e-3."""
        tight = AdmmConfig(c_primal=1e-3, c_dual=1e-3)
        switched = fracture_run(tight)
        monkeypatch.setattr(driver, "ACTIVATION_ALPHA", np.inf)
        fixed = fracture_run(tight)
        peak = max(switched.stresses.max(), fixed.stresses.max())
        assert peak > 0.0
        assert np.abs(switched.stresses - fixed.stresses).max() <= 0.01 * peak

    def test_each_factor_logs_one_line(self, caplog):
        """The configured and the activation factor each log their alpha,
        build time, size and solve kernel where they are built."""
        with caplog.at_level("INFO", logger="cohadm"):
            fracture_run(AdmmConfig(alpha=100.0))
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("factor: ")]
        assert len(lines) == 2
        pattern = r"factor: alpha=%s built in [0-9.]+ s, nnz=[1-9][0-9]*, kernel=transposed"
        assert re.fullmatch(pattern % 100, lines[0])
        assert re.fullmatch(pattern % 60, lines[1])

    def test_refused_activation_penalty_keeps_configured_rho(
        self, monkeypatch, caplog
    ):
        """At beta = 7 the fracture strip's penalty passes the
        strong-convexity bound at alpha 100 and fails it at alpha 60, so
        every step runs at alpha 100 and the run says why."""
        steps, _ = record_step_penalties(monkeypatch)
        rhos = count_factors(monkeypatch)
        with caplog.at_level("INFO", logger="cohadm.driver"):
            fracture_run(beta=7.0)
        damaged = [n for n, _ in steps]
        # the strip cracks, and a step follows an activation step
        assert any(b > a for a, b in zip(damaged, damaged[1:]))
        assert len(rhos) == 1
        assert {rho for _, rho in steps} == {rhos[0]}
        assert "activation alpha 60 refused" in caplog.text


# One run of a 4050-element strip, pulled to below activation: Anderson
# accelerates 6 of its 12 iterations. Its multiplier vectors are long
# enough that OpenBLAS splits a dot product of them between threads.
THREADED_RUN = """
import hashlib
import numpy as np
from cohadm.admm import AdmmConfig
from cohadm.cohesive import CohesiveParams
from cohadm.driver import LoadSchedule, run_quasistatic
from cohadm.elasticity import Material
from cohadm.meshgen import rect_strip

record = run_quasistatic(
    rect_strip(10.0, 10.0, 45, 45),
    Material(youngs_modulus=3000.0, poisson_ratio=0.2, mode="plane_stress",
             thickness=1.0),
    CohesiveParams(sigma_c=3.0, delta_c=0.02287, beta=1.0),
    LoadSchedule(bc_set="right", direction="x", u_end=0.005, n_steps=5,
                 fixed_sets=(("left", "x"), ("pin", "y"))),
    AdmmConfig(c_primal=5e-4, c_dual=5e-4),
)
digest = hashlib.sha256(np.asarray(record.stresses).tobytes())
for name in ("u", "delta", "y"):
    digest.update(getattr(record.final_state, name).tobytes())
print(sum(row.iterations for row in record.rows), digest.hexdigest())
"""


def test_bytes_do_not_depend_on_the_blas_thread_count():
    """The same run at one and at two BLAS threads gives the same bytes.
    Each child sets its own thread count, since this process pins one."""
    src = str(Path(cohadm.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", THREADED_RUN], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].split()[0] == "12"
