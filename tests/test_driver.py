import numpy as np
import pytest

from cohadm import admm
from cohadm.admm import AdmmConfig, SolverState
from cohadm.cohesive import CohesiveParams
from cohadm.driver import (
    ExtrapolationPolicy,
    LoadSchedule,
    StateScale,
    extrapolate,
    extrapolation_quality,
    run_quasistatic,
)
from cohadm.elasticity import Material
from cohadm.errors import ConfigError, ConvergenceError, OperatorMutatedError
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
    ],
    ids=["alpha", "c_primal", "c_dual", "sigma_c", "delta_c", "beta",
         "youngs_modulus", "poisson_ratio", "thickness", "quality_threshold"],
)
def test_non_finite_setting_rejected(build, error, value):
    with pytest.raises(error):
        build(value)


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


def fracture_run(config=AdmmConfig(), iteration_sink=None):
    """60 steps on a 4x4-cell strip, through the peak into softening."""
    mesh = rect_strip(4.0, 2.0, 4, 4)
    mat = Material(youngs_modulus=3000.0, poisson_ratio=0.2,
                   mode="plane_stress", thickness=1.0)
    params = CohesiveParams(sigma_c=SC, delta_c=DC, beta=1.0)
    sched = LoadSchedule(
        bc_set="right", direction="x", u_start=0.0, u_end=0.012, n_steps=60,
        fixed_sets=(("left", "x"), ("pin", "y")),
    )
    return run_quasistatic(
        mesh, mat, params, sched, config, iteration_sink=iteration_sink
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
        assert np.all(fracture_record.cohesive_state.delta_max >= 0.0)

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
        converged steps before the failing step k."""
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


def test_nonconvergence_carries_partial_record(soft_material, params):
    mesh = rect_strip(4.0, 2.0, 4, 2)
    sched = small_strip_schedule(u_end=0.03, n_steps=3)
    cfg = AdmmConfig(alpha=100.0, c_primal=1e-9, c_dual=1e-9, max_iters=5)
    rows_seen = []
    with pytest.raises(ConvergenceError) as err:
        run_quasistatic(
            mesh, soft_material, params, sched, cfg,
            step_sink=lambda row, state, cstate: rows_seen.append(row.step),
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
    built = {}

    def keep(broken, jump, solver):
        built.update(broken=broken, solver=solver)

    record = run_quasistatic(
        mesh, UNIT_CST, params, sched, AdmmConfig(), setup_sink=keep
    )
    assert built["solver"].fact.backend is None
    assert [r.iterations for r in record.rows[1:]] == [1, 1, 1]
    broken = built["broken"]
    expected = np.zeros(broken.n_dof)
    expected[broken.dofs_of(mesh.boundary_sets["right"], "x")] = 3.0
    assert np.array_equal(record.final_state.u, expected)


@pytest.mark.parametrize("matrix", ["A", "K"])
def test_operator_mutation_raises(soft_material, params, matrix):
    mesh = rect_strip(4.0, 2.0, 4, 2)

    def tamper(broken, jump, solver):
        target = jump.A if matrix == "A" else solver.K
        target.data[0] *= 2.0

    with pytest.raises(OperatorMutatedError):
        run_quasistatic(
            mesh, soft_material, params, small_strip_schedule(0.001, 2),
            AdmmConfig(), setup_sink=tamper,
        )


def test_empty_driven_set_rejected(soft_material, params):
    mesh = rect_strip(4.0, 2.0, 4, 2)
    mesh.boundary_sets["right"] = np.zeros(0, dtype=np.int64)
    with pytest.raises(ConfigError, match="boundary set 'right' has no nodes"):
        run_quasistatic(
            mesh, soft_material, params, small_strip_schedule(0.001, 2),
            AdmmConfig(),
        )
