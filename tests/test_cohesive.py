import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohadm import cohesive
from cohadm.cohesive import (
    CohesiveParams,
    LocalSolveContext,
    commit_history,
    dissipated_energy,
    local_objective,
    phi_c,
    solve_local,
    solve_local_batch,
    traction,
    validate_penalty,
)
from cohadm.errors import ConfigError
from cohadm.oracle import brute_force_minimum

SC, DC = 3.0, 0.02287


def test_params_validation():
    for bad in [dict(sigma_c=0.0, delta_c=1.0), dict(sigma_c=1.0, delta_c=-1.0),
                dict(sigma_c=1.0, delta_c=1.0, beta=0.0)]:
        with pytest.raises(ValueError):
            CohesiveParams(**bad)


class TestPhiC:
    def test_zero(self, params):
        assert phi_c(0.0, 0.0, params) == 0.0

    def test_full_failure_value(self, params):
        # sigma_c * delta_c / 2 with the test-problem constants
        assert np.isclose(phi_c(DC, 0.0, params), 0.0343050, atol=1e-12)
        assert np.isclose(phi_c(10 * DC, 0.0, params), 0.0343050, atol=1e-12)

    def test_half_opening_trapezoid(self, params):
        # area under the descending line from 0 to delta_c/2
        assert np.isclose(phi_c(DC / 2, 0.0, params), 0.02572875, atol=1e-12)

    def test_unloading_branch(self, params):
        dm = DC / 2
        k_sec = SC * (1 - dm / DC) / dm
        d = dm / 3
        expected = 0.5 * SC * dm + 0.5 * k_sec * d * d
        assert np.isclose(phi_c(d, dm, params), expected, rtol=1e-12)
        # continuous at the junction with the loading branch
        assert np.isclose(phi_c(dm, dm, params), SC * dm * (1 - dm / (2 * DC)), rtol=1e-12)

    def test_failed_history_is_flat(self, params):
        assert phi_c(0.0, 2 * DC, params) == pytest.approx(0.0343050)
        assert phi_c(DC / 3, 2 * DC, params) == pytest.approx(0.0343050)

    def test_negative_input_rejected(self, params):
        with pytest.raises(ValueError):
            phi_c(-1e-3, 0.0, params)
        with pytest.raises(ValueError):
            phi_c(0.1, -1e-3, params)

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.floats(0, 5 * DC),
        dm=st.floats(0, 5 * DC),
    )
    def test_energy_bounds(self, d, dm):
        value = phi_c(d, dm, CohesiveParams(sigma_c=SC, delta_c=DC))
        assert 0.0 <= value <= SC * DC / 2 + 1e-15


class TestTraction:
    def test_full_failure_zero(self, params):
        assert traction(DC, 0.0, params) == 0.0
        assert traction(DC, DC / 2, params) == 0.0

    def test_midpoint_loading(self, params):
        assert np.isclose(traction(DC / 2, 0.0, params), 1.5, rtol=1e-14)

    def test_origin_undefined(self, params):
        with pytest.raises(ValueError, match="generalized-gradient"):
            traction(0.0, 0.0, params)

    def test_unloading_secant(self, params):
        dm = DC / 4
        d = dm / 2
        expected = SC * (1 - dm / DC) * d / dm
        assert np.isclose(traction(d, dm, params), expected, rtol=1e-14)

    def test_finite_difference_of_phi(self, params):
        """Central difference at random points interior to a branch."""
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            dm = rng.uniform(0, DC)
            loading = rng.random() < 0.5
            if loading:
                d = rng.uniform(dm, DC)
            elif dm > 0:
                d = rng.uniform(0, dm)
            else:
                continue
            h = 1e-7 * DC
            lo, hi = d - h, d + h
            # stay strictly inside one branch
            if loading and (lo <= dm or hi >= DC):
                continue
            if not loading and (lo <= 0 or hi >= dm):
                continue
            fd = (phi_c(hi, dm, params) - phi_c(lo, dm, params)) / (2 * h)
            t = traction(d, dm, params)
            assert np.isclose(fd, t, rtol=1e-6, atol=1e-9 * SC)
            checked += 1


class TestSolveLocal:
    RHO = 13117.62   # alpha = 100 with unit area and the test constants

    def test_below_activation_stays_closed(self, params):
        assert np.array_equal(solve_local([2.0, 0.0], 1.0, 0.0, self.RHO, params), [0.0, 0.0])

    def test_activation_tie_stays_closed(self, params):
        assert np.array_equal(solve_local([SC, 0.0], 1.0, 0.0, self.RHO, params), [0.0, 0.0])

    def test_loading_closed_form(self, params):
        delta = solve_local([4.0, 0.0], 1.0, 0.0, self.RHO, params)
        expected = (4.0 - SC) / (self.RHO - SC / DC)
        assert np.isclose(delta[0], expected, rtol=1e-12)
        assert np.isclose(delta[0], 7.700e-5, rtol=1e-3)
        assert delta[1] == 0.0

    def test_compression_closed(self, params):
        assert np.array_equal(solve_local([-5.0, 0.0], 1.0, 0.0, self.RHO, params), [0.0, 0.0])
        assert np.array_equal(solve_local([-5.0, 0.0], 1.0, 0.01, self.RHO, params), [0.0, 0.0])

    def test_compression_with_shear(self, params):
        p = np.array([-1.0, 2.0 * SC])
        delta = solve_local(p, 1.0, 0.0, self.RHO, params)
        assert delta[0] == 0.0
        assert delta[1] > 0.0
        # matches the tangential-only stationary point
        s = (2.0 * SC - SC) / (self.RHO - SC / DC)
        assert np.isclose(delta[1], s, rtol=1e-12)

    def test_direction_property_beta_one(self, params):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = rng.uniform(0.1, 2.0, size=2) * SC
            p[0] = abs(p[0]) + SC * 0.4
            delta = solve_local(p, 1.0, 0.0, self.RHO, params)
            if np.linalg.norm(delta) == 0.0:
                continue
            cosang = (delta @ p) / (np.linalg.norm(delta) * np.linalg.norm(p))
            assert cosang >= 1.0 - 1e-10

    def test_activation_threshold_boundary(self, params):
        eps = 1e-9
        closed = solve_local([SC * (1 - eps), 0.0], 1.0, 0.0, self.RHO, params)
        opened = solve_local([SC * (1 + 1e-6), 0.0], 1.0, 0.0, self.RHO, params)
        assert np.array_equal(closed, [0.0, 0.0])
        assert opened[0] > 0.0

    @pytest.mark.parametrize("beta", [1.0, 0.5, 2.0])
    def test_activation_threshold_mixed(self, beta):
        params = CohesiveParams(sigma_c=SC, delta_c=DC, beta=beta)
        a = 0.7
        rho = 50.0 * a * SC / DC
        # pure shear drive: activation at |p_s| = a sigma_c beta
        below = np.array([0.0, a * SC * beta * 0.999])
        above = np.array([0.0, a * SC * beta * 1.001])
        assert np.array_equal(solve_local(below, a, 0.0, rho, params), [0.0, 0.0])
        assert solve_local(above, a, 0.0, rho, params)[1] > 0.0

    def test_batch_matches_scalar(self, params):
        rng = np.random.default_rng(31)
        n = 200
        p = rng.uniform(-2, 2, size=(n, 2)) * SC
        a = rng.uniform(0.5, 2.0, size=n)
        dm = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0, DC, size=n))
        rho = 120.0 * a.max() * SC / DC
        batch = solve_local_batch(p, LocalSolveContext(a, dm, rho, params))
        for i in range(n):
            single = solve_local(p[i], a[i], dm[i], rho, params)
            assert np.allclose(batch[i], single, atol=1e-15)

    def test_convexity_precondition_enforced(self, params):
        with pytest.raises(ConfigError, match="strong-convexity"):
            solve_local([1.0, 0.0], 1.0, 0.0, SC / DC, params)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_context_rejects_weak_penalty(self, beta):
        """Building the per-step context checks the penalty, so no batch
        solve can run on one that breaks strong convexity."""
        params = CohesiveParams(sigma_c=SC, delta_c=DC, beta=beta)
        a = np.array([0.1, 1.0])
        rho = 0.9 * SC / DC * beta**2   # below the bound at area 1 only
        with pytest.raises(ConfigError, match="strong-convexity"):
            LocalSolveContext(a, np.zeros(2), rho, params)

    @pytest.mark.parametrize("single", [False, True], ids=["batch", "single"])
    def test_weak_penalty_rejected_on_every_call(self, params, single):
        """No local solve runs on a weak penalty: solve_local checks it,
        and solve_local_batch takes a LocalSolveContext, whose constructor
        checks it."""
        rho = 0.5 * SC / DC       # above the bound at area 0.1, below it at 1
        p = np.array([[1.0, 0.0], [4.0, 1.0]])
        a = np.array([0.1, 1.0])
        dm = np.array([0.0, 0.5 * DC])
        with pytest.raises(ConfigError, match="strong-convexity"):
            if single:
                solve_local(p[1], a[1], dm[1], rho, params)
            else:
                solve_local_batch(p, LocalSolveContext(a, dm, rho, params))

    def test_subnormal_history_still_loads(self):
        """A subnormal delta_max overflows the secant slope to inf."""
        params = CohesiveParams(sigma_c=SC, delta_c=DC, beta=1.0)
        p, rho = np.array([0.0, 2.0 * SC]), 5.0 * SC / DC
        dm = 2.225073858507203e-309 * DC
        delta = solve_local(p, 1.0, dm, rho, params)
        brute, _ = brute_force_minimum(p, 1.0, dm, rho, SC, DC, 1.0)
        mine = local_objective(delta, p, 1.0, dm, rho, params)
        assert mine <= brute + 1e-8 * (SC * DC)

    def test_convexity_includes_mixity(self):
        params = CohesiveParams(sigma_c=SC, delta_c=DC, beta=2.0)
        rho = 2.0 * SC / DC   # above the plain bound, below beta^2 times it
        with pytest.raises(ConfigError, match="strong-convexity"):
            solve_local([1.0, 0.0], 1.0, 0.0, rho, params)
        validate_penalty(5.0 * SC / DC, [1.0], params)   # fine above beta^2

    @settings(max_examples=150, deadline=None)
    @given(
        pn=st.floats(-2, 2),
        ps=st.floats(-2, 2),
        dmax_frac=st.floats(0, 1),
        pristine=st.booleans(),
        alpha=st.floats(5, 200),
        beta=st.sampled_from([1.0, 0.5, 2.0]),
        a=st.floats(0.25, 4.0),
    )
    def test_optimality_against_brute_force(
        self, pn, ps, dmax_frac, pristine, alpha, beta, a
    ):
        params = CohesiveParams(sigma_c=SC, delta_c=DC, beta=beta)
        p = np.array([pn, ps]) * a * SC
        dm = 0.0 if pristine else dmax_frac * DC
        rho = alpha * a * SC / DC
        assume(rho > a * SC / DC * max(1.0, beta**2) * 1.01)
        delta = solve_local(p, a, dm, rho, params)
        assert delta[0] >= 0.0
        mine = local_objective(delta, p, a, dm, rho, params)
        brute, _ = brute_force_minimum(p, a, dm, rho, SC, DC, beta)
        assert mine <= brute + 1e-8 * (a * SC * DC)


def full_local_solve(p, a, dm, rho, params):
    """The local solve evaluated at every point, with every step-constant
    term computed in the call: the reference for the solve that builds
    those terms once per step and, at beta = 1, skips points proven
    closed."""
    sc, dc, beta = params.sigma_c, params.delta_c, params.beta
    pn_pos, ps = np.maximum(p[:, 0], 0.0), p[:, 1]
    closed = (dm <= 0.0) & (np.hypot(pn_pos, ps / beta) <= a * sc)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = sc * np.maximum(1.0 - dm / dc, 0.0) / dm
    k = np.where(dm > 0, k, np.inf)
    if beta == 1.0:
        drive = np.hypot(pn_pos, ps)
        with np.errstate(invalid="ignore"):
            d_unload = drive / (rho + a * k)
        unloads = drive <= rho * dm + a * sc * np.maximum(1.0 - dm / dc, 0.0)
        d = np.where(
            (dm > 0.0) & unloads,
            d_unload,
            np.where(
                drive >= rho * dc,
                drive / rho,
                np.clip((drive - a * sc) / (rho - a * sc / dc), 0.0, dc),
            ),
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(drive > 0.0, d / drive, 0.0)
        scale[closed] = 0.0
        return np.stack([pn_pos * scale, ps * scale], axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        du = np.stack(
            [pn_pos / (rho + a * k), ps / (rho + a * k * beta * beta)], axis=1
        )
    du = np.where(np.isfinite(du), du, 0.0)
    df = np.stack([pn_pos / rho, ps / rho], axis=1)
    lo = np.minimum(np.maximum(dm, dc * 1e-12), dc)
    hi = np.full_like(lo, dc)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        q = a * sc * (1.0 / mid - 1.0 / dc)
        dn = pn_pos / (rho + q)
        ds = ps / (rho + beta * beta * q)
        pos = dn * dn + (beta * ds) ** 2 - mid * mid > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    d_load = 0.5 * (lo + hi)
    q = a * sc * (1.0 / d_load - 1.0 / dc)
    dl = np.stack([pn_pos / (rho + q), ps / (rho + beta * beta * q)], axis=1)
    fu = np.where(dm > 0, local_objective(du, p, a, dm, rho, params), np.inf)
    ff = local_objective(df, p, a, dm, rho, params)
    fl = local_objective(dl, p, a, dm, rho, params)
    best = np.argmin(np.stack([fu, ff, fl], axis=0), axis=0)
    delta = np.where(
        (best == 0)[:, None], du, np.where((best == 1)[:, None], df, dl)
    )
    delta[closed] = 0.0
    return delta


@pytest.mark.parametrize("per_point_rho", [False, True], ids=["scalar", "array"])
@pytest.mark.parametrize("beta", [1.0, 2.0, 0.5])
def test_local_solve_matches_full_evaluation(beta, per_point_rho, monkeypatch):
    """Bit for bit, with drives on both sides of the activation traction
    down to 1e-13 of it, and pristine, unloading, loading and failed
    histories; at beta != 1 only the points not proven closed reach the
    loading root."""
    params = CohesiveParams(sigma_c=SC, delta_c=DC, beta=beta)
    rng = np.random.default_rng(41)
    n = 4000
    a = rng.uniform(0.5, 2.0, size=n)
    dm = rng.choice([0.0, 0.3 * DC, 0.8 * DC, 1.5 * DC, 1e-300], size=n)
    dm = np.where(rng.random(n) < 0.5, dm, rng.uniform(0.0, DC, size=n))
    dm[rng.random(n) < 0.3] = 0.0
    ratio = rng.choice(
        [0.0, 0.5, 1.0 - 1e-7, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.0 + 1e-7, 1.5, 40.0],
        size=n,
    )
    angle = rng.uniform(-np.pi, np.pi, size=n)
    angle[rng.random(n) < 0.2] = 0.0         # pure normal drive: hypot is exact
    p = (ratio * a * SC)[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    rho = 100.0 * a.mean() * SC / DC * max(1.0, beta**2)
    if per_point_rho:
        rho = rho * rng.uniform(0.5, 1.5, size=n)
    sizes = []
    loading_root = cohesive._loading_root

    def counted(pn_pos, *args):
        sizes.append(len(pn_pos))
        return loading_root(pn_pos, *args)

    monkeypatch.setattr(cohesive, "_loading_root", counted)
    got = solve_local_batch(p, LocalSolveContext(a, dm, rho, params))
    want = full_local_solve(p, a, dm, np.asarray(rho), params)
    assert got.tobytes() == want.tobytes()
    pn_pos = np.maximum(p[:, 0], 0.0)
    closed = (dm <= 0.0) & (np.hypot(pn_pos, p[:, 1] / beta) <= a * SC)
    assert closed.sum() > n // 10
    assert sizes == ([] if beta == 1.0 else [n - closed.sum()])
    # every branch occurs
    opened = params.effective_opening(got) > 0.0
    assert opened.any() and not opened.all()
    assert (opened & (dm == 0.0)).any() and (opened & (dm >= DC)).any()
    unloading = opened & (params.effective_opening(got) < dm * (1 - 1e-9))
    assert (unloading & (got[:, 1] != 0.0)).any()


def test_cohesive_state_irreversible(params):
    """commit_history folds openings into the array it is given, in place."""
    delta_max = np.zeros(3)
    opened = np.array([[0.01, 0.0], [0.0, 0.004], [0.0, 0.0]])
    commit_history(delta_max, opened, params)
    first = delta_max.copy()
    assert np.allclose(first, [0.01, 0.004, 0.0])
    reopened = np.array([[0.002, 0.0], [0.0, 0.006], [0.0, 0.0]])
    commit_history(delta_max, reopened, params)
    assert np.all(delta_max >= first)
    assert np.allclose(delta_max, [0.01, 0.006, 0.0])


def test_dissipated_energy_values(params):
    areas = np.array([2.0])
    assert dissipated_energy([0.0], areas, params) == 0.0
    # half the opening dissipates half the fracture energy
    assert np.isclose(
        dissipated_energy([DC / 2], areas, params), 2.0 * SC * DC / 4, rtol=1e-12
    )
    assert np.isclose(
        dissipated_energy([5 * DC], areas, params), 2.0 * SC * DC / 2, rtol=1e-12
    )
