"""Initially rigid, linearly softening, irreversible cohesive law.

The interface potential per unit area is the area swept under the
traction-separation curve: zero opening until the critical stress is
reached, then traction decaying linearly from sigma_c at zero opening to
zero at delta_c. Unloading from the largest opening ever attained
(delta_max) follows a secant through the origin, so the energy dissipated
on loading is never recovered. Non-interpenetration (delta_n >= 0) is
enforced as a hard constraint.

The per-Gauss-point ADMM subproblem

    min_{delta}  a * phi_c(delta_eff) + I_{R+}(delta_n)
                 - p . delta + (rho/2) |delta|^2

is solved in closed form: the activation test comes from the generalized
gradient condition at the origin, and the smooth branches (unloading
secant, loading wedge, fully failed) each have an explicit stationary
point. Candidates are compared by objective value, which makes branch
selection robust at the junctions. For beta != 1 the loading branch
reduces to a scalar root find on the effective opening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class CohesiveParams:
    """Cohesive interface parameters.

    sigma_c : critical stress for crack activation.
    delta_c : effective opening at complete failure.
    beta : mixity parameter weighting sliding against normal opening in
        the effective opening  delta = sqrt(delta_n^2 + beta^2 delta_s^2).
    """

    sigma_c: float
    delta_c: float
    beta: float = 1.0

    def __post_init__(self):
        # each bound is written so that NaN fails it
        for name in ("sigma_c", "delta_c", "beta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    def effective_opening(self, delta: np.ndarray) -> np.ndarray:
        """Scalar effective opening of (..., 2) opening vectors."""
        delta = np.asarray(delta, dtype=float)
        return np.sqrt(delta[..., 0] ** 2 + (self.beta * delta[..., 1]) ** 2)


def commit_history(delta_max: np.ndarray, delta, params: CohesiveParams) -> None:
    """Fold a converged opening field into the damage history delta_max.

    delta_max is updated in place and never decreases (irreversible).
    """
    eff = params.effective_opening(np.asarray(delta).reshape(-1, 2))
    np.maximum(delta_max, eff, out=delta_max)


def _secant_stiffness(delta_max, params: CohesiveParams):
    """Unloading secant slope t(delta_max)/delta_max, zero once failed.

    Infinite for a pristine point (and may round to inf for subnormal
    histories); callers divide by rho + a*k, which maps inf to a zero
    opening, the correct rigid limit.
    """
    dm = np.asarray(delta_max, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = params.sigma_c * np.maximum(1.0 - dm / params.delta_c, 0.0) / dm
    return np.where(dm > 0, k, np.inf)


def phi_c(delta_eff, delta_max, params: CohesiveParams):
    """Cohesive energy per unit area at effective opening delta_eff.

    On the loading branch (delta_eff >= delta_max) this is the area under
    the traction curve up to min(delta_eff, delta_c); on unloading it is
    the dissipated part plus the recoverable secant triangle. Broadcasts
    over array arguments.
    """
    d = np.asarray(delta_eff, dtype=float)
    m = np.asarray(delta_max, dtype=float)
    if np.any(d < 0) or np.any(m < 0):
        raise ValueError("openings must be non-negative")
    sc, dc = params.sigma_c, params.delta_c
    d_cap = np.minimum(d, dc)
    loading = sc * d_cap * (1.0 - 0.5 * d_cap / dc)
    dissipated = 0.5 * sc * np.minimum(m, dc)
    # recoverable secant triangle, grouped as t(m) * (d/m) * d so that
    # tiny histories cannot overflow the secant slope
    t_m = sc * np.maximum(1.0 - m / dc, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        recover = np.where(m > 0, 0.5 * t_m * (d / m) * d, 0.0)
    out = np.where(d >= m, loading, dissipated + recover)
    if out.ndim == 0:
        return float(out)
    return out


def traction(delta_eff, delta_max, params: CohesiveParams):
    """Derivative of phi_c on its differentiable branches.

    Raises ValueError at the crack-initiation point
    delta_eff = delta_max = 0, where phi_c is not differentiable and the
    generalized-gradient activation test must be used instead.
    """
    d = np.asarray(delta_eff, dtype=float)
    m = np.asarray(delta_max, dtype=float)
    if np.any(d < 0) or np.any(m < 0):
        raise ValueError("openings must be non-negative")
    if np.any((d == 0) & (m == 0)):
        raise ValueError(
            "traction is undefined at delta_eff = delta_max = 0; "
            "use the generalized-gradient activation test"
        )
    sc, dc = params.sigma_c, params.delta_c
    loading = sc * np.maximum(1.0 - d / dc, 0.0)
    t_m = sc * np.maximum(1.0 - m / dc, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        unloading = np.where(m > 0, t_m * (d / m), 0.0)
    out = np.where(d >= m, loading, unloading)
    if out.ndim == 0:
        return float(out)
    return out


def dissipated_energy(delta_max, areas, params: CohesiveParams) -> float:
    """Total dissipated cohesive energy for a damage state."""
    dm = np.minimum(np.asarray(delta_max, dtype=float), params.delta_c)
    return float(np.sum(np.asarray(areas) * 0.5 * params.sigma_c * dm))


# An opening within this relative distance below its damage history still
# counts as on the loading branch, so roundoff is not read as unloading.
LOADING_RTOL = 1e-9


def point_status(delta, delta_max, params: CohesiveParams) -> np.ndarray:
    """State of every Gauss point: closed, opening, unloading or failed.

    delta holds (n, 2) openings and delta_max the (n,) damage history.
    A point whose effective opening sits within LOADING_RTOL of its
    history is opening.
    """
    delta_max = np.asarray(delta_max, dtype=float)
    eff = params.effective_opening(delta)
    return np.select(
        [
            delta_max <= 0.0,
            delta_max >= params.delta_c,
            eff < delta_max * (1.0 - LOADING_RTOL),
        ],
        ["closed", "failed", "unloading"],
        "opening",
    )


def local_objective(delta, p, a, delta_max, rho, params: CohesiveParams):
    """Value of the per-point ADMM objective at opening(s) delta.

    delta and p broadcast as (..., 2); a and delta_max as (...,).
    Returns +inf where delta_n < 0.
    """
    delta = np.asarray(delta, dtype=float)
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    dm = np.asarray(delta_max, dtype=float)
    eff = params.effective_opening(delta)
    val = (
        a * phi_c(eff, dm, params)
        - (p[..., 0] * delta[..., 0] + p[..., 1] * delta[..., 1])
        + 0.5 * rho * (delta[..., 0] ** 2 + delta[..., 1] ** 2)
    )
    return np.where(delta[..., 0] < 0, np.inf, val)


def validate_penalty(rho, areas, params: CohesiveParams) -> None:
    """Refuse penalties that break strong convexity of the local problem.

    The decay slope of the cohesive wedge is sigma_c/delta_c along the
    normal axis and beta^2 sigma_c/delta_c along the sliding axis, so the
    penalty must dominate a_i sigma_c/delta_c * max(1, beta^2) at every
    Gauss point. ``rho`` may be a scalar or a per-point array.
    """
    if np.size(areas) == 0:
        return
    rho = np.asarray(rho, dtype=float)
    bound = (
        np.asarray(areas, dtype=float)
        * params.sigma_c
        / params.delta_c
        * max(1.0, params.beta**2)
    )
    if np.any(rho <= bound):
        worst = float(np.max(bound / np.broadcast_to(rho, bound.shape)))
        raise ConfigError(
            "penalty rho does not satisfy the strong-convexity bound at "
            f"every Gauss point (worst bound/rho ratio {worst:.3g} >= 1); "
            "increase alpha"
        )


def _loading_root(pn_pos, ps, a_sc, lo, hi, rho, params: CohesiveParams):
    """Effective opening solving radial stationarity on the loading wedge.

    Bisection on g(d) = |delta(d)|_eff^2 - d^2 where delta(d) is the
    stationary opening for wedge slope q(d) = a sigma_c (1/d - 1/delta_c),
    with a_sc = a sigma_c. Under strong convexity g crosses zero at most
    once on [lo, hi]; with no crossing the bisection collapses onto a
    bracket endpoint, which the candidate comparison then discards. All
    arrays, elementwise; lo and hi are not modified.
    """
    dc, beta = params.delta_c, params.beta

    def g(d):
        q = a_sc * (1.0 / d - 1.0 / dc)
        dn = pn_pos / (rho + q)
        ds = ps / (rho + beta * beta * q)
        return dn * dn + (beta * ds) ** 2 - d * d

    # 60 halvings of an interval <= delta_c: resolution ~ 1e-18 delta_c
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        pos = g(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


class LocalSolveContext:
    """The part of the local solves that stays fixed for one load step.

    Everything here depends only on the areas, the frozen damage history,
    the penalty and the law, so a load step builds it once and each ADMM
    iteration only does the work that depends on the drive p. Building
    one checks the penalty against the strong-convexity bound.
    """

    def __init__(self, a, delta_max, rho, params: CohesiveParams):
        validate_penalty(rho, a, params)
        sc, dc, beta = params.sigma_c, params.delta_c, params.beta
        self.a = a = np.asarray(a, dtype=float)
        self.delta_max = dm = np.asarray(delta_max, dtype=float)
        self.rho = rho = np.asarray(rho, dtype=float)
        self.params = params
        self.a_sc = a * sc                  # activation traction
        self.pristine = dm <= 0.0
        self.damaged = dm > 0.0
        k = _secant_stiffness(dm, params)   # inf where pristine
        with np.errstate(invalid="ignore"):
            ak = a * k
        self.secant = rho + ak              # unloading stiffness, normal axis
        if beta == 1.0:
            # pn_pos + |ps| at or below this proves a point closed (see
            # _solve_equal_mixity); -inf where damaged
            self.sure_closed = np.where(
                self.pristine, self.a_sc * (1.0 - 1e-12), -np.inf
            )
            # largest drive that unloads: d_unload <= dm multiplied through
            # by rho + a k, because k overflows to inf for a subnormal
            # history, which would pass any drive as unloading
            self.unload_limit = rho * dm + self.a_sc * np.maximum(1.0 - dm / dc, 0.0)
            self.rho_dc = rho * dc
            self.softening = rho - self.a_sc / dc   # loading-wedge stiffness
        else:
            with np.errstate(invalid="ignore"):
                self.secant_s = rho + ak * beta * beta   # sliding axis
            # bracket of the loading root
            self.lo = np.minimum(np.maximum(dm, dc * 1e-12), dc)
            self.hi = np.full_like(self.lo, dc)


def _solve_equal_mixity(local: LocalSolveContext, pn_pos, ps):
    """Closed-form branch tiling for beta = 1.

    With equal mixity the minimizer is radial along (max(p_n, 0), p_s),
    and the radial derivative of the objective is continuous and
    strictly increasing, so exactly one branch stationary point is
    admissible: the unloading secant when the drive is at most the
    unload limit, the flat failed branch when it exceeds rho delta_c,
    the loading wedge otherwise. A pristine point needs no branch of its
    own: its secant is infinite and its unload limit is a sigma_c, so a
    drive it cannot open under lands on the secant at zero opening.

    Only the points that may open are solved. The computed drive
    hypot(pn_pos, ps) is within a few ulp of the exact norm, which is
    at most pn_pos + |ps|, so a pristine point whose sum is at most
    sure_closed has a drive below a sigma_c and stays closed with a
    zero scale. Every other point takes the same operations as when
    all points are solved.
    """
    scale = np.zeros(len(ps))
    # every point not proven closed, NaN drives included
    i = np.flatnonzero(~(pn_pos + np.abs(ps) <= local.sure_closed))
    if len(i):
        drive = np.hypot(pn_pos[i], ps[i])
        with np.errstate(invalid="ignore"):
            d_unload = drive / local.secant[i]
        d = np.where(
            drive <= local.unload_limit[i],
            d_unload,
            np.where(
                drive >= _rows(local.rho_dc, i),
                drive / _rows(local.rho, i),
                np.clip(
                    (drive - local.a_sc[i]) / local.softening[i],
                    0.0, local.params.delta_c,
                ),
            ),
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            scale[i] = np.where(drive > 0.0, d / drive, 0.0)
    delta = np.empty((len(ps), 2))
    np.multiply(pn_pos, scale, out=delta[:, 0])
    np.multiply(ps, scale, out=delta[:, 1])
    return delta


def _rows(v, i):
    """v at the points i; a penalty may be one value for every point."""
    return v[i] if np.ndim(v) else v


def _solve_mixed(local: LocalSolveContext, p, pn_pos, ps, closed):
    """Lowest of three branch candidates, for beta != 1.

    Only the points not in the mask `closed` are solved; the closed ones
    keep a zero opening. Every operation is elementwise or a per-point
    argmin, so each solved point takes the same operations as when all
    points are solved.
    """
    delta = np.zeros((len(ps), 2))
    i = np.flatnonzero(~closed)
    if not len(i):
        return delta
    params = local.params
    dc, beta = params.delta_c, params.beta
    a, dm, a_sc = local.a[i], local.delta_max[i], local.a_sc[i]
    rho, p, pn_pos, ps = _rows(local.rho, i), p[i], pn_pos[i], ps[i]

    # --- candidate 1: unloading secant (only meaningful for dm > 0) ------
    with np.errstate(divide="ignore", invalid="ignore"):
        du = np.stack([pn_pos / local.secant[i], ps / local.secant_s[i]], axis=1)
    du = np.where(np.isfinite(du), du, 0.0)

    # --- candidate 2: fully failed (flat potential) ----------------------
    df = np.stack([pn_pos / rho, ps / rho], axis=1)

    # --- candidate 3: loading wedge stationary point ---------------------
    d_load = _loading_root(pn_pos, ps, a_sc, local.lo[i], local.hi[i], rho, params)
    q = a_sc * (1.0 / d_load - 1.0 / dc)
    dl = np.stack([pn_pos / (rho + q), ps / (rho + beta * beta * q)], axis=1)

    # --- pick the lowest objective ---------------------------------------
    fu = np.where(
        local.damaged[i], local_objective(du, p, a, dm, rho, params), np.inf
    )
    ff = local_objective(df, p, a, dm, rho, params)
    fl = local_objective(dl, p, a, dm, rho, params)
    best = np.argmin(np.stack([fu, ff, fl], axis=0), axis=0)
    delta[i] = np.where(
        (best == 0)[:, None], du, np.where((best == 1)[:, None], df, dl)
    )
    return delta


def solve_local_batch(p: np.ndarray, local: LocalSolveContext) -> np.ndarray:
    """Minimize the local ADMM objective at every Gauss point.

    Parameters
    ----------
    p : (n, 2) array
        Driving traction per point, y_i + rho * (A u)_i, in the local
        (normal, tangential) frame; force units.
    local : LocalSolveContext
        The effective areas, frozen damage history, penalty and law of
        the n points.

    Returns
    -------
    delta : (n, 2) array with delta_n >= 0 everywhere.
    """
    p = np.asarray(p, dtype=float).reshape(-1, 2)
    beta = local.params.beta
    pn, ps = p[:, 0], p[:, 1]
    # compression transmits no normal drive; the activation measure
    # folds the mixity weighting into the sliding component
    pn_pos = np.maximum(pn, 0.0)
    if beta == 1.0:
        return _solve_equal_mixity(local, pn_pos, ps)
    p_eff = np.hypot(pn_pos, ps / beta)
    closed = local.pristine & (p_eff <= local.a_sc)
    return _solve_mixed(local, p, pn_pos, ps, closed)


def solve_local(
    p, a: float, delta_max: float, rho: float, params: CohesiveParams
) -> np.ndarray:
    """Single-point convenience wrapper around solve_local_batch."""
    local = LocalSolveContext(
        np.array([a], dtype=float), np.array([delta_max], dtype=float), rho, params
    )
    return solve_local_batch(np.asarray(p, dtype=float).reshape(1, 2), local)[0]
