"""Brute-force reference minimizer for the per-point interface problem.

Kept deliberately independent of the closed-form solver: the objective is
written out from the traction-separation areas rather than reusing the
production cohesive-energy code, and the minimum is located by grid
search with window refinement. Used by the `local-oracle` CLI mode and
the verification suite.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# one coarse localization round, then shrinking fine rounds around the
# incumbent; the window keeps +- _SHRINK cells of the previous spacing
_COARSE = (49, 97)
_FINE = (17, 33)
_FINE_ROUNDS = 6
_SHRINK = 2.5

# interface constants of every sampled instance (the acceptance suite's)
SIGMA_C, DELTA_C = 3.0, 0.02287
# instances per brute-force task; tasks write disjoint slices, so the
# result does not depend on it
CHUNK = 512


def _potential(d_eff, d_max, sigma_c, delta_c):
    """Cohesive energy per area, spelled out from the shaded areas."""
    d_eff = np.asarray(d_eff)
    cap = np.minimum(d_eff, delta_c)
    area_loading = sigma_c * cap - sigma_c * cap * cap / (2.0 * delta_c)
    dmax_cap = np.minimum(d_max, delta_c)
    dissipated = 0.5 * sigma_c * dmax_cap
    unload_traction = sigma_c * np.maximum(1.0 - d_max / delta_c, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        recover = np.where(
            d_max > 0, 0.5 * unload_traction * (d_eff / d_max) * d_eff, 0.0
        )
    return np.where(d_eff >= d_max, area_loading, dissipated + recover)


def objective_grid(dn, ds, p, a, d_max, rho, sigma_c, delta_c, beta):
    """Objective at arrays of candidate openings (delta_n >= 0 assumed)."""
    eff = np.sqrt(dn * dn + (beta * ds) ** 2)
    return (
        a * _potential(eff, d_max, sigma_c, delta_c)
        - p[0] * dn
        - p[1] * ds
        + 0.5 * rho * (dn * dn + ds * ds)
    )


def brute_force_minimum(p, a, d_max, rho, sigma_c, delta_c, beta):
    """Grid-plus-refinement minimum of one local subproblem.

    Returns (objective value, opening 2-vector). The search window starts
    at the penalty bound |delta| <= |p| / rho which contains the true
    minimizer, then shrinks around the incumbent each round.
    """
    val, dn, ds = _brute_batch(
        np.asarray(p, dtype=float).reshape(1, 2),
        np.array([a], dtype=float),
        np.array([d_max], dtype=float),
        np.array([rho], dtype=float),
        sigma_c,
        delta_c,
        np.array([beta], dtype=float),
    )
    return float(val[0]), np.array([dn[0], ds[0]])


def _brute_batch(p, a, d_max, rho, sigma_c, delta_c, beta):
    """Vectorized refinement search over a batch of instances."""
    n = len(p)
    radius = 1.05 * np.hypot(p[:, 0], p[:, 1]) / rho + 1e-12 * delta_c
    cn = np.zeros(n)
    cs = np.zeros(n)
    hn = radius.copy()
    hs = radius.copy()
    best_val = np.full(n, np.inf)
    best_dn = np.zeros(n)
    best_ds = np.zeros(n)
    take = np.arange(n)
    grids = [_COARSE] + [_FINE] * _FINE_ROUNDS
    for grid_n, grid_s in grids:
        gn = np.linspace(0.0, 1.0, grid_n)
        gs = np.linspace(0.0, 1.0, grid_s)
        # windows clipped to the feasible half plane delta_n >= 0
        lo_n = np.maximum(cn - hn, 0.0)
        hi_n = cn + hn
        dn = lo_n[:, None, None] + (hi_n - lo_n)[:, None, None] * gn[None, :, None]
        ds = (cs - hs)[:, None, None] + 2.0 * hs[:, None, None] * gs[None, None, :]
        val = objective_grid(
            dn,
            ds,
            (p[:, 0][:, None, None], p[:, 1][:, None, None]),
            a[:, None, None],
            d_max[:, None, None],
            rho[:, None, None],
            sigma_c,
            delta_c,
            beta[:, None, None],
        )
        flat = val.reshape(n, -1)
        idx = np.argmin(flat, axis=1)
        vmin = flat[take, idx]
        improved = vmin < best_val
        dn_flat = np.broadcast_to(dn, val.shape).reshape(n, -1)
        ds_flat = np.broadcast_to(ds, val.shape).reshape(n, -1)
        best_val = np.where(improved, vmin, best_val)
        best_dn = np.where(improved, dn_flat[take, idx], best_dn)
        best_ds = np.where(improved, ds_flat[take, idx], best_ds)
        cn, cs = best_dn, best_ds
        hn = _SHRINK * (hi_n - lo_n) / (grid_n - 1)
        hs = _SHRINK * 2.0 * hs / (grid_s - 1)
    return best_val, best_dn, best_ds


@dataclass
class OracleReport:
    samples: int
    max_gap: float
    mean_gap: float


def sample_instances(n: int, seed: int):
    """Random local-subproblem instances covering all case branches.

    Tractions are uniform in [-2 a sigma_c, 2 a sigma_c]^2, half the
    damage histories are pristine and half uniform in [0, delta_c], the
    mixity parameter cycles through {1, 0.5, 2}, and the penalty is
    alpha * a * sigma_c / delta_c with alpha uniform in [5, 200], at
    sigma_c = SIGMA_C and delta_c = DELTA_C.
    """
    sigma_c, delta_c = SIGMA_C, DELTA_C
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 10.0, size=n)
    p = rng.uniform(-2.0, 2.0, size=(n, 2)) * (a * sigma_c)[:, None]
    d_max = np.where(
        rng.random(n) < 0.5, 0.0, rng.uniform(0.0, delta_c, size=n)
    )
    beta = np.array([1.0, 0.5, 2.0])[rng.integers(0, 3, size=n)]
    alpha = rng.uniform(5.0, 200.0, size=n)
    rho = alpha * a * sigma_c / delta_c
    return p, a, d_max, rho, beta


def run_oracle(n_samples: int, seed: int) -> OracleReport:
    """Compare the closed-form solver against brute force on random instances.

    The gap is (solver objective - brute-force objective), nondimensional
    in units of a sigma_c delta_c, reported as max and mean over samples.
    A correct solver never loses by more than roundoff.
    """
    from .cohesive import (
        CohesiveParams,
        LocalSolveContext,
        local_objective,
        solve_local_batch,
    )

    sigma_c, delta_c = SIGMA_C, DELTA_C
    p, a, d_max, rho, beta = sample_instances(n_samples, seed)

    solver_val = np.empty(n_samples)
    for b in np.unique(beta):
        params = CohesiveParams(sigma_c=sigma_c, delta_c=delta_c, beta=float(b))
        g = beta == b
        local = LocalSolveContext(a[g], d_max[g], rho[g], params)
        delta = solve_local_batch(p[g], local)
        solver_val[g] = local_objective(delta, p[g], a[g], d_max[g], rho[g], params)

    brute_val = np.empty(n_samples)

    def _run_chunk(start: int) -> None:
        sl = slice(start, min(start + CHUNK, n_samples))
        brute_val[sl], _, _ = _brute_batch(
            p[sl], a[sl], d_max[sl], rho[sl], sigma_c, delta_c, beta[sl]
        )

    with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
        list(pool.map(_run_chunk, range(0, n_samples, CHUNK)))
    gaps = (solver_val - brute_val) / (a * sigma_c * delta_c)
    return OracleReport(
        samples=n_samples, max_gap=float(gaps.max()), mean_gap=float(gaps.mean())
    )
