"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The porous-plate runs are cached and shared between criteria.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from cohadm.admm import AdmmConfig
from cohadm.cohesive import CohesiveParams, phi_c, traction
from cohadm.driver import ExtrapolationPolicy, LoadSchedule, run_quasistatic
from cohadm.elasticity import Material
from cohadm.mesh import InputMesh, break_mesh, build_jump_operator
from cohadm.meshgen import porous_plate, rect_strip, two_triangle_diamond
from cohadm.oracle import run_oracle

from oracles import conforming_solve, conforming_stiffness, reaction_on

SC, DC = 3.0, 0.02287
COHESIVE = CohesiveParams(sigma_c=SC, delta_c=DC, beta=1.0)
STRIP_MAT = Material(youngs_modulus=3000.0, poisson_ratio=0.2,
                     mode="plane_stress", thickness=1.0)
STIFF_MAT = Material(youngs_modulus=30000.0, poisson_ratio=0.2,
                     mode="plane_stress", thickness=1.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def strip_schedule(u_end, n_steps):
    return LoadSchedule(
        bc_set="right", direction="x", u_start=0.0, u_end=u_end,
        n_steps=n_steps, fixed_sets=(("left", "x"), ("pin", "y")),
    )


# --------------------------------------------------------------------------
# shared porous-plate problem (criteria 5, 6, 7)
# --------------------------------------------------------------------------

_porous_mesh = None
_porous_cache = {}


def porous_mesh():
    global _porous_mesh
    if _porous_mesh is None:
        _porous_mesh = porous_plate(
            width=50.0, height=50.0, nx=32, ny=32, n_pores=8,
            pore_radius=(2.0, 4.0), min_gap=3.0, margin=4.0, seed=4,
        )
    return _porous_mesh


def porous_run(alpha=100.0, tol=0.01, extrapolation=True):
    key = (alpha, tol, extrapolation)
    if key not in _porous_cache:
        schedule = strip_schedule(u_end=0.0297, n_steps=100)
        config = AdmmConfig(alpha=alpha, c_primal=tol, c_dual=tol)
        _porous_cache[key] = run_quasistatic(
            porous_mesh(), STIFF_MAT, COHESIVE, schedule, config,
            policy=ExtrapolationPolicy(enabled=extrapolation),
        )
    return _porous_cache[key]


def test_criterion_1_local_oracle_equivalence():
    with criterion(1, "local subproblem matches brute force over 10^4 instances"):
        t0 = time.perf_counter()
        report = run_oracle(10_000, seed=20260810)
        elapsed = time.perf_counter() - t0
        assert report.max_gap <= 1e-8, f"max objective gap {report.max_gap:.3e}"
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_pre_activation_exactness():
    with criterion(2, "pre-activation ADMM matches conforming linear FEA"):
        t0 = time.perf_counter()
        mesh = rect_strip(10.0, 5.0, 10, 10)      # 200 elements
        config = AdmmConfig(alpha=100.0, c_primal=0.01, c_dual=0.01)
        schedule = strip_schedule(u_end=0.005, n_steps=10)   # half of activation
        record = run_quasistatic(mesh, STRIP_MAT, COHESIVE, schedule, config)

        broken = break_mesh(mesh)
        pull = schedule.u_end
        bc = {2 * n: 0.0 for n in mesh.boundary_sets["left"]}
        bc.update({2 * n: pull for n in mesh.boundary_sets["right"]})
        bc[2 * mesh.boundary_sets["pin"][0] + 1] = 0.0
        u_conf = conforming_solve(
            mesh, STRIP_MAT.youngs_modulus, STRIP_MAT.poisson_ratio,
            STRIP_MAT.mode, STRIP_MAT.thickness, bc,
        )
        u_mapped = np.empty(broken.n_dof)
        u_mapped[0::2] = u_conf[2 * broken.origin_of]
        u_mapped[1::2] = u_conf[2 * broken.origin_of + 1]

        areas = record.jump.areas
        rho = config.alpha * areas.mean() * SC / DC
        bound = 10.0 * config.c_primal * areas.mean() / rho
        err = np.abs(record.final_state.u - u_mapped).max()
        assert err <= bound, f"nodal error {err:.3e} exceeds bound {bound:.3e}"

        K = conforming_stiffness(
            mesh.nodes, mesh.triangles, STRIP_MAT.youngs_modulus,
            STRIP_MAT.poisson_ratio, STRIP_MAT.mode, STRIP_MAT.thickness,
        )
        f_ref = reaction_on(K, u_conf, mesh.boundary_sets["right"])[0]
        slope_ref = (f_ref / (record.height * record.thickness)) / (pull / record.width)
        slope = np.polyfit(record.strains[1:], record.stresses[1:], 1)[0]
        assert abs(slope - slope_ref) <= 0.005 * abs(slope_ref)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_activation_and_peak_stress():
    with criterion(3, "plain strip peaks at sigma_c without overshoot"):
        mesh = rect_strip(10.0, 5.0, 10, 10)
        config = AdmmConfig(alpha=100.0, c_primal=0.01, c_dual=0.01)
        schedule = strip_schedule(u_end=0.03, n_steps=300)
        record = run_quasistatic(mesh, STRIP_MAT, COHESIVE, schedule, config)
        peak = record.peak_stress
        assert abs(peak - SC) <= 0.02 * SC, f"peak {peak:.4f} vs sigma_c {SC}"
        assert peak <= SC + config.c_dual + 1e-12, f"overshoot {peak - SC:.4f}"
        # tighter pore-free-strip property: peak within 2 c_dual of sigma_c
        assert abs(peak - SC) <= 2 * config.c_dual + 1e-12
        # softening actually started (failure initiated)
        assert record.stresses[-1] < 0.9 * peak


def test_criterion_4_energy_dissipation():
    with criterion(4, "complete separation dissipates a_total*sigma_c*delta_c/2"):
        mesh = two_triangle_diamond(span=2.0)
        config = AdmmConfig(alpha=100.0, c_primal=0.002, c_dual=0.002)
        schedule = LoadSchedule(
            bc_set="right", direction="x", u_start=0.0, u_end=0.05, n_steps=400,
            fixed_sets=(("left", "xy"), ("right", "y")),
        )
        record = run_quasistatic(mesh, STIFF_MAT, COHESIVE, schedule, config)
        assert np.all(record.cohesive_state.delta_max >= DC)   # fully separated

        rows = record.rows
        work = sum(
            0.5 * (a.reaction_force + b.reaction_force) * (b.u_applied - a.u_applied)
            for a, b in zip(rows[:-1], rows[1:])
        )
        from cohadm.elasticity import assemble_stiffness, elastic_energy

        stiffness = assemble_stiffness(break_mesh(mesh), STIFF_MAT)
        recoverable = elastic_energy(stiffness, record.final_state.u)
        dissipated = work - recoverable

        a_total = 2.0 * STIFF_MAT.thickness        # interface length x thickness
        target = a_total * SC * DC / 2.0
        assert np.isclose(target, a_total * 0.0343050, rtol=1e-12)
        rel_err = abs(dissipated - target) / target
        assert rel_err <= 0.01, f"dissipation off by {rel_err:.2%}"


def test_criterion_5_extrapolation_speedup():
    with criterion(5, "extrapolation halves iterations, curves agree to 2%"):
        t0 = time.perf_counter()
        with_x = porous_run(extrapolation=True)
        without = porous_run(extrapolation=False)
        elapsed = time.perf_counter() - t0
        n_elements = len(porous_mesh().triangles)
        assert 1500 <= n_elements <= 2500   # the "about 2000 elements" fixture

        ratio = with_x.total_iterations / without.total_iterations
        assert ratio <= 0.5, f"iteration ratio {ratio:.3f}"
        peak = max(with_x.peak_stress, without.peak_stress)
        gap = np.abs(with_x.stresses - without.stresses).max()
        assert gap <= 0.02 * peak, f"curve gap {gap / peak:.2%} of peak"
        # per-step iteration counts spike when cracks activate and drop
        # once extrapolation tracks the smooth post-peak evolution
        iters = np.array([r.iterations for r in with_x.rows[1:]])
        spike = int(iters.argmax())
        tail = iters[-20:].mean()
        assert 0 < spike < len(iters) - 20
        assert iters[spike] >= 2.0 * tail, (
            f"no activation spike: max {iters[spike]} vs tail mean {tail:.1f}"
        )
        assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s"


def test_criterion_6_tolerance_convergence():
    with criterion(6, "curves at tolerances 0.016 and 0.001 agree to 1%"):
        coarse = porous_run(tol=0.256)
        mid = porous_run(tol=0.016)
        fine = porous_run(tol=0.001)
        assert coarse.total_iterations < mid.total_iterations < fine.total_iterations
        peak = fine.peak_stress
        gap = np.abs(mid.stresses - fine.stresses).max()
        assert gap <= 0.01 * peak, f"curve gap {gap / peak:.2%} of peak"


def test_criterion_7_alpha_insensitivity():
    with criterion(7, "peak stress varies under 3% across alpha sweep"):
        peaks = np.array([
            porous_run(alpha=alpha).peak_stress
            for alpha in (20.0, 60.0, 100.0, 180.0)
        ])
        spread = (peaks.max() - peaks.min()) / peaks.max()
        assert spread <= 0.03, f"peak spread {spread:.2%}"


def _stream_bandwidth_gbs() -> float:
    """Rough single-thread streaming bandwidth of this machine."""
    array = np.ones(25_000_000)            # 200 MB
    t0 = time.perf_counter()
    array.sum()
    return 0.2 / (time.perf_counter() - t0)


def test_criterion_8_near_linear_iteration_cost():
    with criterion(8, "per-iteration wall time scales with exponent <= 1.15"):
        import gc

        t0 = time.perf_counter()
        sizes = [2 * nx * nx for nx in (32, 63, 122)]
        # wall-clock noise on a shared host is one sided, so the machine's
        # capability per size is the minimum over interleaved cold runs
        per_iter = np.full(3, np.inf)
        for _ in range(5):
            for i, nx in enumerate((32, 63, 122)):
                mesh = rect_strip(10.0, 10.0, nx, nx)
                schedule = strip_schedule(u_end=0.005, n_steps=15)
                config = AdmmConfig(alpha=100.0, c_primal=5e-4, c_dual=5e-4)
                gc.collect()
                record = run_quasistatic(
                    mesh, STRIP_MAT, COHESIVE, schedule, config,
                    policy=ExtrapolationPolicy(enabled=False),
                )
                solver_ms = sum(r.wall_ms for r in record.rows)
                iters = record.total_iterations
                assert iters >= 30      # enough samples for a stable average
                per_iter[i] = min(per_iter[i], solver_ms / iters)
        exponent = float(np.polyfit(np.log(sizes), np.log(per_iter), 1)[0])
        elapsed = time.perf_counter() - t0
        print(f"  (sizes {sizes} -> ms/iter {[round(float(t), 2) for t in per_iter]}, "
              f"exponent {exponent:.3f}, host stream bw "
              f"{_stream_bandwidth_gbs():.1f} GB/s)")
        assert elapsed < 900.0, f"criterion 8 took {elapsed:.1f}s"
        # On hosts with ordinary memory bandwidth (> roughly 15 GB/s) the
        # measured exponent sits near 1.0; a heavily throttled container
        # pushes the largest factor out of cache and inflates it.
        assert exponent <= 1.15, f"scaling exponent {exponent:.3f}"


def test_criterion_9_invariant_suite():
    with criterion(9, "module invariants and finite-difference traction check"):
        # finite difference of phi_c against traction at interior points
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 100:
            dm = rng.uniform(0.0, DC)
            if rng.random() < 0.5:
                d = rng.uniform(dm, DC)
                lo_edge, hi_edge = dm, DC
            else:
                if dm == 0.0:
                    continue
                d = rng.uniform(0.0, dm)
                lo_edge, hi_edge = 0.0, dm
            h = 1e-7 * DC
            if d - h <= lo_edge or d + h >= hi_edge:
                continue
            fd = (phi_c(d + h, dm, COHESIVE) - phi_c(d - h, dm, COHESIVE)) / (2 * h)
            t = traction(d, dm, COHESIVE)
            assert np.isclose(fd, t, rtol=1e-6, atol=1e-9 * SC)
            checked += 1

        # irreversibility audit and admissibility on the shared porous run
        record = porous_run(extrapolation=True)
        dissipation = np.array(record.dissipation)
        assert np.all(np.diff(dissipation) >= -1e-15)
        assert record.final_state.delta.reshape(-1, 2)[:, 0].min() >= 0.0

        # rigid modes of the jump operator
        mesh = rect_strip(3.0, 2.0, 3, 2)
        broken = break_mesh(mesh)
        jump = build_jump_operator(broken, 2)
        u = np.empty(broken.n_dof)
        u[0::2] = 0.7 - 1.3 * (broken.nodes[:, 1] - 0.5)
        u[1::2] = -0.2 + 1.3 * (broken.nodes[:, 0] - 1.1)
        assert np.abs(jump.A @ u).max() <= 1e-10 * np.linalg.norm(u)

        # frame consistency under a rigid rotation of the geometry
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        rotated = InputMesh(
            nodes=mesh.nodes @ R.T, triangles=mesh.triangles.copy(),
            boundary_sets=mesh.boundary_sets,
        )
        jump_rot = build_jump_operator(break_mesh(rotated), 2)
        v = rng.normal(size=broken.n_dof)
        v_rot = (v.reshape(-1, 2) @ R.T).reshape(-1)
        assert np.abs(jump_rot.A @ v_rot - jump.A @ v).max() <= 1e-10

        # determinism: identical records on repeated runs
        schedule = strip_schedule(u_end=0.012, n_steps=30)
        runs = [
            run_quasistatic(rect_strip(4.0, 2.0, 4, 4), STRIP_MAT, COHESIVE,
                            schedule, AdmmConfig())
            for _ in range(2)
        ]
        assert [r.iterations for r in runs[0].rows] == [
            r.iterations for r in runs[1].rows
        ]
        assert np.allclose(runs[0].stresses, runs[1].stresses,
                           rtol=1e-12, atol=1e-12)
