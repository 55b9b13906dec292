import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from cohadm import admm
from cohadm.admm import (
    AdmmConfig,
    AdmmSolver,
    SolverState,
    factorize_system,
    multiplier_update,
)
from cohadm.cohesive import (
    CohesiveParams,
    LocalSolveContext,
    commit_history,
    solve_local,
    solve_local_batch,
)
from cohadm.driver import LoadSchedule, run_quasistatic
from cohadm.elasticity import Material, assemble_stiffness, reaction_force
from cohadm.errors import (
    ConfigError,
    ConvergenceError,
    SingularSystemError,
    StagnationError,
)
from cohadm.mesh import JumpOperator, break_mesh, build_jump_operator
from cohadm.meshgen import porous_plate, rect_strip

from oracles import conforming_solve, internal_force

SC, DC = 3.0, 0.02287


def step_context(solver, delta_max):
    """The local-solve context run_step builds for delta_max."""
    return LocalSolveContext(
        solver.jump.areas, delta_max, solver.rho, solver.params
    )


def make_solver(mesh, material, params, config, fixed_spec):
    """Assemble everything for a mesh and Dirichlet specification."""
    bm = break_mesh(mesh)
    jump = build_jump_operator(bm, material.thickness)
    stiffness = assemble_stiffness(bm, material)
    dofs = [bm.dofs_of(mesh.boundary_sets[name], comps) for name, comps in fixed_spec]
    dirichlet = np.unique(np.concatenate(dofs))
    solver = AdmmSolver(stiffness, jump, params, config, dirichlet, bm.nodes)
    return bm, jump, stiffness, solver, dirichlet


def zero_state(solver):
    return SolverState.zeros(solver.jump.n_dof, solver.n_points)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AdmmConfig(alpha=1.0)
        with pytest.raises(ConfigError):
            AdmmConfig(c_primal=0.0)

    def test_solver_checks_penalty_at_construction(self, soft_material):
        # beta^2 = 400 puts the bound above rho = 100 mean(a) sigma_c/delta_c
        weak = CohesiveParams(sigma_c=SC, delta_c=DC, beta=20.0)
        with pytest.raises(ConfigError, match="strong-convexity"):
            make_solver(
                rect_strip(4.0, 2.0, 4, 2), soft_material, weak, AdmmConfig(),
                [("left", "xy")],
            )

    def test_penalty_formula(self, params):
        cfg = AdmmConfig(alpha=100.0)
        areas = np.array([1.0])
        assert np.isclose(cfg.penalty(areas, params), 13117.62, atol=0.01)
        assert cfg.penalty(np.zeros(0), params) == 0.0


def criterion_5_operator(params, monkeypatch):
    """The reduced operator that a solver for the criterion-5 porous plate
    factors, and what make_solver returns for it."""
    mesh = porous_plate(
        width=50.0, height=50.0, nx=32, ny=32, n_pores=8,
        pore_radius=(2.0, 4.0), min_gap=3.0, margin=4.0, seed=4,
    )
    material = Material(youngs_modulus=30000.0, poisson_ratio=0.2,
                        mode="plane_stress", thickness=1.0)
    factored = []
    backend = admm._SuperLuBackend

    def recording(reduced):
        factored.append(reduced)
        return backend(reduced)

    monkeypatch.setattr(admm, "_SuperLuBackend", recording)
    built = make_solver(
        mesh, material, params, AdmmConfig(alpha=100.0),
        [("left", "x"), ("pin", "y")],
    )
    (reduced,) = factored
    return reduced, built


class TestFactorize:
    def test_constrained_patch_succeeds(self, two_triangle_square, soft_material, params):
        _, _, _, solver, _ = make_solver(
            two_triangle_square, soft_material, params, AdmmConfig(),
            [("left", "xy")],
        )
        assert solver.fact.backend is not None

    def test_floating_structure_counts_three_modes(
        self, two_triangle_square, soft_material, params
    ):
        bm = break_mesh(two_triangle_square)
        jump = build_jump_operator(bm)
        stiffness = assemble_stiffness(bm, soft_material)
        with pytest.raises(SingularSystemError) as err:
            factorize_system(stiffness, jump.A, 1000.0, np.zeros(0, dtype=int), bm.nodes)
        assert err.value.n_rigid_modes == 3

    def test_single_pinned_node_leaves_rotation(
        self, two_triangle_square, soft_material, params
    ):
        bm = break_mesh(two_triangle_square)
        jump = build_jump_operator(bm)
        stiffness = assemble_stiffness(bm, soft_material)
        pinned = bm.dofs_of([0], "xy")
        with pytest.raises(SingularSystemError) as err:
            factorize_system(stiffness, jump.A, 1000.0, pinned, bm.nodes)
        assert err.value.n_rigid_modes == 1

    @pytest.mark.parametrize("strip", [False, True], ids=["square", "strip"])
    def test_solve_matches_dense_oracle(
        self, two_triangle_square, soft_material, params, strip
    ):
        # the strip has enough elements that fill and ordering matter
        mesh = rect_strip(4.0, 2.0, 6, 4) if strip else two_triangle_square
        bm = break_mesh(mesh)
        jump = build_jump_operator(bm)
        stiffness = assemble_stiffness(bm, soft_material)
        rho = 500.0
        dirichlet = bm.dofs_of(mesh.boundary_sets["left"], "xy")
        fact = factorize_system(stiffness, jump.A, rho, dirichlet, bm.nodes)
        M = (stiffness + rho * (jump.A.T @ jump.A)).toarray()
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=bm.n_dof)
        bc = rng.normal(size=len(dirichlet)) * 0.01
        u = fact.solve(rhs, bc, fact.coupling @ bc)
        free = np.setdiff1d(np.arange(bm.n_dof), dirichlet)
        dense = np.zeros(bm.n_dof)
        dense[dirichlet] = bc
        dense[free] = np.linalg.solve(
            M[np.ix_(free, free)], rhs[free] - M[np.ix_(free, dirichlet)] @ bc
        )
        assert np.allclose(u, dense, atol=1e-10 * max(1.0, np.abs(dense).max()))

    def test_kernel_follows_factor_size(self, soft_material, monkeypatch):
        """Up to SMALL_FACTOR_NNZ stored entries the factor solves with
        the transposed kernel, above it with the supernodal one; on the
        exactly symmetric operator both solve the same system."""
        mesh = porous_plate(
            width=10.0, height=10.0, nx=8, ny=8, n_pores=2,
            pore_radius=(1.0, 1.5), min_gap=1.0, margin=1.5, seed=4,
        )
        bm = break_mesh(mesh)
        jump = build_jump_operator(bm)
        stiffness = assemble_stiffness(bm, soft_material)
        rho = 500.0
        M = (stiffness + rho * (jump.A.T @ jump.A)).tocsr()
        assert (M != M.T).nnz == 0
        dirichlet = bm.dofs_of(mesh.boundary_sets["left"], "xy")
        rng = np.random.default_rng(3)
        rhs = rng.normal(size=bm.n_dof)
        bc = rng.normal(size=len(dirichlet)) * 0.01
        solutions = {}
        for limit, kernel in ((0, "supernodal"), (10**12, "transposed")):
            monkeypatch.setattr(admm, "SMALL_FACTOR_NNZ", limit)
            fact = factorize_system(stiffness, jump.A, rho, dirichlet, bm.nodes)
            assert fact.backend.kernel == kernel
            solutions[kernel] = fact.solve(rhs, bc, fact.coupling @ bc)
        free = fact.free
        dense = np.empty(bm.n_dof)
        dense[dirichlet] = bc
        Md = M.toarray()
        dense[free] = np.linalg.solve(
            Md[np.ix_(free, free)], rhs[free] - Md[np.ix_(free, dirichlet)] @ bc
        )
        size = np.abs(dense).max()
        a, b = solutions["supernodal"], solutions["transposed"]
        assert np.abs(a - b).max() <= 1e-12 * size
        for u in (a, b):
            assert np.abs(u - dense).max() <= 1e-10 * size

    def test_operator_stores_node_blocks(self, params, monkeypatch):
        """The reduced operator stores every 2x2 node block it touches,
        cancelled x-y entries as explicit zeros, so minimum degree orders
        whole nodes and fills less; its values are those of K + rho A'A."""
        backend = admm._SuperLuBackend
        reduced, (bm, jump, stiffness, solver, _) = criterion_5_operator(
            params, monkeypatch
        )
        free = solver.fact.free
        n_dof = bm.n_dof

        coo = reduced.tocoo()
        rows, cols = free[coo.row], free[coo.col]
        stored = rows * n_dof + cols
        on_free = np.zeros(n_dof, dtype=bool)
        on_free[free] = True
        for dr in (0, 1):
            for dc in (0, 1):
                r = 2 * (rows // 2) + dr
                c = 2 * (cols // 2) + dc
                inside = on_free[r] & on_free[c]
                assert np.isin(r[inside] * n_dof + c[inside], stored).all()
        assert (coo.data == 0).any()

        M = (stiffness + solver.rho * (jump.A.T @ jump.A)).tocsr()
        unpadded = M[free][:, free].tocsc()
        unpadded.sort_indices()
        values = reduced.copy()
        values.eliminate_zeros()
        values.sort_indices()
        unpadded.eliminate_zeros()
        assert np.array_equal(values.indptr, unpadded.indptr)
        assert np.array_equal(values.indices, unpadded.indices)
        assert np.array_equal(values.data, unpadded.data)

        assert solver.fact.backend.nnz <= 0.9 * backend(unpadded).nnz

    def test_reduced_operator_is_canonical_symmetric_csc(self, soft_material, monkeypatch):
        """SuperLU receives the reduced CSR arrays as a CSC matrix: sorted
        and free of duplicates in every column, and equal to its own
        transpose bit for bit, so it is the free-free block either way."""
        mesh = porous_plate(
            width=10.0, height=10.0, nx=8, ny=8, n_pores=2,
            pore_radius=(1.0, 1.5), min_gap=1.0, margin=1.5, seed=4,
        )
        bm = break_mesh(mesh)
        jump = build_jump_operator(bm)
        stiffness = assemble_stiffness(bm, soft_material)
        factored = []
        backend = admm._SuperLuBackend

        def recording(reduced):
            factored.append(reduced)
            return backend(reduced)

        monkeypatch.setattr(admm, "_SuperLuBackend", recording)
        dirichlet = np.concatenate([
            bm.dofs_of(mesh.boundary_sets["left"], "x"),
            bm.dofs_of(mesh.boundary_sets["pin"], "y"),
        ])
        fact = factorize_system(stiffness, jump.A, 500.0, dirichlet, bm.nodes)
        (reduced,) = factored
        assert reduced.format == "csc"
        assert reduced.shape == (len(fact.free),) * 2
        # a matrix built from the bare arrays checks their format afresh
        arrays = (reduced.data, reduced.indices, reduced.indptr)
        assert sp.csc_matrix(arrays, shape=reduced.shape).has_canonical_format
        transpose = reduced.T.tocsc()     # a CSC conversion sorts
        assert np.array_equal(transpose.indptr, reduced.indptr)
        assert np.array_equal(transpose.indices, reduced.indices)
        assert transpose.data.tobytes() == reduced.data.tobytes()

    def test_panel_size_keeps_order_and_fill(self, params, monkeypatch):
        """On the criterion-5 plate a factor built on panels of PANEL_SIZE
        columns has the ordering and the fill of one built on scipy's
        default 20, and solves the system as accurately."""
        backend = admm._SuperLuBackend
        reduced, (_, _, _, solver, _) = criterion_5_operator(params, monkeypatch)
        assert admm.PANEL_SIZE != 20
        built, default = solver.fact.backend, backend(reduced, panel_size=20)
        assert np.array_equal(built._lu.perm_c, default._lu.perm_c)
        assert built.nnz == default.nnz
        rhs = np.random.default_rng(5).normal(size=reduced.shape[0])
        u, u_default = built.solve(rhs), default.solve(rhs)
        size = np.abs(u_default).max()
        assert np.abs(u - u_default).max() <= 1e-12 * size
        # 10,834 free DOFs are too many for a dense solve: check the residual
        assert np.abs(reduced @ u - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_dirichlet_index_out_of_range(self, two_triangle_square, soft_material):
        bm = break_mesh(two_triangle_square)
        jump = build_jump_operator(bm)
        stiffness = assemble_stiffness(bm, soft_material)
        dirichlet = np.append(bm.dofs_of([0], "xy"), bm.n_dof)
        with pytest.raises(ConfigError, match="out of range"):
            factorize_system(stiffness, jump.A, 1000.0, dirichlet, bm.nodes)

    def test_repeated_dirichlet_dof_rejected(self, two_triangle_square, soft_material):
        bm = break_mesh(two_triangle_square)
        jump = build_jump_operator(bm)
        stiffness = assemble_stiffness(bm, soft_material)
        dofs = bm.dofs_of([0, 1], "xy")
        dirichlet = np.append(dofs, dofs[0])
        with pytest.raises(ConfigError, match="repeat"):
            factorize_system(stiffness, jump.A, 1000.0, dirichlet, bm.nodes)

    def test_operators_are_read_only(self, two_triangle_square, soft_material, params):
        """K, A and A's transposed view come out of their builders
        read-only, and the jump's fields cannot be reassigned."""
        _, jump, stiffness, solver, _ = make_solver(
            two_triangle_square, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        arrays = [jump.areas, jump.points]
        for m in (stiffness, jump.A, solver._a_t):
            arrays += [m.data, m.indices, m.indptr]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            jump.A = jump.A.copy()


class TestUUpdate:
    def test_zero_inputs_zero_displacement(
        self, two_triangle_square, soft_material, params
    ):
        _, jump, _, solver, dirichlet = make_solver(
            two_triangle_square, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        bc = np.zeros(len(dirichlet))
        u = solver.u_update(
            np.zeros(2 * jump.n_points),
            np.zeros(2 * jump.n_points),
            bc,
            solver.fact.coupling @ bc,
        )
        assert np.allclose(u, 0.0, atol=1e-14)

    def test_stationarity_on_free_dofs(self, two_triangle_square, soft_material, params):
        bm, jump, stiffness, solver, dirichlet = make_solver(
            two_triangle_square, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        rng = np.random.default_rng(1)
        y = rng.normal(size=2 * jump.n_points)
        delta = rng.normal(size=2 * jump.n_points) * 1e-4
        bc = rng.normal(size=len(dirichlet)) * 1e-3
        u = solver.u_update(y, delta, bc, solver.fact.coupling @ bc)
        grad = (
            stiffness @ u
            + jump.A.T @ (y + solver.rho * (jump.A @ u - delta))
        )
        free = np.setdiff1d(np.arange(bm.n_dof), dirichlet)
        scale = max(np.abs(grad).max(), 1.0)
        assert np.abs(grad[free]).max() <= 1e-9 * scale

    def test_a_transpose_is_a_view_of_the_jump(self, soft_material, params):
        """A is stored once: the A^T products run through a CSC view over
        the jump's own arrays, with the sums of a CSR transpose bit for
        bit, and the jump keeps no transpose of its own."""
        mesh = rect_strip(4.0, 2.0, 4, 2)
        _, jump, _, solver, _ = make_solver(
            mesh, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        a_t = solver._a_t
        assert a_t.format == "csc" and a_t.shape == jump.A.shape[::-1]
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(a_t, name), getattr(jump.A, name))
        assert not hasattr(jump, "A_t")
        v = np.random.default_rng(3).normal(size=jump.A.shape[0])
        assert (a_t @ v).tobytes() == (jump.A.T.tocsr() @ v).tobytes()

    def test_reduced_system_residual(self, soft_material, params):
        mesh = rect_strip(4.0, 2.0, 4, 2)
        bm, jump, stiffness, solver, dirichlet = make_solver(
            mesh, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        rng = np.random.default_rng(2)
        y = rng.normal(size=2 * jump.n_points)
        delta = rng.normal(size=2 * jump.n_points) * 1e-4
        bc = np.zeros(len(dirichlet))
        u = solver.u_update(y, delta, bc, solver.fact.coupling @ bc)
        M = stiffness + solver.rho * (jump.A.T @ jump.A)
        rhs = -(jump.A.T @ (y - solver.rho * delta))
        free = solver.fact.free
        resid = (M @ u - rhs)[free]
        assert np.linalg.norm(resid) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)


class TestDeltaUpdate:
    def test_below_activation_all_closed(self, two_triangle_square, soft_material, params):
        _, jump, _, solver, _ = make_solver(
            two_triangle_square, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        au = np.full(2 * jump.n_points, 1e-9)
        y = np.zeros(2 * jump.n_points)
        delta = solver.delta_update(
            au, y, step_context(solver, np.zeros(jump.n_points))
        )
        assert np.array_equal(delta, np.zeros(2 * jump.n_points))

    def test_separability(self, soft_material, params):
        mesh = rect_strip(4.0, 2.0, 4, 2)
        _, jump, _, solver, _ = make_solver(
            mesh, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        n = jump.n_points
        au = np.zeros(2 * n)
        y = np.zeros(2 * n)
        dm = np.zeros(n)
        local = step_context(solver, dm)
        base = solver.delta_update(au, y, local)
        y2 = y.copy()
        y2[6] = 10.0 * SC * jump.areas[3]   # drive point 3 far past activation
        changed = solver.delta_update(au, y2, local)
        diff = (changed - base).reshape(-1, 2)
        assert np.abs(diff[3]).max() > 0
        mask = np.ones(n, dtype=bool)
        mask[3] = False
        assert np.abs(diff[mask]).max() == 0.0

    def test_matches_pointwise_solver(self, soft_material, params):
        mesh = rect_strip(4.0, 2.0, 4, 2)
        _, jump, _, solver, _ = make_solver(
            mesh, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        rng = np.random.default_rng(3)
        n = jump.n_points
        au = rng.normal(size=2 * n) * 1e-4
        y = rng.normal(size=2 * n) * SC
        dm = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0, DC, size=n))
        got = solver.delta_update(au, y, step_context(solver, dm)).reshape(-1, 2)
        p = (y + solver.rho * au).reshape(-1, 2)
        for i in range(n):
            single = solve_local(p[i], jump.areas[i], dm[i], solver.rho, params)
            assert np.allclose(got[i], single, atol=1e-15)

    def test_full_vector_beats_brute_force(self, soft_material, params):
        from cohadm.cohesive import local_objective
        from cohadm.oracle import brute_force_minimum

        mesh = rect_strip(4.0, 2.0, 4, 2)
        _, jump, _, solver, _ = make_solver(
            mesh, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        rng = np.random.default_rng(7)
        n = jump.n_points
        au = rng.normal(size=2 * n) * 2e-4
        y = rng.normal(size=2 * n) * SC
        dm = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0, DC, size=n))
        got = solver.delta_update(au, y, step_context(solver, dm)).reshape(-1, 2)
        p = (y + solver.rho * au).reshape(-1, 2)
        for i in rng.choice(n, size=12, replace=False):
            mine = local_objective(
                got[i], p[i], jump.areas[i], dm[i], solver.rho, params
            )
            brute, _ = brute_force_minimum(
                p[i], jump.areas[i], dm[i], solver.rho, SC, DC, params.beta
            )
            assert mine <= brute + 1e-8 * (jump.areas[i] * SC * DC)


    def test_after_a_step_sees_the_committed_history(self, soft_material, params):
        """A context built after a step reads the history committed from it."""
        mesh = rect_strip(4.0, 2.0, 4, 2)
        bm, jump, _, solver, dirichlet = make_solver(
            mesh, soft_material, params, AdmmConfig(),
            [("left", "x"), ("pin", "y"), ("right", "x")],
        )
        bc = np.zeros(len(dirichlet))
        bc[np.isin(dirichlet, bm.dofs_of(mesh.boundary_sets["right"], "x"))] = 5e-3
        delta_max = np.zeros(jump.n_points)
        result = solver.run_step(zero_state(solver), bc, delta_max)
        commit_history(delta_max, result.state.delta, params)
        assert delta_max.max() > 0.0
        au = jump.A @ result.state.u
        got = solver.delta_update(
            au, result.state.y, step_context(solver, delta_max)
        )
        p = (result.state.y + solver.rho * au).reshape(-1, 2)
        want = solve_local_batch(
            p, LocalSolveContext(jump.areas, delta_max.copy(), solver.rho, params)
        )
        assert got.tobytes() == want.reshape(-1).tobytes()


class TestMultiplier:
    def test_fixed_point_unchanged(self):
        y = np.array([1.0, -2.0])
        au = np.array([0.5, 0.25])
        assert np.array_equal(multiplier_update(y, 7.0, au, au.copy()), y)

    def test_arithmetic(self):
        y = np.zeros(2)
        got = multiplier_update(y, 2.0, np.array([0.5, 0.0]), np.zeros(2))
        assert np.array_equal(got, [1.0, 0.0])

    def test_linear_growth(self):
        y = np.zeros(2)
        gap = np.array([0.1, -0.2])
        for k in range(1, 6):
            y = multiplier_update(y, 3.0, gap, np.zeros(2))
            assert np.allclose(y, 3.0 * k * gap, rtol=1e-14)


class TestConvergenceCheck:
    def test_fixed_point_converges(self, two_triangle_square, soft_material, params):
        _, jump, _, solver, _ = make_solver(
            two_triangle_square, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        delta = np.zeros(2 * jump.n_points)
        primal, dual = solver.check_convergence(delta, delta, delta.copy())
        assert primal == 0.0 and dual == 0.0
        assert primal < solver.config.c_primal and dual < solver.config.c_dual

    def test_primal_arithmetic(self):
        """One point with area 0.5, rho 10, gap (0.01, 0) gives 0.2."""
        from types import SimpleNamespace

        A = sp.csr_matrix(np.ones((2, 4)))
        fake = SimpleNamespace(
            rho=10.0,
            _areas2=np.repeat(np.array([0.5]), 2),
            # the solver's CSC view of A^T and its residual buffers
            _a_t=A.T,
            _primal=np.empty(2),
            _jump_step=np.empty(2),
        )
        delta = np.zeros(2)
        au = np.array([0.01, 0.0])
        primal, dual = AdmmSolver.check_convergence(fake, au, delta, delta.copy())
        assert primal == pytest.approx(0.2)
        assert dual == 0.0

    def test_zero_residual_is_positive_zero(self):
        """A residual of negative zeros has norm +0.0, so the iteration
        log reads 0, never -0; a NaN residual keeps a NaN norm."""
        import math
        from types import SimpleNamespace

        A = sp.csr_matrix(np.ones((2, 4)))
        fake = SimpleNamespace(
            rho=10.0,
            _areas2=np.repeat(np.array([0.5]), 2),
            _a_t=A.T,
            _primal=np.empty(2),
            _jump_step=np.empty(2),
        )
        negative_zero = np.array([-0.0, -0.0])
        primal, dual = AdmmSolver.check_convergence(
            fake, negative_zero, np.zeros(2), negative_zero
        )
        for norm in (primal, dual):
            assert math.copysign(1.0, norm) == 1.0
            assert f"{norm:.17g}" == "0"
        primal, dual = AdmmSolver.check_convergence(
            fake, np.array([np.nan, 1.0]), np.zeros(2), np.zeros(2)
        )
        assert math.isnan(primal) and dual == 0.0

    def test_unmoved_openings_skip_the_dual_product(self):
        """With delta == delta_prev the dual is exactly 0.0, and A^T is
        never applied."""
        from types import SimpleNamespace

        class NoProduct:
            def __matmul__(self, other):
                raise AssertionError("the dual product ran")

        fake = SimpleNamespace(
            rho=10.0,
            _areas2=np.repeat(np.array([0.5]), 2),
            _a_t=NoProduct(),
            _primal=np.empty(2),
            _jump_step=np.empty(2),
        )
        delta = np.array([0.0, -0.0])
        primal, dual = AdmmSolver.check_convergence(
            fake, np.array([0.01, 0.0]), delta, delta.copy()
        )
        assert primal == pytest.approx(0.2)
        assert dual == 0.0 and f"{dual:.17g}" == "0"

    def test_one_moved_opening_takes_the_full_product(self, soft_material, params):
        """When some opening moved, both norms are those of the full
        product, bit for bit."""
        mesh = rect_strip(4.0, 2.0, 4, 2)
        _, jump, _, solver, _ = make_solver(
            mesh, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        rng = np.random.default_rng(5)
        au = rng.normal(size=2 * jump.n_points)
        delta = np.zeros(2 * jump.n_points)
        prev = delta.copy()
        prev[3] = 1e-3
        primal, dual = solver.check_convergence(au, delta, prev)
        arep = np.repeat(jump.areas, 2)
        full_r = solver.rho * (au - delta) / arep
        full_s = solver.rho * (jump.A.T @ ((delta - prev) / arep))
        assert dual > 0.0
        assert primal == np.abs(full_r).max()
        assert dual == np.abs(full_s).max()

    def test_zero_load_run_logs_zero(self, tmp_path, soft_material, params):
        """A run that is never loaded converges at once with residuals of
        exactly zero, written as 0."""
        from cohadm.fileio import RunWriter

        mesh = rect_strip(4.0, 2.0, 4, 2)
        sched = LoadSchedule(bc_set="right", direction="x", u_end=0.0,
                             n_steps=2, fixed_sets=(("left", "x"), ("pin", "y")))
        writer = RunWriter(tmp_path)
        record = run_quasistatic(
            mesh, soft_material, params, sched, AdmmConfig(),
            setup_sink=writer.bind, step_sink=writer.on_step,
            iteration_sink=writer.on_iteration,
        )
        writer.finalize(record)
        rows = [
            line.split()
            for line in (tmp_path / "iterations.log").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert rows == [["1", "1", "0", "0"], ["2", "1", "0", "0"]]

    def test_matches_dense_recomputation(self, soft_material, params):
        mesh = rect_strip(4.0, 2.0, 4, 2)
        _, jump, _, solver, _ = make_solver(
            mesh, soft_material, params, AdmmConfig(), [("left", "xy")]
        )
        rng = np.random.default_rng(4)
        n = jump.n_points
        au = rng.normal(size=2 * n)
        delta = rng.normal(size=2 * n)
        prev = rng.normal(size=2 * n)
        primal, dual = solver.check_convergence(au, delta, prev)
        arep = np.repeat(jump.areas, 2)
        dense_r = solver.rho * (au - delta) / arep
        dense_s = solver.rho * (jump.A.T.toarray() @ ((delta - prev) / arep))
        assert np.isclose(primal, np.abs(dense_r).max(), rtol=1e-12)
        assert np.isclose(dual, np.abs(dense_s).max(), rtol=1e-10)


class TestRunStep:
    def stretch_setup(self, soft_material, params, c=0.01):
        mesh = rect_strip(4.0, 2.0, 4, 2)
        cfg = AdmmConfig(alpha=100.0, c_primal=c, c_dual=c)
        bm, jump, stiffness, solver, dirichlet = make_solver(
            mesh, soft_material, params, cfg,
            [("left", "x"), ("pin", "y"), ("right", "x")],
        )
        right = np.isin(dirichlet, bm.dofs_of(mesh.boundary_sets["right"], "x"))
        return mesh, bm, jump, stiffness, solver, dirichlet, right

    def bc_values(self, dirichlet, right_mask, value):
        bc = np.zeros(len(dirichlet))
        bc[right_mask] = value
        return bc

    def test_zero_load_step_two_iterations(self, soft_material, params):
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params
        )
        delta_max = np.zeros(jump.n_points)
        bc = self.bc_values(dirichlet, right, 1e-4)
        first = solver.run_step(zero_state(solver), bc, delta_max, step=1)
        again = solver.run_step(first.state, bc, delta_max, first.anderson, step=2)
        assert again.iterations <= 2

    def test_elastic_step_matches_conforming_fea(self, soft_material, params):
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params, c=0.001
        )
        delta_max = np.zeros(jump.n_points)
        pull = 1e-4   # far below activation
        bc = self.bc_values(dirichlet, right, pull)
        result = solver.run_step(zero_state(solver), bc, delta_max, step=1)

        bc_map = {}
        for n in mesh.boundary_sets["left"]:
            bc_map[2 * n] = 0.0
        for n in mesh.boundary_sets["right"]:
            bc_map[2 * n] = pull
        bc_map[2 * mesh.boundary_sets["pin"][0] + 1] = 0.0
        u_conf = conforming_solve(
            mesh, soft_material.youngs_modulus, soft_material.poisson_ratio,
            soft_material.mode, soft_material.thickness, bc_map,
        )
        u_mapped = np.empty(bm.n_dof)
        u_mapped[0::2] = u_conf[2 * bm.origin_of]
        u_mapped[1::2] = u_conf[2 * bm.origin_of + 1]
        tol = 10 * solver.config.c_primal * jump.areas.mean() / solver.rho
        assert np.abs(result.state.u - u_mapped).max() <= tol

    def test_dirichlet_order_follows_the_values(self, soft_material, params):
        """bc_values are matched to the Dirichlet DOFs by position, in the
        order the caller gives them."""
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params
        )
        bc = self.bc_values(dirichlet, right, 1e-4)
        given = solver.run_step(zero_state(solver), bc, np.zeros(jump.n_points))
        reversed_solver = AdmmSolver(
            stiffness, jump, params, solver.config, dirichlet[::-1], bm.nodes,
        )
        got = reversed_solver.run_step(
            zero_state(reversed_solver), bc[::-1], np.zeros(jump.n_points)
        )
        assert np.abs(got.state.u - given.state.u).max() <= 1e-12 * 1e-4
        driven = bm.dofs_of(mesh.boundary_sets["right"], "x")
        assert np.all(got.state.u[driven] == 1e-4)

    def test_closed_points_respect_activation_bound(self, soft_material, params):
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params
        )
        delta_max = np.zeros(jump.n_points)
        bc = self.bc_values(dirichlet, right, 2e-3)   # still below activation
        result = solver.run_step(zero_state(solver), bc, delta_max, step=1)
        state = result.state
        p = (state.y + solver.rho * (jump.A @ state.u - state.delta)).reshape(-1, 2)
        p_eff = np.hypot(np.maximum(p[:, 0], 0.0), p[:, 1] / params.beta)
        closed = params.effective_opening(state.delta.reshape(-1, 2)) == 0.0
        bound = jump.areas * (SC + 2 * solver.config.c_primal)
        assert np.all(p_eff[closed] <= bound[closed] + 1e-12)

    def test_nonconvergence_raises_with_context(
        self, soft_material, params, monkeypatch
    ):
        monkeypatch.setattr(admm, "MAX_ITERS", 3)
        mesh = rect_strip(4.0, 2.0, 4, 2)
        cfg = AdmmConfig(alpha=100.0, c_primal=1e-8, c_dual=1e-8)
        bm, jump, stiffness, solver, dirichlet = make_solver(
            mesh, soft_material, params, cfg,
            [("left", "x"), ("pin", "y"), ("right", "x")],
        )
        bc = np.zeros(len(dirichlet))
        bc[np.isin(dirichlet, bm.dofs_of(mesh.boundary_sets["right"], "x"))] = 0.05
        delta_max = np.zeros(jump.n_points)
        with pytest.raises(ConvergenceError) as err:
            solver.run_step(zero_state(solver), bc, delta_max, step=7)
        assert err.value.step == 7
        assert err.value.iterations == 3
        assert err.value.primal > 0 or err.value.dual > 0

    def test_nonfinite_residual_fails_fast(self, soft_material, params, monkeypatch):
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params
        )
        monkeypatch.setattr(
            AdmmSolver, "delta_update",
            lambda self, au, y, local: np.full_like(au, np.nan),
        )
        delta_max = np.zeros(jump.n_points)
        bc = self.bc_values(dirichlet, right, 1e-3)
        with pytest.raises(ConvergenceError) as err:
            solver.run_step(zero_state(solver), bc, delta_max, step=4)
        assert err.value.step == 4
        assert err.value.iterations == 1
        assert np.isnan(err.value.primal) or np.isnan(err.value.dual)

    def test_blowup_fails_fast_by_name(self, soft_material, params, monkeypatch):
        """Openings that grow tenfold per iteration raise StagnationError,
        a ConvergenceError, long before the first non-finite residual
        (about 300 iterations here), naming the least relative residual
        and where it was reached."""
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params
        )
        calls = []

        def growing(self, au, y, local):
            calls.append(None)
            return np.full_like(au, 1e-3 * 10.0 ** len(calls))

        monkeypatch.setattr(AdmmSolver, "delta_update", growing)
        bc = self.bc_values(dirichlet, right, 1e-3)
        with pytest.raises(StagnationError) as err:
            solver.run_step(zero_state(solver), bc, np.zeros(jump.n_points), step=6)
        e = err.value
        assert isinstance(e, ConvergenceError)
        assert e.step == 6
        assert e.iterations == len(calls) <= 20
        assert 1 <= e.best_iteration < e.iterations
        assert 1.0 <= e.best
        r = max(e.primal / solver.config.c_primal, e.dual / solver.config.c_dual)
        assert r > admm.BLOWUP_FACTOR * e.best
        assert str(e).startswith(f"step 6 diverged at iteration {e.iterations} ")
        assert f"at iteration {e.best_iteration}" in str(e)

    def test_stall_fails_by_name(self, soft_material, params, monkeypatch):
        """Tolerances below roundoff, without acceleration: the primal
        residual settles in its roundoff band and r sets no new least
        value, so the step fails STALL_WINDOW iterations after its last
        one, long before MAX_ITERS, and says it stalled."""
        monkeypatch.setattr(admm, "ANDERSON_WINDOW", 0)
        schedule = LoadSchedule(
            bc_set="right", direction="x", u_end=0.002, n_steps=2,
            fixed_sets=(("left", "x"), ("pin", "y")),
        )
        cfg = AdmmConfig(c_primal=1e-30, c_dual=1e-30)
        with pytest.raises(StagnationError) as err:
            run_quasistatic(rect_strip(4.0, 2.0, 4, 4), soft_material, params,
                            schedule, cfg)
        e = err.value
        assert e.iterations == e.best_iteration + admm.STALL_WINDOW
        assert e.iterations < admm.MAX_ITERS
        r = max(e.primal / cfg.c_primal, e.dual / cfg.c_dual)
        assert e.best <= r <= admm.BLOWUP_FACTOR * e.best
        assert str(e).startswith(f"step {e.step} stalled at iteration {e.iterations} ")

    def test_iteration_sink_sees_only_its_own_step(self, soft_material, params):
        """The sink is an argument of run_step: each call reports its own
        iterations to its own sink, and a call without one reports none."""
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params
        )
        delta_max = np.zeros(jump.n_points)
        bc = self.bc_values(dirichlet, right, 1e-3)
        first, second = [], []
        one = solver.run_step(zero_state(solver), bc, delta_max, step=1,
                              iteration_sink=lambda *entry: first.append(entry))
        skipped = solver.run_step(one.state, 2 * bc, delta_max, one.anderson, step=2)
        two = solver.run_step(one.state, 3 * bc, delta_max, skipped.anderson, step=3,
                              iteration_sink=lambda *entry: second.append(entry))
        for entries, step, result in ((first, 1, one), (second, 3, two)):
            iters = range(1, result.iterations + 1)
            assert [entry[:2] for entry in entries] == [(step, it) for it in iters]

    def test_restart_from_converged_state(self, soft_material, params):
        """Plain and over-relaxed maps share their fixed point."""
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params
        )
        delta_max = np.zeros(jump.n_points)
        bc = self.bc_values(dirichlet, right, 5e-3)   # past activation
        first = solver.run_step(zero_state(solver), bc, delta_max, step=1)
        assert first.iterations > 1
        commit_history(delta_max, first.state.delta, params)
        assert delta_max.max() > 0.0
        again = solver.run_step(first.state, bc, delta_max, first.anderson, step=2)
        assert again.iterations == 1
        cfg = solver.config
        tol = 10 * cfg.c_primal * jump.areas.mean() / solver.rho
        assert np.abs(again.state.u - first.state.u).max() <= tol
        assert np.abs(again.state.delta - first.state.delta).max() <= tol
        assert np.abs(again.state.y - first.state.y).max() <= (
            2 * cfg.c_primal * jump.areas.max()
        )

    def test_leaves_its_inputs_alone(self, soft_material, params):
        """A step past activation writes neither its warm start, the
        damage history nor the Anderson rows; committing is the caller's
        concern."""
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params
        )
        first = solver.run_step(
            zero_state(solver), self.bc_values(dirichlet, right, 1e-3),
            np.zeros(jump.n_points), step=1,
        )
        state0, rows = first.state, first.anderson
        delta_max = np.zeros(jump.n_points)
        inputs = (delta_max, state0.u, state0.delta, state0.y, rows.d_f, rows.d_g)
        before = [a.copy() for a in inputs]
        bc = self.bc_values(dirichlet, right, 5e-3)   # past activation
        result = solver.run_step(state0, bc, delta_max, rows, step=2)
        assert result.iterations > 1 and result.state.delta.any()
        for old, new in zip(before, inputs):
            assert new.tobytes() == old.tobytes()
        assert not delta_max.any()

    def pull_step(self, soft_material, params, pull, c):
        """One step from the pristine state, recording every iterate."""
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params, c=c
        )
        iterates = []
        plain_update = solver.delta_update

        def recorded(au, y, local):
            delta = plain_update(au, y, local)
            iterates.append((au.copy(), y.copy(), delta.copy()))
            return delta

        solver.delta_update = recorded
        delta_max = np.zeros(jump.n_points)
        bc = self.bc_values(dirichlet, right, pull)
        result = solver.run_step(zero_state(solver), bc, delta_max, step=1)
        return result, iterates, jump, solver

    def test_anderson_saves_iterations_before_activation(
        self, soft_material, params, monkeypatch
    ):
        """Same fixed point as the plain map, reached in fewer iterations."""
        c = 1e-3
        fast, _, jump, solver = self.pull_step(soft_material, params, 2e-3, c)
        monkeypatch.setattr(admm, "ANDERSON_WINDOW", 0)
        plain, _, _, _ = self.pull_step(soft_material, params, 2e-3, c)
        assert fast.iterations < plain.iterations
        tol = 10 * c * jump.areas.mean() / solver.rho
        assert np.abs(fast.state.u - plain.state.u).max() <= tol
        assert np.abs(fast.state.delta - plain.state.delta).max() <= tol
        assert np.abs(fast.state.y - plain.state.y).max() <= 2 * c * jump.areas.max()

    def test_anderson_history_carries_to_the_next_step(self, soft_material, params):
        """Two steps before activation: the second starts from the first's
        differences and reaches the fixed point of an empty history."""
        c = 1e-3
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params, c=c
        )
        delta_max = np.zeros(jump.n_points)
        first = solver.run_step(
            zero_state(solver), self.bc_values(dirichlet, right, 1e-3),
            delta_max, step=1,
        )
        commit_history(delta_max, first.state.delta, params)
        assert not delta_max.any()
        assert first.anderson.count > 0 and first.anderson.rho == solver.rho
        bc = self.bc_values(dirichlet, right, 2e-3)
        carried = solver.run_step(first.state, bc, delta_max, first.anderson, step=2)
        fresh = solver.run_step(first.state, bc, delta_max, step=2)
        assert carried.iterations <= 3 < fresh.iterations
        tol = 10 * c * jump.areas.mean() / solver.rho
        assert np.abs(carried.state.u - fresh.state.u).max() <= tol
        assert np.abs(carried.state.delta - fresh.state.delta).max() <= tol
        assert np.abs(carried.state.y - fresh.state.y).max() <= (
            2 * c * jump.areas.max()
        )

    def test_anderson_history_cleared_by_new_damage(
        self, soft_material, params, monkeypatch
    ):
        """Raised damage does not clear the rows at the step boundary, but
        the damaged point opens at the first iterate, which clears them:
        the step takes the plain map bit for bit and leaves no rows."""
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params, c=1e-3
        )
        delta_max = np.zeros(jump.n_points)
        bc = self.bc_values(dirichlet, right, 1e-3)
        first = solver.run_step(zero_state(solver), bc, delta_max, step=1)
        second = solver.run_step(first.state, bc, delta_max, first.anderson, step=2)
        state = second.state
        opened = np.zeros(2 * jump.n_points)
        opened[0] = 0.1 * params.delta_c
        commit_history(delta_max, opened, params)
        damaged = solver.run_step(state, bc, delta_max, second.anderson, step=3)
        assert second.anderson.count > 0          # the rows carry into the step
        assert damaged.iterations > 1 and damaged.anderson is None
        monkeypatch.setattr(admm, "ANDERSON_WINDOW", 0)
        plain_solver = self.stretch_setup(soft_material, params, c=1e-3)[4]
        plain = plain_solver.run_step(state, bc, delta_max, step=3)
        assert damaged.iterations == plain.iterations
        for name in ("u", "delta", "y"):
            got, want = getattr(damaged.state, name), getattr(plain.state, name)
            assert got.tobytes() == want.tobytes(), name

    def test_anderson_buffers_hold_multipliers_only(
        self, soft_material, params, monkeypatch
    ):
        """Rows, residuals and the result have one column per multiplier
        entry, and the residual is scaled by 1 / a alone."""
        _, _, jump, _, solver, dirichlet, right = self.stretch_setup(
            soft_material, params
        )
        made = []

        class Recorded(admm._Anderson):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(admm, "_Anderson", Recorded)
        result = solver.run_step(
            zero_state(solver), self.bc_values(dirichlet, right, 1e-3),
            np.zeros(jump.n_points), step=1,
        )
        rows, (anderson,) = result.anderson, made
        n = 2 * jump.n_points
        assert rows.d_f.shape == rows.d_g.shape == (admm.ANDERSON_WINDOW, n)
        for buffer in (anderson.f, anderson.f_prev, anderson.w):
            assert buffer.shape == (n,)
        assert np.array_equal(anderson.scale, 1.0 / np.repeat(jump.areas, 2))

    def test_carried_rows_stay_as_they_were(self, soft_material, params):
        """A step copies the rows it is given before its first push, and
        hands on read-only rows; rows of another penalty are dropped, so
        the step runs as from none. The second step runs at a tighter
        tolerance, on a solver of the same penalty, so that it pushes."""
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params, c=1e-3
        )
        delta_max = np.zeros(jump.n_points)
        first = solver.run_step(
            zero_state(solver), self.bc_values(dirichlet, right, 1e-3),
            delta_max, step=1,
        )
        rows = first.anderson
        kept = [a.copy() for a in (rows.d_f, rows.d_g, rows.gram)]
        tight = AdmmSolver(
            stiffness, jump, params, AdmmConfig(c_primal=1e-5, c_dual=1e-5),
            dirichlet, bm.nodes,
        )
        assert tight.rho == solver.rho
        bc = self.bc_values(dirichlet, right, 2e-3)
        second = tight.run_step(first.state, bc, delta_max, rows, step=2)
        assert second.anderson.d_f is not rows.d_f
        for a, b in zip((rows.d_f, rows.d_g, rows.gram), kept):
            assert a.tobytes() == b.tobytes() and not a.flags.writeable
        other = dataclasses.replace(rows, rho=0.5 * solver.rho)
        dropped = tight.run_step(first.state, bc, delta_max, other, step=2)
        none = tight.run_step(first.state, bc, delta_max, step=2)
        assert dropped.iterations == none.iterations > second.iterations
        for name in ("u", "delta", "y"):
            got, want = getattr(dropped.state, name), getattr(none.state, name)
            assert got.tobytes() == want.tobytes(), name

    def test_anderson_cleared_by_a_nonzero_input_opening(self, soft_material, params):
        """An iterate that starts from a nonzero opening clears the rows,
        even when the openings it produces are all zero: the step runs bit
        for bit as from no rows."""
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params, c=1e-3
        )
        plain_update = solver.delta_update
        openings = []

        def recorded(au, y, local):
            delta = plain_update(au, y, local)
            openings.append(delta.any())
            return delta

        solver.delta_update = recorded
        delta_max = np.zeros(jump.n_points)
        first = solver.run_step(
            zero_state(solver), self.bc_values(dirichlet, right, 1e-3),
            delta_max, step=1,
        )
        start = dataclasses.replace(first.state, delta=first.state.delta.copy())
        start.delta[0] = 1e-9
        openings.clear()
        bc = self.bc_values(dirichlet, right, 2e-3)
        carried = solver.run_step(start, bc, delta_max, first.anderson, step=2)
        assert first.anderson.count > 0          # the rows carry into the step
        assert not openings[0]
        fresh = solver.run_step(start, bc, delta_max, step=2)
        assert carried.iterations == fresh.iterations > 1
        for name in ("u", "delta", "y"):
            got, want = getattr(carried.state, name), getattr(fresh.state, name)
            assert got.tobytes() == want.tobytes(), name

    def test_anderson_off_while_points_load(self, soft_material, params, monkeypatch):
        """A nonzero opening at every iterate leaves the plain map bit for bit."""
        fast, seen, _, _ = self.pull_step(soft_material, params, 5e-3, 1e-3)
        monkeypatch.setattr(admm, "ANDERSON_WINDOW", 0)
        plain, seen_plain, _, _ = self.pull_step(soft_material, params, 5e-3, 1e-3)
        assert fast.iterations == plain.iterations > 1
        for got, want in zip(seen, seen_plain):
            assert got[2].any()
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        assert np.array_equal(fast.state.u, plain.state.u)
        assert np.array_equal(fast.state.delta, plain.state.delta)
        assert np.array_equal(fast.state.y, plain.state.y)

    def test_nonfinite_residual_fails_fast_when_accelerated(
        self, soft_material, params
    ):
        """The first iterate of a step given rows, with no opening in or
        out, is accelerated; a NaN in the iterate after it fails at once."""
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params, c=1e-4
        )
        delta_max = np.zeros(jump.n_points)
        first = solver.run_step(
            zero_state(solver), self.bc_values(dirichlet, right, 1e-3),
            delta_max, step=3,
        )
        plain_update = solver.delta_update
        openings = []

        def poisoned(au, y, local):
            delta = plain_update(au, y, local)
            openings.append(delta.any())
            return np.full_like(delta, np.nan) if len(openings) == 2 else delta

        solver.delta_update = poisoned
        bc = self.bc_values(dirichlet, right, 2e-3)   # before activation
        with pytest.raises(ConvergenceError) as err:
            solver.run_step(first.state, bc, delta_max, first.anderson, step=4)
        # the poisoned iterate was accelerated
        assert first.anderson.count > 0 and not first.state.delta.any()
        assert not openings[0]
        assert err.value.iterations == 2
        assert np.isnan(err.value.primal) or np.isnan(err.value.dual)

    def test_reaction_equilibrium(self, soft_material, params):
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params
        )
        delta_max = np.zeros(jump.n_points)
        bc = self.bc_values(dirichlet, right, 1e-3)
        result = solver.run_step(zero_state(solver), bc, delta_max, step=1)
        left = reaction_force(
            stiffness, jump, solver.rho, result.state,
            bm.private_nodes_of(mesh.boundary_sets["left"]),
        )
        rightf = solver.reaction(
            result.state, bm.private_nodes_of(mesh.boundary_sets["right"])
        )
        assert np.allclose(left + rightf, 0.0, atol=1e-6 * np.abs(rightf).max())

    def test_reaction_sums_rows_of_the_full_internal_force(self, soft_material, params):
        """The reaction sums the rows of its nodes, and each equals the
        row of K u + A^T (y + rho (A u - delta)) bit for bit."""
        mesh, bm, jump, stiffness, solver, dirichlet, right = self.stretch_setup(
            soft_material, params
        )
        delta_max = np.zeros(jump.n_points)
        bc = self.bc_values(dirichlet, right, 3e-3)
        state = solver.run_step(zero_state(solver), bc, delta_max, step=1).state
        full = internal_force(stiffness, jump.A, solver.rho, state)
        for name in ("right", "left", "pin"):
            nodes = bm.private_nodes_of(mesh.boundary_sets[name])
            want = np.array([full[2 * nodes].sum(), full[2 * nodes + 1].sum()])
            got = reaction_force(stiffness, jump, solver.rho, state, nodes)
            assert got.tobytes() == want.tobytes(), name

    def test_reaction_rejects_empty_set(self, soft_material, params, two_triangle_square):
        bm = break_mesh(two_triangle_square)
        jump = build_jump_operator(bm)
        stiffness = assemble_stiffness(bm, soft_material)
        state = SolverState.zeros(bm.n_dof, jump.n_points)
        with pytest.raises(ValueError, match="empty"):
            reaction_force(stiffness, jump, 1.0, state, np.zeros(0, dtype=int))

    def test_zero_state_zero_reaction(self, soft_material, params, two_triangle_square):
        bm = break_mesh(two_triangle_square)
        jump = build_jump_operator(bm)
        stiffness = assemble_stiffness(bm, soft_material)
        state = SolverState.zeros(bm.n_dof, jump.n_points)
        f = reaction_force(stiffness, jump, 1.0, state, bm.private_nodes_of([1, 2]))
        assert np.array_equal(f, [0.0, 0.0])


def test_gauss_point_permutation_invariance(soft_material, params):
    """Permuting interface point order leaves the converged step unchanged."""
    mesh = rect_strip(4.0, 2.0, 4, 2)
    bm = break_mesh(mesh)
    jump = build_jump_operator(bm, soft_material.thickness)
    stiffness = assemble_stiffness(bm, soft_material)
    cfg = AdmmConfig(alpha=100.0)
    dirichlet = np.unique(np.concatenate([
        bm.dofs_of(mesh.boundary_sets["left"], "x"),
        bm.dofs_of(mesh.boundary_sets["pin"], "y"),
        bm.dofs_of(mesh.boundary_sets["right"], "x"),
    ]))

    rng = np.random.default_rng(8)
    perm = rng.permutation(jump.n_points)
    rows = np.stack([2 * perm, 2 * perm + 1], axis=1).reshape(-1)
    jump_perm = JumpOperator(
        A=jump.A[rows],
        areas=jump.areas[perm],
        points=jump.points[perm],
    )

    pull = 8e-3   # past activation so openings are nontrivial
    results = []
    for jp in (jump, jump_perm):
        solver = AdmmSolver(stiffness, jp, params, cfg, dirichlet, bm.nodes)
        delta_max = np.zeros(jp.n_points)
        bc = np.zeros(len(dirichlet))
        bc[np.isin(dirichlet, bm.dofs_of(mesh.boundary_sets["right"], "x"))] = pull
        results.append(solver.run_step(zero_state(solver), bc, delta_max))

    base, permuted = results
    assert np.abs(base.state.u - permuted.state.u).max() <= 1e-10
    d_base = base.state.delta.reshape(-1, 2)
    d_perm = permuted.state.delta.reshape(-1, 2)
    assert np.abs(d_base[perm] - d_perm).max() <= 1e-10


def test_anderson_gram_matches_ring_buffer():
    """The one-column Gram updates equal dF dF' after the ring wraps, and
    the accelerated iterates of an affine contraction beat the plain ones."""
    rng = np.random.default_rng(9)
    n, window = 12, 3
    accel = admm._Anderson(window, rng.uniform(0.5, 2.0, size=n))
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    M = Q @ np.diag(np.linspace(0.0, 0.95, n)) @ Q.T
    b = rng.normal(size=n)
    w = np.zeros(n)
    plain = np.zeros(n)
    for _ in range(15):
        g = M @ w + b
        nxt = accel.step(w, g)
        w = g if nxt is None else nxt
        plain = M @ plain + b
    assert accel.count == window
    d_f = accel.d_f
    assert np.allclose(accel.gram, d_f @ d_f.T, rtol=0, atol=1e-12)
    fixed = np.linalg.solve(np.eye(n) - M, b)
    assert np.abs(w - fixed).max() < 0.1 * np.abs(plain - fixed).max()


def test_anderson_carried_rows_solve_a_shifted_map():
    """Differences of w -> M w + b are differences of w -> M w + b2 too,
    so carried rows reach the second fixed point sooner than a cleared
    history does."""
    rng = np.random.default_rng(10)
    n, window = 12, 5
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    M = Q @ np.diag(np.r_[0.95, 0.9, 0.8, np.zeros(n - 3)]) @ Q.T
    b1, b2 = rng.normal(size=(2, n))
    scale = rng.uniform(0.5, 2.0, size=n)

    def solve(rows, w, b):
        accel = admm._Anderson(window, scale, rows)
        fixed = np.linalg.solve(np.eye(n) - M, b)
        for it in range(1, 100):
            g = M @ w + b
            if np.abs(g - fixed).max() < 1e-8:
                return it, g, accel.rows(1.0)
            nxt = accel.step(w, g)
            w = g if nxt is None else nxt
        raise AssertionError("no convergence")

    _, w1, rows = solve(None, np.zeros(n), b1)
    with_rows, _, _ = solve(rows, w1, b2)
    without_rows, _, _ = solve(None, w1, b2)
    assert with_rows < without_rows


def reference_run_step(solver, state0, bc_values, delta_max, history):
    """One load step as the iteration computed it before the per-step
    context: A.T built for every product, a freshly checked local-solve
    context per iteration, coupling @ bc_values per solve and residuals
    from fresh temporaries. `history` is one dict per run and penalty:
    it keeps the Anderson differences of the last step at that penalty
    while delta_max is unchanged, and a new _Anderson otherwise. Commits
    nothing; returns (state, iterations).

    Its Anderson gate is the older, narrower one: it clears the rows only
    while some point is on its loading branch, and at every change of
    delta_max. The solver clears them at any nonzero opening and carries
    them across every step boundary. Equal iterates from both show that
    the simpler gate takes the same path."""
    jump, rho, params, fact = solver.jump, solver.rho, solver.params, solver.fact
    areas2 = np.repeat(jump.areas, 2)
    anderson = history.get("anderson")
    if anderson is None or not np.array_equal(history["delta_max"], delta_max):
        anderson = admm._Anderson(admm.ANDERSON_WINDOW, 1.0 / areas2)
        history.update(anderson=anderson, delta_max=delta_max.copy())
    else:
        # no difference across the step boundary
        anderson.norm_prev = anderson.g_prev = None
    u, delta, y = state0.u, state0.delta.copy(), state0.y.copy()
    for it in range(1, admm.MAX_ITERS + 1):
        rhs = -(jump.A.T @ (y - rho * delta))
        u = np.empty(jump.n_dof)
        u[fact.fixed] = bc_values
        reduced = rhs[fact.free] - fact.coupling @ bc_values
        u[fact.free] = fact.backend.solve(reduced)
        au = jump.A @ u
        au_hat = (au - delta) * admm.RELAXATION + delta
        p = (y + rho * au_hat).reshape(-1, 2)
        local = LocalSolveContext(jump.areas, delta_max, rho, params)
        delta_g = solve_local_batch(p, local)
        delta_g = delta_g.reshape(-1)
        y_g = y + rho * (au_hat - delta_g)
        r = rho * (au - delta_g) / areas2
        s = rho * (jump.A.T @ ((delta_g - delta) / areas2))
        if (
            np.abs(r).max(initial=0.0) < solver.config.c_primal
            and np.abs(s).max(initial=0.0) < solver.config.c_dual
        ):
            return SolverState(u=u, delta=delta_g, y=y_g), it
        accelerated = None
        eff = params.effective_opening(delta_g.reshape(-1, 2))
        if ((eff > 0.0) & (eff >= delta_max * (1.0 - 1e-9))).any():
            anderson.clear()
        else:
            accelerated = anderson.step(y, y_g)
        delta, y = delta_g, y_g if accelerated is None else accelerated
    raise AssertionError("reference step did not converge")


def check_every_step(monkeypatch):
    """Make AdmmSolver.run_step compare each step with the reference.

    Returns the list of per-step iteration counts and the set of
    penalties that the check fills.
    """
    run_step = AdmmSolver.run_step
    counts, penalties = [], set()
    histories = {}      # one Anderson history per penalty

    def checked(
        self, state0, bc_values, delta_max, anderson=None, step=0,
        iteration_sink=None,
    ):
        want, want_iters = reference_run_step(
            self, state0, bc_values, delta_max.copy(),
            histories.setdefault(self.rho, {}),
        )
        got = run_step(
            self, state0, bc_values, delta_max, anderson, step, iteration_sink
        )
        assert got.iterations == want_iters, f"step {step}"
        for name in ("u", "delta", "y"):
            # bytes, so that a flipped sign of zero counts as a change
            mine, ref = getattr(got.state, name), getattr(want, name)
            assert mine.tobytes() == ref.tobytes(), f"step {step}: {name}"
        counts.append(got.iterations)
        penalties.add(self.rho)
        return got

    monkeypatch.setattr(AdmmSolver, "run_step", checked)
    return counts, penalties


def test_iterates_match_reference_through_the_snap(soft_material, params, monkeypatch):
    """The fracture strip of test_driver: activation, peak, and the snap
    into one crack, the step that takes by far the most iterations."""
    counts, penalties = check_every_step(monkeypatch)
    schedule = LoadSchedule(
        bc_set="right", direction="x", u_start=0.0, u_end=0.012, n_steps=60,
        fixed_sets=(("left", "x"), ("pin", "y")),
    )
    record = run_quasistatic(
        rect_strip(4.0, 2.0, 4, 4), soft_material, params, schedule, AdmmConfig()
    )
    assert len(counts) == 60 and max(counts) > 100
    assert len(penalties) == 2
    stresses = np.asarray(record.stresses)
    assert stresses[-1] < 0.8 * stresses.max()


def test_iterates_match_reference_at_mixity_two(monkeypatch):
    """A porous plate at beta = 2 through its peak: every step takes the
    general three-candidate local solve, with opening and unloading points,
    at both the configured and the activation penalty."""
    counts, penalties = check_every_step(monkeypatch)
    material = Material(youngs_modulus=30000.0, poisson_ratio=0.2,
                        mode="plane_stress", thickness=1.0)
    mixed = CohesiveParams(sigma_c=SC, delta_c=DC, beta=2.0)
    mesh = porous_plate(
        width=10.0, height=10.0, nx=8, ny=8, n_pores=2, pore_radius=(1.0, 1.5),
        min_gap=1.0, margin=1.5, seed=4,
    )
    schedule = LoadSchedule(
        bc_set="right", direction="x", u_start=0.0, u_end=0.004, n_steps=12,
        fixed_sets=(("left", "x"), ("pin", "y")),
    )
    record = run_quasistatic(mesh, material, mixed, schedule, AdmmConfig())
    assert len(counts) == 12 and max(counts) > 50
    assert len(penalties) == 2
    stresses = np.asarray(record.stresses)
    assert stresses.argmax() < len(stresses) - 1        # past the peak
    assert (record.delta_max > 0.0).sum() > 10
