"""Tests for the Newton solvers and the two-level correction step."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dgesv

from rom2l import solvers
from rom2l.errors import (
    DimensionError,
    NoConvergence,
    RomError,
    SingularJacobian,
)
from rom2l import fem
from rom2l.fem import FeFunction, build_mesh, l2_norm, quadrature_points
from rom2l.manufactured import BurgersProblem, exact_u, forcing_f, with_parameter
from rom2l.pod import parameter_grid
from rom2l.rom import RomOperators, RomWorkspace, residual
from rom2l.solvers import (
    NewtonConfig,
    _fom_residual_jacobian,
    _solve_dense,
    fom_solve,
    make_guess,
    newton_solve,
    one_level_solve,
    two_level_solve,
)


def toy_ops(linear, quadratic, constant):
    linear = np.atleast_2d(np.asarray(linear, dtype=float))
    dim = linear.shape[0]
    quadratic = np.asarray(quadratic, dtype=float).reshape(dim, dim, dim)
    return RomOperators(
        dim=dim,
        linear=linear,
        symmetric=quadratic + quadratic.transpose(0, 2, 1),
        constant=np.asarray(constant, dtype=float).reshape(dim),
    )


class TestNewtonConfig:
    def test_defaults(self):
        cfg = NewtonConfig()
        assert cfg.tol_residual == 1e-10
        assert cfg.tol_step == 1e-10
        assert cfg.max_iter == 50

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol_residual": 0.0}, {"tol_residual": np.nan}, {"tol_step": np.nan},
         {"max_iter": 0}, {"max_iter": 2.5}],
        ids=["zero-tolerance", "nan-residual-tolerance", "nan-step-tolerance",
             "zero-max-iter", "fractional-max-iter"],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NewtonConfig(**kwargs)

    def test_solves_without_a_config_construct_none(
        self, default_problem, coarse_mesh, monkeypatch
    ):
        built = []
        init = NewtonConfig.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(NewtonConfig, "__init__", spy)
        ops = toy_ops(np.eye(2), np.zeros((2, 2, 2)), np.ones(2))
        assert newton_solve(ops, np.zeros(2)).iterations == 1
        fom_solve(coarse_mesh, default_problem)
        assert built == []


class TestNewtonSolve:
    def test_linear_problem_takes_one_step(self, rng):
        # With no quadratic term Newton solves the system in a single
        # applied step from any start.
        matrix = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        ops = toy_ops(matrix, np.zeros((3, 3, 3)), rng.standard_normal(3))
        out = newton_solve(ops, rng.standard_normal(3))
        assert out.iterations == 1
        assert out.final_residual_norm <= 1e-10
        np.testing.assert_allclose(
            out.coeffs, np.linalg.solve(matrix, -ops.constant), atol=1e-12
        )

    def test_exact_start_applies_no_steps(self, rng):
        matrix = np.eye(2) * 3.0
        ops = toy_ops(matrix, np.zeros((2, 2, 2)), [-3.0, -6.0])
        out = newton_solve(ops, np.array([1.0, 2.0]))
        assert out.iterations == 0
        assert out.iterations <= 2
        np.testing.assert_array_equal(out.coeffs, [1.0, 2.0])

    def test_scalar_quadratic(self):
        # a + a^2 - 2 = 0 from a0 = 3 converges to the root a = 1 well
        # inside the budget.
        ops = toy_ops([[1.0]], [[[1.0]]], [-2.0])
        out = newton_solve(ops, np.array([3.0]))
        assert out.coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert out.iterations <= 7

    def test_quadratic_convergence_rate(self):
        # Once in the basin, the residual squares each step:
        # ||r_{k+1}|| / ||r_k||^2 stays bounded. Guard against the
        # rounding floor by only comparing residuals above 1e-13.
        ops = toy_ops([[1.0]], [[[1.0]]], [-2.0])
        out = newton_solve(ops, np.array([3.0]))
        hist = out.residual_history
        checked = 0
        for rk, rk1 in zip(hist[:-1], hist[1:]):
            if rk1 <= 1e-13 * hist[0] or rk <= 0.0:
                continue
            assert rk1 / rk**2 <= 1e3
            checked += 1
        assert checked >= 3

    def test_residual_history_shape(self, rng):
        ops = toy_ops(np.eye(2), np.zeros((2, 2, 2)), rng.standard_normal(2))
        out = newton_solve(ops, rng.standard_normal(2))
        assert len(out.residual_history) == out.iterations + 1
        assert out.residual_history[-1] == out.final_residual_norm

    def test_no_convergence_carries_the_last_iterate(self):
        ops = toy_ops([[1.0]], [[[1.0]]], [-2.0])
        with pytest.raises(NoConvergence) as excinfo:
            newton_solve(ops, np.array([3.0]), NewtonConfig(max_iter=1))
        err = excinfo.value
        assert err.last_iterate.shape == (1,)
        # one applied step from 3: 3 - 10/7
        assert err.last_iterate[0] == pytest.approx(3.0 - 10.0 / 7.0, abs=1e-12)
        assert err.residual_norm > 0.0

    def test_singular_jacobian(self):
        ops = toy_ops([[0.0]], [[[0.0]]], [1.0])
        with pytest.raises(SingularJacobian):
            newton_solve(ops, np.array([0.0]))

    def test_overflow_raises_no_convergence(self):
        # The symmetrized tensor 2e308 already overflows.
        with np.errstate(over="ignore"):
            ops = toy_ops([[1.0]], [[[1e308]]], [0.0])
            with pytest.raises(NoConvergence, match="non-finite"):
                newton_solve(ops, np.array([1e10]))

    @pytest.mark.parametrize("n", [5, 23])
    def test_dense_step_matches_numpy(self, rng, n):
        # The same LU with partial pivoting as np.linalg.solve, but NumPy
        # and SciPy may link different LAPACK builds, so agreement is to
        # round-off.
        matrix = rng.standard_normal((n, n))
        rhs = rng.standard_normal(n)
        expected = np.linalg.solve(matrix, rhs)
        np.testing.assert_allclose(
            _solve_dense(matrix, rhs),
            expected,
            rtol=0,
            atol=1e-12 * np.max(np.abs(expected)),
        )

    def test_start_vector_length_is_checked(self):
        ops = toy_ops(np.eye(2), np.zeros((2, 2, 2)), np.ones(2))
        with pytest.raises(DimensionError):
            newton_solve(ops, np.zeros(3))


class _CountingTensor(np.ndarray):
    """Array that counts its ``@`` contractions; the products are plain arrays."""

    matmuls = 0

    def __matmul__(self, other):
        type(self).matmuls += 1
        return np.asarray(self) @ other


def _reference_newton(ops, a0, cfg=NewtonConfig()):
    """Newton iteration written from the formulas, one contraction of
    ``S`` in the residual and one in the Jacobian, with NumPy norms and
    a fresh iterate per step; returns coefficients, applied steps and
    the residual history."""
    a, history = np.array(a0, dtype=float), []
    for steps in range(cfg.max_iter + 1):
        res = ops.linear @ a + 0.5 * (ops.symmetric @ a @ a) + ops.constant
        jac = ops.linear + ops.symmetric @ a
        res_norm = float(np.linalg.norm(res))
        history.append(res_norm)
        step = dgesv(jac, res)[2]
        if res_norm <= cfg.tol_residual and np.linalg.norm(step) <= cfg.tol_step:
            return a, steps, tuple(history)
        a = a - step
    raise AssertionError("reference Newton did not converge")


class TestNewtonKernel:
    def test_one_contraction_per_evaluated_iterate(
        self, coarse_basis, default_problem
    ):
        ops = RomWorkspace(coarse_basis, 8, default_problem.nu).operators(
            with_parameter(default_problem, 0.7), 8
        )
        counted = replace(ops, symmetric=ops.symmetric.view(_CountingTensor))
        _CountingTensor.matmuls = 0
        out = newton_solve(counted, make_guess("ug", 8))
        assert out.iterations >= 3
        # The converged iterate is evaluated too, without a step applied.
        assert _CountingTensor.matmuls == out.iterations + 1

    @pytest.mark.parametrize("guess", ["ug", "ig", "avg"])
    @pytest.mark.parametrize("q", [-2.5, 0.37, 3.0])
    def test_matches_the_formula_bit_for_bit(
        self, coarse_basis, default_problem, guess, q
    ):
        ops = RomWorkspace(coarse_basis, 8, default_problem.nu).operators(
            with_parameter(default_problem, q), 7
        )
        a0 = make_guess(guess, 7)
        coeffs, steps, history = _reference_newton(ops, a0)
        out = newton_solve(ops, a0)
        assert out.iterations == steps
        assert out.residual_history == history
        np.testing.assert_array_equal(out.coeffs, coeffs)
        np.testing.assert_array_equal(a0, make_guess(guess, 7))


class TestMakeGuess:
    def test_alternating_guess(self):
        np.testing.assert_array_equal(
            make_guess("ug", 5), [1.0, -1.0, 1.0, 0.0, 0.0]
        )

    def test_intermediate_guess_is_half(self):
        np.testing.assert_array_equal(
            make_guess("ig", 6), 0.5 * make_guess("ug", 6)
        )

    def test_average_guess_is_zero(self):
        np.testing.assert_array_equal(make_guess("avg", 4), np.zeros(4))
        np.testing.assert_array_equal(make_guess("avg", 1), [0.0])

    def test_case_insensitive(self):
        np.testing.assert_array_equal(make_guess("UG", 5), make_guess("ug", 5))

    @pytest.mark.parametrize("r", [2, 3, 4, 7, 12, 23, 30])
    def test_alternating_pattern_is_exact(self, r):
        expected = np.zeros(r)
        expected[: r - 2] = (-1.0) ** np.arange(r - 2)
        np.testing.assert_array_equal(make_guess("ug", r), expected)

    def test_too_short_for_alternating(self):
        with pytest.raises(DimensionError):
            make_guess("ug", 1)

    @pytest.mark.parametrize(
        "kind, r", [("avg", 0), ("avg", 2.5), ("ug", 4.0), ("ig", None)]
    )
    def test_length_outside_the_dimension_rule(self, kind, r):
        with pytest.raises(DimensionError):
            make_guess(kind, r)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_guess("random", 5)


class TestOneLevelSolve:
    def test_residual_is_driven_down(self, coarse_basis, default_problem):
        out = one_level_solve(coarse_basis, 8, default_problem, "avg")
        assert out.final_residual_norm <= 1e-10

    def test_deterministic(self, coarse_basis, default_problem):
        prob = with_parameter(default_problem, 0.7)
        first = one_level_solve(coarse_basis, 8, prob, "ug")
        second = one_level_solve(coarse_basis, 8, prob, "ug")
        np.testing.assert_array_equal(first.coeffs, second.coeffs)
        assert first.iterations == second.iterations

    def test_explicit_vector_guess(self, coarse_basis, default_problem, rng):
        a0 = rng.standard_normal(6) * 0.1
        out = one_level_solve(coarse_basis, 6, default_problem, a0)
        with pytest.raises(DimensionError):
            one_level_solve(coarse_basis, 6, default_problem, np.zeros(5))

    @pytest.mark.parametrize(
        "solve",
        [
            lambda basis, prob, **kw: one_level_solve(basis, 8, prob, "avg", **kw),
            lambda basis, prob, **kw: two_level_solve(basis, 4, 8, prob, "avg", **kw)[1],
        ],
        ids=["1L", "2L"],
    )
    def test_workspace_reuse_changes_nothing(
        self, coarse_basis, default_problem, solve
    ):
        ws = RomWorkspace(coarse_basis, 8, default_problem.nu)
        direct = solve(coarse_basis, default_problem)
        shared = solve(coarse_basis, default_problem, workspace=ws)
        np.testing.assert_array_equal(direct.coeffs, shared.coeffs)
        assert direct.iterations == shared.iterations
        assert direct.final_residual_norm == shared.final_residual_norm
        assert direct.residual_history == shared.residual_history

    def test_solves_without_a_workspace_assemble_one(
        self, coarse_basis, default_problem, workspace_builds
    ):
        # Both models at two values of q share the workspace that
        # rom.shared_workspace keeps for (basis, 8, nu).
        for q in (-0.5, 1.25):
            prob = with_parameter(default_problem, q)
            one_level_solve(coarse_basis, 8, prob, "ug")
            two_level_solve(coarse_basis, 4, 8, prob, "ug")
        assert workspace_builds == [(coarse_basis, 8, default_problem.nu)]

    def test_workspace_must_match_basis(
        self, coarse_basis, default_problem, coarse_mesh
    ):
        from rom2l.pod import compute_pod, generate_snapshots, parameter_grid

        other = compute_pod(
            generate_snapshots(
                default_problem, parameter_grid(-4.0, 4.0, 1.0), coarse_mesh
            )
        )
        ws = RomWorkspace(other, 4, default_problem.nu)
        with pytest.raises(ValueError) as excinfo:
            one_level_solve(coarse_basis, 4, default_problem, "avg", workspace=ws)
        assert isinstance(excinfo.value, RomError)

    def test_workspace_dimension_bound(self, coarse_basis, default_problem):
        ws = RomWorkspace(coarse_basis, 4, default_problem.nu)
        with pytest.raises(DimensionError):
            one_level_solve(coarse_basis, 8, default_problem, "avg", workspace=ws)
        for workspace in (ws, None):
            with pytest.raises(DimensionError):
                one_level_solve(
                    coarse_basis, 3.5, default_problem, "avg", None, workspace
                )


class TestTwoLevelSolve:
    def test_correction_stage_reports_one_iteration(
        self, coarse_basis, default_problem
    ):
        stage1, stage2 = two_level_solve(coarse_basis, 4, 10, default_problem, "avg")
        assert stage2.iterations == 1
        assert stage1.iterations >= 1

    def test_correction_improves_on_the_coarse_stage(
        self, coarse_basis, default_problem
    ):
        prob = with_parameter(default_problem, 0.5)
        mesh = coarse_basis.mesh
        exact = exact_u(prob, mesh.nodes)
        from rom2l.pod import lift

        stage1, stage2 = two_level_solve(coarse_basis, 4, 12, prob, "avg")
        err1 = l2_norm(
            FeFunction(mesh=mesh, coeffs=lift(coarse_basis, stage1.coeffs).coeffs - exact)
        )
        err2 = l2_norm(
            FeFunction(mesh=mesh, coeffs=lift(coarse_basis, stage2.coeffs).coeffs - exact)
        )
        assert err2 < err1

    @pytest.mark.parametrize("guess", ["ug", "avg"])
    def test_coarse_stage_is_the_one_level_solve(
        self, coarse_basis, default_problem, guess
    ):
        # Both models run through one routine, so on one workspace the
        # coarse stage at r is the one-level solve at r, bit for bit.
        ws = RomWorkspace(coarse_basis, 10, default_problem.nu)
        for q in (-1.5, 0.37, 2.0):
            prob = with_parameter(default_problem, q)
            one = one_level_solve(coarse_basis, 6, prob, guess, None, ws)
            stage1, _ = two_level_solve(coarse_basis, 6, 10, prob, guess, None, ws)
            np.testing.assert_array_equal(stage1.coeffs, one.coeffs)
            assert stage1.iterations == one.iterations
            assert stage1.residual_history == one.residual_history

    def test_degenerate_dimensions_are_a_fixed_point(
        self, coarse_basis, default_problem
    ):
        one = one_level_solve(coarse_basis, 8, default_problem, "avg")
        stage1, stage2 = two_level_solve(coarse_basis, 8, 8, default_problem, "avg")
        np.testing.assert_allclose(stage2.coeffs, one.coeffs, atol=1e-10)
        np.testing.assert_allclose(stage1.coeffs, one.coeffs, atol=1e-12)

    def test_coarse_dimension_bound(self, coarse_basis, default_problem):
        for r, big_r in ((9, 8), (0, 8), (2.5, 8), (4.0, 8), (4, 8.0)):
            with pytest.raises(DimensionError):
                two_level_solve(coarse_basis, r, big_r, default_problem, "avg")
        numpy_dims = two_level_solve(
            coarse_basis, np.int64(4), np.int64(8), default_problem, "ug"
        )
        plain = two_level_solve(coarse_basis, 4, 8, default_problem, "ug")
        np.testing.assert_array_equal(numpy_dims[1].coeffs, plain[1].coeffs)

    def test_singular_correction_jacobian(self, coarse_basis, default_problem):
        # Rows 4.. of A zero and S zero: stage 1 at r = 4 is a regular
        # linear solve, but the Jacobian at the padded vector is singular.
        ws = RomWorkspace(coarse_basis, 8, default_problem.nu)
        ws.linear[4:, :] = 0.0
        ws.symmetric[:] = 0.0
        with pytest.raises(SingularJacobian, match="correction"):
            two_level_solve(
                coarse_basis, 4, 8, default_problem, "avg", None, ws
            )

    def test_guess_quality_orders_the_iteration_counts(
        self, reference_basis, default_problem
    ):
        # The alternating start is far from the solution, the mean start
        # is close, so stage-1 Newton works harder from the former.
        ug_total = avg_total = 0
        for q in (-2.0, -0.5, 1.0, 2.5):
            prob = with_parameter(default_problem, q)
            ug, _ = two_level_solve(reference_basis, 16, 25, prob, "ug")
            avg, _ = two_level_solve(reference_basis, 16, 25, prob, "avg")
            ug_total += ug.iterations
            avg_total += avg.iterations
        assert ug_total > avg_total


class TestFomSolve:
    def test_manufactured_solution_is_recovered(self, default_problem):
        mesh = build_mesh(-4.0, 4.0, 0.25)
        u_h = fom_solve(mesh, default_problem)
        err = l2_norm(
            FeFunction(
                mesh=mesh, coeffs=u_h.coeffs - exact_u(default_problem, mesh.nodes)
            )
        )
        assert err < 1e-4
        assert err > 1e-9  # sanity: the discrete solve is not exact

    @staticmethod
    def linearize(mesh, prob, u):
        """Residual and element Jacobian at ``u``, as one Newton iterate of
        :func:`fom_solve` forms them."""
        f_quad = forcing_f(prob, quadrature_points(mesh)[0])
        diffusion = fem.element_matrices(mesh, dd=prob.nu)
        return _fom_residual_jacobian(mesh, prob, u, f_quad, diffusion)

    def test_element_jacobian_matches_central_differences(
        self, default_problem, rng, elements_to_dense
    ):
        # The interior residual is quadratic in the nodal values, so central
        # differences are exact up to rounding; entries no element couples
        # must come out as zero.
        mesh = build_mesh(-4.0, 4.0, 0.25)
        prob = with_parameter(default_problem, 0.3)
        u = exact_u(prob, mesh.nodes) + 0.1 * rng.standard_normal(mesh.n_nodes)
        _, mats = self.linearize(mesh, prob, u)
        dense = elements_to_dense(mats)
        n = mesh.n_nodes - 2
        eps = 1e-6
        fd = np.empty((n, n))
        for j in range(n):
            e = np.zeros(mesh.n_nodes)
            e[j + 1] = eps
            plus, _ = self.linearize(mesh, prob, u + e)
            minus, _ = self.linearize(mesh, prob, u - e)
            fd[:, j] = (plus - minus) / (2.0 * eps)
        assert np.linalg.norm(dense - fd) / np.linalg.norm(dense) <= 1e-8

    @pytest.mark.parametrize("nu", [1.0, 0.3])
    def test_newton_step_matches_a_dense_jacobian(self, default_problem, rng, nu):
        # Residual and Jacobian assembled densely from the shape values at
        # the quadrature points, V[g, j] = phi_j(x_g) and D[g, j] =
        # phi_j'(x_g): the condensed step equals a dense solve of them.
        mesh = build_mesh(-4.0, 4.0, 0.25)
        prob = with_parameter(replace(default_problem, nu=nu), -0.7)
        u = exact_u(prob, mesh.nodes) + 0.1 * rng.standard_normal(mesh.n_nodes)
        V, D = fem.eval_at_quadrature(mesh, np.eye(mesh.n_nodes))
        x, w = quadrature_points(mesh)
        uq, duq = V @ u, D @ u
        res = nu * D.T @ (w * duq) + V.T @ (w * (uq * duq - forcing_f(prob, x)))
        jac = nu * D.T @ (w[:, None] * D) + V.T @ (
            (w * duq)[:, None] * V + (w * uq)[:, None] * D
        )
        oracle = np.linalg.solve(jac[1:-1, 1:-1], res[1:-1])
        res_h, mats = self.linearize(mesh, prob, u)
        np.testing.assert_allclose(
            res_h, res[1:-1], rtol=0, atol=1e-13 * np.max(np.abs(res))
        )
        step = fem.solve_interior(mats, res_h)
        np.testing.assert_allclose(
            step, oracle, rtol=0, atol=1e-11 * np.max(np.abs(oracle))
        )

    def test_newton_matches_a_dense_step_oracle(
        self, default_problem, coarse_mesh, elements_to_dense, monkeypatch
    ):
        # The same Newton loop, each step a dense LU of the assembled
        # Jacobian, takes as many steps to the same coefficients.
        outcomes = []
        newton = solvers._newton

        def spy(*args):
            outcomes.append(newton(*args))
            return outcomes[-1]

        def dense_step(mats, res):
            return np.linalg.solve(elements_to_dense(mats), res)

        monkeypatch.setattr(solvers, "_newton", spy)
        for q in parameter_grid(-4.0, 4.0, 0.5):
            prob = with_parameter(default_problem, q)
            u_h = fom_solve(coarse_mesh, prob)
            ends = [coarse_mesh.a, coarse_mesh.b], [prob.alpha, prob.beta]
            u = np.interp(coarse_mesh.nodes, *ends)
            oracle = newton(
                u,
                lambda u: self.linearize(coarse_mesh, prob, u),
                dense_step,
                u[1:-1],
                NewtonConfig(),
                "",
            )
            assert outcomes[-1].iterations == oracle.iterations
            np.testing.assert_allclose(u_h.coeffs, oracle.coeffs, rtol=0, atol=1e-13)

    def test_singular_jacobian_names_its_iteration(self, default_problem, monkeypatch):
        # A Jacobian whose vertex rows and columns vanish: the condensed
        # solve's error reaches the caller as a singular full-order step.
        def vertices_decoupled(*args):
            res, mats = _fom_residual_jacobian(*args)
            mats[[0, 1, 2, 3, 5, 6, 7, 8]] = 0.0
            return res, mats

        monkeypatch.setattr(solvers, "_fom_residual_jacobian", vertices_decoupled)
        mesh = build_mesh(-4.0, 4.0, 0.5)
        with pytest.raises(SingularJacobian) as excinfo:
            fom_solve(mesh, default_problem)
        assert str(excinfo.value) == "singular full-order Jacobian at iteration 0"
        assert "of the vertex system" in str(excinfo.value.__cause__)

    def test_boundary_values_are_exact(self, default_problem):
        mesh = build_mesh(-4.0, 4.0, 0.5)
        u_h = fom_solve(mesh, default_problem)
        assert u_h.coeffs[0] == default_problem.alpha
        assert u_h.coeffs[-1] == default_problem.beta

    def test_far_bump_reduces_to_the_linear_profile(self, default_problem):
        # With the bump far outside the domain the linear profile solves
        # the problem, and it is also the Newton starting point.
        mesh = build_mesh(-4.0, 4.0, 0.5)
        prob = with_parameter(default_problem, -50.0)
        u_h = fom_solve(mesh, prob)
        lin = 1.0 - 0.25 * (mesh.nodes + 4.0)
        np.testing.assert_allclose(u_h.coeffs, lin, atol=1e-9)

    def test_deterministic(self, default_problem):
        mesh = build_mesh(-4.0, 4.0, 0.5)
        a = fom_solve(mesh, default_problem)
        b = fom_solve(mesh, default_problem)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_no_convergence_budget(self, default_problem):
        mesh = build_mesh(-4.0, 4.0, 0.25)
        with pytest.raises(NoConvergence) as excinfo:
            fom_solve(mesh, default_problem, NewtonConfig(max_iter=1))
        assert excinfo.value.last_iterate.shape == (mesh.n_nodes,)

    def test_non_finite_boundary_data(self):
        # Refused with the problem, before any solve can start from it.
        with pytest.raises(ValueError, match="boundary values must be finite"):
            BurgersProblem(alpha=np.nan)

    def test_non_finite_forcing(self):
        # A finite problem whose forcing overflows: with sigma = 1e-300
        # the envelope's derivatives are inf * 0 away from q.
        mesh = build_mesh(-4.0, 4.0, 0.25)
        with pytest.raises(NoConvergence, match="non-finite after 0 steps") as excinfo:
            with np.errstate(over="ignore", invalid="ignore"):
                fom_solve(mesh, BurgersProblem(sigma=1e-300))
        assert excinfo.value.last_iterate.shape == (mesh.n_nodes,) == (65,)
