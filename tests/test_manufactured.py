"""Tests for the manufactured solution family and its forcing."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import simpson

from rom2l.fem import build_mesh, evaluate, interpolate
from rom2l.manufactured import (
    BurgersProblem,
    exact_u,
    forcing_f,
    with_parameter,
)


class TestSolutionFamily:
    def test_boundary_values_for_any_bump_center(self, default_problem):
        for q in (-4.0, -1.3, 0.0, 2.7, 4.0):
            prob = with_parameter(default_problem, q)
            # The sine carrier vanishes at both endpoints, so the bump
            # never disturbs the boundary data.
            assert exact_u(prob, prob.a) == pytest.approx(prob.alpha, abs=1e-14)
            assert exact_u(prob, prob.b) == pytest.approx(prob.beta, abs=1e-14)

    def test_center_value(self, default_problem):
        # At x = 0 with q = 0 the linear profile vanishes and the bump
        # contributes 1/(sqrt(2 pi) * 0.5) * sin(pi/2).
        assert exact_u(default_problem, 0.0) == pytest.approx(
            0.7978845608, abs=1e-9
        )

    def test_vectorized_and_scalar_calls_agree(self, default_problem):
        xs = np.linspace(-4.0, 4.0, 11)
        vec = exact_u(default_problem, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert exact_u(default_problem, x) == v

    def test_with_parameter_only_moves_the_bump(self, default_problem):
        moved = with_parameter(default_problem, 1.5)
        assert moved.q == 1.5
        assert moved.nu == default_problem.nu
        assert moved.sigma == default_problem.sigma
        assert default_problem.q == 0.0  # original untouched

    def test_validation(self):
        with pytest.raises(ValueError):
            BurgersProblem(nu=0.0)
        with pytest.raises(ValueError):
            BurgersProblem(sigma=-1.0)
        with pytest.raises(ValueError):
            BurgersProblem(a=4.0, b=-4.0)


class TestForcing:
    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_forcing_against_finite_difference_operator(self, nu):
        # Independent check: apply -nu u'' + u u' with centered
        # differences on the closed-form u and compare to forcing_f.
        # Two viscosities separate the diffusion term from the
        # convection term, so both derivatives are pinned.
        prob = BurgersProblem(nu=nu)
        xs = np.linspace(-3.5, 3.5, 29)
        eps = 1e-5
        u = exact_u(prob, xs)
        du = (exact_u(prob, xs + eps) - exact_u(prob, xs - eps)) / (2.0 * eps)
        d2u = (exact_u(prob, xs + eps) - 2.0 * u + exact_u(prob, xs - eps)) / eps**2
        oracle = -nu * d2u + u * du
        np.testing.assert_allclose(forcing_f(prob, xs), oracle, atol=1e-4)

    def test_forcing_scales_with_viscosity(self):
        # f = -nu u'' + u u' and u does not depend on nu, so the forcing
        # is affine in nu: f(3) - f(2) = f(2) - f(1) = -u''.
        xs = np.linspace(-4.0, 4.0, 17)
        f1, f2, f3 = (forcing_f(BurgersProblem(nu=nu), xs) for nu in (1.0, 2.0, 3.0))
        np.testing.assert_allclose(f3 - f2, f2 - f1, atol=1e-12)

    def test_far_away_bump_leaves_the_linear_profile(self, default_problem):
        # With the bump centered far outside the interval the solution
        # collapses to the linear boundary profile and the forcing to
        # its pure convection term.
        prob = with_parameter(default_problem, -50.0)
        xs = np.linspace(-4.0, 4.0, 33)
        lin = 1.0 - 0.25 * (xs + 4.0)
        np.testing.assert_allclose(exact_u(prob, xs), lin, atol=1e-12)
        np.testing.assert_allclose(forcing_f(prob, xs), lin * (-0.25), atol=1e-12)


class TestInterpolationAccuracy:
    def test_fine_mesh_interpolation_error(self, default_problem):
        # Nodal interpolation on the 3201-node mesh, measured against a
        # high-resolution composite Simpson oracle, stays below 1e-6.
        mesh = build_mesh(-4.0, 4.0, 1.0 / 200.0)
        u_h = interpolate(mesh, lambda x: exact_u(default_problem, x))
        xs = np.linspace(-4.0, 4.0, 1_000_001)
        diff = evaluate(u_h, xs) - exact_u(default_problem, xs)
        err = np.sqrt(simpson(diff**2, x=xs))
        assert err < 1e-6
