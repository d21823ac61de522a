"""Tests for the quadratic finite element layer."""

from __future__ import annotations

import numpy as np
import pytest

from rom2l import fem
from rom2l.errors import InvalidMesh, MeshMismatch
from rom2l.fem import (
    FeFunction,
    build_mesh,
    element_connectivity,
    eval_at_quadrature,
    evaluate,
    interior_band,
    interior_load,
    interpolate,
    l2_norm,
    quadrature_points,
    trilinear_b,
)


def fe_from(mesh, coeffs):
    return FeFunction(mesh=mesh, coeffs=np.asarray(coeffs, dtype=float))


def band_to_dense(band):
    """Dense matrix of a ``(5, n)`` band with ``band[2 + i - j, j] = M[i, j]``."""
    n = band.shape[1]
    dense = np.zeros((n, n))
    for d in range(-2, 3):  # d = i - j
        j = np.arange(max(0, -d), min(n, n - d))
        dense[j + d, j] = band[2 + d, j]
    return dense


def random_fe(mesh, rng, zero_boundary=False):
    coeffs = rng.standard_normal(mesh.n_nodes)
    if zero_boundary:
        coeffs[0] = coeffs[-1] = 0.0
    return fe_from(mesh, coeffs)


class TestMesh:
    def test_node_count_and_spacing(self):
        mesh = build_mesh(-4.0, 4.0, 1.0 / 200.0)
        assert mesh.n_elems == 1600
        assert mesh.n_nodes == 3201
        assert mesh.nodes[0] == -4.0
        assert mesh.nodes[-1] == 4.0
        spacing = np.diff(mesh.nodes)
        np.testing.assert_allclose(spacing, mesh.h / 2.0, rtol=1e-12)

    def test_single_element(self):
        mesh = build_mesh(1.0, 2.0, 1.0)
        np.testing.assert_allclose(mesh.nodes, [1.0, 1.5, 2.0])
        np.testing.assert_array_equal(element_connectivity(mesh), [[0, 1, 2]])

    def test_rejects_bad_intervals(self):
        with pytest.raises(InvalidMesh):
            build_mesh(1.0, 1.0, 0.1)
        with pytest.raises(InvalidMesh):
            build_mesh(2.0, 1.0, 0.1)
        with pytest.raises(InvalidMesh):
            build_mesh(0.0, 1.0, -0.5)

    def test_rejects_non_dividing_element_size(self):
        with pytest.raises(InvalidMesh):
            build_mesh(0.0, 1.0, 0.3)

    def test_coefficient_length_is_checked(self, coarse_mesh):
        with pytest.raises(MeshMismatch):
            FeFunction(mesh=coarse_mesh, coeffs=np.zeros(coarse_mesh.n_nodes - 1))


class TestQuadrature:
    def test_exact_through_degree_five(self):
        # One element on [1, 2]; the 3-point rule must integrate
        # x^0 .. x^5 exactly and x^6 inexactly.
        mesh = build_mesh(1.0, 2.0, 1.0)
        x, w = quadrature_points(mesh)
        for k in range(6):
            exact = (2.0 ** (k + 1) - 1.0) / (k + 1)
            assert np.sum(w * x**k) == pytest.approx(exact, rel=1e-14)
        exact6 = (2.0**7 - 1.0) / 7.0
        assert abs(np.sum(w * x**6) - exact6) > 1e-8

    def test_weights_sum_to_interval_length(self, coarse_mesh):
        _, w = quadrature_points(coarse_mesh)
        assert np.sum(w) == pytest.approx(8.0, rel=1e-14)

    def test_derivative_of_interpolated_quadratic(self, coarse_mesh):
        p = interpolate(coarse_mesh, lambda x: x**2 - 3.0 * x + 1.0)
        x, _ = quadrature_points(coarse_mesh)
        vals, ders = eval_at_quadrature(coarse_mesh, p.coeffs)
        np.testing.assert_allclose(vals, x**2 - 3.0 * x + 1.0, atol=1e-12)
        np.testing.assert_allclose(ders, 2.0 * x - 3.0, atol=1e-12)


class TestAssembledForms:
    """The interior band and load, the one assembly path of the FE layer."""

    def test_mass_total_is_interval_length(self, coarse_mesh):
        # The shapes sum to one, so their integrals total the interval
        # length; the two boundary vertex shapes, h / 6 each, are not
        # interior.
        total = interior_load(coarse_mesh, 1.0, 0.0).sum()
        assert total + coarse_mesh.h / 3.0 == pytest.approx(8.0, rel=1e-13)

    def test_mass_diagonal_entries(self):
        # Hand-derived element integrals: the midside shape integrates
        # to 8h/15 against itself, the vertex shape to 2h/15 per
        # element, so an interior vertex (two elements) carries 4h/15.
        # Nodes 1 and 2 are interior nodes 0 and 1.
        h = 0.5
        mesh = build_mesh(0.0, 2.0, h)
        mass = interior_band(mesh, vv=1.0)
        assert mass[2, 0] == pytest.approx(8.0 * h / 15.0, rel=1e-14)
        assert mass[2, 1] == pytest.approx(4.0 * h / 15.0, rel=1e-14)

    def test_mass_midside_entry_against_quadrature_oracle(self):
        # Independent oracle: 50-point Gauss-Legendre on the midside
        # shape (1 - xi^2)^2 over one element.
        h = 0.5
        mesh = build_mesh(0.0, 2.0, h)
        xi, wts = np.polynomial.legendre.leggauss(50)
        oracle = 0.5 * h * np.sum(wts * (1.0 - xi**2) ** 2)
        assert interior_band(mesh, vv=1.0)[2, 0] == pytest.approx(oracle, rel=1e-14)

    def test_stiffness_annihilates_linears_in_the_interior(self, coarse_mesh):
        # (u', phi_i') = -(u'', phi_i) for interior shapes: zero for a
        # linear u, and -2 (1, phi_i) for u = x^2.
        u = interpolate(coarse_mesh, lambda x: 2.0 * x - 1.0)
        _, du = eval_at_quadrature(coarse_mesh, u.coeffs)
        assert np.max(np.abs(interior_load(coarse_mesh, 0, du))) < 1e-12
        p = interpolate(coarse_mesh, lambda x: x**2)
        _, dp = eval_at_quadrature(coarse_mesh, p.coeffs)
        np.testing.assert_allclose(
            interior_load(coarse_mesh, 0, dp),
            -2.0 * interior_load(coarse_mesh, 1.0, 0),
            rtol=1e-12,
        )

    def test_interior_matrices_are_positive_definite(self):
        mesh = build_mesh(0.0, 1.0, 0.125)
        for band in (interior_band(mesh, vv=1.0), interior_band(mesh, dd=1.0)):
            eigs = np.linalg.eigvalsh(band_to_dense(band))
            assert eigs.min() > 0.0

    def test_interior_blocks_match_full_matrices(self, coarse_mesh, rng):
        # Dense oracle from the shapes at the quadrature points:
        # V[g, j] = phi_j(x_g), D[g, j] = phi_j'(x_g), for random
        # coefficients at the quadrature points.
        V, D = eval_at_quadrature(coarse_mesh, np.eye(coarse_mesh.n_nodes))
        _, w = quadrature_points(coarse_mesh)
        vv, vd, dd, v, d = rng.standard_normal((5, w.size))
        full = (
            V.T @ ((w * vv)[:, None] * V)
            + V.T @ ((w * vd)[:, None] * D)
            + D.T @ ((w * dd)[:, None] * D)
        )
        band = interior_band(coarse_mesh, vv=vv, vd=vd, dd=dd)
        scale = np.max(np.abs(full))
        np.testing.assert_allclose(
            band_to_dense(band), full[1:-1, 1:-1], rtol=0, atol=1e-14 * scale
        )
        # The corner slots of the layout hold no matrix entry.
        corners = [band[0, :2], band[1, :1], band[3, -1:], band[4, -2:]]
        assert not np.any(np.concatenate(corners))
        load = V.T @ (w * v) + D.T @ (w * d)
        np.testing.assert_allclose(
            interior_load(coarse_mesh, v, d),
            load[1:-1],
            rtol=0,
            atol=1e-14 * np.max(np.abs(load)),
        )


class TestInterpolationAndNorms:
    def test_interpolate_hits_nodal_values(self, coarse_mesh):
        u = interpolate(coarse_mesh, np.sin)
        np.testing.assert_array_equal(u.coeffs, np.sin(coarse_mesh.nodes))

    def test_interpolate_accepts_scalar_only_callables(self, coarse_mesh):
        import math

        u = interpolate(coarse_mesh, lambda x: math.cos(x))
        np.testing.assert_allclose(u.coeffs, np.cos(coarse_mesh.nodes), rtol=1e-15)

    def test_quadratic_reproduction(self, coarse_mesh):
        # Quadratics lie in the FE space, so the interpolant matches the
        # function at the quadrature points to rounding.
        p = interpolate(coarse_mesh, lambda x: 0.5 * x**2 + x - 2.0)
        x, w = quadrature_points(coarse_mesh)
        vals, _ = eval_at_quadrature(coarse_mesh, p.coeffs)
        defect = np.sqrt(np.sum(w * (vals - (0.5 * x**2 + x - 2.0)) ** 2))
        scale = l2_norm(p)
        assert defect <= 1e-12 * scale

    def test_l2_norm_of_sine(self):
        # || sin(pi x) ||_{L2(0,1)} = 1/sqrt(2); the interpolation error
        # at h = 1/50 is far below the assertion tolerance.
        mesh = build_mesh(0.0, 1.0, 0.02)
        u = interpolate(mesh, lambda x: np.sin(np.pi * x))
        assert l2_norm(u) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-6)

    def test_evaluate_at_nodes_returns_coefficients(self, coarse_mesh, rng):
        u = random_fe(coarse_mesh, rng)
        np.testing.assert_allclose(
            evaluate(u, coarse_mesh.nodes), u.coeffs, atol=1e-12
        )

    def test_evaluate_rejects_outside_points(self, coarse_mesh, rng):
        u = random_fe(coarse_mesh, rng)
        with pytest.raises(ValueError):
            evaluate(u, np.array([4.5]))

    def test_evaluate_scalar_input(self, coarse_mesh):
        u = interpolate(coarse_mesh, lambda x: x)
        assert evaluate(u, 0.3) == pytest.approx(0.3, abs=1e-13)


class TestTrilinearForm:
    def test_hand_computed_value(self):
        # One element on [0, 1]: u = x, v = x^2, w = 1 gives
        # integral of x * 2x * 1 = 2/3, exactly representable and
        # exactly integrated.
        mesh = build_mesh(0.0, 1.0, 1.0)
        u = interpolate(mesh, lambda x: x)
        v = interpolate(mesh, lambda x: x**2)
        w = interpolate(mesh, lambda x: np.ones_like(x))
        assert trilinear_b(u, v, w) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_mesh_mismatch_is_rejected(self, coarse_mesh):
        other = build_mesh(-4.0, 4.0, 0.5)
        u = interpolate(coarse_mesh, np.sin)
        v = interpolate(other, np.sin)
        with pytest.raises(MeshMismatch):
            trilinear_b(u, v, v)

    def test_splitting_identity(self, coarse_mesh, rng):
        # Bilinearity in the first two slots gives
        # b(u, u, w) = b(u, ur, w) + b(ur, u, w) - b(ur, ur, w)
        #              + b(u - ur, u - ur, w)
        # for arbitrary u, ur, w.
        for _ in range(100):
            u, ur, w = (random_fe(coarse_mesh, rng) for _ in range(3))
            diff = fe_from(coarse_mesh, u.coeffs - ur.coeffs)
            lhs = trilinear_b(u, u, w)
            rhs = (
                trilinear_b(u, ur, w)
                + trilinear_b(ur, u, w)
                - trilinear_b(ur, ur, w)
                + trilinear_b(diff, diff, w)
            )
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)

    def test_cyclic_identity_for_zero_boundary_functions(self, coarse_mesh, rng):
        # Integrating (u v w)' over the interval gives zero when the
        # product vanishes at the boundary, hence
        # b(v, u, w) + b(u, v, w) + b(u, w, v) = 0. The integrand has
        # degree five, so the identity is quadrature-exact.
        for _ in range(20):
            u, v, w = (random_fe(coarse_mesh, rng, zero_boundary=True) for _ in range(3))
            total = trilinear_b(v, u, w) + trilinear_b(u, v, w) + trilinear_b(u, w, v)
            scale = abs(trilinear_b(u, v, w)) + 1.0
            assert abs(total) <= 1e-12 * scale
