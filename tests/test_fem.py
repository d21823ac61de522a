"""Tests for the quadratic finite element layer."""

from __future__ import annotations

import numpy as np
import pytest

from rom2l import fem
from rom2l.checks import IDENTITY_MAX
from rom2l.errors import InvalidMesh, MeshMismatch, SingularJacobian
from rom2l.fem import (
    FeFunction,
    build_mesh,
    element_connectivity,
    element_matrices,
    eval_at_quadrature,
    interior_band,
    interior_load,
    l2_norm,
    quadrature_points,
    solve_interior,
    trilinear_b,
)


def fe_from(mesh, coeffs):
    return FeFunction(mesh=mesh, coeffs=np.asarray(coeffs, dtype=float))


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

    def test_built_once_per_mesh_and_read_only(self, coarse_mesh):
        x, w = quadrature_points(coarse_mesh)
        again = quadrature_points(coarse_mesh)
        assert again[0] is x and again[1] is w
        assert not (x.flags.writeable or w.flags.writeable)

    def test_weights_sum_to_interval_length(self, coarse_mesh):
        _, w = quadrature_points(coarse_mesh)
        assert np.sum(w) == pytest.approx(8.0, rel=1e-14)

    def test_derivative_of_interpolated_quadratic(self, coarse_mesh):
        nodes = coarse_mesh.nodes
        p = fe_from(coarse_mesh, nodes**2 - 3.0 * nodes + 1.0)
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
        u = fe_from(coarse_mesh, 2.0 * coarse_mesh.nodes - 1.0)
        _, du = eval_at_quadrature(coarse_mesh, u.coeffs)
        assert np.max(np.abs(interior_load(coarse_mesh, 0, du))) < 1e-12
        p = fe_from(coarse_mesh, coarse_mesh.nodes**2)
        _, dp = eval_at_quadrature(coarse_mesh, p.coeffs)
        np.testing.assert_allclose(
            interior_load(coarse_mesh, 0, dp),
            -2.0 * interior_load(coarse_mesh, 1.0, 0),
            rtol=1e-12,
        )

    def test_interior_matrices_are_positive_definite(self, band_to_dense):
        mesh = build_mesh(0.0, 1.0, 0.125)
        for band in (interior_band(mesh, vv=1.0), interior_band(mesh, dd=1.0)):
            eigs = np.linalg.eigvalsh(band_to_dense(band))
            assert eigs.min() > 0.0

    def test_interior_blocks_match_full_matrices(self, coarse_mesh, rng, band_to_dense):
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


    def test_element_matrices_add_by_coefficient(self, coarse_mesh, rng):
        vv, vd, dd = rng.standard_normal((3, 3 * coarse_mesh.n_elems))
        parts = [
            element_matrices(coarse_mesh, vv=vv),
            element_matrices(coarse_mesh, vd=vd),
            element_matrices(coarse_mesh, dd=dd),
        ]
        np.testing.assert_array_equal(
            element_matrices(coarse_mesh, vv=vv, vd=vd, dd=dd),
            parts[0] + parts[1] + parts[2],
        )
        assert element_matrices(coarse_mesh).shape == (9, coarse_mesh.n_elems)
        assert not element_matrices(coarse_mesh).any()
        with pytest.raises(MeshMismatch):
            element_matrices(coarse_mesh, vv=vv[:-3])


class TestSolveInterior:
    """The condensed solve of element matrices against a dense LU of the
    band they assemble to."""

    @staticmethod
    def random_problem(n_elems, rng):
        # Random values at the quadrature points, with a diffusion term
        # in [1, 2) so the systems are well conditioned.
        mesh = build_mesh(0.0, 1.0, 1.0 / n_elems)
        vv, vd = rng.standard_normal((2, 3 * n_elems))
        return mesh, {"vv": vv, "vd": vd, "dd": 1.0 + rng.random(3 * n_elems)}

    @classmethod
    def random_mats(cls, n_elems, rng):
        mesh, coefs = cls.random_problem(n_elems, rng)
        return element_matrices(mesh, **coefs)

    @pytest.mark.parametrize("n_elems", [1, 2, 3, 32])
    def test_matches_a_dense_solve(self, n_elems, rng, band_to_dense):
        mesh, coefs = self.random_problem(n_elems, rng)
        mats = element_matrices(mesh, **coefs)
        rhs = rng.standard_normal(2 * n_elems - 1)
        inputs = mats.copy(), rhs.copy()
        x = solve_interior(mats, rhs)
        oracle = np.linalg.solve(band_to_dense(interior_band(mesh, **coefs)), rhs)
        scale = np.max(np.abs(oracle))
        np.testing.assert_allclose(x, oracle, rtol=0, atol=1e-12 * scale)
        # LAPACK overwrites only the solver's own temporaries.
        np.testing.assert_array_equal(mats, inputs[0])
        np.testing.assert_array_equal(rhs, inputs[1])

    @pytest.mark.parametrize("n_elems", [1, 3])
    def test_zero_midside_pivot(self, n_elems, rng):
        mats = self.random_mats(n_elems, rng)
        mats[4, n_elems // 2] = 0.0
        with pytest.raises(SingularJacobian, match=f"zero pivot at midside {n_elems // 2}$"):
            solve_interior(mats, np.ones(2 * n_elems - 1))

    @pytest.mark.parametrize("n_elems", [2, 4])
    def test_singular_vertex_system(self, n_elems, rng):
        # No vertex row or column couples to anything, so the vertex
        # system left after condensation is zero: every entry but the
        # midside-midside one (row 3 * 1 + 1) vanishes.
        mats = self.random_mats(n_elems, rng)
        mats[[0, 1, 2, 3, 5, 6, 7, 8]] = 0.0
        with pytest.raises(SingularJacobian, match="of the vertex system"):
            solve_interior(mats, np.ones(2 * n_elems - 1))

    def test_rejects_a_layout_of_the_wrong_shape(self, rng):
        mats = self.random_mats(3, rng)
        with pytest.raises(MeshMismatch):
            solve_interior(mats, np.ones(4))
        with pytest.raises(MeshMismatch):
            solve_interior(mats[:, :2], np.ones(4))
        # The five diagonals of an interior band are not element matrices.
        band = interior_band(build_mesh(0.0, 1.0, 1.0 / 3), vv=1.0)
        with pytest.raises(MeshMismatch):
            solve_interior(band, np.ones(5))


class TestInterpolationAndNorms:
    def test_quadratic_reproduction(self, coarse_mesh):
        # Quadratics lie in the FE space, so the interpolant matches the
        # function at the quadrature points to rounding.
        nodes = coarse_mesh.nodes
        p = fe_from(coarse_mesh, 0.5 * nodes**2 + nodes - 2.0)
        x, w = quadrature_points(coarse_mesh)
        vals, _ = eval_at_quadrature(coarse_mesh, p.coeffs)
        defect = np.sqrt(np.sum(w * (vals - (0.5 * x**2 + x - 2.0)) ** 2))
        scale = l2_norm(p)
        assert defect <= 1e-12 * scale

    def test_l2_norm_of_sine(self):
        # || sin(pi x) ||_{L2(0,1)} = 1/sqrt(2); the interpolation error
        # at h = 1/50 is far below the assertion tolerance.
        mesh = build_mesh(0.0, 1.0, 0.02)
        u = fe_from(mesh, np.sin(np.pi * mesh.nodes))
        assert l2_norm(u) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-6)

class TestTrilinearForm:
    def test_hand_computed_value(self):
        # One element on [0, 1]: u = x, v = x^2, w = 1 gives
        # integral of x * 2x * 1 = 2/3, exactly representable and
        # exactly integrated.
        mesh = build_mesh(0.0, 1.0, 1.0)
        u = fe_from(mesh, mesh.nodes)
        v = fe_from(mesh, mesh.nodes**2)
        w = fe_from(mesh, np.ones(mesh.n_nodes))
        assert trilinear_b(u, v, w) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_mesh_mismatch_is_rejected(self, coarse_mesh):
        other = build_mesh(-4.0, 4.0, 0.5)
        u = fe_from(coarse_mesh, np.sin(coarse_mesh.nodes))
        v = fe_from(other, np.sin(other.nodes))
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
            assert abs(lhs - rhs) <= IDENTITY_MAX * (abs(lhs) + 1.0)

    def test_cyclic_identity_for_zero_boundary_functions(self, coarse_mesh, rng):
        # Integrating (u v w)' over the interval gives zero when the
        # product vanishes at the boundary, hence
        # b(v, u, w) + b(u, v, w) + b(u, w, v) = 0. The integrand has
        # degree five, so the identity is quadrature-exact.
        for _ in range(20):
            u, v, w = (random_fe(coarse_mesh, rng, zero_boundary=True) for _ in range(3))
            total = trilinear_b(v, u, w) + trilinear_b(u, v, w) + trilinear_b(u, w, v)
            scale = abs(trilinear_b(u, v, w)) + 1.0
            assert abs(total) <= IDENTITY_MAX * scale
