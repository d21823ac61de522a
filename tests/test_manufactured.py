"""Tests for the manufactured solution family and its forcing."""

from __future__ import annotations

import numpy as np
import pytest

from rom2l import rom, solvers
from rom2l.fem import build_mesh, eval_at_quadrature, quadrature_points
from rom2l.manufactured import (
    BurgersProblem,
    Carrier,
    carrier,
    exact_family,
    exact_u,
    forcing_f,
    with_parameter,
)
from rom2l.pod import generate_snapshots, parameter_grid
from rom2l.rom import RomWorkspace


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
        for nu in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                BurgersProblem(nu=nu)
        with pytest.raises(ValueError):
            BurgersProblem(sigma=-1.0)
        for sigma in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                BurgersProblem(sigma=sigma)
        with pytest.raises(ValueError):
            BurgersProblem(a=4.0, b=-4.0)
        for ends in ({"a": -np.inf}, {"b": np.inf}, {"a": np.nan}):
            with pytest.raises(ValueError, match="interval ends must be finite"):
                BurgersProblem(**ends)
        for value in ({"alpha": np.nan}, {"alpha": np.inf}, {"beta": -np.inf}):
            with pytest.raises(ValueError, match="boundary values must be finite"):
                BurgersProblem(**value)
        # A non-integral k leaves the carrier nonzero at b, so exact_u
        # would miss beta there: at k = 1.5 it was -1.484, not -1.
        for k in (1.5, 1.0, 0, -2, "1", None):
            with pytest.raises(ValueError, match="positive integer"):
                BurgersProblem(k=k)
        assert BurgersProblem(k=np.int64(3)).k == 3


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
        # Nodal interpolation on the 3201-node mesh, measured off the
        # nodes at the Gauss points of every element, stays below 1e-6.
        mesh = build_mesh(-4.0, 4.0, 1.0 / 200.0)
        u_h = exact_u(default_problem, mesh.nodes)
        x, w = quadrature_points(mesh)
        vals, _ = eval_at_quadrature(mesh, u_h)
        err = np.sqrt(w @ (vals - exact_u(default_problem, x)) ** 2)
        assert err < 1e-6


# Parameter values of the bit-identity checks: the 801 snapshot grid
# values and 1024 off-grid ones, the centres of 1024 equal cells of the
# interval (the fresh-parameter table of perfbench's fresh-avg workload).
GRID_Q = parameter_grid(-4.0, 4.0, 0.01)
FRESH_Q = -4.0 + 8.0 * (np.arange(1024) + 0.5) / 1024


@pytest.fixture(scope="module")
def fine_mesh():
    return build_mesh(-4.0, 4.0, 1.0 / 200.0)


@pytest.fixture()
def forcing_samples(monkeypatch):
    """List of ``(prob, x, f)`` for every ``forcing_f`` call that the
    workspace and the full-order solver make while the test runs."""
    calls = []

    def spy(prob, x):
        f = forcing_f(prob, x)
        calls.append((prob, x, f))
        return f

    monkeypatch.setattr(rom, "forcing_f", spy)
    monkeypatch.setattr(solvers, "forcing_f", spy)
    return calls


def assert_read_only(held: Carrier):
    for name in ("x", "lin", "s", "ds", "d2s"):
        assert not getattr(held, name).flags.writeable, name


class TestCarrier:
    def test_held_and_one_off_calls_are_bit_identical(self, default_problem, fine_mesh):
        xq, _ = quadrature_points(fine_mesh)
        at_quad = carrier(default_problem.carrier_key, xq)
        at_nodes = carrier(default_problem.carrier_key, fine_mesh.nodes)
        for q in np.concatenate([GRID_Q, FRESH_Q]):
            prob = with_parameter(default_problem, q)
            assert np.array_equal(forcing_f(prob, at_quad), forcing_f(prob, xq))
            assert np.array_equal(exact_u(prob, at_quad), exact_u(prob, xq))
            assert np.array_equal(
                exact_u(prob, at_nodes), exact_u(prob, fine_mesh.nodes)
            )

    def test_snapshots_are_exact_u_column_by_column(self, default_problem, fine_mesh):
        # The reference snapshot set: 801 grid values on the 3201 nodes.
        snaps = generate_snapshots(default_problem, GRID_Q, fine_mesh)
        for j, q in enumerate(GRID_Q):
            column = exact_u(with_parameter(default_problem, q), fine_mesh.nodes)
            assert np.array_equal(snaps.matrix[:, j], column)

    def test_family_of_one_value_is_a_column(self, default_problem):
        xs = np.linspace(-4.0, 4.0, 9)
        prob = with_parameter(default_problem, 0.3)
        family = exact_family(default_problem, 0.3, xs)
        assert family.shape == (9, 1)
        assert np.array_equal(family[:, 0], exact_u(prob, xs))

    def test_arrays_are_read_only_copies(self, default_problem):
        xs = np.linspace(-4.0, 4.0, 9)
        held = carrier(default_problem.carrier_key, xs)
        assert_read_only(held)
        assert xs.flags.writeable and not np.shares_memory(held.x, xs)

    def test_carrier_of_another_key_is_refused(self, default_problem):
        held = carrier(default_problem.carrier_key, np.linspace(-4.0, 4.0, 9))
        for change in ({"k": 2}, {"alpha": 2.0}, {"b": 5.0}):
            prob = BurgersProblem(**change)
            for sample in (forcing_f, exact_u):
                with pytest.raises(ValueError, match="carrier built for"):
                    sample(prob, held)
        # The key leaves out what only the envelope and the forcing read.
        other = BurgersProblem(nu=2.0, sigma=0.3, q=1.0)
        assert np.array_equal(forcing_f(other, held), forcing_f(other, held.x))


class TestHeldCarrierNeverGoesStale:
    """A holder serves ``k = 1`` and then ``k = 2`` on the same interval
    and boundary values; each sample must be the one-off one."""

    def test_workspace(self, coarse_basis, default_problem, forcing_samples):
        ws = RomWorkspace(coarse_basis, 6, default_problem.nu)
        for k, q in ((1, 0.37), (2, 0.37), (2, -1.1), (1, 0.37)):
            prob = BurgersProblem(k=k, q=q)
            load = ws.forcing_values(prob)
            f = forcing_f(prob, ws.quad_x)
            assert np.array_equal(load, ws.constant_base - ws.load_map @ f)
        assert len(forcing_samples) == 4
        for prob, held, f in forcing_samples:
            assert held.key == prob.carrier_key
            assert np.array_equal(f, forcing_f(prob, ws.quad_x))
            assert_read_only(held)
        # One carrier per run of equal keys: k = 2 reuses the one it built.
        held = [x for _, x, _ in forcing_samples]
        assert held[1] is held[2] and held[0] is not held[1] is not held[3]

    def test_full_order_solve(self, coarse_mesh, forcing_samples):
        xq, _ = quadrature_points(coarse_mesh)
        for k in (1, 2, 1):
            solvers.fom_solve(coarse_mesh, BurgersProblem(k=k, q=0.37))
        assert len(forcing_samples) == 3
        for prob, held, f in forcing_samples:
            assert held.key == prob.carrier_key
            assert np.array_equal(f, forcing_f(prob, xq))
            assert_read_only(held)
        # Held per mesh and key: k = 1 comes back to the carrier it built.
        assert forcing_samples[0][1] is forcing_samples[2][1]
