"""Tests for the Galerkin-reduced operators.

The centerpiece is an independent oracle: a slow, element-by-element
quadrature routine written directly from the shape function formulas,
against which the vectorized operator assembly is compared entry by
entry.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rom2l
from rom2l import fem, rom
from rom2l.errors import DimensionError, MeshMismatch, RomError, WorkspaceMismatch
from rom2l.manufactured import forcing_f, with_parameter
from rom2l.rom import (
    RomOperators,
    RomWorkspace,
    jacobian,
    residual,
    restrict,
    two_level_matrix_rhs,
)


def oracle_quadrature(mesh, coeff_columns, f_values, nu, n_points=8):
    """Slow reference assembly of the reduced operators.

    Integrates with an ``n_points`` Gauss-Legendre rule per element and
    literal shape function expressions, independent of the package's
    tabulated 3-point machinery. ``coeff_columns`` holds the mean in
    column 0 and the modes after it; ``f_values`` is the forcing
    callable.
    """
    xi, wts = np.polynomial.legendre.leggauss(n_points)
    shapes = np.stack(
        [0.5 * xi * (xi - 1.0), 1.0 - xi**2, 0.5 * xi * (xi + 1.0)], axis=1
    )
    dshapes = np.stack([xi - 0.5, -2.0 * xi, xi + 0.5], axis=1)
    n_modes = coeff_columns.shape[1] - 1
    lin = np.zeros((n_modes, n_modes))
    quad = np.zeros((n_modes, n_modes, n_modes))
    const = np.zeros(n_modes)
    h = mesh.h
    for e in range(mesh.n_elems):
        dofs = [2 * e, 2 * e + 1, 2 * e + 2]
        mid = 0.5 * (mesh.nodes[dofs[0]] + mesh.nodes[dofs[2]])
        x = mid + 0.5 * h * xi
        w = 0.5 * h * wts
        vals = shapes @ coeff_columns[dofs]  # (n_points, 1 + n_modes)
        ders = (2.0 / h) * (dshapes @ coeff_columns[dofs])
        mean_v, mean_d = vals[:, 0], ders[:, 0]
        phi_v, phi_d = vals[:, 1:], ders[:, 1:]
        f_at = f_values(x)
        for i in range(n_modes):
            const[i] += np.sum(
                w * (nu * mean_d * phi_d[:, i] + mean_v * mean_d * phi_v[:, i])
            )
            const[i] -= np.sum(w * f_at * phi_v[:, i])
            for j in range(n_modes):
                lin[i, j] += np.sum(
                    w
                    * (
                        nu * phi_d[:, j] * phi_d[:, i]
                        + mean_v * phi_d[:, j] * phi_v[:, i]
                        + phi_v[:, j] * mean_d * phi_v[:, i]
                    )
                )
                for k in range(n_modes):
                    quad[i, j, k] += np.sum(
                        w * phi_v[:, j] * phi_d[:, k] * phi_v[:, i]
                    )
    return lin, quad, const


@pytest.fixture(scope="module")
def workspace(coarse_basis):
    """One workspace at the full coarse rank; each dimension is a view of it."""
    return RomWorkspace(coarse_basis, coarse_basis.rank, coarse_basis.problem.nu)


def central_differences(fun, x, eps=1e-6):
    """Jacobian of ``fun`` at ``x`` by central differences, column by column."""
    columns = []
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = eps
        columns.append((fun(x + e) - fun(x - e)) / (2.0 * eps))
    return np.column_stack(columns)


class TestOperatorAssembly:
    def test_against_independent_quadrature_oracle(self, coarse_basis):
        # Two modes on a coarse mesh, checked against the slow oracle.
        # The forcing is a cubic polynomial so every integrand stays
        # within the exactness degree of both quadrature rules and the
        # comparison is rounding-tight.
        prob = with_parameter(coarse_basis.problem, 0.5)
        poly = lambda x: 0.3 * x**3 - x + 2.0
        ws = RomWorkspace(coarse_basis, 2, prob.nu)
        ops = ws.operators(prob, 2)
        b_poly = ws.constant_base - ws.load_map @ poly(ws.quad_x)
        columns = np.column_stack(
            [coarse_basis.mean.coeffs, coarse_basis.modes[:, :2]]
        )
        lin, quad, const = oracle_quadrature(
            coarse_basis.mesh, columns, poly, prob.nu
        )
        np.testing.assert_allclose(ops.linear, lin, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            ops.symmetric, quad + quad.transpose(0, 2, 1), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(b_poly, const, rtol=0, atol=1e-12)

    def test_quadratic_tensor_cyclic_identity(self, workspace, default_problem):
        # For zero-boundary modes the product rule gives
        # B[i,j,k] + B[i,k,j] + B[j,k,i] = 0: the integrands sum to
        # (phi_i phi_j phi_k)', a degree-five polynomial integrated
        # exactly, and the boundary term vanishes. So S[i,j,k] = -B[j,k,i],
        # and with B symmetric in its first two slots
        # S[i,j,k] + S[j,k,i] + S[k,i,j] = 0.
        S = workspace.operators(default_problem, 5).symmetric
        total = S + np.transpose(S, (1, 2, 0)) + np.transpose(S, (2, 0, 1))
        assert np.max(np.abs(total)) <= 1e-13 * np.max(np.abs(S))

    def test_nested_blocks(self, coarse_basis, default_problem):
        # Two workspaces assembled apart, so that the blocks can differ.
        nu = default_problem.nu
        small = RomWorkspace(coarse_basis, 3, nu).operators(default_problem, 3)
        big = RomWorkspace(coarse_basis, 7, nu).operators(default_problem, 7)
        scale = np.max(np.abs(big.linear))
        assert np.max(np.abs(small.linear - big.linear[:3, :3])) <= 1e-13 * scale
        scale_s = np.max(np.abs(big.symmetric))
        assert (
            np.max(np.abs(small.symmetric - big.symmetric[:3, :3, :3]))
            <= 1e-13 * scale_s
        )
        np.testing.assert_allclose(
            small.constant, big.constant[:3], rtol=0, atol=1e-13 * scale
        )


class TestResidualAndJacobian:
    def test_residual_at_zero_is_the_constant_term(self, workspace, default_problem):
        ops = workspace.operators(default_problem, 6)
        np.testing.assert_array_equal(residual(ops, np.zeros(6)), ops.constant)

    def test_matches_full_order_weak_residual(self, coarse_basis, workspace, rng):
        # The reduced residual at a must equal the modal projection of
        # the full-order weak residual of the lifted function. This
        # exercises operators, lifting corrections, and forcing at once.
        prob = with_parameter(coarse_basis.problem, -0.75)
        r = 4
        ops = workspace.operators(prob, r)
        a = rng.standard_normal(r)
        reduced = residual(ops, a)

        mesh = coarse_basis.mesh
        u = coarse_basis.mean.coeffs + coarse_basis.modes[:, :r] @ a
        x, w = fem.quadrature_points(mesh)
        u_v, u_d = fem.eval_at_quadrature(mesh, u)
        phi_v, phi_d = fem.eval_at_quadrature(mesh, coarse_basis.modes[:, :r])
        full = (
            prob.nu * phi_d.T @ (w * u_d)
            + phi_v.T @ (w * (u_v * u_d - forcing_f(prob, x)))
        )
        scale = max(1.0, float(np.max(np.abs(full))))
        np.testing.assert_allclose(reduced, full, rtol=0, atol=1e-11 * scale)

    def test_jacobian_against_central_differences(self, coarse_basis, workspace, rng):
        prob = with_parameter(coarse_basis.problem, 0.9)
        ops = workspace.operators(prob, 6)
        a = rng.standard_normal(6)
        jac = jacobian(ops, a)
        fd = central_differences(lambda x: residual(ops, x), a)
        defect = np.linalg.norm(jac - fd) / np.linalg.norm(jac)
        assert defect <= 1e-8

    def test_jacobian_of_a_strided_nonsymmetric_tensor(self, rng):
        # S of a random B, which has no symmetry in its first two slots;
        # as the leading block of a larger tensor it is a non-contiguous
        # view, like the workspace's operators below r_max.
        big = rng.standard_normal((7, 7, 7))
        big_sym = big + big.transpose(0, 2, 1)
        view = RomOperators(
            dim=5,
            linear=rng.standard_normal((5, 5)),
            symmetric=big_sym[:5, :5, :5],
            constant=rng.standard_normal(5),
        )
        assert not view.symmetric.flags.c_contiguous
        copy = RomOperators(
            dim=5,
            linear=view.linear,
            symmetric=np.ascontiguousarray(view.symmetric),
            constant=view.constant,
        )
        a = rng.standard_normal(5)
        jac = jacobian(view, a)
        np.testing.assert_array_equal(jac, jacobian(copy, a))
        fd = central_differences(lambda x: residual(view, x), a)
        assert np.linalg.norm(jac - fd) / np.linalg.norm(jac) <= 1e-8

    def test_held_contraction_gives_the_same_residual_and_jacobian(
        self, workspace, default_problem, rng
    ):
        # The Newton iteration hands in ``S a`` it already holds; the
        # result must equal the self-contracting form bit for bit, here
        # on a workspace view below r_max and on the strided leading
        # block of a tensor with no symmetry in its first two slots.
        big = rng.standard_normal((7, 7, 7))
        strided = RomOperators(
            dim=5,
            linear=rng.standard_normal((5, 5)),
            symmetric=(big + big.transpose(0, 2, 1))[:5, :5, :5],
            constant=rng.standard_normal(5),
        )
        view = workspace.operators(default_problem, 4)
        assert not strided.symmetric.flags.c_contiguous
        assert not view.symmetric.flags.c_contiguous
        for ops in (view, strided):
            a = rng.standard_normal(ops.dim)
            sa = ops.symmetric @ a
            np.testing.assert_array_equal(residual(ops, a, sa), residual(ops, a))
            np.testing.assert_array_equal(jacobian(ops, a, sa), jacobian(ops, a))

    def test_taylor_expansion_is_exact(
        self, coarse_basis, workspace, default_problem, convection_tensor, rng
    ):
        # The residual is quadratic, so
        # residual(a + d) - residual(a) - J(a) d = B : (d x d) exactly.
        ops = workspace.operators(default_problem, 5)
        a, d = rng.standard_normal(5), rng.standard_normal(5)
        lhs = residual(ops, a + d) - residual(ops, a) - jacobian(ops, a) @ d
        rhs = (convection_tensor(coarse_basis, 5) @ d) @ d
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_dimension_checks(self, workspace, default_problem):
        ops = workspace.operators(default_problem, 4)
        with pytest.raises(DimensionError):
            residual(ops, np.zeros(5))
        with pytest.raises(DimensionError):
            jacobian(ops, np.zeros(3))


class TestTwoLevelSystem:
    def test_zero_coarse_solution(self, workspace, default_problem):
        ops = workspace.operators(default_problem, 6)
        matrix, rhs = two_level_matrix_rhs(ops, np.zeros(3))
        np.testing.assert_array_equal(matrix, ops.linear)
        np.testing.assert_array_equal(rhs, -ops.constant)

    def test_matrix_is_the_jacobian_at_the_padded_point(
        self, workspace, default_problem, rng
    ):
        ops = workspace.operators(default_problem, 7)
        a_r = rng.standard_normal(3)
        matrix, rhs = two_level_matrix_rhs(ops, a_r)
        padded = np.zeros(7)
        padded[:3] = a_r
        np.testing.assert_array_equal(matrix, jacobian(ops, padded))
        # Consistency: M a - rhs telescopes to the residual at the
        # padded point, which makes an exact coarse solution a fixed
        # point of the correction step.
        np.testing.assert_allclose(
            matrix @ padded - rhs,
            residual(ops, padded),
            rtol=0,
            atol=1e-12 * np.max(np.abs(ops.constant)),
        )

    def test_rejects_oversized_coarse_vectors(self, workspace, default_problem):
        ops = workspace.operators(default_problem, 4)
        with pytest.raises(DimensionError):
            two_level_matrix_rhs(ops, np.zeros(5))


class TestWorkspace:
    def test_operators_are_leading_views(self, coarse_basis, default_problem):
        ws = RomWorkspace(coarse_basis, 8, default_problem.nu)
        ops = ws.operators(default_problem, 5)
        assert np.shares_memory(ops.linear, ws.linear)
        np.testing.assert_array_equal(ops.linear, ws.linear[:5, :5])
        assert np.shares_memory(ops.symmetric, ws.symmetric)
        np.testing.assert_array_equal(ops.symmetric, ws.symmetric[:5, :5, :5])
        small = restrict(ops, 3)
        assert np.shares_memory(small.symmetric, ws.symmetric)
        np.testing.assert_array_equal(small.symmetric, ws.symmetric[:3, :3, :3])

    def test_symmetric_tensor_is_b_plus_its_slot_transpose(
        self, coarse_basis, default_problem, convection_tensor
    ):
        # B in full slabs, not with the workspace's mirrored half.
        r = coarse_basis.rank
        S = RomWorkspace(coarse_basis, r, default_problem.nu).symmetric
        B = convection_tensor(coarse_basis, r)
        expected = B + B.transpose(0, 2, 1)
        assert np.max(np.abs(S - expected)) <= 1e-13 * np.max(np.abs(expected))
        np.testing.assert_array_equal(S, S.transpose(0, 2, 1))

    def test_quadratic_tensor_is_symmetric_in_its_first_two_slots(
        self, coarse_basis, convection_tensor
    ):
        # The workspace assembles B once per unordered pair of its first
        # two slots and mirrors the other half, which the full slabs
        # justify.
        B = convection_tensor(coarse_basis, coarse_basis.rank)
        assert np.max(np.abs(B - B.transpose(1, 0, 2))) <= 1e-13 * np.max(np.abs(B))

    def test_constant_is_the_cached_load_vector(self, coarse_basis, default_problem):
        ws = RomWorkspace(coarse_basis, 8, default_problem.nu)
        prob = with_parameter(default_problem, 0.37)
        f = forcing_f(prob, ws.quad_x)
        for r in (1, 5, 8):
            expected = ws.constant_base[:r] - ws.load_map[:r] @ f
            np.testing.assert_allclose(
                ws.operators(prob, r).constant,
                expected,
                rtol=0,
                atol=1e-13 * np.max(np.abs(expected)),
            )
        # Two dimensions are served from one cache entry, not recomputed.
        assert np.shares_memory(
            ws.operators(prob, 5).constant, ws.operators(prob, 8).constant
        )

    def test_forcing_cache_returns_the_same_array(
        self, coarse_basis, default_problem
    ):
        ws = RomWorkspace(coarse_basis, 4, default_problem.nu)
        prob = with_parameter(default_problem, 0.5)
        assert ws.forcing_values(prob) is ws.forcing_values(prob)
        other = ws.forcing_values(with_parameter(default_problem, -0.5))
        assert other is not ws.forcing_values(prob)

    def test_forcing_refuses_a_problem_off_the_workspace(
        self, coarse_basis, monkeypatch
    ):
        # forcing_values admits each new problem: one with another
        # viscosity, interval or boundary value has no load vector here.
        # A refusal keeps the remembered problem, so serving that one
        # again samples no forcing.
        ws = RomWorkspace(coarse_basis, 4, 1.0)
        good = replace(coarse_basis.problem, q=0.5)
        kept = ws.forcing_values(good)
        for change, error in (
            ({"nu": 0.5}, WorkspaceMismatch),
            ({"a": -3.0}, MeshMismatch),
            ({"b": 5.0}, MeshMismatch),
            ({"alpha": 3.0}, MeshMismatch),
        ):
            with pytest.raises(error):
                ws.forcing_values(replace(good, **change))
        sampled = []

        def counted(prob, x):
            sampled.append(prob)
            return forcing_f(prob, x)

        monkeypatch.setattr(rom, "forcing_f", counted)
        ws.operators(good, 4)
        assert sampled == []
        assert ws.forcing_values(good) is kept

    @pytest.mark.parametrize(
        "change",
        [{"a": -2.0, "b": 2.0}, {"b": 5.0}, {"alpha": 3.0}, {"beta": -1.5}],
        ids=["interval", "b", "alpha", "beta"],
    )
    def test_problem_off_the_basis_is_refused(self, coarse_basis, change):
        # The basis mean carries the interval and the boundary data, so a
        # problem that differs in either has no valid reduced model here.
        ws = RomWorkspace(coarse_basis, 4, 1.0)
        with pytest.raises(MeshMismatch):
            ws.operators(replace(coarse_basis.problem, q=0.5, **change), 4)

    def test_boundary_values_match_to_round_off(self, coarse_basis):
        ws = RomWorkspace(coarse_basis, 4, 1.0)
        beta = coarse_basis.problem.beta * (1.0 + 1e-14)
        ws.operators(replace(coarse_basis.problem, q=0.5, beta=beta), 4)

    def test_restrict_matches_the_direct_operators(
        self, coarse_basis, default_problem, rng
    ):
        ws = RomWorkspace(coarse_basis, 8, default_problem.nu)
        prob = with_parameter(default_problem, 0.5)
        coarse = restrict(ws.operators(prob, 8), 5)
        direct = ws.operators(prob, 5)
        assert coarse.dim == 5
        a = rng.standard_normal(5)
        np.testing.assert_allclose(
            residual(coarse, a),
            residual(direct, a),
            rtol=0,
            atol=1e-15 * np.max(np.abs(direct.constant)),
        )
        np.testing.assert_array_equal(jacobian(coarse, a), jacobian(direct, a))

    def test_restrict_dimension_bound(self, coarse_basis, default_problem):
        ws = RomWorkspace(coarse_basis, 8, default_problem.nu)
        ops = ws.operators(default_problem, 5)
        for r in (6, 0, 2.5, 3.0, "3"):
            with pytest.raises(DimensionError):
                restrict(ops, r)
        assert restrict(ops, np.int64(3)).linear.shape == (3, 3)

    def test_fingerprint_is_stable_across_processes(self):
        # bytes hashing with the built-in hash() is salted per process;
        # two different seeds must still give the same fingerprint.
        script = (
            "from rom2l import BurgersProblem, build_mesh, compute_pod, "
            "generate_snapshots, parameter_grid\n"
            "prob = BurgersProblem()\n"
            "mesh = build_mesh(-4.0, 4.0, 0.5)\n"
            "snaps = generate_snapshots(prob, parameter_grid(-4.0, 4.0, 1.0), mesh)\n"
            "print(compute_pod(snaps).fingerprint)\n"
        )
        src = str(Path(rom2l.__file__).resolve().parents[1])
        prints = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
                check=True,
            )
            prints.append(proc.stdout.strip())
        assert prints[0] == prints[1]
        assert prints[0].startswith("rank=8;nodes=33;sha256=")

    def test_viscosity_mismatch_is_rejected(self, coarse_basis, default_problem):
        ws = RomWorkspace(coarse_basis, 4, 2.0)
        with pytest.raises(ValueError) as excinfo:
            ws.operators(default_problem, 4)
        assert isinstance(excinfo.value, RomError)

    @pytest.mark.parametrize("nu", [0.0, -1.0, np.nan, np.inf])
    def test_viscosity_must_be_positive(self, coarse_basis, nu):
        with pytest.raises(ValueError, match="viscosity must be positive"):
            RomWorkspace(coarse_basis, 4, nu)

    def test_non_integral_dimension(self, coarse_basis, default_problem):
        with pytest.raises(DimensionError):
            RomWorkspace(coarse_basis, 4.5, default_problem.nu)

    def test_dimension_bounds(self, coarse_basis, default_problem):
        with pytest.raises(DimensionError):
            RomWorkspace(coarse_basis, coarse_basis.rank + 1, default_problem.nu)
        ws = RomWorkspace(coarse_basis, 4, default_problem.nu)
        with pytest.raises(DimensionError):
            ws.operators(default_problem, 5)
