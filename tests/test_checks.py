"""The property checks must be able to fail: each case breaks the code a
check measures and sees its defect exceed the bound that
``rom2l.checks.run_checks`` holds it to."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rom2l import checks, fem, rom
from rom2l.checks import (
    FIXED_POINT_MAX,
    IDENTITY_MAX,
    NESTING_MAX,
    REFERENCE_RANK,
    convection_defects,
    degenerate_fixed_point,
    nesting_defect,
    run_checks,
    telescoping_defect,
)
from rom2l.manufactured import with_parameter

NAMES = [
    "full-order convergence",
    "full-order accuracy",
    "POD orthonormality",
    "integration-by-parts identity",
    "trilinear splitting identity",
    "correction telescoping identity",
    "nested operator blocks",
    "degenerate fixed point",
]


@pytest.fixture()
def env(coarse_basis, default_problem, convection_tensor):
    prob = with_parameter(default_problem, 0.37)

    def ops(r):
        return rom.RomWorkspace(coarse_basis, r, prob.nu).operators(prob, r)

    return SimpleNamespace(
        basis=coarse_basis,
        prob=prob,
        big=ops(12),
        small=ops(6),
        a_r=np.random.default_rng(2).standard_normal(6),
        tensor=convection_tensor(coarse_basis, 12),
    )


def _swap_first_slots(env, monkeypatch):
    # u' v w in place of u v' w. The skew form of any trilinear form
    # vanishes on a repeated argument, so a skew check cannot see this.
    correct = fem.trilinear_b
    monkeypatch.setattr(fem, "trilinear_b", lambda u, v, w: correct(v, u, w))


def _quadratic_second_slot(env, monkeypatch):
    # Not linear in its second slot: the splitting identity is off by
    # b(u - ur, u - ur, w).
    correct = fem.trilinear_b
    monkeypatch.setattr(
        fem, "trilinear_b", lambda u, v, w: correct(u, v, w) + correct(v, v, w)
    )


def _one_contraction(env, monkeypatch):
    # A correction matrix with only B(., pad, .) of the Jacobian's two
    # contractions; the residual is computed independently of it.
    correct = rom.two_level_matrix_rhs

    def one_contraction(ops, a_r):
        _, rhs = correct(ops, a_r)
        padded = np.zeros(ops.dim)
        padded[: a_r.size] = a_r
        return ops.linear + padded @ env.tensor, rhs

    monkeypatch.setattr(rom, "two_level_matrix_rhs", one_contraction)


def _wrong_sign_rhs(env, monkeypatch):
    correct = rom.two_level_matrix_rhs

    def wrong_sign(ops, a_r):
        matrix, rhs = correct(ops, a_r)
        return matrix, -rhs

    monkeypatch.setattr(rom, "two_level_matrix_rhs", wrong_sign)


def _perturb_small(field):
    def perturb(env, monkeypatch):
        values = getattr(env.small, field).copy()
        values.flat[7] += 1e-9 * np.max(np.abs(values))
        env.small = replace(env.small, **{field: values})

    return perturb


CASES = [
    pytest.param(
        lambda env: convection_defects(env.basis.mesh, np.random.default_rng(1))[0],
        _swap_first_slots,
        IDENTITY_MAX,
        id="integration-by-parts",
    ),
    pytest.param(
        lambda env: convection_defects(env.basis.mesh, np.random.default_rng(1))[1],
        _quadratic_second_slot,
        IDENTITY_MAX,
        id="splitting",
    ),
    pytest.param(
        lambda env: telescoping_defect(env.big, env.a_r),
        _one_contraction,
        IDENTITY_MAX,
        id="telescoping",
    ),
    pytest.param(
        lambda env: nesting_defect(env.small, env.big),
        _perturb_small("linear"),
        NESTING_MAX,
        id="nesting-linear",
    ),
    pytest.param(
        lambda env: nesting_defect(env.small, env.big),
        _perturb_small("symmetric"),
        NESTING_MAX,
        id="nesting-symmetric",
    ),
    pytest.param(
        lambda env: degenerate_fixed_point(env.basis, 12, env.prob)[0],
        _wrong_sign_rhs,
        FIXED_POINT_MAX,
        id="fixed-point",
    ),
]


@pytest.mark.parametrize("measure, break_code, bound", CASES)
def test_each_check_sees_its_fault(env, monkeypatch, measure, break_code, bound):
    assert measure(env) <= bound
    break_code(env, monkeypatch)
    assert measure(env) > bound


class TestRunChecks:
    def test_names_in_order_all_passing(self, default_problem, coarse_basis):
        results = run_checks(default_problem, coarse_basis)
        assert [name for name, _, _ in results] == NAMES
        assert all(ok for _, ok, _ in results)

    def test_rank_row_only_when_a_rank_is_expected(
        self, default_problem, coarse_basis
    ):
        results = run_checks(default_problem, coarse_basis, coarse_basis.rank)
        assert [name for name, _, _ in results] == NAMES[:2] + ["POD rank"] + NAMES[2:]
        assert all(ok for _, ok, _ in results)
        assert coarse_basis.rank != REFERENCE_RANK
        failed = [
            name
            for name, ok, _ in run_checks(default_problem, coarse_basis, REFERENCE_RANK)
            if not ok
        ]
        assert failed == ["POD rank"]

    def test_a_wrong_full_order_solution_fails_both_full_order_rows(
        self, default_problem, coarse_basis, monkeypatch
    ):
        correct = checks.exact_u
        monkeypatch.setattr(checks, "exact_u", lambda p, x: correct(p, x) + 1e-5)
        failed = [
            name for name, ok, _ in run_checks(default_problem, coarse_basis) if not ok
        ]
        assert failed == NAMES[:2]

    @pytest.mark.parametrize("rank", [2, 6, 8, 16])
    def test_nesting_compares_two_dimensions(
        self, default_problem, coarse_basis, monkeypatch, rank
    ):
        # With r_small == r_big the nesting check would compare two
        # identical assemblies and could not fail.
        dims = []
        correct = checks.nesting_defect

        def spy(small, big):
            dims.append((small.dim, big.dim))
            return correct(small, big)

        monkeypatch.setattr(checks, "nesting_defect", spy)
        basis = replace(coarse_basis, modes=coarse_basis.modes[:, :rank])
        assert all(ok for _, ok, _ in run_checks(default_problem, basis))
        [(r_small, r_big)] = dims
        assert r_small < r_big == rank
