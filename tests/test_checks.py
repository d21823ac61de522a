"""The shared property checks must be able to fail: each test breaks the
code a check measures and sees its defect exceed the bound that
``rom2l validate`` and the acceptance suite apply."""

from __future__ import annotations

import numpy as np

from rom2l import fem, rom
from rom2l.checks import convection_defects, telescoping_defect
from rom2l.manufactured import with_parameter

BOUND = 1e-12


def test_integration_by_parts_catches_swapped_convection_arguments(
    coarse_mesh, monkeypatch
):
    intact, _ = convection_defects(coarse_mesh, np.random.default_rng(1))
    assert intact <= BOUND
    # Swapped first two slots: u' v w in place of u v' w. The skew form of
    # any trilinear form vanishes on a repeated argument, so a skew check
    # cannot see this fault.
    correct = fem.trilinear_b
    monkeypatch.setattr(fem, "trilinear_b", lambda u, v, w: correct(v, u, w))
    broken, _ = convection_defects(coarse_mesh, np.random.default_rng(1))
    assert broken > BOUND


def test_telescoping_catches_a_jacobian_missing_one_contraction(
    coarse_basis, default_problem, convection_tensor, rng, monkeypatch
):
    prob = with_parameter(default_problem, 0.37)
    ops = rom.RomWorkspace(coarse_basis, 12, prob.nu).operators(prob, 12)
    a_r = rng.standard_normal(6)
    assert telescoping_defect(ops, a_r) <= BOUND
    # A correction matrix with only B(., pad, .) of the Jacobian's two
    # contractions; the residual is computed independently of it.
    B = convection_tensor(coarse_basis, 12)
    correct = rom.two_level_matrix_rhs

    def one_contraction(ops, a_r):
        _, rhs = correct(ops, a_r)
        padded = np.zeros(ops.dim)
        padded[: a_r.size] = a_r
        return ops.linear + padded @ B, rhs

    monkeypatch.setattr(rom, "two_level_matrix_rhs", one_contraction)
    assert telescoping_defect(ops, a_r) > BOUND
