"""Acceptance suite: the eight reference-configuration criteria.

Every test exercises the library end to end on the reference
configuration (domain [-4, 4], quadratic elements of size 1/200, an
801-point parameter grid with spacing 0.01) and prints a single
PASS/FAIL line with the measured quantities, then asserts it.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
measurement lines for passing tests too). The guess-comparison
benchmark (criterion 7) times 100 repetitions per parameter value and
dominates the runtime of the suite.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from rom2l.bench import build_basis, run_experiment
from rom2l.checks import (
    convection_defects,
    degenerate_fixed_point,
    fom_convergence,
    nesting_defect,
    telescoping_defect,
)
from rom2l.errors import NoConvergence, SingularJacobian
from rom2l.fem import FeFunction, l2_norm
from rom2l.manufactured import exact_u, with_parameter
from rom2l.pod import lift
from rom2l.rom import RomWorkspace, jacobian, residual, two_level_matrix_rhs
from rom2l.solvers import one_level_solve


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}"
    print(line)
    assert ok, line


def test_01_offline_stage_retains_rank_30(reference_config):
    """The snapshot family compresses to exactly 30 modes, quickly."""
    t0 = time.perf_counter()
    basis = build_basis(reference_config)
    elapsed = time.perf_counter() - t0
    sv = basis.singular_values
    detail = (
        f"rank {basis.rank} from 801 snapshots in {elapsed:.2f}s; "
        f"last kept/first = {sv[basis.rank - 1] / sv[0]:.3e}, "
        f"first dropped/first = {sv[basis.rank] / sv[0]:.3e}"
        if sv.size > basis.rank
        else f"rank {basis.rank} in {elapsed:.2f}s"
    )
    _report("offline stage", basis.rank == 30 and elapsed < 30.0, detail)


def test_02_algebraic_identities(
    reference_basis, default_problem, convection_tensor
):
    """Structural identities of the convection form and the correction step."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    worst_parts, worst_split = convection_defects(reference_basis.mesh, rng)

    # Correction matrix: linearization about the zero-padded coarse vector.
    prob_q = with_parameter(default_problem, 0.37)
    big_r, small_r = 25, 18
    ops = RomWorkspace(reference_basis, big_r, prob_q.nu).operators(prob_q, big_r)
    # The loop oracle reads a B assembled here, not the workspace's.
    B = convection_tensor(reference_basis, big_r)
    a_r = rng.standard_normal(small_r)
    padded = np.zeros(big_r)
    padded[:small_r] = a_r
    matrix, rhs_vec = two_level_matrix_rhs(ops, a_r)
    jac_defect = np.max(np.abs(matrix - jacobian(ops, padded))) / np.max(
        np.abs(matrix)
    )
    oracle = np.array(
        [
            [
                ops.linear[i, j]
                + sum(
                    padded[k] * (B[i, j, k] + B[i, k, j])
                    for k in range(big_r)
                )
                for j in range(big_r)
            ]
            for i in range(big_r)
        ]
    )
    oracle_rhs = np.array(
        [
            sum(
                B[i, j, k] * padded[j] * padded[k]
                for j in range(big_r)
                for k in range(big_r)
            )
            - ops.constant[i]
            for i in range(big_r)
        ]
    )
    matrix_defect = np.max(np.abs(matrix - oracle)) / np.max(np.abs(matrix))
    rhs_defect = np.max(np.abs(rhs_vec - oracle_rhs)) / (
        np.max(np.abs(oracle_rhs)) + 1.0
    )
    # Telescoping: applying the correction system at the padded vector
    # itself reproduces the nonlinear residual there.
    fp_defect = telescoping_defect(ops, a_r)

    # Nested blocks: the operators of a separate small-dimension
    # workspace are leading blocks.
    small = RomWorkspace(reference_basis, small_r, prob_q.nu).operators(
        prob_q, small_r
    )
    nest = nesting_defect(small, ops)

    # Degenerate two-level solve reproduces the one-level solution.
    fixed_point, _ = degenerate_fixed_point(reference_basis, 23, prob_q)
    elapsed = time.perf_counter() - t0

    ok = (
        worst_parts <= 1e-12
        and worst_split <= 1e-12
        and jac_defect <= 1e-13
        and matrix_defect <= 1e-13
        and rhs_defect <= 1e-13
        and fp_defect <= 1e-12
        and nest <= 1e-13
        and fixed_point <= 1e-8
        and elapsed < 10.0
    )
    _report(
        "algebraic identities",
        ok,
        f"integration by parts {worst_parts:.1e}, splitting {worst_split:.1e}, "
        f"correction-vs-Jacobian {jac_defect:.1e}, oracle {matrix_defect:.1e}/"
        f"{rhs_defect:.1e}, telescoping {fp_defect:.1e}, nesting {nest:.1e}, "
        f"degenerate fixed point {fixed_point:.1e} ({elapsed:.1f}s)",
    )


def test_03_full_order_convergence(default_problem):
    """The quadratic-element solver converges at high order in L2."""
    t0 = time.perf_counter()
    orders, finest = fom_convergence(default_problem)
    elapsed = time.perf_counter() - t0
    ok = min(orders) >= 2.7 and finest <= 1e-6 and elapsed < 60.0
    _report(
        "full-order convergence",
        ok,
        f"orders {orders[0]:.2f}, {orders[1]:.2f} (need >= 2.7); "
        f"error {finest:.2e} at h=1/200 (need <= 1e-6) ({elapsed:.1f}s)",
    )


def test_04_reduced_jacobian_matches_finite_differences(
    reference_basis, default_problem
):
    """Central differences of the residual reproduce the Jacobian."""
    rng = np.random.default_rng(20260404)
    prob_q = with_parameter(default_problem, -1.23)
    eps = 1e-6
    worst = 0.0
    ws = RomWorkspace(reference_basis, 25, prob_q.nu)
    for dim in (5, 15, 25):
        ops = ws.operators(prob_q, dim)
        for _ in range(10):
            a = rng.standard_normal(dim)
            jac = jacobian(ops, a)
            fd = np.empty_like(jac)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = eps
                fd[:, j] = (residual(ops, a + e) - residual(ops, a - e)) / (2 * eps)
            worst = max(
                worst,
                np.linalg.norm(fd - jac) / np.linalg.norm(jac),
            )
    _report(
        "reduced Jacobian",
        worst <= 1e-6,
        f"max relative Frobenius defect {worst:.2e} over 10 states x "
        f"dims (5, 15, 25) (need <= 1e-6)",
    )


def test_05_error_ratio_band(reference_config, reference_basis):
    """Two-level error stays within a narrow band of the one-level error.

    Pairs (r, R): (12, 23), (18, 25), (20, 27); the correction dimension
    equals the one-level dimension, so the ratio isolates the cost of
    replacing Newton at R with Newton at r plus one linear solve.
    """
    cfg = replace(
        reference_config,
        triples=((12, 23, 23), (18, 25, 25), (20, 27, 27)),
        guesses=("avg",),
        reps=10,
    )
    t0 = time.perf_counter()
    report = run_experiment(cfg, basis=reference_basis)
    elapsed = time.perf_counter() - t0
    ratios = [row.error_ratio for row in report.rows]
    errs_1l = [row.err_1l for row in report.rows]
    failures = sum(row.n_failures for row in report.rows)
    ok = (
        all(0.99 <= ratio <= 1.5 for ratio in ratios)
        and ratios[0] >= ratios[1] >= ratios[2]
        and errs_1l[0] > errs_1l[1] > errs_1l[2]
        and failures == 0
        and elapsed < 300.0
    )
    _report(
        "error-ratio band",
        ok,
        f"ratios {ratios[0]:.4f}, {ratios[1]:.4f}, {ratios[2]:.4f} "
        f"(need within [0.99, 1.5], non-increasing); "
        f"{failures} failures ({elapsed:.0f}s)",
    )


def test_06_larger_correction_dimension_cuts_error(
    reference_config, reference_basis
):
    """With R2 > R1 the correction overtakes the one-level solve."""
    cfg = replace(
        reference_config, triples=((20, 25, 29),), guesses=("avg",), reps=1
    )
    report = run_experiment(cfg, basis=reference_basis)
    row = report.rows[0]
    ok = row.error_ratio <= 0.5 and row.n_failures == 0
    _report(
        "enrichment gain",
        ok,
        f"error ratio {row.error_ratio:.4f} for (r, R1, R2) = (20, 25, 29) "
        f"(need <= 0.5); {row.n_failures} failures",
    )


def test_07_two_level_speedup_from_a_poor_guess(
    reference_config, reference_basis
):
    """From the alternating start the two-level solve wins by >= 1.2x.

    The coarse stage absorbs the extra Newton iterations that a poor
    starting vector causes, so the speedup is largest there; from the
    mean start both models converge quickly and the gap narrows.
    """
    cfg = replace(
        reference_config,
        triples=((12, 23, 23), (18, 25, 25), (20, 27, 27)),
        guesses=("ug", "avg"),
        reps=100,
    )
    report = run_experiment(cfg, basis=reference_basis)
    by_guess = {}
    for row in report.rows:
        by_guess.setdefault(row.guess, []).append(row)
    ug_speedups = [row.speedup for row in by_guess["ug"]]
    avg_speedups = [row.speedup for row in by_guess["avg"]]
    failures = sum(row.n_failures for row in report.rows)
    ok = (
        all(s >= 1.2 for s in ug_speedups)
        and all(u >= a for u, a in zip(ug_speedups, avg_speedups))
        and failures == 0
    )
    _report(
        "two-level speedup",
        ok,
        "alternating-start speedups "
        + ", ".join(f"{s:.3f}" for s in ug_speedups)
        + " (need >= 1.2 and >= mean-start "
        + ", ".join(f"{s:.3f}" for s in avg_speedups)
        + f"); {failures} failures",
    )


def test_08_full_rank_parameter_sweep(reference_config, reference_basis):
    """At full rank the reduced solve tracks the exact solution everywhere."""
    basis = reference_basis
    mesh = basis.mesh
    dim = basis.rank
    ws = RomWorkspace(basis, dim, reference_config.problem.nu)
    worst = 0.0
    failures = 0
    for q in reference_config.q_values():
        prob_q = with_parameter(reference_config.problem, float(q))
        try:
            out = one_level_solve(basis, dim, prob_q, "avg", workspace=ws)
        except (NoConvergence, SingularJacobian):
            failures += 1
            continue
        diff = lift(basis, out.coeffs).coeffs - exact_u(prob_q, mesh.nodes)
        worst = max(worst, l2_norm(FeFunction(mesh=mesh, coeffs=diff)))
    ok = worst <= 1e-4 and failures == 0
    _report(
        "full-rank sweep",
        ok,
        f"worst L2 error {worst:.3e} over 801 parameter values at rank {dim} "
        f"(need <= 1e-4); {failures} failures",
    )
