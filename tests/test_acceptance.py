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
import pytest

from rom2l.bench import build_basis, run_experiment
from rom2l.checks import REFERENCE_RANK, run_checks
from rom2l.errors import NoConvergence, SingularJacobian
from rom2l.fem import FeFunction, l2_norm
from rom2l.manufactured import exact_u, with_parameter
from rom2l.pod import lift
from rom2l.rom import RomWorkspace, jacobian, residual, two_level_matrix_rhs
from rom2l.solvers import one_level_solve


# The loop oracle's own tolerance for the correction matrix and
# right-hand side; validate does not run the oracle.
ORACLE_MAX = 1e-13


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def validate_table(default_problem, reference_basis):
    """The ``rom2l validate`` checks on the reference configuration, as
    ``{name: (passed, detail)}``, and the seconds they took."""
    t0 = time.perf_counter()
    results = run_checks(default_problem, reference_basis, REFERENCE_RANK)
    elapsed = time.perf_counter() - t0
    return {name: (ok, detail) for name, ok, detail in results}, elapsed


def _rows(table: dict, names: tuple[str, ...]) -> tuple[bool, str]:
    """Whether every named row of the table passed, and their details."""
    ok = all(table[name][0] for name in names)
    return ok, "; ".join(f"{name}: {table[name][1]}" for name in names)


def test_01_offline_stage_retains_rank_30(reference_config):
    """The snapshot family compresses to exactly the reference rank, quickly."""
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
    _report("offline stage", basis.rank == REFERENCE_RANK and elapsed < 30.0, detail)


def test_02_algebraic_identities(
    validate_table, reference_basis, default_problem, convection_tensor
):
    """Structural identities of the convection form and the correction step.

    The identities, the nested blocks and the degenerate fixed point are
    the rows of ``rom2l validate``; the loop oracle and the
    correction-vs-Jacobian defect are measured here only.
    """
    table, table_s = validate_table
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)

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
    elapsed = table_s + time.perf_counter() - t0

    rows_ok, rows = _rows(
        table,
        (
            "integration-by-parts identity",
            "trilinear splitting identity",
            "correction telescoping identity",
            "nested operator blocks",
            "degenerate fixed point",
        ),
    )
    ok = (
        rows_ok
        and jac_defect <= ORACLE_MAX
        and matrix_defect <= ORACLE_MAX
        and rhs_defect <= ORACLE_MAX
        and elapsed < 10.0
    )
    _report(
        "algebraic identities",
        ok,
        f"{rows}; correction-vs-Jacobian {jac_defect:.1e}, oracle "
        f"{matrix_defect:.1e}/{rhs_defect:.1e} ({elapsed:.1f}s with the "
        f"whole validate table)",
    )


def test_03_full_order_convergence(validate_table):
    """The quadratic-element solver converges at high order in L2."""
    table, elapsed = validate_table
    rows_ok, rows = _rows(table, ("full-order convergence", "full-order accuracy"))
    _report(
        "full-order convergence",
        rows_ok and elapsed < 60.0,
        f"{rows} ({elapsed:.1f}s with the whole validate table)",
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
