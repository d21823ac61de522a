"""Property checks of ``rom2l validate`` and the acceptance suite.

:func:`run_checks` holds each measurement below to its bound, a constant
of this module. Tests call the measurements directly to show that each
check can fail.
"""

from __future__ import annotations

import numpy as np

from . import fem, pod, rom, solvers
from .manufactured import BurgersProblem, exact_u, with_parameter
from .pod import PodBasis

__all__ = [
    "ORDER_MIN",
    "ACCURACY_MAX",
    "ORTHONORMALITY_MAX",
    "IDENTITY_MAX",
    "NESTING_MAX",
    "FIXED_POINT_MAX",
    "REFERENCE_RANK",
    "run_checks",
    "fom_convergence",
    "orthonormality_defect",
    "convection_defects",
    "telescoping_defect",
    "nesting_defect",
    "degenerate_fixed_point",
]

# The bounds of run_checks; no other module or test repeats them.
ORDER_MIN = 2.7  # least observed full-order L2 convergence order
ACCURACY_MAX = 1e-6  # largest full-order L2 error at h = 1/200
ORTHONORMALITY_MAX = 1e-10  # largest entry of |Phi^T M Phi - I|
IDENTITY_MAX = 1e-12  # convection identities and telescoping, relative
NESTING_MAX = 1e-13  # nested operator blocks, relative
FIXED_POINT_MAX = 1e-8  # degenerate two-level solve, relative distance
REFERENCE_RANK = 30  # POD rank retained on the reference configuration


def run_checks(
    prob: BurgersProblem, basis: PodBasis, expected_rank: int | None = None
) -> list[tuple[str, bool, str]]:
    """The checks of ``rom2l validate`` on ``prob`` and ``basis``, in order,
    as ``(name, passed, detail line)``; the POD rank only against a given
    ``expected_rank``. Operator checks take ``q = 0.37`` and a fixed seed."""
    results = []

    def check(name: str, ok, detail: str) -> None:
        results.append((name, bool(ok), detail))

    orders, err = fom_convergence(prob)
    check(
        "full-order convergence",
        min(orders) >= ORDER_MIN,
        f"observed orders {orders[0]:.2f}, {orders[1]:.2f} (need >= {ORDER_MIN})",
    )
    need = f"{ACCURACY_MAX:.0e}".replace("e-0", "e-")  # no zero-padded exponent
    check(
        "full-order accuracy",
        err <= ACCURACY_MAX,
        f"L2 error {err:.3e} at h=1/200 (need <= {need})",
    )
    if expected_rank is not None:
        check(
            "POD rank",
            basis.rank == expected_rank,
            f"retained rank {basis.rank} (expected {expected_rank})",
        )
    ortho = orthonormality_defect(basis)
    check(
        "POD orthonormality",
        ortho <= ORTHONORMALITY_MAX,
        f"max |Phi^T M Phi - I| {ortho:.2e} in the mass inner product, "
        f"rank {basis.rank}",
    )

    rng = np.random.default_rng(20240817)
    parts, split = convection_defects(basis.mesh, rng)
    check(
        "integration-by-parts identity",
        parts <= IDENTITY_MAX,
        f"max relative defect {parts:.2e} over 100 draws",
    )
    check(
        "trilinear splitting identity",
        split <= IDENTITY_MAX,
        f"max relative defect {split:.2e} over 100 draws",
    )

    # r_small < r_big once rank >= 2, so nesting compares two assemblies.
    r_big = min(25, basis.rank)
    r_small = 18 if r_big == 25 else max(1, min(8, r_big - 1))
    prob_q = with_parameter(prob, 0.37)
    big = rom.RomWorkspace(basis, r_big, prob.nu).operators(prob_q, r_big)
    small = rom.RomWorkspace(basis, r_small, prob.nu).operators(prob_q, r_small)
    tele = telescoping_defect(big, rng.standard_normal(r_small))
    check(
        "correction telescoping identity",
        tele <= IDENTITY_MAX,
        f"relative defect {tele:.2e}",
    )
    nest = nesting_defect(small, big)
    check("nested operator blocks", nest <= NESTING_MAX, f"relative defect {nest:.2e}")
    fp, iterations = degenerate_fixed_point(basis, r_big, prob_q)
    check(
        "degenerate fixed point",
        fp <= FIXED_POINT_MAX,
        f"relative distance {fp:.2e} (stage-1 iterations {iterations})",
    )
    return results


def fom_convergence(prob: BurgersProblem) -> tuple[tuple[float, float], float]:
    """Observed L2 convergence orders of the full-order solver.

    Solves ``prob`` on its interval with h = 1/25, 1/50, 1/100 and 1/200
    and measures the L2 error against the exact solution.

    Returns:
        ``((order from 1/25 to 1/50, order from 1/50 to 1/100),
        error at h = 1/200)``.
    """
    errors = []
    for n_over in (25, 50, 100, 200):
        mesh = fem.build_mesh(prob.a, prob.b, 1.0 / n_over)
        u_h = solvers.fom_solve(mesh, prob)
        diff = u_h.coeffs - exact_u(prob, mesh.nodes)
        errors.append(fem.l2_norm(fem.FeFunction(mesh=mesh, coeffs=diff)))
    orders = (
        float(np.log2(errors[0] / errors[1])),
        float(np.log2(errors[1] / errors[2])),
    )
    return orders, errors[3]


def orthonormality_defect(basis: PodBasis) -> float:
    """Largest entry of ``|Phi^T M Phi - I|`` for the modes ``Phi``.

    ``M`` is the interior mass matrix, the inner product the POD modes
    are orthonormal in. Column ``k`` of the Gram matrix is
    :func:`pod.project` of mode ``k`` lifted, which applies ``M``.
    """
    eye = np.eye(basis.rank)
    gram = np.column_stack(
        [pod.project(basis, pod.lift(basis, e), basis.rank) for e in eye]
    )
    return float(np.max(np.abs(gram - eye)))


def convection_defects(
    mesh: fem.Mesh1D, rng: np.random.Generator
) -> tuple[float, float]:
    """Worst relative defects of two identities of the convection form ``b``.

    Each of 100 draws takes four random functions ``u, v, w, ur`` on
    ``mesh``.

    * Integration by parts: ``b(v, u, w) + b(u, v, w) + b(u, w, v) = 0``
      for ``u, v, w`` with their end values zeroed, since ``(u v w)'``
      then integrates to zero. The integrand has degree five, so the
      identity holds under the three-point Gauss rule too.
    * Splitting: ``b(u, u, w) = b(u, ur, w) + b(ur, u, w) - b(ur, ur, w)
      + b(u - ur, u - ur, w)``, from bilinearity in the first two slots.

    Returns:
        ``(integration by parts, splitting)``, each the largest defect
        over the draws relative to ``|b(u, v, w)| + 1`` and
        ``|b(u, u, w)| + 1`` respectively.
    """
    b = fem.trilinear_b

    def fe(coeffs):
        return fem.FeFunction(mesh=mesh, coeffs=coeffs)

    worst_parts = worst_split = 0.0
    for _ in range(100):
        coeffs = rng.standard_normal((4, mesh.n_nodes))
        u, v, w, ur = (fe(c) for c in coeffs)
        lhs = b(u, u, w)
        diff = fe(u.coeffs - ur.coeffs)
        rhs = b(u, ur, w) + b(ur, u, w) - b(ur, ur, w) + b(diff, diff, w)
        worst_split = max(worst_split, abs(lhs - rhs) / (abs(lhs) + 1.0))

        zeroed = coeffs[:3].copy()
        zeroed[:, [0, -1]] = 0.0
        u, v, w = (fe(c) for c in zeroed)
        total = b(v, u, w) + b(u, v, w) + b(u, w, v)
        worst_parts = max(worst_parts, abs(total) / (abs(b(u, v, w)) + 1.0))
    return worst_parts, worst_split


def telescoping_defect(ops: rom.RomOperators, a_r: np.ndarray) -> float:
    """Defect of the two-level correction system at its own expansion point.

    With ``(M, rhs)`` from :func:`rom.two_level_matrix_rhs` and ``pad``
    the zero-padded ``a_r``, ``M pad - rhs`` equals the nonlinear
    residual ``A pad + (S pad) pad / 2 + b`` at ``pad`` for any tensor
    ``S``, so a matrix that drops part of the Jacobian, or a right-hand
    side with the wrong quadratic term, shows. Returns the largest
    deviation relative to ``max |b|``.
    """
    matrix, rhs = rom.two_level_matrix_rhs(ops, a_r)
    padded = np.zeros(ops.dim)
    padded[: len(a_r)] = a_r
    defect = matrix @ padded - rhs - rom.residual(ops, padded)
    return float(np.max(np.abs(defect)) / np.max(np.abs(ops.constant)))


def nesting_defect(small: rom.RomOperators, big: rom.RomOperators) -> float:
    """How far ``small``'s ``A`` and ``S`` are from the leading blocks of ``big``'s.

    Returns the larger of the two largest deviations, each relative to
    the largest entry of ``big``'s operator.
    """
    r = small.dim
    return float(
        max(
            np.max(np.abs(small.linear - big.linear[:r, :r]))
            / np.max(np.abs(big.linear)),
            np.max(np.abs(small.symmetric - big.symmetric[:r, :r, :r]))
            / np.max(np.abs(big.symmetric)),
        )
    )


def degenerate_fixed_point(
    basis: PodBasis, R: int, prob: BurgersProblem
) -> tuple[float, int]:
    """Distance of the ``r = R`` two-level solve from the one-level solve.

    Both start from the mean guess. The correction then starts from the
    converged coarse solution, which already solves the dimension-``R``
    system, so the two coincide up to Newton's tolerance.

    Returns:
        ``(relative distance, coarse-stage Newton iterations)``.
    """
    ws = rom.RomWorkspace(basis, R, prob.nu)
    one = solvers.one_level_solve(basis, R, prob, "avg", workspace=ws)
    coarse, corrected = solvers.two_level_solve(basis, R, R, prob, "avg", workspace=ws)
    distance = np.linalg.norm(corrected.coeffs - one.coeffs) / np.linalg.norm(
        one.coeffs
    )
    return float(distance), coarse.iterations
