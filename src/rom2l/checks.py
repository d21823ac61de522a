"""Property checks shared by ``rom2l validate`` and the acceptance suite.

Each function makes one measurement and returns raw numbers; the caller
decides which bound they must meet.
"""

from __future__ import annotations

import numpy as np

from . import fem, pod, rom, solvers
from .manufactured import BurgersProblem, exact_u
from .pod import PodBasis

__all__ = [
    "fom_convergence",
    "orthonormality_defect",
    "convection_defects",
    "telescoping_defect",
    "nesting_defect",
    "degenerate_fixed_point",
]


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

    ``M`` is the inner product the basis claims: the interior mass band
    for ``"mass"``, the identity for ``"euclidean"``. Column ``k`` of the
    Gram matrix is :func:`pod.project` of mode ``k`` lifted, which
    applies that inner product.
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
    residual at ``pad``. Returns the largest deviation relative to
    ``max |b|``.
    """
    matrix, rhs = rom.two_level_matrix_rhs(ops, a_r)
    padded = np.zeros(ops.dim)
    padded[: len(a_r)] = a_r
    defect = matrix @ padded - rhs - rom.residual(ops, padded)
    return float(np.max(np.abs(defect)) / np.max(np.abs(ops.constant)))


def nesting_defect(small: rom.RomOperators, big: rom.RomOperators) -> float:
    """How far ``small``'s ``A`` and ``B`` are from the leading blocks of ``big``'s.

    Returns the larger of the two largest deviations, each relative to
    the largest entry of ``big``'s operator.
    """
    r = small.dim
    return float(
        max(
            np.max(np.abs(small.linear - big.linear[:r, :r]))
            / np.max(np.abs(big.linear)),
            np.max(np.abs(small.quadratic - big.quadratic[:r, :r, :r]))
            / np.max(np.abs(big.quadratic)),
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
    one = solvers.one_level_solve(basis, R, prob, "avg")
    coarse, corrected = solvers.two_level_solve(basis, R, R, prob, "avg")
    distance = np.linalg.norm(corrected.coeffs - one.coeffs) / np.linalg.norm(
        one.coeffs
    )
    return float(distance), coarse.iterations
