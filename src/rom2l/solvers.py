"""Newton solvers for the reduced and full-order problems.

The reduced systems are small and dense, so the Newton step is a direct
dense solve. An iterate counts as converged when both the residual norm
and the norm of the step Newton would take from it fall under their
tolerances; the step is then not applied, so a linear problem converges
in exactly one applied step from any start and an exact start converges
in zero.

The full-order solver works on the interior unknowns after subtracting a
linear interpolant of the boundary data, and exploits the pentadiagonal
structure of the quadratic-element Jacobian with a banded factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import fem, rom
from .errors import (
    DimensionError,
    NoConvergence,
    SingularJacobian,
    SingularLinearSystem,
)
from .fem import FeFunction, Mesh1D
from .manufactured import BurgersProblem, forcing_f
from .pod import PodBasis
from .rom import RomOperators, RomWorkspace

__all__ = [
    "NewtonConfig",
    "SolveOutcome",
    "newton_solve",
    "make_guess",
    "one_level_solve",
    "two_level_solve",
    "fom_solve",
]

GUESS_KINDS = ("ug", "ig", "avg")


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping rules for the Newton iteration.

    Attributes:
        tol_residual: residual Euclidean norm below which an iterate may
            be accepted.
        tol_step: Newton step norm below which an iterate is accepted
            (both tolerances must hold simultaneously).
        max_iter: largest number of applied steps before giving up.
    """

    tol_residual: float = 1e-10
    tol_step: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if self.tol_residual <= 0 or self.tol_step <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one nonlinear (or linearized) solve.

    Attributes:
        coeffs: final coefficient vector.
        iterations: number of Newton steps actually applied.
        final_residual_norm: Euclidean residual norm at ``coeffs``.
        residual_history: residual norm at each visited iterate,
            ``iterations + 1`` entries.
    """

    coeffs: np.ndarray = field(repr=False)
    iterations: int
    final_residual_norm: float
    residual_history: tuple[float, ...] = field(repr=False, default=())


def newton_solve(
    ops: RomOperators, a0: np.ndarray, cfg: NewtonConfig | None = None
) -> SolveOutcome:
    """Solve the reduced nonlinear system by Newton's method.

    Args:
        ops: reduced operators defining residual and Jacobian.
        a0: starting coefficients, length ``ops.dim``.
        cfg: stopping rules; defaults to :class:`NewtonConfig`.

    Returns:
        A :class:`SolveOutcome` with the converged coefficients.

    Raises:
        SingularJacobian: if a Newton system is singular.
        NoConvergence: if the tolerances are not met within
            ``cfg.max_iter`` applied steps, or an iterate goes non-finite.
    """
    cfg = cfg or NewtonConfig()
    a = np.array(a0, dtype=float)
    if a.shape != (ops.dim,):
        raise DimensionError(
            f"start vector has shape {a.shape}, operators have dimension {ops.dim}"
        )
    return _newton(
        a,
        lambda a: (rom.residual(ops, a), rom.jacobian(ops, a)),
        np.linalg.solve,
        slice(None),
        cfg,
        "",
    )


def _newton(x, linearize, solve, free, cfg: NewtonConfig, what: str) -> SolveOutcome:
    """Newton iteration shared by the reduced and full-order solvers.

    ``linearize(x)`` returns the residual and the Jacobian at ``x``,
    ``solve(J, res)`` the Newton step, which updates ``x[free]``.
    ``what`` qualifies the Jacobian and convergence in error messages.
    """
    history: list[float] = []
    for steps in range(cfg.max_iter + 1):
        res, jac = linearize(x)
        res_norm = float(np.linalg.norm(res))
        history.append(res_norm)
        if not np.isfinite(res_norm):
            raise NoConvergence(
                f"residual went non-finite after {steps} steps", x, res_norm
            )
        try:
            step = solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(
                f"singular {what}Jacobian at iteration {steps}"
            ) from exc
        if res_norm <= cfg.tol_residual and np.linalg.norm(step) <= cfg.tol_step:
            return SolveOutcome(
                coeffs=x,
                iterations=steps,
                final_residual_norm=res_norm,
                residual_history=tuple(history),
            )
        if steps == cfg.max_iter:
            raise NoConvergence(
                f"no {what}convergence in {cfg.max_iter} steps "
                f"(residual norm {res_norm:.3e})",
                x,
                res_norm,
            )
        x = x.copy()
        x[free] -= step
    raise AssertionError("unreachable")


def make_guess(kind: str, r: int) -> np.ndarray:
    """Starting vector of one of the three standard kinds.

    ``"ug"`` alternates +1 and -1 on the first ``r - 2`` entries and
    zeros the last two; ``"ig"`` is half of that; ``"avg"`` is the zero
    vector, which lifts to the snapshot mean.

    Raises:
        DimensionError: if ``r < 2`` for the kinds that zero two entries.
        ValueError: for an unknown kind.
    """
    kind = kind.lower()
    if kind not in GUESS_KINDS:
        raise ValueError(f"unknown guess kind {kind!r}, expected one of {GUESS_KINDS}")
    if r < 1:
        raise DimensionError(f"guess length must be positive, got {r}")
    if kind == "avg":
        return np.zeros(r)
    if r < 2:
        raise DimensionError(f"guess kind {kind!r} needs r >= 2, got {r}")
    g = np.zeros(r)
    g[: r - 2] = (-1.0) ** np.arange(r - 2)
    return g if kind == "ug" else 0.5 * g


def _as_guess(guess, r: int) -> np.ndarray:
    if isinstance(guess, str):
        return make_guess(guess, r)
    g = np.asarray(guess, dtype=float)
    if g.shape != (r,):
        raise DimensionError(f"guess has shape {g.shape}, expected ({r},)")
    return g


def _workspace_for(
    basis: PodBasis, r: int, prob: BurgersProblem, workspace: RomWorkspace | None
) -> RomWorkspace:
    if workspace is None:
        return RomWorkspace(basis, r, prob.nu)
    if workspace.basis is not basis:
        raise ValueError("workspace was built for a different basis")
    if workspace.r_max < r:
        raise DimensionError(
            f"workspace serves dimensions up to {workspace.r_max}, requested {r}"
        )
    return workspace


def one_level_solve(
    basis: PodBasis,
    R1: int,
    prob: BurgersProblem,
    guess="ug",
    cfg: NewtonConfig | None = None,
    workspace: RomWorkspace | None = None,
) -> SolveOutcome:
    """Solve the reduced problem at a single dimension ``R1``.

    Args:
        basis: POD basis.
        R1: reduced dimension.
        prob: problem instance (parameter and viscosity).
        guess: starting vector, either a kind name from
            :func:`make_guess` or an explicit vector of length ``R1``.
        cfg: Newton stopping rules.
        workspace: optional precomputed :class:`RomWorkspace` for
            ``basis``; pass one when solving many instances.
    """
    ws = _workspace_for(basis, R1, prob, workspace)
    ops = ws.operators(prob, R1)
    return newton_solve(ops, _as_guess(guess, R1), cfg)


def two_level_solve(
    basis: PodBasis,
    r: int,
    R2: int,
    prob: BurgersProblem,
    guess="ug",
    cfg: NewtonConfig | None = None,
    workspace: RomWorkspace | None = None,
) -> tuple[SolveOutcome, SolveOutcome]:
    """Two-level solve: Newton at dimension ``r``, one linear correction at ``R2``.

    The first stage solves the nonlinear reduced problem at the coarse
    dimension ``r``. The second stage zero-pads the coarse solution to
    ``R2`` and performs a single linear solve of the residual linearized
    about the padded vector; its outcome always reports one iteration.

    ``r`` must satisfy ``1 <= r <= R2``; ``r == R2`` is degenerate (the
    correction step reproduces a Newton step at the fine dimension) and
    is allowed for testing.

    Returns:
        Pair of outcomes ``(coarse stage, correction stage)``.

    Raises:
        SingularLinearSystem: if the correction matrix is singular.
    """
    if not 1 <= r <= R2:
        raise DimensionError(f"need 1 <= r <= R2, got r={r}, R2={R2}")
    ws = _workspace_for(basis, R2, prob, workspace)
    ops_fine = ws.operators(prob, R2)
    outcome1 = newton_solve(rom.restrict(ops_fine, r), _as_guess(guess, r), cfg)

    matrix, rhs = rom.two_level_matrix_rhs(ops_fine, outcome1.coeffs)
    try:
        a2 = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularLinearSystem(
            f"singular correction system at dimension {R2}"
        ) from exc
    res_norm = float(np.linalg.norm(matrix @ a2 - rhs))
    outcome2 = SolveOutcome(
        coeffs=a2,
        iterations=1,
        final_residual_norm=res_norm,
        residual_history=(res_norm,),
    )
    return outcome1, outcome2


def _fom_residual_jacobian(
    mesh: Mesh1D, prob: BurgersProblem, u_coeffs: np.ndarray, f_quad: np.ndarray
):
    """Interior residual and banded interior Jacobian at a full-order iterate.

    The residual tests ``nu (u', v') + (u u' - f, v)``; its derivative in
    the direction ``w`` is ``nu (w', v') + (u' w + u w', v)``.
    """
    u, du = fem.eval_at_quadrature(mesh, u_coeffs)
    res = fem.interior_load(mesh, u * du - f_quad, prob.nu * du)
    return res, fem.interior_band(mesh, vv=du, vd=u, dd=prob.nu)


def fom_solve(
    mesh: Mesh1D, prob: BurgersProblem, cfg: NewtonConfig | None = None
) -> FeFunction:
    """Solve the full-order problem by Newton with a banded direct solver.

    The iteration starts from the linear interpolant of the boundary
    data and updates only the interior unknowns, so the boundary values
    are satisfied exactly at every iterate.

    Raises:
        SingularJacobian: if a banded Newton system is singular.
        NoConvergence: if the stopping rules are not met in time.
    """
    cfg = cfg or NewtonConfig()
    xq, _ = fem.quadrature_points(mesh)
    f_quad = forcing_f(prob, xq)
    u = prob.alpha + (prob.beta - prob.alpha) * (mesh.nodes - mesh.a) / (
        mesh.b - mesh.a
    )
    u = u.astype(float)
    outcome = _newton(
        u,
        lambda u: _fom_residual_jacobian(mesh, prob, u, f_quad),
        lambda band, res: sla.solve_banded((2, 2), band, res),
        slice(1, -1),
        cfg,
        "full-order ",
    )
    return FeFunction(mesh=mesh, coeffs=outcome.coeffs)
