"""Newton solvers for the reduced and full-order problems.

The reduced systems are small and dense, so the Newton step and the
two-level correction are direct dense solves, each one call of LAPACK's
``dgesv``; at these sizes ``np.linalg.solve`` spends as long again on
argument handling. An iterate counts as converged when both the residual
norm and the norm of the step Newton would take from it fall under their
tolerances; the step is then not applied, so a linear problem converges
in exactly one applied step from any start and an exact start converges
in zero.

The one-level model is Newton at ``R1``; the two-level model is Newton
at ``r`` and one solve linearized at ``R2``, the two-grid step of Xu
(SIAM J. Numer. Anal. 1996). So the one-level model is the two-level
model without its correction, and both run through one routine.

The full-order solver works on the interior unknowns after subtracting a
linear interpolant of the boundary data. Each linearization yields the
interior residual and the Jacobian's element matrices
(:func:`fem.element_matrices`), and each Newton step is one call of
:func:`fem.solve_interior` on them: the midside unknowns of the quadratic
elements are condensed out element by element, and the vertices solve a
tridiagonal system. No global Jacobian is assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgesv

from . import fem, rom
from .errors import DimensionError, NoConvergence, SingularJacobian, WorkspaceMismatch
from .errors import check_dimension
from .fem import FeFunction, Mesh1D
from .manufactured import BurgersProblem, Carrier, carrier, forcing_f
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
        tol_residual: residual 2-norm below which an iterate may
            be accepted.
        tol_step: Newton step norm below which an iterate is accepted
            (both tolerances must hold simultaneously).
        max_iter: largest number of applied steps before giving up.
    """

    tol_residual: float = 1e-10
    tol_step: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not (self.tol_residual > 0 and self.tol_step > 0):
            raise ValueError("tolerances must be positive")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(
                f"max_iter must be at least 1 and integral, got {self.max_iter!r}"
            )


# The stopping rules of every solve given no config; frozen, so shared.
_DEFAULT_CONFIG = NewtonConfig()


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one nonlinear (or linearized) solve.

    Attributes:
        coeffs: final coefficient vector.
        iterations: number of Newton steps actually applied.
        final_residual_norm: residual 2-norm at ``coeffs``.
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

    Each iterate contracts ``S a`` once and hands it to both
    :func:`rom.residual` and :func:`rom.jacobian`.

    Args:
        ops: reduced operators defining residual and Jacobian.
        a0: starting coefficients, length ``ops.dim``.
        cfg: stopping rules; defaults to :class:`NewtonConfig`.

    Returns:
        A :class:`SolveOutcome` with the converged coefficients.

    Raises:
        DimensionError: if ``a0`` is not a vector of length ``ops.dim``.
        SingularJacobian: if a Newton system is singular.
        NoConvergence: if the tolerances are not met within
            ``cfg.max_iter`` applied steps, or an iterate goes non-finite.
    """
    cfg = cfg or _DEFAULT_CONFIG
    a = np.array(a0, dtype=float)
    if a.shape != (ops.dim,):
        raise DimensionError(
            f"start vector has shape {a.shape}, operators have dimension {ops.dim}"
        )
    def linearize(a):
        sa = ops.symmetric @ a
        return rom.residual(ops, a, sa), rom.jacobian(ops, a, sa)

    return _newton(a, linearize, _solve_dense, a, cfg, "")


def _solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solution of the dense system ``matrix x = rhs`` by LU with partial pivoting.

    Raises:
        SingularJacobian: if a pivot is exactly zero.
    """
    _, _, x, info = dgesv(matrix, rhs)
    if info > 0:
        raise SingularJacobian(f"singular matrix: zero pivot {info}")
    return x


def _newton(x, linearize, solve, free, cfg: NewtonConfig, what: str) -> SolveOutcome:
    """Newton iteration shared by the reduced and full-order solvers.

    ``linearize(x)`` returns the residual and the Jacobian at ``x``,
    ``solve(J, res)`` the Newton step. ``free`` is the view of ``x`` the
    step updates: ``x`` itself, or its interior when the boundary values
    are fixed. The update is in place, so ``x`` must be an array the
    caller hands over; the outcome and a ``NoConvergence`` carry it.
    ``what`` qualifies the Jacobian and convergence in error messages.

    Norms are ``sqrt(v @ v)``, which is how NumPy computes the 2-norm of
    a vector, so the stopping rule reads the same numbers without the
    call overhead of ``np.linalg.norm``.
    """
    history: list[float] = []
    for steps in range(cfg.max_iter + 1):
        res, jac = linearize(x)
        res_norm = math.sqrt(res @ res)
        history.append(res_norm)
        if not math.isfinite(res_norm):
            raise NoConvergence(
                f"residual went non-finite after {steps} steps", x, res_norm
            )
        try:
            step = solve(jac, res)
        except SingularJacobian as exc:
            raise SingularJacobian(
                f"singular {what}Jacobian at iteration {steps}"
            ) from exc
        if res_norm <= cfg.tol_residual and math.sqrt(step @ step) <= cfg.tol_step:
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
        free -= step
    raise AssertionError("unreachable")


def make_guess(kind: str, r: int) -> np.ndarray:
    """Starting vector of one of the three standard kinds.

    ``"ug"`` alternates +1 and -1 on the first ``r - 2`` entries and
    zeros the last two; ``"ig"`` is half of that; ``"avg"`` is the zero
    vector, which lifts to the snapshot mean.

    Raises:
        DimensionError: if ``r`` is not an integer >= 2, or >= 1 for ``"avg"``.
        ValueError: for an unknown kind.
    """
    kind = kind.lower()
    if kind not in GUESS_KINDS:
        raise ValueError(f"unknown guess kind {kind!r}, expected one of {GUESS_KINDS}")
    check_dimension(r, 1 if kind == "avg" else 2, math.inf, f"{kind!r} guess length")
    if kind == "avg":
        return np.zeros(r)
    g = np.zeros(r)
    g[: r - 2 : 2] = 1.0
    g[1 : r - 2 : 2] = -1.0
    return g if kind == "ug" else 0.5 * g


def _reduced_solve(basis, dims, prob, guess, cfg, workspace):
    """Newton at ``dims[0]`` on the operators at ``dims[-1]``, then one
    linear correction at ``dims[-1]`` when ``dims`` is ``(r, R2)``
    rather than ``(R1,)``; one outcome per entry of ``dims``."""
    r, big_r = dims[0], dims[-1]
    if workspace is None:
        workspace = rom.shared_workspace(basis, big_r, prob.nu)
    elif workspace.basis is not basis:
        raise WorkspaceMismatch("workspace was built for a different basis")
    ops = workspace.operators(prob, big_r)
    coarse_ops = ops if r == big_r else rom.restrict(ops, r)
    if isinstance(guess, str):
        guess = make_guess(guess, r)
    coarse = newton_solve(coarse_ops, guess, cfg)
    if len(dims) == 1:
        return (coarse,)

    matrix, rhs = rom.two_level_matrix_rhs(ops, coarse.coeffs)
    try:
        a2 = _solve_dense(matrix, rhs)
    except SingularJacobian as exc:
        raise SingularJacobian(
            f"singular correction Jacobian at dimension {big_r}"
        ) from exc
    res = matrix @ a2 - rhs
    res_norm = math.sqrt(res @ res)
    return coarse, SolveOutcome(
        coeffs=a2, iterations=1, final_residual_norm=res_norm,
        residual_history=(res_norm,),
    )


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
        cfg: Newton stopping rules; ``None`` for the defaults.
        workspace: a :class:`RomWorkspace` of ``basis`` at ``R1`` or
            above; ``None`` takes the one :func:`rom.shared_workspace`
            keeps for ``basis``, ``R1`` and ``prob.nu``.
    """
    return _reduced_solve(basis, (R1,), prob, guess, cfg, workspace)[0]


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
    :func:`one_level_solve` is this model without the second stage: both
    run through one routine, so on one workspace the first stage equals
    it at ``r``.

    ``r`` must satisfy ``1 <= r <= R2``; ``r == R2`` is degenerate (the
    correction step reproduces a Newton step at the fine dimension) and
    is allowed for testing. ``guess`` (of length ``r``), ``cfg`` and
    ``workspace`` (at ``R2``) are as for :func:`one_level_solve`.

    Returns:
        Pair of outcomes ``(coarse stage, correction stage)``.

    Raises:
        DimensionError: if ``r`` is not an integer in ``[1, R2]``.
        SingularJacobian: if the Jacobian at the padded vector, the
            correction matrix, is singular.
    """
    return _reduced_solve(basis, (r, R2), prob, guess, cfg, workspace)


def _fom_residual_jacobian(
    mesh: Mesh1D,
    prob: BurgersProblem,
    u_coeffs: np.ndarray,
    f_quad: np.ndarray,
    diffusion: np.ndarray,
):
    """Interior residual and the element matrices of the Jacobian
    (:func:`fem.element_matrices`) at a full-order iterate.

    The residual tests ``nu (u', v') + (u u' - f, v)``; its derivative in
    the direction ``w`` is ``nu (w', v') + (u' w + u w', v)``, whose
    first term, ``diffusion``, does not depend on the iterate.
    """
    u, du = fem.eval_at_quadrature(mesh, u_coeffs)
    res = fem.interior_load(mesh, u * du - f_quad, prob.nu * du)
    jac = fem.element_matrices(mesh, vv=du, vd=u)
    jac += diffusion
    return res, jac


@lru_cache(maxsize=16)
def _quadrature_carrier(mesh: Mesh1D, key: tuple) -> Carrier:
    """The carrier of key ``key`` at the quadrature points of ``mesh``,
    built once per mesh and key."""
    return carrier(key, fem.quadrature_points(mesh)[0])


def fom_solve(
    mesh: Mesh1D, prob: BurgersProblem, cfg: NewtonConfig | None = None
) -> FeFunction:
    """Solve the full-order problem by Newton, each step by :func:`fem.solve_interior`.

    The iteration starts from the linear interpolant of the boundary
    data and updates only the interior unknowns, so the boundary values
    are satisfied exactly at every iterate. The forcing is sampled once
    per solve at the quadrature points, through the
    :class:`~rom2l.manufactured.Carrier` there, which is held per mesh
    and carrier key: a solve at a new ``q`` evaluates only the envelope.

    Raises:
        SingularJacobian: if a Newton system is singular.
        NoConvergence: if the stopping rules are not met in time.
    """
    cfg = cfg or _DEFAULT_CONFIG
    f_quad = forcing_f(prob, _quadrature_carrier(mesh, prob.carrier_key))
    diffusion = fem.element_matrices(mesh, dd=prob.nu)
    u = prob.alpha + (prob.beta - prob.alpha) * (mesh.nodes - mesh.a) / (
        mesh.b - mesh.a
    )
    u = u.astype(float)
    outcome = _newton(
        u,
        lambda u: _fom_residual_jacobian(mesh, prob, u, f_quad, diffusion),
        fem.solve_interior,
        u[1:-1],
        cfg,
        "full-order ",
    )
    return FeFunction(mesh=mesh, coeffs=outcome.coeffs)
