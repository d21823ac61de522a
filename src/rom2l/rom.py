"""Galerkin-reduced operators for the steady Burgers equation.

With the reduced solution written as mean plus modal correction,
``u = u_mean + sum_j a_j phi_j``, testing the weak form against each
mode gives a small nonlinear system

    residual(a) = A a + B : (a x a) + b = 0,

where ``A`` collects the viscous term and the convection terms linear in
the correction (both couplings with the mean), ``B`` is the third-order
convection tensor ``B[i, j, k] = integral of phi_j * phi_k' * phi_i``,
and ``b`` holds everything independent of ``a``: the mean's own viscous
and convective contributions minus the projected forcing. ``A`` and
``B`` depend only on the basis and the viscosity; only ``b`` changes
with the forcing parameter, which is what makes the online stage cheap.

Only the part of ``B`` symmetric in its last two slots enters, so the
operators keep the symmetrized tensor ``S = B + B^T`` (transposed in
its last two slots) in place of ``B``. One contraction ``S a`` gives
both the quadratic term ``B : (a x a) = (S a) a / 2`` and the quadratic
part of the Jacobian ``A + S a``: :func:`residual` and :func:`jacobian`
accept it from a caller that holds it, so a Newton iterate contracts
``S`` once for both. The two-level correction, the system linearized
about a padded coarse vector, likewise contracts ``S`` once for its
matrix and its right-hand side.

:class:`RomWorkspace` precomputes the parameter-independent pieces once
per basis at the largest dimension of interest. The operators of any
smaller dimension are leading slice views of its arrays, so one
precomputation serves every dimension without copies. Contractions use
``@``, which passes the strided blocks of a view to BLAS as they are; a
reshaping contraction would copy them on every call. The workspace
remembers the last problem it served with that problem's operators at
``r_max``, so repeated requests for one problem, at any dimension,
restrict them instead of sampling and projecting the forcing again.
A problem is checked once, when the workspace first serves it.

:func:`shared_workspace` remembers the last workspace it assembled,
with its basis, ``r_max`` and viscosity, so callers that hold no
workspace (the harness and the solvers) assemble it once per basis
rather than once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fem
from .errors import DimensionError, MeshMismatch, WorkspaceMismatch, check_dimension
from .manufactured import BurgersProblem, forcing_f
from .pod import PodBasis

__all__ = [
    "RomOperators",
    "RomWorkspace",
    "shared_workspace",
    "residual",
    "jacobian",
    "two_level_matrix_rhs",
    "restrict",
]


@dataclass(frozen=True, eq=False)
class RomOperators:
    """Reduced operators of one problem instance at one dimension.

    The arrays from :meth:`RomWorkspace.operators` or :func:`restrict`
    are views of the workspace's arrays, which serve every dimension and
    every request for the same problem, so they must not be written to.

    Attributes:
        dim: reduced dimension R.
        linear: matrix ``A``, shape (R, R), including the viscous term
            and the mean couplings.
        symmetric: tensor ``S[i, j, k] = B[i, j, k] + B[i, k, j]`` of
            the convection tensor ``B``, shape (R, R, R); the residual,
            the Jacobian and the correction all read it.
        constant: vector ``b``, shape (R,), for the current forcing.
    """

    dim: int
    linear: np.ndarray = field(repr=False)
    symmetric: np.ndarray = field(repr=False)
    constant: np.ndarray = field(repr=False)


class RomWorkspace:
    """Parameter-independent reduced operators, assembled once per basis.

    Assembly is the offline cost of the reduced models; a caller that
    serves many problems holds one workspace or gets it from
    :func:`shared_workspace`.

    All quantities are stored at dimension ``r_max``; requesting a
    smaller dimension takes a view of the leading block, so bases are
    nested by construction. The convection tensor ``B`` is assembled
    once per unordered pair of its first two slots, in which it is
    symmetric, and mirrored into the other half; only its symmetrized
    form ``S`` is kept.

    Args:
        basis: the POD basis.
        r_max: largest reduced dimension this workspace will serve.
        nu: viscosity the operators are assembled with, positive and
            finite.
    """

    def __init__(self, basis: PodBasis, r_max: int, nu: float):
        check_dimension(r_max, 1, basis.rank, "workspace dimension")
        if not 0 < nu < np.inf:
            raise ValueError(f"viscosity must be positive and finite, got {nu}")
        self.basis = basis
        self.r_max = int(r_max)
        self.nu = float(nu)
        mesh = basis.mesh
        self.quad_x, wq = fem.quadrature_points(mesh)
        vals, ders = fem.eval_at_quadrature(mesh, basis.modes[:, :r_max])
        mean_val, mean_der = fem.eval_at_quadrature(mesh, basis.mean.coeffs)

        # A = nu * (phi_j', phi_i') + (mean * phi_j' + phi_j * mean', phi_i)
        self.linear = (
            self.nu * (ders.T * wq) @ ders
            + (vals.T * (wq * mean_val)) @ ders
            + (vals.T * (wq * mean_der)) @ vals
        )
        # B[i, j, k] = (phi_j * phi_k', phi_i), built one i-slab at a time
        # to keep the working set small. It is symmetric in i and j, so
        # slab i computes only the rows j >= i and mirrors them into
        # B[j, i]: one product per unordered pair, and B is exactly
        # symmetric in its first two slots.
        quad = np.empty((r_max, r_max, r_max))
        for i in range(r_max):
            quad[i, i:] = (vals[:, i:] * (wq * vals[:, i])[:, None]).T @ ders
            quad[i + 1:, i] = quad[i, i + 1:]
        self.symmetric = quad + quad.transpose(0, 2, 1)
        # b = nu * (mean', phi_i') + (mean * mean', phi_i) - (f, phi_i);
        # the forcing term is applied per parameter via the load map.
        self.constant_base = self.nu * ders.T @ (wq * mean_der) + vals.T @ (
            wq * mean_val * mean_der
        )
        self.load_map = (vals * wq[:, None]).T  # maps f at quad points to (f, phi_i)
        self._ends = (float(basis.mean.coeffs[0]), float(basis.mean.coeffs[-1]))
        # The last problem served and its operators at r_max.
        self._memo: tuple[BurgersProblem, RomOperators] | None = None

    def forcing_values(self, prob: BurgersProblem) -> np.ndarray:
        """Load vector ``b`` of ``prob`` at ``r_max``.

        A problem other than the last one served is checked; an admitted
        one has its forcing sampled at the quadrature points, projected,
        and remembered with the operators in place of the last problem's
        (the samples are not kept). A refused one leaves the memo as is.

        Raises:
            WorkspaceMismatch: if ``prob`` has another viscosity than
                the workspace was assembled with.
            MeshMismatch: if ``prob`` lives on another interval than the
                basis, or its boundary values differ from the end values
                of the basis mean, which carries them.
        """
        memo = self._memo
        if memo is not None and memo[0] == prob:
            return memo[1].constant
        if prob.nu != self.nu:
            raise WorkspaceMismatch(
                f"workspace was assembled with nu={self.nu}, problem has {prob.nu}"
            )
        mesh = self.basis.mesh
        if (prob.a, prob.b) != (mesh.a, mesh.b):
            raise MeshMismatch(
                f"basis lives on [{mesh.a}, {mesh.b}], problem on [{prob.a}, {prob.b}]"
            )
        for name, value, end in zip(
            ("alpha", "beta"), (prob.alpha, prob.beta), self._ends
        ):
            if abs(value - end) > 1e-12 * max(1.0, abs(value)):
                raise MeshMismatch(
                    f"problem has {name}={value}, the basis mean has end value {end}"
                )
        load = self.constant_base - self.load_map @ forcing_f(prob, self.quad_x)
        self._memo = (prob, RomOperators(self.r_max, self.linear, self.symmetric, load))
        return load

    def operators(self, prob: BurgersProblem, r: int) -> RomOperators:
        """Reduced operators for one problem instance at dimension ``r``.

        Views of the remembered operators, restricted to ``r``; nothing is
        recomputed when ``prob`` is the last problem served.

        Raises:
            WorkspaceMismatch, MeshMismatch: from :meth:`forcing_values`.
            DimensionError: if ``r`` is not an integer in ``[1, r_max]``.
        """
        self.forcing_values(prob)  # admits prob and refills the memo if new
        return restrict(self._memo[1], r)


@lru_cache(maxsize=1)
def shared_workspace(basis: PodBasis, r_max: int, nu: float) -> RomWorkspace:
    """The workspace of ``basis`` at ``r_max`` and ``nu``, assembled once,
    for callers that hold none: the harness, and the solvers given none.

    Only the last workspace is remembered: a request with the same basis
    object, the same ``r_max`` and the same ``nu`` gets it back, any
    other request assembles a new one that takes its place. The basis is
    matched by identity (:class:`~rom2l.pod.PodBasis` compares that way)
    and held until then; its arrays are read-only, so it cannot change
    under the workspace. ``r_max`` is matched exactly, so no caller is
    served the leading views of a larger workspace.

    Raises:
        DimensionError, ValueError: from :class:`RomWorkspace`.
    """
    return RomWorkspace(basis, r_max, nu)


def restrict(ops: RomOperators, r: int) -> RomOperators:
    """Leading dimension-``r`` block of ``ops``, as views.

    Nested bases make this the operators of the same problem at
    dimension ``r``; the load vector is sliced, not recomputed.

    Raises:
        DimensionError: if ``r`` is not an integer in ``[1, ops.dim]``.
    """
    check_dimension(r, 1, ops.dim)
    return RomOperators(
        dim=r,
        linear=ops.linear[:r, :r],
        symmetric=ops.symmetric[:r, :r, :r],
        constant=ops.constant[:r],
    )


def _check_coeffs(ops: RomOperators, a: np.ndarray, name: str = "a") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (ops.dim,):
        raise DimensionError(
            f"{name} has shape {a.shape}, operators have dimension {ops.dim}"
        )
    return a


def residual(
    ops: RomOperators, a: np.ndarray, sa: np.ndarray | None = None
) -> np.ndarray:
    """Nonlinear residual ``A a + B : (a x a) + b = A a + (S a) a / 2 + b``.

    ``sa`` is the contraction ``S a`` when the caller already holds it,
    as the Newton iteration does for the Jacobian at the same iterate;
    then ``a`` is taken as given, a float vector of length ``ops.dim``.
    Without it ``a`` is checked and contracted here.
    """
    if sa is None:
        a = _check_coeffs(ops, a)
        sa = ops.symmetric @ a
    return ops.linear @ a + 0.5 * (sa @ a) + ops.constant


def jacobian(
    ops: RomOperators, a: np.ndarray, sa: np.ndarray | None = None
) -> np.ndarray:
    """Jacobian of the residual: ``A + B(., a, .) + B(., ., a)``.

    Both contractions of ``B`` are one contraction of the symmetrized
    tensor, ``A + S a``. ``sa`` is that contraction when the caller
    already holds it, as for :func:`residual`; ``a`` is then not read.
    """
    if sa is None:
        sa = ops.symmetric @ _check_coeffs(ops, a)
    return ops.linear + sa


def two_level_matrix_rhs(
    ops: RomOperators, a_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear system of the two-level correction step.

    The coarse solution ``a_r`` (dimension r <= R) is zero-padded to the
    full dimension R of ``ops``; the correction step solves the residual
    linearized about that padded vector. Moving the known quadratic part
    to the right-hand side gives, with ``Sp = S pad`` contracted once,

        M = A + Sp
        rhs = B : (pad x pad) - b = (Sp pad) / 2 - b

    so ``M`` equals the Newton Jacobian at the padded vector, and if
    ``a_r`` already solves the dimension-R system exactly the solve
    returns it unchanged.

    Returns:
        Pair ``(M, rhs)`` with ``M`` of shape (R, R) and ``rhs`` of
        shape (R,).
    """
    a_r = np.asarray(a_r, dtype=float)
    if a_r.ndim != 1 or not 1 <= a_r.size <= ops.dim:
        raise DimensionError(
            f"coarse solution has shape {a_r.shape}, "
            f"needs 1 <= r <= {ops.dim}"
        )
    padded = np.zeros(ops.dim)
    padded[: a_r.size] = a_r
    s_pad = ops.symmetric @ padded
    return ops.linear + s_pad, 0.5 * (s_pad @ padded) - ops.constant
