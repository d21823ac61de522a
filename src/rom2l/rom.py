"""Galerkin-reduced operators for the steady Burgers equation.

With the reduced solution written as mean plus modal correction,
``u = u_mean + sum_j a_j phi_j``, testing the weak form against each
mode gives a small nonlinear system

    residual(a) = A a + (B : a x a) + b = 0,

where ``A`` collects the viscous term and the convection terms linear in
the correction (both couplings with the mean), ``B`` is the third-order
convection tensor ``B[i, j, k] = integral of phi_j * phi_k' * phi_i``,
and ``b`` holds everything independent of ``a``: the mean's own viscous
and convective contributions minus the projected forcing. ``A`` and
``B`` depend only on the basis and the viscosity; only ``b`` changes
with the forcing parameter, which is what makes the online stage cheap.

:class:`RomWorkspace` precomputes the parameter-independent pieces once
per basis at the largest dimension of interest. The operators of any
smaller dimension are leading slice views of its arrays, so one
precomputation serves every dimension without copies. The Jacobian
contracts ``B`` with ``@``, which passes the strided blocks of a view to
BLAS as they are; a reshaping contraction would copy them on every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import DimensionError, MeshMismatch
from .manufactured import BurgersProblem, forcing_f
from .pod import PodBasis

__all__ = [
    "RomOperators",
    "RomWorkspace",
    "assemble_operators",
    "residual",
    "jacobian",
    "two_level_matrix_rhs",
    "restrict",
]


@dataclass(frozen=True, eq=False)
class RomOperators:
    """Reduced operators of one problem instance at one dimension.

    ``linear`` and ``quadratic`` from :meth:`RomWorkspace.operators` or
    :func:`restrict` are views shared with the workspace (and with every
    other dimension it serves), so they must not be written to.

    Attributes:
        dim: reduced dimension R.
        linear: matrix ``A``, shape (R, R), including the viscous term
            and the mean couplings.
        quadratic: tensor ``B``, shape (R, R, R).
        constant: vector ``b``, shape (R,), for the current forcing.
    """

    dim: int
    linear: np.ndarray = field(repr=False)
    quadratic: np.ndarray = field(repr=False)
    constant: np.ndarray = field(repr=False)


def _basis_fingerprint(basis: PodBasis) -> str:
    """Provenance tag that is the same in every process for the same basis."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(basis.mean.coeffs).tobytes())
    digest.update(np.ascontiguousarray(basis.modes).tobytes())
    return (
        f"rank={basis.rank};ip={basis.inner_product};"
        f"nodes={basis.mesh.n_nodes};sha256={digest.hexdigest()}"
    )


class RomWorkspace:
    """Parameter-independent reduced operators, assembled once per basis.

    All quantities are stored at dimension ``r_max``; requesting a
    smaller dimension takes a view of the leading block, so bases are
    nested by construction.

    Args:
        basis: the POD basis.
        r_max: largest reduced dimension this workspace will serve.
        nu: viscosity the operators are assembled with.
    """

    def __init__(self, basis: PodBasis, r_max: int, nu: float):
        if not 1 <= r_max <= basis.rank:
            raise DimensionError(
                f"workspace dimension {r_max} outside [1, {basis.rank}]"
            )
        if nu <= 0:
            raise ValueError(f"viscosity must be positive, got {nu}")
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
        # to keep the working set small.
        quad = np.empty((r_max, r_max, r_max))
        for i in range(r_max):
            quad[i] = (vals * (wq * vals[:, i])[:, None]).T @ ders
        self.quadratic = quad
        # b = nu * (mean', phi_i') + (mean * mean', phi_i) - (f, phi_i);
        # the forcing term is applied per parameter via the load map.
        self.constant_base = self.nu * ders.T @ (wq * mean_der) + vals.T @ (
            wq * mean_val * mean_der
        )
        self.load_map = (vals * wq[:, None]).T  # maps f at quad points to (f, phi_i)
        self.fingerprint = _basis_fingerprint(basis)
        self._ends = (float(basis.mean.coeffs[0]), float(basis.mean.coeffs[-1]))
        self._forcing_cache: dict[BurgersProblem, np.ndarray] = {}

    def _dim(self, r: int | None) -> int:
        r = self.r_max if r is None else int(r)
        if not 1 <= r <= self.r_max:
            raise DimensionError(f"dimension {r} outside [1, {self.r_max}]")
        return r

    def forcing_values(self, prob: BurgersProblem) -> np.ndarray:
        """Forcing sampled at the quadrature points, cached per problem."""
        vals = self._forcing_cache.get(prob)
        if vals is None:
            vals = forcing_f(prob, self.quad_x)
            if len(self._forcing_cache) >= 8:
                self._forcing_cache.pop(next(iter(self._forcing_cache)))
            self._forcing_cache[prob] = vals
        return vals

    def load_vector(self, f_quad_values: np.ndarray, r: int | None = None) -> np.ndarray:
        """Constant vector ``b`` for forcing given by its quadrature values."""
        r = self._dim(r)
        return self.constant_base[:r] - self.load_map[:r] @ f_quad_values

    def operators(self, prob: BurgersProblem, r: int | None = None) -> RomOperators:
        """Reduced operators for one problem instance at dimension ``r``.

        Raises:
            MeshMismatch: if ``prob`` lives on another interval than the
                basis, or its boundary values differ from the end values
                of the basis mean, which carries them.
        """
        if prob.nu != self.nu:
            raise ValueError(
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
        r = self._dim(r)
        return RomOperators(
            dim=r,
            linear=self.linear[:r, :r],
            quadratic=self.quadratic[:r, :r, :r],
            constant=self.load_vector(self.forcing_values(prob), r),
        )


def assemble_operators(basis: PodBasis, R: int, prob: BurgersProblem) -> RomOperators:
    """Assemble the reduced operators of one problem at dimension ``R``.

    Convenience wrapper that builds a throwaway workspace; when many
    parameters or dimensions share one basis, build a
    :class:`RomWorkspace` once and reuse it.
    """
    return RomWorkspace(basis, R, prob.nu).operators(prob, R)


def restrict(ops: RomOperators, r: int) -> RomOperators:
    """Leading dimension-``r`` block of ``ops``, as views.

    Nested bases make this the operators of the same problem at
    dimension ``r``; the load vector is sliced, not recomputed.

    Raises:
        DimensionError: if ``r`` is outside ``[1, ops.dim]``.
    """
    if not 1 <= r <= ops.dim:
        raise DimensionError(f"dimension {r} outside [1, {ops.dim}]")
    return RomOperators(
        dim=r,
        linear=ops.linear[:r, :r],
        quadratic=ops.quadratic[:r, :r, :r],
        constant=ops.constant[:r],
    )


def _check_coeffs(ops: RomOperators, a: np.ndarray, name: str = "a") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (ops.dim,):
        raise DimensionError(
            f"{name} has shape {a.shape}, operators have dimension {ops.dim}"
        )
    return a


def residual(ops: RomOperators, a: np.ndarray) -> np.ndarray:
    """Nonlinear residual ``A a + B : (a x a) + b``."""
    a = _check_coeffs(ops, a)
    return ops.linear @ a + (ops.quadratic @ a) @ a + ops.constant


def jacobian(ops: RomOperators, a: np.ndarray) -> np.ndarray:
    """Jacobian of the residual: ``A + B(., a, .) + B(., ., a)``."""
    a = _check_coeffs(ops, a)
    return ops.linear + a @ ops.quadratic + ops.quadratic @ a


def two_level_matrix_rhs(
    ops: RomOperators, a_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear system of the two-level correction step.

    The coarse solution ``a_r`` (dimension r <= R) is zero-padded to the
    full dimension R of ``ops``; the correction step solves the residual
    linearized about that padded vector. Moving the known quadratic part
    to the right-hand side gives

        M = A + B(., pad, .) + B(., ., pad)
        rhs = B : (pad x pad) - b

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
    matrix = jacobian(ops, padded)
    rhs = (ops.quadratic @ padded) @ padded - ops.constant
    return matrix, rhs
