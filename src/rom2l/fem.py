"""Quadratic Lagrange finite elements on a uniform 1D mesh.

This module provides the full-order discretization layer: mesh
construction, nodal interpolation, evaluation at quadrature points,
assembly, the L2 norm, and the trilinear convection form. Everything
is built on a 3-point Gauss-Legendre rule, which integrates polynomials
of degree five exactly and is therefore exact for every product of
quadratic shape functions and their derivatives that appears below.

Element ``e`` of a mesh with ``n_elems`` elements owns the three global
nodes ``2e``, ``2e + 1``, ``2e + 2`` (vertex, midside, vertex), so a mesh
has ``2 * n_elems + 1`` nodes in total.

All assembly goes through :func:`interior_band` and :func:`interior_load`,
whose coefficients are scalars or values at the quadrature points; the
matrix comes in the banded layout of ``scipy.linalg.solve_banded``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidMesh, MeshMismatch

__all__ = [
    "REF_POINTS",
    "REF_WEIGHTS",
    "REF_SHAPE",
    "REF_DSHAPE",
    "Mesh1D",
    "FeFunction",
    "build_mesh",
    "element_connectivity",
    "quadrature_points",
    "eval_at_quadrature",
    "interior_band",
    "interior_load",
    "interpolate",
    "evaluate",
    "l2_norm",
    "trilinear_b",
]

# 3-point Gauss-Legendre rule on the reference element [-1, 1].
REF_POINTS = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
REF_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def _shape(xi: np.ndarray) -> np.ndarray:
    """Quadratic Lagrange shapes at reference coordinates, shape (n, 3)."""
    xi = np.asarray(xi, dtype=float)
    return np.stack(
        [0.5 * xi * (xi - 1.0), 1.0 - xi * xi, 0.5 * xi * (xi + 1.0)], axis=-1
    )


def _dshape(xi: np.ndarray) -> np.ndarray:
    """Reference derivatives of the quadratic Lagrange shapes, shape (n, 3)."""
    xi = np.asarray(xi, dtype=float)
    return np.stack([xi - 0.5, -2.0 * xi, xi + 0.5], axis=-1)


# Shape values and reference derivatives tabulated at the quadrature
# points: rows are quadrature points, columns are the three local nodes.
REF_SHAPE = _shape(REF_POINTS)
REF_DSHAPE = _dshape(REF_POINTS)


# Quadrature-weighted products of test shape l and trial shape m on the
# reference element, column 3l + m: value-value, value-derivative and
# derivative-derivative. An element matrix is a coefficient's three
# values on the element times one of these.
_W = REF_WEIGHTS[:, None, None]
_VV = (_W * REF_SHAPE[:, :, None] * REF_SHAPE[:, None, :]).reshape(3, 9)
_VD = (_W * REF_SHAPE[:, :, None] * REF_DSHAPE[:, None, :]).reshape(3, 9)
_DD = (_W * REF_DSHAPE[:, :, None] * REF_DSHAPE[:, None, :]).reshape(3, 9)
# C-ordered transposes: a GEMM against these runs about three times
# faster than against the transposed views.
_SHAPE_T, _DSHAPE_T = REF_SHAPE.T.copy(), REF_DSHAPE.T.copy()


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Uniform mesh of quadratic elements on an interval.

    Attributes:
        a: left endpoint.
        b: right endpoint.
        h: element size ``(b - a) / n_elems``.
        n_elems: number of elements.
        nodes: node coordinates, length ``2 * n_elems + 1``.
    """

    a: float
    b: float
    h: float
    n_elems: int
    nodes: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_elems + 1


@dataclass(frozen=True, eq=False)
class FeFunction:
    """A finite element function given by its nodal coefficients."""

    mesh: Mesh1D
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.mesh.n_nodes,):
            raise MeshMismatch(
                f"coefficient vector has shape {coeffs.shape}, "
                f"mesh has {self.mesh.n_nodes} nodes"
            )
        object.__setattr__(self, "coeffs", coeffs)


def build_mesh(a: float, b: float, h: float) -> Mesh1D:
    """Build a uniform quadratic mesh on ``[a, b]`` with target element size ``h``.

    ``(b - a) / h`` must be a whole number to within a relative
    tolerance of 1e-9; the actual element size is recomputed from the
    rounded element count so the nodes exactly tile the interval.

    Raises:
        InvalidMesh: if ``a >= b``, ``h <= 0``, or ``h`` does not divide
            the interval length.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
        raise InvalidMesh(f"need a < b, got [{a}, {b}]")
    if not np.isfinite(h) or h <= 0:
        raise InvalidMesh(f"element size must be positive, got {h}")
    ratio = (b - a) / h
    n_elems = int(round(ratio))
    if n_elems < 1 or abs(ratio - n_elems) > 1e-9 * max(ratio, 1.0):
        raise InvalidMesh(f"element size {h} does not divide interval [{a}, {b}]")
    h_actual = (b - a) / n_elems
    nodes = a + 0.5 * h_actual * np.arange(2 * n_elems + 1)
    nodes[-1] = b
    return Mesh1D(a=float(a), b=float(b), h=h_actual, n_elems=n_elems, nodes=nodes)


def element_connectivity(mesh: Mesh1D) -> np.ndarray:
    """Global node indices per element, shape ``(n_elems, 3)``, read-only."""
    return _scatter_maps(mesh.n_elems)[0].reshape(-1, 3)


def quadrature_points(mesh: Mesh1D) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points and weights for the whole mesh.

    Returns:
        Pair ``(x, w)`` of flat arrays with ``3 * n_elems`` entries each,
        ordered element by element. The weights include the Jacobian
        ``h / 2``, so ``w @ g(x)`` approximates the integral of ``g``.
    """
    mids = 0.5 * (mesh.nodes[0:-1:2] + mesh.nodes[2::2])
    x = (mids[:, None] + 0.5 * mesh.h * REF_POINTS[None, :]).ravel()
    w = np.tile(0.5 * mesh.h * REF_WEIGHTS, mesh.n_elems)
    return x, w


def eval_at_quadrature(mesh: Mesh1D, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and first derivatives of FE coefficient columns at quadrature points.

    Args:
        mesh: the mesh.
        coeffs: nodal coefficients, shape ``(n_nodes,)`` or ``(n_nodes, m)``.

    Returns:
        Pair ``(values, derivatives)`` with shape ``(3 * n_elems,)`` or
        ``(3 * n_elems, m)``, matching the ordering of
        :func:`quadrature_points`.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape[0] != mesh.n_nodes:
        raise MeshMismatch(
            f"coefficients have {c.shape[0]} rows, mesh has {mesh.n_nodes} nodes"
        )
    # One (columns * n_elems, 3) block of element coefficients, so each
    # table product is a single GEMM.
    columns = c.T.reshape(-1, mesh.n_nodes)
    local = columns[:, element_connectivity(mesh)].reshape(-1, 3)
    shape = c.shape[1:] + (-1,)
    vals = (local @ _SHAPE_T).reshape(shape).T
    ders = ((2.0 / mesh.h) * (local @ _DSHAPE_T)).reshape(shape).T
    return vals, ders


@lru_cache(maxsize=16)
def _scatter_maps(n_elems: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element-to-global index maps, built once per element count: ``nodes``
    (global node of each load entry), ``keep`` (element matrix entries that
    couple two interior nodes) and their flat indices in the band."""
    nodes = (2 * np.arange(n_elems)[:, None] + np.arange(3)).ravel()
    n_int = 2 * n_elems - 1
    rows = np.repeat(nodes - 1, 3)
    cols = np.tile((nodes - 1).reshape(-1, 3), 3).ravel()
    keep = (rows >= 0) & (rows < n_int) & (cols >= 0) & (cols < n_int)
    nodes.setflags(write=False)
    return nodes, keep, ((2 + rows - cols) * n_int + cols)[keep]


def _per_element(mesh: Mesh1D, coef) -> np.ndarray:
    """A scalar or quadrature-point coefficient as ``(n_elems, 3)`` values."""
    coef = np.broadcast_to(np.asarray(coef, dtype=float), (3 * mesh.n_elems,))
    return coef.reshape(-1, 3)


def interior_band(mesh: Mesh1D, vv=0.0, vd=0.0, dd=0.0) -> np.ndarray:
    """Interior matrix of the form ``(vv w + vd w', v) + (dd w', v')``.

    Each coefficient is a scalar or its ``3 * n_elems`` values at
    :func:`quadrature_points`. Row ``i`` tests with interior shape ``i``,
    column ``j`` is the trial shape ``w``. The result has the
    ``(5, n_nodes - 2)`` layout of ``scipy.linalg.solve_banded((2, 2), ...)``:
    ``band[2 + i - j, j]`` holds entry ``(i, j)``.
    """
    element = (
        (0.5 * mesh.h) * (_per_element(mesh, vv) @ _VV)
        + _per_element(mesh, vd) @ _VD
        + (2.0 / mesh.h) * (_per_element(mesh, dd) @ _DD)
    )
    _, keep, band_index = _scatter_maps(mesh.n_elems)
    n_int = mesh.n_nodes - 2
    band = np.bincount(band_index, element.ravel()[keep], minlength=5 * n_int)
    return band.reshape(5, n_int)


def interior_load(mesh: Mesh1D, v, d) -> np.ndarray:
    """Interior vector ``(v, phi_i) + (d, phi_i')``, coefficients as in
    :func:`interior_band`."""
    v, d = _per_element(mesh, v) * REF_WEIGHTS, _per_element(mesh, d) * REF_WEIGHTS
    element = (0.5 * mesh.h) * (v @ REF_SHAPE) + d @ REF_DSHAPE
    nodes, _, _ = _scatter_maps(mesh.n_elems)
    return np.bincount(nodes, element.ravel(), minlength=mesh.n_nodes)[1:-1]


def interpolate(mesh: Mesh1D, f: Callable[[np.ndarray], np.ndarray]) -> FeFunction:
    """Nodal interpolant of a scalar function.

    ``f`` may be vectorized over numpy arrays or accept scalars only;
    a per-point fallback handles the latter.
    """
    try:
        vals = np.asarray(f(mesh.nodes), dtype=float)
        if vals.shape != mesh.nodes.shape:
            raise TypeError
    except TypeError:
        vals = np.array([float(f(x)) for x in mesh.nodes])
    return FeFunction(mesh=mesh, coeffs=vals)


def evaluate(u: FeFunction, x: np.ndarray) -> np.ndarray:
    """Evaluate an FE function at arbitrary points inside its interval.

    Points may lie anywhere in ``[a, b]``; values slightly outside (within
    1e-12 of the endpoints, e.g. from round-off) are clamped.
    """
    mesh = u.mesh
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    tol = 1e-12 * max(abs(mesh.a), abs(mesh.b), 1.0)
    if xs.min() < mesh.a - tol or xs.max() > mesh.b + tol:
        raise ValueError(f"points outside mesh interval [{mesh.a}, {mesh.b}]")
    xc = np.clip(xs, mesh.a, mesh.b)
    elem = np.minimum(((xc - mesh.a) / mesh.h).astype(int), mesh.n_elems - 1)
    mids = mesh.a + (elem + 0.5) * mesh.h
    xi = 2.0 * (xc - mids) / mesh.h
    local = u.coeffs[element_connectivity(mesh)[elem]]  # (n, 3)
    vals = np.einsum("nl,nl->n", _shape(xi), local)
    return vals[0] if scalar else vals


def _integral(mesh: Mesh1D, values: np.ndarray) -> float:
    """Quadrature sum of values given at :func:`quadrature_points`."""
    return float(0.5 * mesh.h * np.sum(values.reshape(-1, 3) @ REF_WEIGHTS))


def l2_norm(u: FeFunction) -> float:
    """L2 norm of an FE function; the quadrature is exact for its square."""
    vals, _ = eval_at_quadrature(u.mesh, u.coeffs)
    return float(np.sqrt(_integral(u.mesh, vals * vals)))


def _check_same_mesh(*funcs: FeFunction) -> Mesh1D:
    mesh = funcs[0].mesh
    for g in funcs[1:]:
        if g.mesh is mesh:
            continue
        same = (
            g.mesh.n_elems == mesh.n_elems
            and g.mesh.a == mesh.a
            and g.mesh.b == mesh.b
        )
        if not same:
            raise MeshMismatch("FE functions live on different meshes")
    return mesh


def trilinear_b(u: FeFunction, v: FeFunction, w: FeFunction) -> float:
    """Convection form ``integral of u * v' * w`` over the interval."""
    mesh = _check_same_mesh(u, v, w)
    coeffs = np.column_stack([u.coeffs, v.coeffs, w.coeffs])
    vals, ders = eval_at_quadrature(mesh, coeffs)
    return _integral(mesh, vals[:, 0] * ders[:, 1] * vals[:, 2])
