"""Quadratic Lagrange finite elements on a uniform 1D mesh.

This module provides the full-order discretization layer: mesh
construction, evaluation at quadrature points, assembly, the L2 norm,
and the trilinear convection form. Everything is built on a 3-point
Gauss-Legendre rule, which integrates polynomials of degree five exactly
and is therefore exact for every product of quadratic shape functions
and their derivatives that appears below.

Element ``e`` of a mesh with ``n_elems`` elements owns the three global
nodes ``2e``, ``2e + 1``, ``2e + 2`` (vertex, midside, vertex), so a mesh
has ``2 * n_elems + 1`` nodes in total.

Every bilinear form is assembled from :func:`element_matrices`, whose
coefficients are scalars or values at the quadrature points; the load
vectors come from :func:`interior_load`. The interior unknowns are the
nodes ``1 .. n_nodes - 2``: interior index ``2e`` is the midside of
element ``e`` and index ``2e + 1`` the vertex it shares with element
``e + 1``. The one solver, :func:`solve_interior`, reads the element
matrices directly: it eliminates the midsides element by element (static
condensation, Guyan, AIAA J. 1965) and solves the tridiagonal system left
on the vertices, so no global matrix is formed. :func:`interior_band`
assembles the element matrices into the five diagonals of the interior
matrix, the form that banded Cholesky and ``dgbmv`` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import InvalidMesh, MeshMismatch, SingularJacobian

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
    "element_matrices",
    "interior_band",
    "interior_load",
    "solve_interior",
    "l2_norm",
    "trilinear_b",
]

# 3-point Gauss-Legendre rule on the reference element [-1, 1].
REF_POINTS = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
REF_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


# Values and reference derivatives of the quadratic Lagrange shapes
# tabulated at the quadrature points: rows are quadrature points, columns
# are the three local nodes.
_XI = REF_POINTS[:, None]
REF_SHAPE = np.hstack(
    [0.5 * _XI * (_XI - 1.0), 1.0 - _XI * _XI, 0.5 * _XI * (_XI + 1.0)]
)
REF_DSHAPE = np.hstack([_XI - 0.5, -2.0 * _XI, _XI + 0.5])


# Quadrature-weighted products of test shape l and trial shape m on the
# reference element, row 3l + m: value-value, value-derivative and
# derivative-derivative. An element matrix is one of these times a
# coefficient's three values on the element.
_W = REF_WEIGHTS[:, None, None]
_VV = (_W * REF_SHAPE[:, :, None] * REF_SHAPE[:, None, :]).reshape(3, 9).T.copy()
_VD = (_W * REF_SHAPE[:, :, None] * REF_DSHAPE[:, None, :]).reshape(3, 9).T.copy()
_DD = (_W * REF_DSHAPE[:, :, None] * REF_DSHAPE[:, None, :]).reshape(3, 9).T.copy()
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
        Both are built once per mesh and are read-only.
    """
    return _quadrature(mesh)


@lru_cache(maxsize=16)
def _quadrature(mesh: Mesh1D) -> tuple[np.ndarray, np.ndarray]:
    mids = 0.5 * (mesh.nodes[0:-1:2] + mesh.nodes[2::2])
    x = (mids[:, None] + 0.5 * mesh.h * REF_POINTS[None, :]).ravel()
    w = np.tile(0.5 * mesh.h * REF_WEIGHTS, mesh.n_elems)
    x.setflags(write=False)
    w.setflags(write=False)
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
    local = columns.take(element_connectivity(mesh), axis=1).reshape(-1, 3)
    shape = c.shape[1:] + (-1,)
    vals = (local @ _SHAPE_T).reshape(shape).T
    ders = ((2.0 / mesh.h) * (local @ _DSHAPE_T)).reshape(shape).T
    return vals, ders


@lru_cache(maxsize=16)
def _scatter_maps(n_elems: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element-to-global index maps, built once per element count: ``nodes``
    (the global node of each local node, element by element), ``keep``
    (the entries of element-major element matrices that couple two
    interior nodes) and their flat indices in the band."""
    nodes = (2 * np.arange(n_elems)[:, None] + np.arange(3)).ravel()
    n_int = 2 * n_elems - 1
    rows = np.repeat(nodes - 1, 3)
    cols = np.tile((nodes - 1).reshape(-1, 3), 3).ravel()
    keep = (rows >= 0) & (rows < n_int) & (cols >= 0) & (cols < n_int)
    nodes.setflags(write=False)
    return nodes, keep, ((2 + rows - cols) * n_int + cols)[keep]


@lru_cache(maxsize=16)
def _point_weights(n_elems: int) -> np.ndarray:
    """``REF_WEIGHTS`` at every quadrature point of ``n_elems`` elements,
    built once per element count and read-only."""
    weights = np.tile(REF_WEIGHTS, n_elems)
    weights.setflags(write=False)
    return weights


def _per_point(mesh: Mesh1D, coef) -> np.ndarray:
    """A scalar or quadrature-point coefficient as its values on each
    element, ``(3, n_elems)`` with row ``g`` at quadrature point ``g``."""
    coef = np.asarray(coef, dtype=float)
    if coef.ndim == 0:
        return np.broadcast_to(coef, (3, mesh.n_elems))
    if coef.shape != (3 * mesh.n_elems,):
        raise MeshMismatch(
            f"coefficient has shape {coef.shape}, mesh has "
            f"{3 * mesh.n_elems} quadrature points"
        )
    return coef.reshape(-1, 3).T


def element_matrices(mesh: Mesh1D, vv=None, vd=None, dd=None) -> np.ndarray:
    """Element matrices of the form ``(vv w + vd w', v) + (dd w', v')``.

    Each coefficient is a scalar or its ``3 * n_elems`` values at
    :func:`quadrature_points`; one left out adds nothing. Local node 0 is
    an element's left vertex, 1 its midside and 2 its right vertex;
    ``mats[3 * l + m, e]`` is the entry of element ``e`` testing with its
    shape ``l`` against its trial shape ``m``. The result has shape
    ``(9, n_elems)``, one contiguous row per entry, and sums entrywise
    with the matrices of other coefficients. :func:`solve_interior`
    solves the interior system they assemble to without assembling it;
    :func:`interior_band` assembles it.
    """
    mats = None
    for table, scale, coef in (
        (_VV, 0.5 * mesh.h, vv), (_VD, 1.0, vd), (_DD, 2.0 / mesh.h, dd)
    ):
        if coef is None:
            continue
        term = table @ _per_point(mesh, coef)
        if scale != 1.0:
            term *= scale
        if mats is None:
            mats = term
        else:
            mats += term
    return np.zeros((9, mesh.n_elems)) if mats is None else mats


def interior_band(mesh: Mesh1D, vv=None, vd=None, dd=None) -> np.ndarray:
    """The interior matrix that :func:`element_matrices` of the same
    arguments assembles to, in banded form.

    Row ``i`` tests with interior shape ``i``, column ``j`` is the trial
    shape. The result holds the five diagonals in a ``(5, n_nodes - 2)``
    array, ``band[2 + i - j, j]`` being entry ``(i, j)`` (BLAS general
    band storage, which ``dgbmv`` reads). A midside couples only to the
    vertices of its element, so the entries two off the diagonal are
    nonzero in vertex columns only, and the corner slots outside the
    matrix are zero.
    """
    mats = element_matrices(mesh, vv, vd, dd)
    _, keep, band_index = _scatter_maps(mesh.n_elems)
    n_int = mesh.n_nodes - 2
    band = np.bincount(band_index, mats.T.ravel()[keep], minlength=5 * n_int)
    return band.reshape(5, n_int)


def interior_load(mesh: Mesh1D, v, d) -> np.ndarray:
    """Interior vector ``(v, phi_i) + (d, phi_i')``, coefficients as in
    :func:`element_matrices`.

    Each element's three loads are summed into the interior: a midside
    takes its element's, an interior vertex those of its two elements.
    """
    weights = _point_weights(mesh.n_elems)
    loads = _SHAPE_T @ _per_point(mesh, np.multiply(v, weights))
    loads *= 0.5 * mesh.h
    loads += _DSHAPE_T @ _per_point(mesh, np.multiply(d, weights))
    load = np.empty(mesh.n_nodes - 2)
    load[0::2] = loads[1]
    np.add(loads[2, :-1], loads[0, 1:], out=load[1::2])
    return load


def solve_interior(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solution of ``M x = rhs`` for the interior matrix ``M`` that the
    element matrices ``mats`` of :func:`element_matrices` assemble to.

    Static condensation, read straight from the element matrices: each
    midside unknown couples only to the two vertices of its element, so
    it is eliminated with its own diagonal entry as the pivot. That
    leaves a tridiagonal Schur complement on the ``n_elems - 1`` interior
    vertices, solved by one call of LAPACK's ``dgtsv`` (LU with partial
    pivoting), after which the midsides are back-substituted. ``rhs`` is
    in the interior ordering of :func:`interior_load`.

    Raises:
        MeshMismatch: if ``mats`` is not ``(9, n_elems)`` or ``rhs`` is
            not a vector of length ``2 * n_elems - 1``.
        SingularJacobian: if a midside pivot or a pivot of the vertex
            system is exactly zero.
    """
    n_elems = mats.shape[-1]
    if mats.shape != (9, n_elems) or rhs.shape != (2 * n_elems - 1,):
        raise MeshMismatch(
            f"element matrices of shape {mats.shape} and right-hand side of "
            f"shape {rhs.shape} are not one interior layout"
        )
    pivots = mats[4]
    if not pivots.all():
        raise SingularJacobian(
            f"singular matrix: zero pivot at midside {np.flatnonzero(pivots == 0)[0]}"
        )
    mids = rhs[0::2] / pivots
    if n_elems == 1:
        return mids
    # Per interior vertex k, the right vertex of element k and the left
    # of element k + 1: its row's entries a, c at the midsides of those
    # elements, and the entries p, s of those midsides' rows at it, each
    # over its midside's pivot.
    a, c = mats[7, :-1], mats[1, 1:]
    p, s = mats[5, :-1] / pivots[:-1], mats[3, 1:] / pivots[1:]
    diag = (mats[8, :-1] + mats[0, 1:]) - a * p - c * s
    verts = rhs[1::2] - a * mids[:-1] - c * mids[1:]
    if n_elems > 2:
        lower = mats[6, 1:-1] - a[1:] * s[:-1]
        upper = mats[2, 1:-1] - c[:-1] * p[1:]
        _, _, _, verts, info = dgtsv(lower, diag, upper, verts, 1, 1, 1, 1)
    elif diag[0]:  # one vertex: dgtsv refuses empty off-diagonals
        verts, info = verts / diag, 0
    else:
        info = 1
    if info > 0:
        raise SingularJacobian(
            f"singular matrix: zero pivot {info} of the vertex system"
        )
    mids[:-1] -= p * verts
    mids[1:] -= s * verts
    x = np.empty(mids.size + verts.size)
    x[0::2], x[1::2] = mids, verts
    return x


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
