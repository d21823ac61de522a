"""Snapshot generation and proper orthogonal decomposition.

Snapshots are nodal interpolants of the manufactured solution over a
grid of bump centers ``q``. The POD extracts, from the mean-centered
snapshot fluctuations, a basis that is orthonormal in the mass-weighted
(discrete L2) inner product on the interior nodes. It factors the
interior mass matrix with a banded Cholesky decomposition and runs one
dense SVD on the transformed fluctuation matrix, then maps the left
singular vectors back through the factor.

All snapshots share the same boundary values, so the fluctuations
vanish at the boundary and the retained modes are zero there. Reduced
coefficient vectors therefore represent interior corrections on top of
the snapshot mean, which carries the boundary data.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla

from . import fem
from .errors import (
    BadBasisFile,
    DegenerateSnapshots,
    DimensionError,
    InvalidMesh,
    MeshMismatch,
    check_dimension,
)
from .fem import FeFunction, Mesh1D
from .manufactured import BurgersProblem, exact_family

__all__ = [
    "DEFAULT_RANK_TOL",
    "SnapshotSet",
    "PodBasis",
    "parameter_grid",
    "generate_snapshots",
    "compute_pod",
    "project",
    "lift",
    "reconstruction_error",
    "save_basis",
    "load_basis",
]

# Relative singular value cutoff separating the physical modes of the
# default snapshot family from its numerical noise floor. The spectrum
# of the default configuration drops by a factor of about 5.5 between
# the 30th and 31st values (4.4e-7 down to 8.0e-8 relative to the
# largest); this tolerance sits in the middle of that gap.
DEFAULT_RANK_TOL = 2e-7


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """Matrix of solution snapshots, one column per parameter value."""

    mesh: Mesh1D
    q_values: np.ndarray = field(repr=False)
    matrix: np.ndarray = field(repr=False)  # (n_nodes, n_snapshots)
    problem: BurgersProblem | None = None

    @property
    def n_snapshots(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class PodBasis:
    """POD modes plus the snapshot mean that carries the boundary data.

    Attributes:
        mesh: the underlying mesh.
        mean: snapshot mean as an FE function (nonzero at the boundary).
        modes: retained modes, shape ``(n_nodes, rank)``, zero at the
            boundary, orthonormal in the discrete L2 (mass) inner
            product on the interior nodes.
        singular_values: full singular value spectrum of the fluctuation
            matrix (not truncated at ``rank``).
        q_values: parameter grid the snapshots were drawn from, if known.
        problem: problem template the snapshots came from, if known.

    The mode and mean arrays are made read-only, so that what is derived
    from them once (the fingerprint, a shared workspace) stays valid.
    """

    mesh: Mesh1D
    mean: FeFunction
    modes: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    q_values: np.ndarray | None = field(default=None, repr=False)
    problem: BurgersProblem | None = None

    def __post_init__(self):
        self.modes.setflags(write=False)
        self.mean.coeffs.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.modes.shape[1]

    @cached_property
    def fingerprint(self) -> str:
        """Provenance tag that is the same in every process for the same
        basis; hashed on first use."""
        digest = hashlib.sha256(np.ascontiguousarray(self.mean.coeffs).tobytes())
        digest.update(np.ascontiguousarray(self.modes).tobytes())
        return (
            f"rank={self.rank};nodes={self.mesh.n_nodes};sha256={digest.hexdigest()}"
        )


def parameter_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Evenly spaced parameter values from ``start`` to ``stop`` inclusive.

    The endpoint is included when it lands on the grid to within a
    relative tolerance of 1e-9, mirroring colon-range semantics.

    Raises:
        ValueError: if an end is not finite or ``step`` is not positive
            and finite.
    """
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid ends must be finite, got {start} and {stop}")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    n = int(np.floor((stop - start) / step + 1e-9))
    return start + step * np.arange(n + 1)


def generate_snapshots(
    prob: BurgersProblem, q_values: np.ndarray, mesh: Mesh1D
) -> SnapshotSet:
    """Sample the exact solution family on a mesh.

    Each column of the snapshot matrix is the nodal interpolant of the
    exact solution with the bump centered at the corresponding entry of
    ``q_values``. ``prob`` serves as the template; its own ``q`` is
    ignored. The carrier is evaluated once at the nodes and the envelope
    once over all ``q`` (:func:`~rom2l.manufactured.exact_family`); each
    column equals ``exact_u`` at its ``q``.
    """
    q_values = np.atleast_1d(np.asarray(q_values, dtype=float))
    matrix = exact_family(prob, q_values, mesh.nodes)
    return SnapshotSet(mesh=mesh, q_values=q_values, matrix=matrix, problem=prob)


@lru_cache(maxsize=16)
def _mass_band(mesh: Mesh1D) -> np.ndarray:
    """Interior mass matrix of ``mesh`` in the banded layout of
    :func:`fem.interior_band`, built once per mesh and read-only.

    It is stored in Fortran order, which BLAS ``dgbmv`` reads without
    a copy.
    """
    band = np.asfortranarray(fem.interior_band(mesh, vv=1.0))
    band.setflags(write=False)
    return band


def compute_pod(snaps: SnapshotSet, rank_tol: float = DEFAULT_RANK_TOL) -> PodBasis:
    """Extract a mass-orthonormal POD basis from a snapshot set.

    The snapshot mean is subtracted first; the basis spans the dominant
    fluctuation directions in the discrete L2 inner product on the
    interior nodes. The retained rank is the number of singular values
    above ``rank_tol`` times the largest one.

    Raises:
        ValueError: if ``rank_tol`` is outside (0, 1).
        DegenerateSnapshots: if every snapshot equals the mean, or a
            snapshot has a non-finite entry.
    """
    if not 0 < rank_tol < 1:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    mesh = snaps.mesh
    mean = snaps.matrix.mean(axis=1)
    if not np.isfinite(mean).all():  # a NaN or inf in a row reaches its mean
        raise DegenerateSnapshots("the snapshot matrix has non-finite entries")
    fluct = snaps.matrix - mean[:, None]
    if not np.any(fluct):
        raise DegenerateSnapshots(
            f"all {snaps.n_snapshots} snapshots coincide with their mean"
        )
    interior = fluct[1:-1, :]
    # Upper Cholesky factor U of the interior mass matrix, M = U^T U;
    # the SVD runs on U @ interior, built one diagonal of U at a time.
    factor = sla.cholesky_banded(_mass_band(mesh)[:3])
    weighted = factor[2, :, None] * interior
    for k in (1, 2):
        weighted[:-k] += factor[2 - k, k:, None] * interior[k:]
    left, svals, _ = np.linalg.svd(weighted, full_matrices=False)
    rank = int(np.sum(svals > rank_tol * svals[0]))
    modes_int = sla.solve_banded((0, 2), factor, left[:, :rank])
    modes = np.zeros((mesh.n_nodes, rank))
    modes[1:-1, :] = modes_int
    return PodBasis(
        mesh=mesh,
        mean=FeFunction(mesh=mesh, coeffs=mean),
        modes=modes,
        singular_values=svals,
        q_values=snaps.q_values,
        problem=snaps.problem,
    )


def project(basis: PodBasis, u: FeFunction, r: int) -> np.ndarray:
    """Reduced coefficients of ``u`` in the leading ``r`` modes.

    The mean is subtracted before projecting, and the projection is in
    the mass inner product the basis is orthonormal in, so
    ``project(basis, lift(basis, a), r)`` recovers ``a`` exactly for any
    ``a`` of length ``r``.
    """
    check_dimension(r, 1, basis.rank)
    if u.mesh.n_nodes != basis.mesh.n_nodes:
        raise MeshMismatch("function and basis live on different meshes")
    # The modes vanish on the boundary, so only the interior rows count.
    fluct = u.coeffs[1:-1] - basis.mean.coeffs[1:-1]
    mass = _mass_band(basis.mesh)
    fluct = sla.blas.dgbmv(fluct.size, fluct.size, 2, 2, 1.0, mass, fluct)
    return basis.modes[1:-1, :r].T @ fluct


def lift(basis: PodBasis, a: np.ndarray) -> FeFunction:
    """Full-order FE function represented by reduced coefficients ``a``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise DimensionError(f"coefficients must be a vector, got shape {a.shape}")
    check_dimension(a.size, 1, basis.rank)
    coeffs = basis.mean.coeffs + basis.modes[:, : a.size] @ a
    return FeFunction(mesh=basis.mesh, coeffs=coeffs)


def reconstruction_error(basis: PodBasis, u: FeFunction, r: int) -> float:
    """L2 norm of ``u`` minus its rank-``r`` reconstruction."""
    rec = lift(basis, project(basis, u, r))
    return fem.l2_norm(FeFunction(mesh=u.mesh, coeffs=u.coeffs - rec.coeffs))


def save_basis(basis: PodBasis, path) -> None:
    """Write a basis to a text file.

    Line one is a JSON header with the mesh descriptor, parameter grid,
    inner product tag (always ``"mass"``), singular values, and problem
    template; the rest is a CSV matrix with one row per node holding the
    mean followed by the modes. Floats are written with 17 significant
    digits, which round-trips IEEE doubles exactly.
    """
    header = {
        "format": "rom2l-basis",
        "version": 1,
        "mesh": {"a": basis.mesh.a, "b": basis.mesh.b, "n_elems": basis.mesh.n_elems},
        "inner_product": "mass",
        "rank": basis.rank,
        "singular_values": [float(s) for s in basis.singular_values],
        "q_values": None
        if basis.q_values is None
        else [float(q) for q in basis.q_values],
        "problem": None
        if basis.problem is None
        else {
            "a": basis.problem.a,
            "b": basis.problem.b,
            "alpha": basis.problem.alpha,
            "beta": basis.problem.beta,
            "nu": basis.problem.nu,
            "k": basis.problem.k,
            "sigma": basis.problem.sigma,
        },
    }
    table = np.column_stack([basis.mean.coeffs, basis.modes])
    np.savetxt(
        path,
        table,
        fmt="%.17g",
        delimiter=",",
        header=json.dumps(header),
        comments="# ",
    )


def load_basis(path) -> PodBasis:
    """Read a basis written by :func:`save_basis`.

    Raises:
        BadBasisFile: if the file has no basis header, its header or
            matrix is malformed, its mesh header does not describe a
            mesh, its rank is below 1, its matrix does not match the
            header, or its inner product tag is not ``"mass"``:
            :func:`project` would return wrong coefficients for modes
            orthonormal in another inner product.
    """
    try:
        return _read_basis(path)
    except BadBasisFile:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BadBasisFile(f"{path}: malformed basis file: {exc!r}") from exc


def _read_basis(path) -> PodBasis:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise BadBasisFile(f"{path}: missing basis header line")
        header = json.loads(first[2:])
        if not isinstance(header, dict) or header.get("format") != "rom2l-basis":
            raise BadBasisFile(f"{path}: not a basis file")
        if header.get("inner_product") != "mass":
            raise BadBasisFile(
                f"{path}: modes orthonormal in the "
                f"{header.get('inner_product')!r} inner product, expected 'mass'"
            )
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    mdesc = header["mesh"]
    a, b, n_elems = mdesc["a"], mdesc["b"], mdesc["n_elems"]
    if not n_elems > 0:
        raise BadBasisFile(f"{path}: mesh header has {n_elems} elements")
    try:
        mesh = fem.build_mesh(a, b, (b - a) / n_elems)
    except InvalidMesh as exc:
        raise BadBasisFile(f"{path}: bad mesh header: {exc}") from exc
    rank = int(header["rank"])
    if rank < 1:
        raise BadBasisFile(f"{path}: header has rank {rank}, need at least 1")
    if table.shape != (mesh.n_nodes, rank + 1):
        raise BadBasisFile(
            f"{path}: matrix shape {table.shape} does not match header"
        )
    pdesc = header.get("problem")
    problem = None if pdesc is None else BurgersProblem(**pdesc)
    qv = header.get("q_values")
    return PodBasis(
        mesh=mesh,
        mean=FeFunction(mesh=mesh, coeffs=table[:, 0]),
        modes=table[:, 1:].copy(),
        singular_values=np.asarray(header["singular_values"], dtype=float),
        q_values=None if qv is None else np.asarray(qv, dtype=float),
        problem=problem,
    )
