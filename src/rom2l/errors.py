"""Exception types shared across the package.

Every error raised intentionally by this package derives from
:class:`RomError`, so callers can catch one base class at the boundary
of the library and let genuine bugs (plain ``ValueError``,
``ZeroDivisionError``, ...) propagate. :class:`BadBasisFile` and
:class:`WorkspaceMismatch` are also ``ValueError``: what each refuses is
a bad input value.
"""

from __future__ import annotations

import numpy as np


class RomError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMesh(RomError):
    """Mesh construction parameters are inconsistent or degenerate."""


class MeshMismatch(RomError):
    """Two finite element objects live on different meshes."""


class DegenerateSnapshots(RomError):
    """No POD basis can be extracted from the snapshots.

    Happens when the fluctuation matrix is identically zero, because every
    snapshot equals the mean (e.g. a single-parameter snapshot set), or
    when a snapshot has a non-finite entry.
    """


class BadBasisFile(RomError, ValueError):
    """A file is not a readable mass-orthonormal basis written by
    :func:`rom2l.pod.save_basis`."""


class WorkspaceMismatch(RomError, ValueError):
    """A :class:`rom2l.rom.RomWorkspace` is used with a viscosity or a
    basis other than the one it was assembled for."""


class DimensionError(RomError):
    """A reduced dimension is out of range for the object it is used with."""


def check_dimension(r, lower: int, upper: float, what: str = "dimension") -> None:
    """Raise :class:`DimensionError` unless ``r`` is an ``int`` or
    ``np.integer`` in ``[lower, upper]``: the one rule for a dimension."""
    if not (isinstance(r, (int, np.integer)) and lower <= r <= upper):
        raise DimensionError(f"{what} {r!r} is not an integer in [{lower}, {upper}]")


class SingularJacobian(RomError):
    """A Newton iteration or the two-level correction step, which solves
    with the Jacobian at the padded coarse solution, hit a numerically
    singular Jacobian."""


class NoConvergence(RomError):
    """Newton failed to converge within the iteration budget.

    Carries the last iterate and its residual norm so callers can inspect
    or report the failure without re-running the solve.

    Attributes:
        last_iterate: coefficient vector at the final iteration.
        residual_norm: 2-norm of the residual at ``last_iterate``.
    """

    def __init__(self, message: str, last_iterate: np.ndarray, residual_norm: float):
        super().__init__(message)
        self.last_iterate = np.asarray(last_iterate)
        self.residual_norm = float(residual_norm)
