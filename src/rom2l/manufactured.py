"""Closed-form solution family and matching forcing for steady Burgers.

The model problem is the steady viscous Burgers equation on an interval
``[a, b]`` with Dirichlet boundary values ``alpha`` and ``beta``:

    -nu * u'' + u * u' = f,   u(a) = alpha,  u(b) = beta.

The solution family is manufactured: we pick ``u`` explicitly as a linear
profile between the boundary values plus a parametrized bump, a Gaussian
envelope centered at ``q`` modulating a sine wave, and define ``f`` by
substituting ``u`` into the left-hand side with its closed-form
derivatives. Sliding ``q`` across the interval yields a one-parameter
family of problems whose exact solutions are known, which is what the
snapshot and benchmark layers sample: :func:`exact_u` for the solution,
:func:`exact_family` for many values of ``q`` at once, and
:func:`forcing_f` for the forcing.

Only the envelope moves with ``q``. The sine carrier, its derivatives and
the linear profile depend on the interval, the boundary values and ``k``
alone, so :func:`carrier` evaluates them once at a set of points, and a
caller that samples many parameter values at the same points (a reduced
workspace at its quadrature points, the full-order solver per mesh, the
snapshot grid at the nodes) holds the :class:`Carrier` and passes it in
place of the points. Given bare points, the functions build the carrier
first and take the same path, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "BurgersProblem",
    "Carrier",
    "with_parameter",
    "carrier",
    "exact_u",
    "exact_family",
    "forcing_f",
]


@dataclass(frozen=True)
class BurgersProblem:
    """One instance of the manufactured Burgers problem.

    Attributes:
        a, b: interval endpoints, finite.
        alpha, beta: Dirichlet values at ``a`` and ``b``, finite.
        nu: viscosity, must be positive and finite.
        k: number of sine half-waves across the interval, a positive
            integer, so that the carrier vanishes at both ends.
        sigma: width of the Gaussian envelope, positive and finite.
        q: center of the Gaussian envelope, the sweep parameter.
    """

    a: float = -4.0
    b: float = 4.0
    alpha: float = 1.0
    beta: float = -1.0
    nu: float = 1.0
    k: int = 1
    sigma: float = 0.5
    q: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError(f"interval ends must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError(
                f"boundary values must be finite, got {self.alpha} and {self.beta}"
            )
        if not 0 < self.nu < np.inf:
            raise ValueError(f"viscosity must be positive and finite, got {self.nu}")
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not 0 < self.sigma < np.inf:
            raise ValueError(
                f"envelope width must be positive and finite, got {self.sigma}"
            )

    @property
    def carrier_key(self) -> tuple:
        """``(a, b, alpha, beta, k)``: the fields the :class:`Carrier` of
        this problem depends on, the same for every ``q``, ``nu`` and
        ``sigma``."""
        return (self.a, self.b, self.alpha, self.beta, self.k)


def with_parameter(prob: BurgersProblem, q: float) -> BurgersProblem:
    """Copy of ``prob`` with the bump center moved to ``q``."""
    return replace(prob, q=float(q))


@dataclass(frozen=True, eq=False)
class Carrier:
    """The parts of the solution family that do not depend on ``q``, at
    fixed points. Its arrays are read-only, so a holder can share it.

    Attributes:
        key: the :attr:`BurgersProblem.carrier_key` of the problems it
            serves.
        x: the points.
        lin: linear boundary profile at ``x``; ``slope`` is its slope.
        s, ds, d2s: sine carrier and its first two derivatives at ``x``.
    """

    key: tuple
    x: np.ndarray = field(repr=False)
    lin: np.ndarray = field(repr=False)
    slope: float
    s: np.ndarray = field(repr=False)
    ds: np.ndarray = field(repr=False)
    d2s: np.ndarray = field(repr=False)


def carrier(key: tuple, x: np.ndarray) -> Carrier:
    """The :class:`Carrier` of the problems with carrier key ``key``
    (:attr:`BurgersProblem.carrier_key`) at the points ``x``, which it
    copies."""
    a, b, alpha, beta, k = key
    x = np.array(x, dtype=float)
    length = b - a
    lin = alpha + (beta - alpha) * (x - a) / length
    omega = k * np.pi / length
    phase = omega * (x - a)
    s = np.sin(phase)
    ds = omega * np.cos(phase)
    d2s = -omega * omega * s
    for v in (x, lin, s, ds, d2s):
        v.setflags(write=False)
    return Carrier(key, x, lin, (beta - alpha) / length, s, ds, d2s)


def _carrier_of(prob: BurgersProblem, x) -> Carrier:
    """``x`` if it is a carrier of ``prob``, else the carrier of ``prob`` at ``x``.

    Raises:
        ValueError: if ``x`` is the carrier of another key.
    """
    if not isinstance(x, Carrier):
        return carrier(prob.carrier_key, x)
    if x.key != prob.carrier_key:
        raise ValueError(
            f"carrier built for (a, b, alpha, beta, k) = {x.key}, "
            f"problem has {prob.carrier_key}"
        )
    return x


def _envelope(x, q, sigma):
    """Gaussian envelope of width ``sigma`` about ``q`` at ``x``, and the
    scaled distance ``z = (x - q) / sigma`` it is a function of."""
    amp = 1.0 / (np.sqrt(2.0 * np.pi) * sigma)
    z = (x - q) / sigma
    return z, amp * np.exp(-0.5 * z * z)


def _solution(x, lin, s, q, sigma):
    """Linear profile plus the envelope about ``q`` times the carrier."""
    return lin + _envelope(x, q, sigma)[1] * s


def exact_u(prob: BurgersProblem, x) -> np.ndarray:
    """Exact solution: linear boundary profile plus the localized wave.

    ``x`` is the points, or the :class:`Carrier` of ``prob`` at them.
    """
    c = _carrier_of(prob, x)
    return _solution(c.x, c.lin, c.s, prob.q, prob.sigma)


def exact_family(prob: BurgersProblem, q_values: np.ndarray, x) -> np.ndarray:
    """Exact solutions at 1-D points ``x`` (or the :class:`Carrier` of
    ``prob`` at them) for every bump center in ``q_values``, ``prob.q``
    ignored: column ``j`` is ``exact_u(with_parameter(prob, q_values[j]), x)``,
    from one broadcast of the envelope.
    """
    c = _carrier_of(prob, x)
    q = np.atleast_1d(np.asarray(q_values, dtype=float))
    return _solution(c.x[:, None], c.lin[:, None], c.s[:, None], q, prob.sigma)


def forcing_f(prob: BurgersProblem, x) -> np.ndarray:
    """Forcing that makes ``exact_u`` solve the equation.

    Defined as ``-nu * u'' + u * u'`` evaluated with the closed-form
    derivatives, so the manufactured ``u`` satisfies the strong equation
    identically. ``u``, ``u'`` and ``u''`` all come from one evaluation
    of the envelope at ``x``, the points or the :class:`Carrier` of
    ``prob`` at them; only the envelope is computed per call when the
    carrier is given.
    """
    c = _carrier_of(prob, x)
    z, g = _envelope(c.x, prob.q, prob.sigma)
    dg = -(z / prob.sigma) * g
    d2g = (z * z - 1.0) / prob.sigma**2 * g
    u = c.lin + g * c.s
    du = c.slope + dg * c.s + g * c.ds
    d2u = d2g * c.s + 2.0 * dg * c.ds + g * c.d2s
    return -prob.nu * d2u + u * du
