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
snapshot and benchmark layers sample: :func:`exact_u` for the solution
and :func:`forcing_f` for the forcing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "BurgersProblem",
    "with_parameter",
    "exact_u",
    "forcing_f",
]


@dataclass(frozen=True)
class BurgersProblem:
    """One instance of the manufactured Burgers problem.

    Attributes:
        a, b: interval endpoints.
        alpha, beta: Dirichlet values at ``a`` and ``b``.
        nu: viscosity, must be positive and finite.
        k: number of sine half-waves across the interval.
        sigma: width of the Gaussian envelope.
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
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if not 0 < self.nu < np.inf:
            raise ValueError(f"viscosity must be positive and finite, got {self.nu}")
        if not self.sigma > 0:
            raise ValueError(f"envelope width must be positive, got {self.sigma}")


def with_parameter(prob: BurgersProblem, q: float) -> BurgersProblem:
    """Copy of ``prob`` with the bump center moved to ``q``."""
    return replace(prob, q=float(q))


def _parts(prob: BurgersProblem, x: np.ndarray):
    """Gaussian envelope, sine carrier, and their first two derivatives."""
    x = np.asarray(x, dtype=float)
    length = prob.b - prob.a
    amp = 1.0 / (np.sqrt(2.0 * np.pi) * prob.sigma)
    z = (x - prob.q) / prob.sigma
    g = amp * np.exp(-0.5 * z * z)
    dg = -(z / prob.sigma) * g
    d2g = (z * z - 1.0) / prob.sigma**2 * g
    omega = prob.k * np.pi / length
    phase = omega * (x - prob.a)
    s = np.sin(phase)
    ds = omega * np.cos(phase)
    d2s = -omega * omega * s
    return g, dg, d2g, s, ds, d2s


def exact_u(prob: BurgersProblem, x: np.ndarray) -> np.ndarray:
    """Exact solution: linear boundary profile plus the localized wave."""
    x = np.asarray(x, dtype=float)
    g, _, _, s, _, _ = _parts(prob, x)
    lin = prob.alpha + (prob.beta - prob.alpha) * (x - prob.a) / (prob.b - prob.a)
    return lin + g * s


def forcing_f(prob: BurgersProblem, x: np.ndarray) -> np.ndarray:
    """Forcing that makes ``exact_u`` solve the equation.

    Defined as ``-nu * u'' + u * u'`` evaluated with the closed-form
    derivatives, so the manufactured ``u`` satisfies the strong equation
    identically. ``u``, ``u'`` and ``u''`` all come from one evaluation
    of the envelope and the carrier.
    """
    x = np.asarray(x, dtype=float)
    g, dg, d2g, s, ds, d2s = _parts(prob, x)
    lin = prob.alpha + (prob.beta - prob.alpha) * (x - prob.a) / (prob.b - prob.a)
    u = lin + g * s
    du = (prob.beta - prob.alpha) / (prob.b - prob.a) + dg * s + g * ds
    d2u = d2g * s + 2.0 * dg * ds + g * d2s
    return -prob.nu * d2u + u * du
