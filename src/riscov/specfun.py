"""Scalar special functions used by the coverage and rate expressions.

Everything here is real-valued and restricted to the parameter ranges that
actually occur in the network model: path-loss exponents alpha > 2 and
non-positive hypergeometric arguments.  The Gauss hypergeometric member
2F1(1, -2/alpha; 1 - 2/alpha; z) is evaluated by a dedicated three-branch
routine because its argument can span many orders of magnitude; the
regularized incomplete gammas are validated wrappers over scipy.special.
"""

from __future__ import annotations

import math

from scipy import special as _sp

__all__ = [
    "reg_upper_gamma",
    "reg_lower_gamma",
    "hyp2f1_cov",
]

_SERIES_TOL = 1e-17
_MAX_TERMS = 2000


def reg_upper_gamma(kappa: float, x: float) -> float:
    """Regularized upper incomplete gamma Gamma(kappa, x) / Gamma(kappa).

    Monotone non-increasing in x with value 1 at x = 0.
    """
    if not kappa > 0.0:
        raise ValueError(f"shape must be positive, got {kappa}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x}")
    return float(_sp.gammaincc(kappa, x))


def reg_lower_gamma(kappa: float, x: float) -> float:
    """Regularized lower incomplete gamma, the CDF companion of reg_upper_gamma."""
    if not kappa > 0.0:
        raise ValueError(f"shape must be positive, got {kappa}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x}")
    return float(_sp.gammainc(kappa, x))


def _check_hyp_domain(alpha: float, z: float) -> None:
    if not alpha > 2.0:
        raise ValueError(f"path-loss exponent must exceed 2, got {alpha}")
    if z > 0.0:
        raise ValueError(f"argument must be non-positive, got {z}")


def hyp2f1_cov(alpha: float, z: float) -> float:
    """2F1(1, -2/alpha; 1 - 2/alpha; z) on the non-positive real axis.

    This is the only hypergeometric member the interference expressions
    need.  Three expansions cover the whole axis, each a plain convergent
    series with ratio bounded away from 1:

    * |z| <= 1/2   -- defining series  1 - d * sum_k z^k / (k - d),
    * 1/2 < |z| < 4 -- Pfaff transform w = z/(z-1), all-positive series,
    * |z| >= 4     -- expansion around z = -inf with leading term
                      pi*d*csc(pi*d) * |z|^d.

    Here d = 2/alpha in (0, 1).  The result is >= 1 and increases in |z|.
    """
    _check_hyp_domain(alpha, z)
    d = 2.0 / alpha
    if z == 0.0:
        return 1.0
    x = -z
    if x <= 0.5:
        acc = 0.0
        term = 1.0
        for k in range(1, _MAX_TERMS):
            term *= z
            c = term / (k - d)
            acc += c
            if abs(c) < _SERIES_TOL * max(1.0, abs(acc)):
                break
        return 1.0 - d * acc
    if x < 4.0:
        w = z / (z - 1.0)
        acc = 1.0
        term = 1.0
        for k in range(1, _MAX_TERMS):
            term *= (k * w) / (k - d)
            acc += term
            if term < _SERIES_TOL * acc:
                break
        return acc / (1.0 - z)
    lead = math.pi * d / math.sin(math.pi * d) * x**d
    acc = 0.0
    xk = 1.0 / x
    for k in range(_MAX_TERMS):
        c = d * xk / (1.0 + d + k)
        acc += c if k % 2 == 0 else -c
        if c < _SERIES_TOL * max(lead, 1.0):
            break
        xk /= x
    return lead + acc
