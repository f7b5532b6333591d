"""Real special functions used by the coverage and rate expressions.

Everything here is real-valued and restricted to the parameter ranges that
actually occur in the network model: path-loss exponents alpha > 2 and
non-positive hypergeometric arguments.  The Gauss hypergeometric member
2F1(1, -2/alpha; 1 - 2/alpha; z) and the regularized incomplete gammas are
scipy.special evaluations behind checks of that domain.  Each function
imports scipy.special on its first call, not at module import, so a
simulator process never loads scipy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "reg_upper_gamma",
    "reg_lower_gamma",
    "hyp2f1_cov",
]


def _regularized_gamma(name: str, kappa: float, x: float) -> float:
    """scipy.special.<name>(kappa, x); a shape not > 0 or an argument not >= 0 is refused."""
    if not kappa > 0.0:
        raise ValueError(f"shape must be positive, got {kappa}")
    if not x >= 0.0:
        raise ValueError(f"argument must be non-negative, got {x}")
    import scipy.special
    return float(getattr(scipy.special, name)(kappa, x))


def reg_upper_gamma(kappa: float, x: float) -> float:
    """Regularized upper incomplete gamma Gamma(kappa, x) / Gamma(kappa).

    Monotone non-increasing in x with value 1 at x = 0.
    """
    return _regularized_gamma("gammaincc", kappa, x)


def reg_lower_gamma(kappa: float, x: float) -> float:
    """Regularized lower incomplete gamma, the CDF companion of reg_upper_gamma."""
    return _regularized_gamma("gammainc", kappa, x)


def hyp2f1_cov(alpha: float, z):
    """2F1(1, -2/alpha; 1 - 2/alpha; z) on the non-positive real axis.

    This is the only hypergeometric member the interference expressions
    need.  With d = 2/alpha in (0, 1) the result is >= 1, increases in |z|
    and grows like pi*d*csc(pi*d) * |z|^d as z -> -inf.  z may be a float,
    which gives a float, or an array, which gives an array.
    """
    if not alpha > 2.0:
        raise ValueError(f"path-loss exponent must exceed 2, got {alpha}")
    positive = np.asarray(z) > 0.0
    if positive.any():
        raise ValueError(f"argument must be non-positive, got {np.max(z)}")
    from scipy.special import hyp2f1
    d = 2.0 / alpha
    out = hyp2f1(1.0, -d, 1.0 - d, z)
    return float(out) if positive.ndim == 0 else out
