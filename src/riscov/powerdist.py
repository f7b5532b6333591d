"""Signal- and interference-power distributions.

The coherently combined signal power is approximated by a gamma random
variable through two-stage moment matching: first the sum of per-element
Nakagami magnitude products, then the squared sum including the direct
path.  Per-interferer powers are exponential because the randomly phased
element sum is asymptotically circularly symmetric Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fading import FadingParams
from .specfun import reg_upper_gamma

__all__ = [
    "GammaFit",
    "SignalMoments",
    "sr_moments",
    "sr_gamma_fit",
    "signal_moments",
    "signal_gamma_fit",
    "signal_ccdf",
    "interferer_exp_param",
]


@dataclass(frozen=True)
class GammaFit:
    """Shape/scale pair of a moment-matched gamma distribution."""

    kappa: float
    omega: float

    def __post_init__(self):
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ValueError(f"shape must be positive and finite, got {self.kappa}")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"scale must be positive and finite, got {self.omega}")

    @property
    def mean(self) -> float:
        return self.kappa * self.omega

    @property
    def variance(self) -> float:
        return self.kappa * self.omega**2


@dataclass(frozen=True)
class SignalMoments:
    """Intermediate quantities of the combined-signal moment match.

    beta is the reflected-to-direct amplitude ratio; chi1 and chi2 are the
    first two raw moments of the combined power normalized by the direct
    path gain; mu_g and mu_s hold raw moments 1..4 of the direct magnitude
    and of the fitted element-sum.
    """

    beta: float
    chi1: float
    chi2: float
    mu_g: tuple[float, float, float, float]
    mu_s: tuple[float, float, float, float]


def _mean_mag_factor(m: float) -> float:
    """E[magnitude] of Nakagami(m, 1): Gamma(m + 1/2) / (Gamma(m) sqrt(m))."""
    return math.exp(math.lgamma(m + 0.5) - math.lgamma(m)) / math.sqrt(m)


def sr_moments(fading: FadingParams, n_elements: int) -> tuple[float, float]:
    """Mean and second raw moment of the coherent element-sum of magnitude products."""
    if n_elements < 1:
        raise ValueError(f"element count must be at least 1, got {n_elements}")
    f = _mean_mag_factor(fading.m_h) * _mean_mag_factor(fading.m_r)
    mean = n_elements * f
    second = n_elements + n_elements * (n_elements - 1) * f * f
    return mean, second


def sr_gamma_fit(fading: FadingParams, n_elements: int) -> GammaFit:
    """Gamma fit of the element-sum by matching its first two moments."""
    mean, second = sr_moments(fading, n_elements)
    var = second - mean * mean
    if var <= 0.0:
        raise ValueError("degenerate element-sum variance; gamma fit undefined")
    return GammaFit(mean * mean / var, var / mean)


def signal_moments(eta_g0: float, eta_h0: float, fading: FadingParams,
                   n_elements: int) -> SignalMoments:
    """Moment bookkeeping for the combined signal power.

    Two-stage pipeline: third and fourth moments of the element-sum come
    from its fitted gamma.
    """
    if not eta_g0 > 0.0:
        raise ValueError(f"direct gain must be positive, got {eta_g0}")
    if eta_h0 < 0.0:
        raise ValueError(f"reflected gain must be non-negative, got {eta_h0}")
    beta = math.sqrt(eta_h0 / eta_g0)
    mu_g = tuple(math.gamma(1.0 + 0.5 * q) for q in range(1, 5))
    if beta == 0.0:
        mu_s = (0.0, 0.0, 0.0, 0.0)
    else:
        fit = sr_gamma_fit(fading, n_elements)
        mu_s = tuple(
            fit.omega**q * math.exp(math.lgamma(q + fit.kappa) - math.lgamma(fit.kappa))
            for q in range(1, 5)
        )
    chi1 = mu_g[1] + 2.0 * beta * mu_g[0] * mu_s[0] + beta**2 * mu_s[1]
    chi2 = (mu_g[3] + 4.0 * beta * mu_g[2] * mu_s[0] + 6.0 * beta**2 * mu_g[1] * mu_s[1]
            + 4.0 * beta**3 * mu_g[0] * mu_s[2] + beta**4 * mu_s[3])
    return SignalMoments(beta, chi1, chi2, mu_g, mu_s)


def signal_gamma_fit(eta_g0: float, eta_h0: float, fading: FadingParams,
                     n_elements: int) -> GammaFit:
    """Gamma fit of the combined signal power.

    With a vanishing reflected gain this reduces to the exponential fit of a
    Rayleigh direct link (shape 1, scale eta_g0).
    """
    sm = signal_moments(eta_g0, eta_h0, fading, n_elements)
    var = sm.chi2 - sm.chi1**2
    if var <= 0.0:
        raise ValueError("degenerate combined-power variance; gamma fit undefined")
    return GammaFit(sm.chi1**2 / var, eta_g0 * var / sm.chi1)


def signal_ccdf(fit: GammaFit, x: float) -> float:
    """P(combined power > x) under the gamma fit."""
    if x < 0.0:
        raise ValueError(f"power must be non-negative, got {x}")
    return reg_upper_gamma(fit.kappa, x / fit.omega)


def interferer_exp_param(eta_gk: float, eta_hk: float, n_elements: int) -> float:
    """Rate parameter of the exponential per-interferer power.

    A surface-bearing interferer adds n_elements * eta_hk of incoherent
    scattered power to the direct term; a surface-free one has eta_hk = 0,
    which leaves the Rayleigh direct power alone.
    """
    if not eta_gk > 0.0:
        raise ValueError(f"direct gain must be positive, got {eta_gk}")
    if eta_hk < 0.0:
        raise ValueError(f"reflected gain must be non-negative, got {eta_hk}")
    return 1.0 / (eta_gk + n_elements * eta_hk)
