"""Coverage probabilities and achievable rates of the typical user.

Fixed association conditions on a serving transmitter at a known distance;
nearest association averages over the Rayleigh-distributed distance to the
closest transmitter.  Interference enters through its Laplace transform,
and gamma-fitted signal power turns coverage into alternating sums of
derivatives evaluated with truncated Taylor jets.

Two conventions used throughout:

* the serving surface of a fixed-association link sits at perpendicular
  offset d0 from the transmitter, so its distance to the user is
  sqrt(d_g0^2 + d0^2);
* for nearest association the surface-to-user distance is approximated by
  the transmitter-to-user distance, which makes the reflected-to-direct
  amplitude ratio (c_r/c_d * d0^-alpha)^(1/2) independent of the serving
  distance.  The Monte Carlo simulator does not use this approximation, so
  simulator-vs-formula gaps include it by design.

A link without a surface is the surface model with zero reflected gain: its
signal fit is the Rayleigh exponential (shape 1), so each coverage and rate
expression has one evaluator, and a surface-free branch is its order-0 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .fading import FadingParams, PathLossParams, dbm_to_watts, db_to_linear
from .jets import (TaylorJet, alternating_tail_sum, jet_erfcx, jet_exp, jet_hyp2f1_cov,
                   jet_recip, jet_si_ci, jet_sin_cos, jet_spow, jet_variable)
from .powerdist import GammaFit, signal_gamma_fit

__all__ = [
    "SystemParams",
    "QuadratureError",
    "DivergenceError",
    "laplace_fixed",
    "laplace_nearest",
    "coverage_fixed_ris",
    "coverage_fixed_noris",
    "coverage_nearest",
    "coverage_nearest_alpha4",
    "coverage_nearest_intlimited",
    "rate_from_coverage",
    "rate_fixed",
    "rate_fixed_alpha4_intlim",
    "rate_nearest",
    "default_threshold_grid",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; message names the worst subinterval."""


class DivergenceError(RuntimeError):
    """The rate integral does not converge for the supplied coverage function."""


@dataclass(frozen=True)
class SystemParams:
    """Scalar model parameters of one network scenario.

    Powers are linear watts; gains are linear.  The user density enters no
    expression (only the typical user at the origin matters), so it is not
    a field.
    """

    lambda_t: float
    p: float
    n_elements: int
    path: PathLossParams
    fading: FadingParams
    p_tx_w: float
    noise_w: float
    d_g0: float
    interference_limited: bool = False

    def __post_init__(self):
        if self.lambda_t < 0.0:
            raise ValueError(f"transmitter density must be non-negative, got {self.lambda_t}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"association probability must be in [0, 1], got {self.p}")
        if self.n_elements < 1:
            raise ValueError(f"element count must be at least 1, got {self.n_elements}")
        if not self.d_g0 > 0.0:
            raise ValueError(f"serving distance must be positive, got {self.d_g0}")
        if not self.interference_limited:
            if not (self.p_tx_w > 0.0 and self.noise_w > 0.0):
                raise ValueError("transmit and noise powers must be positive "
                                 "unless the scenario is interference limited")

    # -- derived quantities --------------------------------------------------
    @property
    def gamma_t(self) -> float:
        """Transmit SNR P/sigma^2 (infinite when interference limited)."""
        if self.interference_limited:
            return math.inf
        return self.p_tx_w / self.noise_w

    @property
    def gamma_t_inv(self) -> float:
        if self.interference_limited:
            return 0.0
        return self.noise_w / self.p_tx_w

    @property
    def e1(self) -> float:
        """Effective interferer gain c_d + N c_r d0^-alpha."""
        pl = self.path
        return pl.c_d + self.n_elements * pl.c_r * pl.d0 ** -pl.alpha

    @property
    def eta_g0(self) -> float:
        """Direct-path gain of the fixed serving link."""
        return self.path.c_d * self.d_g0 ** -self.path.alpha

    @property
    def d_r0(self) -> float:
        """Surface-to-user distance of the fixed serving link."""
        return math.hypot(self.d_g0, self.path.d0)

    @property
    def eta_h0(self) -> float:
        """Reflected-path gain of the fixed serving link."""
        return self.path.c_r * (self.path.d0 * self.d_r0) ** -self.path.alpha

    @classmethod
    def default(cls, **overrides) -> "SystemParams":
        """Baseline scenario: 5 km disk defaults with a 20 m serving link."""
        base = cls(
            lambda_t=1e-4,
            p=0.5,
            n_elements=32,
            path=PathLossParams(c_d=db_to_linear(-30.0), c_r=db_to_linear(-30.0),
                                alpha=2.5, d0=3.0),
            fading=FadingParams(m_h=2.0, m_r=2.0),
            p_tx_w=dbm_to_watts(0.0),
            noise_w=dbm_to_watts(-70.0),
            d_g0=20.0,
        )
        return replace(base, **overrides) if overrides else base


def default_threshold_grid(n_points: int = 50, low_db: float = -20.0,
                           high_db: float = 40.0) -> np.ndarray:
    """Log-uniform threshold grid, by default 50 points over [-20, 40] dB."""
    return 10.0 ** (np.linspace(low_db, high_db, n_points) / 10.0)


def _jet_order(fit: GammaFit) -> int:
    """Derivative-sum order of a fit: its shape rounded half up, at least 1, minus one."""
    return max(1, int(math.floor(fit.kappa + 0.5))) - 1


def _csc(x: float) -> float:
    return 1.0 / math.sin(x)


@lru_cache(maxsize=256)
def _fixed_fit(params: SystemParams, with_ris: bool) -> GammaFit:
    return signal_gamma_fit(params.eta_g0, params.eta_h0 if with_ris else 0.0,
                            params.fading, params.n_elements)


@lru_cache(maxsize=256)
def _nearest_branches(params: SystemParams) -> tuple[tuple[float, GammaFit, str], ...]:
    """(weight, signal fit, name) of each association branch of nonzero weight.

    Feeding a unit direct gain makes each fit's scale the distance-free
    normalized scale chi_bar, since the amplitude ratio
    (c_r/c_d * d0^-alpha)^(1/2) does not depend on the serving distance.
    The direct branch has zero reflected gain: shape 1, scale 1.
    """
    pl = params.path
    eta_ratio = (pl.c_r / pl.c_d) * pl.d0 ** -pl.alpha
    branches = ((params.p, eta_ratio, "surface"), (1.0 - params.p, 0.0, "direct"))
    return tuple((weight, signal_gamma_fit(1.0, ratio, params.fading, params.n_elements), name)
                 for weight, ratio, name in branches if weight != 0.0)


def _tiers(params: SystemParams) -> list[tuple[float, float]]:
    """(weight, gain) of the surface-bearing and surface-free interferer tiers.

    The weight is the tier's share of transmitters; the gain is the
    effective interferer gain e1 or the bare direct gain c_d.  Empty tiers
    are left out.
    """
    pairs = ((params.p, params.e1), (1.0 - params.p, params.path.c_d))
    return [(weight, gain) for weight, gain in pairs if weight != 0.0]


def _fixed_exponent(params: SystemParams, x: float) -> float:
    """Whole-plane interference exponent k (p (e1 x)^d + (1-p) (c_d x)^d).

    k = 2 pi^2 lambda_t csc(2 pi / alpha) / alpha and d = 2 / alpha, so
    exp(-exponent) is the fixed-association Laplace transform at s = x.
    """
    a = params.path.alpha
    d = 2.0 / a
    k = 2.0 * math.pi**2 * params.lambda_t * _csc(2.0 * math.pi / a) / a
    return sum(k * weight * (gain * x) ** d for weight, gain in _tiers(params))


def _nearest_hyp_jets(params: SystemParams, gamma_bar: float, chi_bar: float,
                      order: int) -> TaylorJet:
    """Association-weighted jet of the two hypergeometric interference factors."""
    a = params.path.alpha
    cd = params.path.c_d
    return TaylorJet(sum(weight * jet_hyp2f1_cov(a, -(gain / cd) * gamma_bar / chi_bar,
                                                 order).coeffs
                         for weight, gain in _tiers(params)))


# ---------------------------------------------------------------------------
# Laplace transforms of the aggregate interference power
# ---------------------------------------------------------------------------

def laplace_fixed(params: SystemParams, s: float) -> float:
    """E[exp(-s I)] with interferers on the whole plane (fixed association)."""
    if s < 0.0:
        raise ValueError(f"transform argument must be non-negative, got {s}")
    return math.exp(-_fixed_exponent(params, s))


def laplace_nearest(params: SystemParams, s: float, d_g0: float) -> float:
    """E[exp(-s I)] with interferers no closer than the serving distance d_g0.

    The exponent is pi lambda_t d_g0^2 (1 - H), H the order-0 coefficient of
    _nearest_hyp_jets at gamma_bar/chi_bar = s c_d d_g0^-alpha.
    """
    if s < 0.0:
        raise ValueError(f"transform argument must be non-negative, got {s}")
    if not d_g0 > 0.0:
        raise ValueError(f"serving distance must be positive, got {d_g0}")
    x = s * params.path.c_d * d_g0 ** -params.path.alpha
    hyp = _nearest_hyp_jets(params, x, 1.0, 0).coeffs[0]
    return math.exp(math.pi * params.lambda_t * d_g0**2 * (1.0 - hyp))


# ---------------------------------------------------------------------------
# Coverage, fixed association
# ---------------------------------------------------------------------------

def _coverage_fixed(params: SystemParams, gamma_bar: float, with_ris: bool) -> float:
    """Coverage of a fixed-distance serving link, with or without a surface.

    Evaluates the alternating derivative sum of exp(V(s)) at s = 1, where V
    collects the noise term and the two interference tiers scaled by the
    fitted signal parameters.  exp(V) is completely monotone, so the sum's
    terms share one sign and nothing cancels.  An order-0 sum is exp(V(1)).
    """
    if not gamma_bar > 0.0:
        raise ValueError(f"threshold must be positive, got {gamma_bar}")
    fit = _fixed_fit(params, with_ris)
    order = _jet_order(fit)
    noise_slope = gamma_bar * params.gamma_t_inv / fit.omega
    tier = _fixed_exponent(params, gamma_bar / fit.omega)
    if order == 0:
        value = math.exp(-noise_slope - tier)
    else:
        d = 2.0 / params.path.alpha
        v = jet_variable(order).coeffs * -noise_slope - jet_spow(d, order).coeffs * tier
        value, _ = alternating_tail_sum(jet_exp(TaylorJet(v)))
    return min(max(value, 0.0), 1.0)


def coverage_fixed_ris(params: SystemParams, gamma_bar: float) -> float:
    """Coverage of a fixed-distance serving link assisted by a surface."""
    return _coverage_fixed(params, gamma_bar, True)


def coverage_fixed_noris(params: SystemParams, gamma_bar: float) -> float:
    """Coverage of a fixed-distance serving link without a surface: exp(V(1))."""
    return _coverage_fixed(params, gamma_bar, False)


# ---------------------------------------------------------------------------
# Coverage, nearest association
# ---------------------------------------------------------------------------

# scipy.integrate.quad itself, bound on the first _quad_checked call: importing
# scipy takes longer than a simulator process's whole set-up, and only the
# quadrature paths need it.
quad = None


def _quad_checked(fn: Callable[[float], float], lo: float, hi: float,
                  epsabs: float, epsrel: float, where: str) -> float:
    global quad
    if quad is None:
        from scipy.integrate import quad
    out = quad(fn, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=300, full_output=1)
    if len(out) >= 4:
        info = out[2]
        last = int(info.get("last", 0))
        worst = ""
        if last > 0:
            errs = info["elist"][:last]
            i = int(np.argmax(errs))
            worst = (f"; worst subinterval [{info['alist'][i]:.6g}, "
                     f"{info['blist'][i]:.6g}] with error {errs[i]:.3g}")
        raise QuadratureError(f"{where}: {out[3]}{worst}")
    return out[0]


def _nearest_integrands(params: SystemParams, gamma_bar: float
                        ) -> list[tuple[float, Callable[[float], float], str]]:
    """(weight, integrand in u, name) of each association branch of nonzero weight.

    u = lambda_t pi r^2 folds the serving-distance density into a unit
    exponential.  Each branch integrates the derivative sum of
    exp(-q u^(alpha/2) s - u H(s)); every jet and constant that does not
    depend on u is built here, once.  An order-0 jet's derivative sum is its
    value, so a one-coefficient branch is math.exp of that coefficient.
    """
    half_a = 0.5 * params.path.alpha
    u_scale = (params.lambda_t * math.pi) ** -half_a
    branches = []
    for weight, fit, name in _nearest_branches(params):
        order = _jet_order(fit)
        hyp = _nearest_hyp_jets(params, gamma_bar, fit.omega, order).coeffs
        noise = gamma_bar * params.gamma_t_inv / (params.path.c_d * fit.omega) * u_scale
        if order == 0:
            def integrand(u: float, noise=noise, hyp=float(hyp[0])) -> float:
                return math.exp(-noise * u**half_a - u * hyp)
        else:
            def integrand(u: float, noise=noise, hyp=hyp,
                          lead=jet_variable(order).coeffs) -> float:
                expo = lead * (-noise * u**half_a) - u * hyp
                return alternating_tail_sum(jet_exp(TaylorJet(expo)))[0]
        branches.append((weight, integrand, name))
    return branches


def coverage_nearest(params: SystemParams, gamma_bar: float) -> float:
    """Nearest-transmitter coverage by radial quadrature.

    Each association branch's integrand (see _nearest_integrands) is smooth
    and decays exponentially in u = lambda_t pi r^2 over [0, inf).
    """
    if not gamma_bar > 0.0:
        raise ValueError(f"threshold must be positive, got {gamma_bar}")
    if not params.lambda_t > 0.0:
        raise ValueError("nearest association requires a positive transmitter density")
    total = 0.0
    for weight, integrand, name in _nearest_integrands(params, gamma_bar):
        total += weight * _quad_checked(integrand, 0.0, math.inf, 1e-8, 1e-8,
                                        f"coverage_nearest ({name} branch)")
    return min(max(total, 0.0), 1.0)


def coverage_nearest_alpha4(params: SystemParams, gamma_bar: float) -> float:
    """Closed-form nearest coverage for alpha = 4 (Gaussian-integral reduction).

    Needs a finite noise level; use coverage_nearest_intlimited for the
    noise-free regime.
    """
    if params.path.alpha != 4.0:
        raise ValueError("this closed form requires a path-loss exponent of 4")
    if not gamma_bar > 0.0:
        raise ValueError(f"threshold must be positive, got {gamma_bar}")
    if params.interference_limited:
        raise ValueError("noise-free regime: use coverage_nearest_intlimited")
    if not params.lambda_t > 0.0:
        raise ValueError("nearest association requires a positive transmitter density")
    lam_pi = math.pi * params.lambda_t
    total = 0.0
    for weight, fit, _ in _nearest_branches(params):
        order = _jet_order(fit)
        quad_coef = gamma_bar * params.gamma_t_inv / (params.path.c_d * fit.omega)
        inv_root = quad_coef**-0.5 * jet_spow(-0.5, order)       # 1/sqrt(quad_coef s)
        x2 = lam_pi * _nearest_hyp_jets(params, gamma_bar, fit.omega, order)
        kernel = math.sqrt(math.pi) * jet_erfcx(0.5 * x2 * inv_root) * inv_root
        val, _ = alternating_tail_sum(kernel)
        total += 0.5 * lam_pi * weight * val
    return min(max(total, 0.0), 1.0)


def coverage_nearest_intlimited(params: SystemParams, gamma_bar: float) -> float:
    """Nearest coverage with negligible noise; independent of the density.

    The radial average collapses to the reciprocal of the weighted
    hypergeometric factor, whose derivative sum is evaluated with jets.
    That reciprocal is completely monotone, so nothing cancels in the sum.
    """
    if not gamma_bar > 0.0:
        raise ValueError(f"threshold must be positive, got {gamma_bar}")
    total = 0.0
    for weight, fit, _ in _nearest_branches(params):
        hyp = _nearest_hyp_jets(params, gamma_bar, fit.omega, _jet_order(fit))
        value, _ = alternating_tail_sum(jet_recip(hyp))
        total += weight * min(max(value, 0.0), 1.0)
    return min(max(total, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Average achievable rate
# ---------------------------------------------------------------------------

_RATE_REL_TOL = 1e-7    # relative tolerance of the rate quadrature


def rate_from_coverage(coverage_fn: Callable[[float], float]) -> float:
    """Rate in bits/s/Hz as (1/ln 2) * integral of coverage/(1+x).

    The threshold axis is mapped to (0, 1) by x = t/(1-t).  Raises
    DivergenceError when the coverage does not decay (rate would be
    unbounded).
    """
    if coverage_fn(1e9) > 0.5:
        raise DivergenceError("coverage does not decay at large thresholds; "
                              "the rate integral diverges")

    def integrand(t: float) -> float:
        return coverage_fn(t / (1.0 - t)) / (1.0 - t)

    val = _quad_checked(integrand, 0.0, 1.0, 1e-12, _RATE_REL_TOL, "rate_from_coverage")
    return val / math.log(2.0)


def rate_fixed(params: SystemParams, with_ris: bool) -> float:
    """Rate of the fixed-association user, with or without a serving surface."""
    coverage = coverage_fixed_ris if with_ris else coverage_fixed_noris
    return rate_from_coverage(lambda g: coverage(params, g))


def rate_fixed_alpha4_intlim(params: SystemParams, with_ris: bool) -> float:
    """Closed-form fixed-association rate for alpha = 4 without noise.

    Uses the sine/cosine-integral kernel (pi - 2 Si(v)) sin(v) - 2 Ci(v) cos(v)
    evaluated on the square-root-in-s interference argument.
    """
    if params.path.alpha != 4.0:
        raise ValueError("this closed form requires a path-loss exponent of 4")
    if not params.interference_limited:
        raise ValueError("this closed form applies to the interference-limited regime")
    if not params.lambda_t > 0.0:
        raise ValueError("the noise-free rate is unbounded without interference")
    fit = _fixed_fit(params, with_ris)
    v = _fixed_exponent(params, 1.0 / fit.omega) * jet_spow(0.5, _jet_order(fit))
    si, ci = jet_si_ci(v)
    sj, cj = jet_sin_cos(v)
    kernel = (math.pi - 2.0 * si) * sj - 2.0 * ci * cj
    val, _ = alternating_tail_sum(kernel)
    return val / math.log(2.0)


def rate_nearest(params: SystemParams, interference_limited: bool) -> float:
    """Rate of the nearest-association user."""
    if interference_limited:
        return rate_from_coverage(lambda g: coverage_nearest_intlimited(params, g))
    return rate_from_coverage(lambda g: coverage_nearest(params, g))

