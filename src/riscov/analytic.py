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

Rates: rate_fixed and the noise-free rate_nearest integrate Hamdi's lemma
over the Laplace variable, rate_from_coverage integrates a coverage function
over the threshold, both by nested trapezoid rules in the logarithm; the
noisy rate_nearest runs adaptive quad over coverage_nearest's radial quad,
whose integrands jets.exp_tail_integrand binds once per threshold, so quad
calls a generated kernel directly; rate_fixed_alpha4_intlim is the
alpha = 4 noise-free closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .fading import FadingParams, PathLossParams, dbm_to_watts, db_to_linear
from .jets import (TaylorJet, alternating_tail_sum, exp_tail_integrand, exp_tail_sum,
                   jet_erfcx, jet_hyp2f1_cov, jet_recip, jet_si_ci, jet_sin_cos, jet_spow)
from .powerdist import GammaFit, _check_element_count, signal_gamma_fit
from .specfun import hyp2f1_cov

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
        if not 0.0 <= self.lambda_t < math.inf:
            raise ValueError(f"transmitter density must be finite and non-negative, "
                             f"got {self.lambda_t}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"association probability must be in [0, 1], got {self.p}")
        _check_element_count(self.n_elements)
        _check_serving_distance(self.d_g0)
        if self.eta_g0 == 0.0:
            raise ValueError(f"d_g0 = {self.d_g0:g} m is out of range: its direct gain underflows")
        if not (math.isfinite(self.p_tx_w) and math.isfinite(self.noise_w)):
            raise ValueError(f"transmit and noise powers must be finite, "
                             f"got {self.p_tx_w} and {self.noise_w}")
        if not (self.interference_limited or self.p_tx_w > 0.0 and self.noise_w > 0.0):
            raise ValueError("transmit and noise powers must be positive "
                             "unless the scenario is interference limited")

    def check_nearest_density(self) -> None:
        """Raise ValueError unless there are transmitters to associate with."""
        if not self.lambda_t > 0.0:
            raise ValueError("nearest association requires a positive transmitter density")

    # -- derived quantities --------------------------------------------------
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
        """Baseline scenario with a 20 m serving link (the 5 km disk is mcsim.DEFAULT_WINDOW)."""
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


def _check_serving_distance(d_g0: float) -> None:
    """Raise ValueError unless the serving distance is positive."""
    if not d_g0 > 0.0:
        raise ValueError(f"serving distance must be positive, got {d_g0}")


def _check_transform_argument(s: float) -> None:
    """Raise ValueError for a negative Laplace-transform argument."""
    if s < 0.0:
        raise ValueError(f"transform argument must be non-negative, got {s}")


def _check_alpha4(params: SystemParams) -> None:
    """Raise ValueError unless the path-loss exponent is 4, as the alpha = 4 closed forms need."""
    if params.path.alpha != 4.0:
        raise ValueError("this closed form requires a path-loss exponent of 4")


def _check_noise_free_rate(params: SystemParams) -> None:
    """Raise DivergenceError for a noise-free rate with no interferers: it is unbounded."""
    if params.interference_limited and not params.lambda_t > 0.0:
        raise DivergenceError("the noise-free rate is unbounded without interference")


def _check_threshold(gamma_bar: float) -> None:
    """Raise ValueError unless the SINR threshold is positive and finite."""
    if not gamma_bar > 0.0:
        raise ValueError(f"threshold must be positive, got {gamma_bar}")
    if gamma_bar == math.inf:
        raise ValueError("threshold must be finite, got inf")


def _jet_order(fit: GammaFit) -> int:
    """Derivative-sum order of a fit: its shape rounded half up, at least 1, minus one."""
    return max(1, int(math.floor(fit.kappa + 0.5))) - 1


@lru_cache(maxsize=256)
def _fixed_fit(params: SystemParams, with_ris: bool) -> GammaFit:
    return signal_gamma_fit(params.eta_g0, params.eta_h0 if with_ris else 0.0,
                            params.fading, params.n_elements)


@lru_cache(maxsize=256)
def _fixed_power_jet(alpha: float, order: int) -> TaylorJet:
    """s^(2/alpha) around s = 1; jets are read-only, so every threshold shares one."""
    return jet_spow(2.0 / alpha, order)


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
    k = 2.0 * math.pi**2 * params.lambda_t * (1.0 / math.sin(2.0 * math.pi / a)) / a
    return sum(k * weight * (gain * x) ** d for weight, gain in _tiers(params))


def _nearest_hyp(params: SystemParams, y):
    """Weighted 2F1 sum H(y) = sum of w hyp2f1_cov(alpha, -(g/c_d) y) over the tiers.

    y may be an array.  H is _nearest_hyp_jets' order-0 coefficient at
    gamma_bar/chi_bar = y.
    """
    a = params.path.alpha
    cd = params.path.c_d
    return sum(weight * hyp2f1_cov(a, -(gain / cd) * y) for weight, gain in _tiers(params))


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
    _check_transform_argument(s)
    return math.exp(-_fixed_exponent(params, s))


def laplace_nearest(params: SystemParams, s: float, d_g0: float) -> float:
    """E[exp(-s I)] with interferers no closer than the serving distance d_g0.

    The exponent is pi lambda_t d_g0^2 (1 - H), H = _nearest_hyp at
    y = s c_d d_g0^-alpha.
    """
    _check_transform_argument(s)
    _check_serving_distance(d_g0)
    x = s * params.path.c_d * d_g0 ** -params.path.alpha
    return math.exp(math.pi * params.lambda_t * d_g0**2 * (1.0 - _nearest_hyp(params, x)))


# ---------------------------------------------------------------------------
# Coverage, fixed association
# ---------------------------------------------------------------------------

def _coverage_fixed(params: SystemParams, gamma_bar: float, with_ris: bool) -> float:
    """Coverage of a fixed-distance serving link, with or without a surface.

    The alternating derivative sum at s = 1 of exp(-x s - y s^(2/alpha)),
    x the noise term and y the two interference tiers, both scaled by the
    fitted signal parameters.  exp_tail_sum evaluates it on the kernel that
    exp_tail_integrand binds for the nearest-association integrands.  The
    function is completely monotone, so the sum's terms share one sign and
    nothing cancels; an order-0 sum is the function's value.
    """
    _check_threshold(gamma_bar)
    fit = _fixed_fit(params, with_ris)
    noise_slope = gamma_bar * params.gamma_t_inv / fit.omega
    tier = _fixed_exponent(params, gamma_bar / fit.omega)
    value = exp_tail_sum(_fixed_power_jet(params.path.alpha, _jet_order(fit)), tier, noise_slope)
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


def _nearest_branch_terms(params: SystemParams, gamma_bar: float
                          ) -> Iterator[tuple[float, str, TaylorJet, float]]:
    """(weight, name, H, q) of each association branch of nonzero weight.

    Given the serving distance r, a branch's coverage is the derivative sum
    at s = 1 of exp(-q r^alpha s - lambda_t pi r^2 H(s)).  H is the jet of
    the weighted hypergeometric interference factor at gamma_bar/chi_bar
    (_nearest_hyp_jets), and q = gamma_bar sigma^2 / (P c_d chi_bar) is the
    noise slope, 0 without noise.  Every nearest coverage evaluator reads
    both from here.
    """
    for weight, fit, name in _nearest_branches(params):
        yield (weight, name, _nearest_hyp_jets(params, gamma_bar, fit.omega, _jet_order(fit)),
               gamma_bar * params.gamma_t_inv / (params.path.c_d * fit.omega))


def _nearest_integrands(params: SystemParams, gamma_bar: float
                        ) -> list[tuple[float, Callable[[float], float], str]]:
    """(weight, integrand in u, name) of each association branch of nonzero weight.

    u = lambda_t pi r^2 folds the serving-distance density into a unit
    exponential, and the branch's noise slope becomes q' = q (lambda_t pi)^(-alpha/2).
    Each branch integrates the derivative sum of exp(-q' u^(alpha/2) s - u H(s)),
    exp_tail_sum(H, u, q' u^(alpha/2)).  H and q' do not depend on u, so
    exp_tail_integrand binds them, with alpha/2, into the function quad calls.
    """
    half_a = 0.5 * params.path.alpha
    u_scale = (params.lambda_t * math.pi) ** -half_a
    return [(weight, exp_tail_integrand(hyp, q * u_scale, half_a), name)
            for weight, name, hyp, q in _nearest_branch_terms(params, gamma_bar)]


def coverage_nearest(params: SystemParams, gamma_bar: float) -> float:
    """Nearest-transmitter coverage by radial quadrature.

    Each association branch's integrand (see _nearest_integrands) is smooth
    and decays exponentially in u = lambda_t pi r^2 over [0, inf).  Without
    noise it returns the closed form, coverage_nearest_intlimited.
    """
    _check_threshold(gamma_bar)
    params.check_nearest_density()
    if params.interference_limited:
        return coverage_nearest_intlimited(params, gamma_bar)
    total = 0.0
    for weight, integrand, name in _nearest_integrands(params, gamma_bar):
        total += weight * _quad_checked(integrand, 0.0, math.inf, 1e-8, 1e-8,
                                        f"coverage_nearest ({name} branch)")
    return min(max(total, 0.0), 1.0)


def coverage_nearest_alpha4(params: SystemParams, gamma_bar: float) -> float:
    """Closed-form nearest coverage for alpha = 4 (Gaussian-integral reduction).

    The reduction divides by the noise term.  coverage_nearest refuses a
    bad threshold or density, and without noise returns the noise-free
    closed form, coverage_nearest_intlimited.
    """
    _check_alpha4(params)
    if params.interference_limited or not params.lambda_t > 0.0:
        return coverage_nearest(params, gamma_bar)      # which refuses, or is noise-free
    _check_threshold(gamma_bar)
    lam_pi = math.pi * params.lambda_t
    total = 0.0
    for weight, _, hyp, q in _nearest_branch_terms(params, gamma_bar):
        inv_root = q**-0.5 * jet_spow(-0.5, hyp.order)       # 1/sqrt(q s)
        kernel = math.sqrt(math.pi) * jet_erfcx(0.5 * (lam_pi * hyp) * inv_root) * inv_root
        val, _ = alternating_tail_sum(kernel)
        total += 0.5 * lam_pi * weight * val
    return min(max(total, 0.0), 1.0)


def coverage_nearest_intlimited(params: SystemParams, gamma_bar: float) -> float:
    """Nearest coverage with negligible noise; independent of the density.

    The radial average collapses to the reciprocal of the weighted
    hypergeometric factor, whose derivative sum is evaluated with jets.
    That reciprocal is completely monotone, so nothing cancels in the sum.
    """
    _check_threshold(gamma_bar)
    total = sum(weight * min(max(alternating_tail_sum(jet_recip(hyp))[0], 0.0), 1.0)
                for weight, _, hyp, _ in _nearest_branch_terms(params, gamma_bar))
    return min(max(total, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Average achievable rate
# ---------------------------------------------------------------------------

# Nested trapezoid rules in s = ln x (see _log_trapezoid).
_TRAP_X_MIN = 1e-14       # lower end of x: every rate integrand is at most x
_TRAP_S_MAX = 700.0       # the upper end must be found below s = ln x = 700
_TRAP_TAIL = 1e-17        # upper end: the integrand is below this fraction of its peak
_TRAP_H0 = 0.5            # coarsest node spacing in s
_TRAP_H_MIN = 2.0**-8     # no finer spacing than this
_TRAP_REL_TOL = 1e-10     # two successive levels agree to this relative tolerance


def _log_trapezoid(f: Callable[[np.ndarray], object], block: int, where: str) -> float:
    """Integral over the real line of an integrand with 0 <= f(s) <= exp(s).

    f maps an array of nodes s to a sequence of values.  The lower end is
    fixed at ln _TRAP_X_MIN, since the bound leaves at most _TRAP_X_MIN of
    mass below it.  The upper end steps outward by _TRAP_H0, block nodes
    per call of f, up to the first node where f falls below _TRAP_TAIL of
    its peak so far.  Then the node spacing halves, each level adding the
    midpoints of the last, until two levels agree to _TRAP_REL_TOL.  For
    integrands analytic in a strip about the real axis the trapezoid error
    falls geometrically as h halves (Trefethen & Weideman, SIAM Review 56,
    2014), so the finer level is far more accurate than that agreement.
    """
    lo = math.log(_TRAP_X_MIN)
    values = np.empty(0)
    peak = 0.0
    while True:
        s = lo + _TRAP_H0 * np.arange(values.size, values.size + block)
        if s[0] > _TRAP_S_MAX:
            raise QuadratureError(f"{where}: integrand still above {_TRAP_TAIL:g} of its "
                                  f"peak at x = exp({_TRAP_S_MAX:g})")
        v = np.asarray(f(s), dtype=float)
        peaks = np.maximum.accumulate(np.maximum(v, peak))
        small = np.flatnonzero(v <= _TRAP_TAIL * peaks)
        if small.size:
            values = np.concatenate((values, v[: small[0] + 1]))
            break
        values = np.concatenate((values, v))
        peak = peaks[-1]
    h = _TRAP_H0
    total = h * values.sum()
    intervals = values.size - 1
    while h > _TRAP_H_MIN:
        coarse = total
        mid = lo + h * (np.arange(intervals) + 0.5)
        h /= 2.0
        intervals *= 2
        total = 0.5 * coarse + h * np.asarray(f(mid), dtype=float).sum()
        if abs(total - coarse) <= _TRAP_REL_TOL * abs(total):
            return float(total)
    raise QuadratureError(f"{where}: trapezoid levels at h = {h:g} and {2.0 * h:g} still "
                          f"differ by {abs(total - coarse):.3g}")


def rate_from_coverage(coverage_fn: Callable[[float], float]) -> float:
    """Rate in bits/s/Hz as (1/ln 2) * integral of coverage/(1+x).

    Integrated in s = ln x, where the integrand coverage(e^s)/(1 + e^-s)
    is at most e^s, by _log_trapezoid.  Raises DivergenceError when the
    coverage does not decay (rate would be unbounded).
    """
    if coverage_fn(1e9) > 0.5:
        raise DivergenceError("coverage does not decay at large thresholds; "
                              "the rate integral diverges")

    def integrand(s: np.ndarray) -> list[float]:
        return [coverage_fn(math.exp(v)) / (1.0 + math.exp(-v)) for v in s.tolist()]

    return _log_trapezoid(integrand, 8, "rate_from_coverage") / math.log(2.0)


_RATE_REL_TOL = 1e-7    # relative tolerance of _rate_by_quad


def _rate_by_quad(coverage_fn: Callable[[float], float]) -> float:
    """rate_from_coverage by adaptive quad over x = t/(1-t) on (0, 1).

    Only the noisy rate_nearest uses it: the benchmark's reference for that
    rate is this nested quadrature's own output, which misses coverage
    mass at small u (ROADMAP open item 3).  Any other outer rule moves it
    by more than the reference's tolerance, so it stays until ROADMAP open
    item 1 re-records that reference from an independent oracle.
    """
    def integrand(t: float) -> float:
        return coverage_fn(t / (1.0 - t)) / (1.0 - t)

    val = _quad_checked(integrand, 0.0, 1.0, 1e-12, _RATE_REL_TOL, "rate_nearest")
    return val / math.log(2.0)


def _hamdi_rate(fit: GammaFit, laplace: Callable[[np.ndarray], np.ndarray],
                where: str) -> float:
    """E[log2(1 + S/Y)] by Hamdi's lemma for S ~ Gamma(k, omega), k the rounded shape.

    E[ln(1 + S/Y)] = integral of (1/z) (1 - (1 + z omega)^-k) L(z) dz, L the
    Laplace transform of Y (Hamdi, IEEE Trans. Commun. 58(11), 2010).  In
    s = ln x with x = k omega z the integrand (1 - (1 + x/k)^-k) L(x/(k omega))
    is at most x, so _log_trapezoid integrates it over all its nodes at once.
    The rounded shape is the one the coverage derivative sums use, so this
    is the integral of their coverage over the threshold.
    """
    k = _jet_order(fit) + 1
    mean = k * fit.omega

    def integrand(s: np.ndarray) -> np.ndarray:
        x = np.exp(s)
        return -np.expm1(-k * np.log1p(x / k)) * laplace(x / mean)

    return _log_trapezoid(integrand, 64, where) / math.log(2.0)


def rate_fixed(params: SystemParams, with_ris: bool) -> float:
    """Rate of the fixed-association user, with or without a serving surface.

    Hamdi's lemma with L(z) = exp(-z sigma^2/P) times laplace_fixed(z).
    """
    _check_noise_free_rate(params)

    def laplace(z: np.ndarray) -> np.ndarray:
        return np.exp(-z * params.gamma_t_inv - _fixed_exponent(params, z))

    return _hamdi_rate(_fixed_fit(params, with_ris), laplace, "rate_fixed")


def rate_fixed_alpha4_intlim(params: SystemParams, with_ris: bool) -> float:
    """Closed-form fixed-association rate for alpha = 4 without noise.

    Uses the sine/cosine-integral kernel (pi - 2 Si(v)) sin(v) - 2 Ci(v) cos(v)
    evaluated on the square-root-in-s interference argument.
    """
    _check_alpha4(params)
    if not params.interference_limited:
        raise ValueError("this closed form applies to the interference-limited regime")
    _check_noise_free_rate(params)
    fit = _fixed_fit(params, with_ris)
    v = _fixed_exponent(params, 1.0 / fit.omega) * jet_spow(0.5, _jet_order(fit))
    si, ci = jet_si_ci(v)
    sj, cj = jet_sin_cos(v)
    kernel = (math.pi - 2.0 * si) * sj - 2.0 * ci * cj
    val, _ = alternating_tail_sum(kernel)
    return val / math.log(2.0)


def rate_nearest(params: SystemParams, interference_limited: bool) -> float:
    """Rate of the nearest-association user.

    Noise-free (by the flag or by params), each association branch is
    Hamdi's lemma in the normalized variable y = z c_d r^-alpha, where the
    radial average of the Laplace transform is 1/H(y), H the weighted 2F1
    sum of _nearest_hyp.  With noise it is the nested quadrature of
    coverage_nearest (_rate_by_quad).
    """
    if not (interference_limited or params.interference_limited):
        return _rate_by_quad(lambda g: coverage_nearest(params, g))
    total = 0.0
    for weight, fit, name in _nearest_branches(params):
        total += weight * _hamdi_rate(fit, lambda y: 1.0 / _nearest_hyp(params, y),
                                      f"rate_nearest ({name} branch)")
    return total
