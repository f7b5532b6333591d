"""Reference computations the tests compare riscov against.

Nothing here runs in riscov itself.  The simulator samples the cluster
field radially; the coordinate sampler below draws the same field point by
point, so distances measured on it check the radial laws.  The element-sum
moments are the exact ones the two-stage gamma pipeline approximates, and
the CCDF integral is the coverage-to-rate identity on an empirical
distribution.  The two coverage samplers draw the interference load
directly (a positive stable variable by Kanter's method, and a Poisson
field on an annulus) in place of the jet-evaluated derivative sums.  The
jet division, power, sin/cos and Si/Ci recurrences and the alpha = 4
nearest closed form written on square-root, division and reciprocal jets
are the formulations the jets module and coverage_nearest_alpha4 replaced; exp_tail_sum's exponent is
built here as a jet, from the identity jet that every test uses, and the
exponent-list loop is exp_tail_sum's float path as it was before it formed
j a_j directly.  The fixed-association rate is an mpmath quadrature of
Hamdi's integrand, and the log-x quad is the adaptive reference for
rate_from_coverage's trapezoid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import special as sp
from scipy.integrate import quad

from riscov import analytic, mcsim
from riscov.analytic import SystemParams
from riscov.fading import FadingParams
from riscov.geometry import Window
from riscov.jets import TaylorJet, jet_erfcx, jet_recip
from riscov.mcsim import EmpiricalDistribution
from riscov.powerdist import GammaFit, signal_gamma_fit
from riscov.specfun import hyp2f1_cov


@dataclass(frozen=True)
class GppRealization:
    """One sampled cluster field in coordinates."""

    parents: np.ndarray            # (K, 2) transmitter coordinates
    has_ris: np.ndarray            # (K,) bool
    daughters: np.ndarray          # (K, 2), NaN rows where has_ris is False

    @property
    def n_clusters(self) -> int:
        return int(self.parents.shape[0])


def sample_hppp(density: float, window: Window, seed) -> np.ndarray:
    """Homogeneous Poisson points on the disk window; returns an (K, 2) array.

    Point count is Poisson(density * area); positions are i.i.d. uniform on
    the disk.  seed is an integer or a Generator.
    """
    if density < 0.0:
        raise ValueError(f"density must be non-negative, got {density}")
    rng = np.random.default_rng(seed)
    n = rng.poisson(density * window.area)
    r = window.radius * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def sample_gpp(lambda_t: float, p: float, d0: float, window: Window, seed) -> GppRealization:
    """Transmitters from sample_hppp(lambda_t), each with a surface d0 away with probability p.

    The surface direction is uniform; surfaces may fall outside the window
    and are kept.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"association probability must be in [0, 1], got {p}")
    if not d0 > 0.0:
        raise ValueError(f"cluster offset must be positive, got {d0}")
    rng = np.random.default_rng(seed)
    parents = sample_hppp(lambda_t, window, rng)
    n = parents.shape[0]
    has_ris = rng.random(n) < p
    daughters = np.full((n, 2), np.nan)
    ang = rng.uniform(0.0, 2.0 * math.pi, int(has_ris.sum()))
    daughters[has_ris] = parents[has_ris] + d0 * np.column_stack((np.cos(ang), np.sin(ang)))
    return GppRealization(parents, has_ris, daughters)


def nearest_parent(realization: GppRealization, query) -> tuple[int, float]:
    """Index and distance of the transmitter closest to the query point (lowest index on ties)."""
    if realization.n_clusters == 0:
        raise ValueError("realization holds no clusters")
    d2 = ((realization.parents - np.asarray(query, dtype=float)) ** 2).sum(axis=1)
    idx = int(np.argmin(d2))
    return idx, float(math.sqrt(d2[idx]))


def ccdf_rate_integral(dist: EmpiricalDistribution) -> float:
    """Rate in bits/s/Hz from integrating the empirical CCDF against 1/(1 + x)."""
    n = dist.n
    log_terms = np.diff(np.log1p(np.concatenate(([0.0], dist.sorted_samples))))
    surv = (n - np.arange(n)) / n
    return float(np.dot(surv, log_terms) / math.log(2.0))


def exact_signal_gamma_fit(eta_g0: float, eta_h0: float, fading: FadingParams,
                           n_elements: int) -> GammaFit:
    """Gamma fit of the combined signal power from the exact element-sum moments.

    powerdist.signal_gamma_fit takes moments 3 and 4 of the element sum from
    its gamma fit; here they are the exact raw moments of a sum of n i.i.d.
    Nakagami magnitude products.
    """
    def product_moment(q: int) -> float:
        return math.prod(math.exp(math.lgamma(m + 0.5 * q) - math.lgamma(m)) / m ** (0.5 * q)
                         for m in (fading.m_h, fading.m_r))

    n = n_elements
    m1, m2, m3, m4 = (product_moment(q) for q in range(1, 5))
    s1 = n * m1
    s2 = n * m2 + n * (n - 1) * m1**2
    s3 = n * m3 + 3 * n * (n - 1) * m2 * m1 + n * (n - 1) * (n - 2) * m1**3
    s4 = (n * m4 + 4 * n * (n - 1) * m3 * m1 + 3 * n * (n - 1) * m2**2
          + 6 * n * (n - 1) * (n - 2) * m2 * m1**2
          + n * (n - 1) * (n - 2) * (n - 3) * m1**4)
    # raw moments of the Rayleigh direct magnitude, then of (|g| + beta S)^2
    g1, g2, g3, g4 = (math.gamma(1.0 + 0.5 * q) for q in range(1, 5))
    beta = math.sqrt(eta_h0 / eta_g0)
    chi1 = g2 + 2.0 * beta * g1 * s1 + beta**2 * s2
    chi2 = (g4 + 4.0 * beta * g3 * s1 + 6.0 * beta**2 * g2 * s2
            + 4.0 * beta**3 * g1 * s3 + beta**4 * s4)
    var = chi2 - chi1**2
    return GammaFit(chi1**2 / var, eta_g0 * var / chi1)


def rounded_shape(kappa: float) -> int:
    """The integer gamma shape the coverage formulas use (kappa rounded, at least 1)."""
    return max(1, int(math.floor(kappa + 0.5)))


ORACLE_DRAWS = 1_000_000
ORACLE_SEED = 0x5EED


def kanter_positive_stable(delta: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Positive stable samples S with E[exp(-s S)] = exp(-s^delta) (Kanter 1975)."""
    u = rng.uniform(0.0, math.pi, n)
    e = rng.standard_exponential(n)
    a = (np.sin(delta * u) ** delta * np.sin((1.0 - delta) * u) ** (1.0 - delta)
         / np.sin(u)) ** (1.0 / (1.0 - delta))
    return (a / e) ** ((1.0 - delta) / delta)


def fixed_ris_coverage_by_sampling(params: SystemParams, gamma_bar: float) -> float:
    """E[Q(kappa_hat, X)] with the scaled interference X drawn exactly.

    For fixed association the whole-plane interference is a positive stable
    variable, so X is sampled directly instead of going through the
    derivative series.
    """
    fit = signal_gamma_fit(params.eta_g0, params.eta_h0, params.fading, params.n_elements)
    kappa_hat = rounded_shape(fit.kappa)
    a = params.path.alpha
    d = 2.0 / a
    k = 2.0 * math.pi**2 * params.lambda_t / math.sin(2.0 * math.pi / a) / a
    scale = k * (params.p * params.e1**d + (1.0 - params.p) * params.path.c_d**d)
    scale *= (gamma_bar / fit.omega) ** d
    rng = np.random.default_rng(ORACLE_SEED)
    total = 0.0
    for lo in range(0, ORACLE_DRAWS, 250_000):
        n = min(250_000, ORACLE_DRAWS - lo)
        x = scale ** (1.0 / d) * kanter_positive_stable(d, n, rng)
        x += gamma_bar * params.gamma_t_inv / fit.omega
        total += sp.gammaincc(kappa_hat, x).sum()
    return total / ORACLE_DRAWS


def nearest_intlimited_coverage_by_sampling(params: SystemParams, gamma_bar: float) -> float:
    """Noise-free nearest coverage with the surface branch sampled.

    Works in units of the serving distance: the scaled interference load is
    built from a Poisson field on the annulus [1, 8], with the mean of the
    truncated far field added back deterministically.  The surface-free
    branch is the closed form 1 / sum_j w_j 2F1(-g_j gamma).
    """
    annulus_factor = 8.0
    pl = params.path
    a = pl.alpha
    fit = signal_gamma_fit(1.0, (pl.c_r / pl.c_d) * pl.d0**-a, params.fading,
                           params.n_elements)
    kappa_hat = rounded_shape(fit.kappa)
    gains = np.array([params.e1 / pl.c_d, 1.0]) * gamma_bar / fit.omega
    weights = np.array([params.p, 1.0 - params.p])
    far_mean_unit = (2.0 * float(np.dot(weights, gains))
                     * annulus_factor ** (2.0 - a) / (a - 2.0))
    q2 = annulus_factor**2
    rng = np.random.default_rng(ORACLE_SEED)
    total = 0.0
    for lo in range(0, ORACLE_DRAWS, 20_000):
        n = min(20_000, ORACLE_DRAWS - lo)
        t = rng.standard_exponential(n)          # lambda pi d^2 of each draw
        counts = rng.poisson(t * (q2 - 1.0))
        m = int(counts.sum())
        draw_id = np.repeat(np.arange(n), counts)
        u2 = 1.0 + (q2 - 1.0) * rng.random(m)    # squared radius over d^2
        ris = rng.random(m) < params.p
        gain = np.where(ris, gains[0], gains[1])
        marks = gain * rng.standard_exponential(m) * u2 ** (-0.5 * a)
        x = np.bincount(draw_id, weights=marks, minlength=n)
        x += t * far_mean_unit
        total += sp.gammaincc(kappa_hat, x).sum()
    bare = (params.p * hyp2f1_cov(a, -params.e1 / pl.c_d * gamma_bar)
            + (1.0 - params.p) * hyp2f1_cov(a, -gamma_bar))
    return params.p * total / ORACLE_DRAWS + (1.0 - params.p) / bare


def _f32_path_gain(x2: np.ndarray, alpha: float) -> np.ndarray:
    """x2^(-alpha/2) by the float32 expressions the simulator evaluates."""
    if alpha == 2.5:
        return 1.0 / (x2 * np.sqrt(np.sqrt(x2)))
    if alpha == 4.0:
        return 1.0 / (x2 * x2)
    return np.power(x2, np.float32(-0.5 * alpha))


def interference_by_fsum(rng: np.random.Generator, table: np.ndarray, params: SystemParams,
                         n_trials: int, k_ris: np.ndarray, k_non: np.ndarray,
                         low2, span2) -> np.ndarray:
    """Per-trial interference sums, each an exactly rounded math.fsum of its weights.

    Consumes rng as the simulator's kernel does (one table-window start in
    [0, mcsim._TABLE_ROWS) for a block with interferers, then per group the
    float32 radius uniforms; the surface-free group reads the window's first
    rows, the surface group the next) and builds each interferer's float32
    weight from the plain out-of-place expressions of the model, so a
    one-interferer trial must match the kernel bit for bit.
    """
    f32 = np.float32
    pl = params.path
    low2 = np.broadcast_to(np.float32(low2) if np.isscalar(low2) else low2.astype(f32), n_trials)
    span2 = np.broadcast_to(np.float32(span2) if np.isscalar(span2) else span2.astype(f32),
                            n_trials)
    total = np.zeros(n_trials)
    n_non, n_all = int(k_non.sum()), int(k_non.sum() + k_ris.sum())
    if n_all == 0:
        return total
    window = int(rng.integers(0, mcsim._TABLE_ROWS)) + np.arange(n_all)
    for k, surface, idx in ((k_non, False, window[:n_non]), (k_ris, True, window[n_non:])):
        m = int(k.sum())
        if m == 0:
            continue
        u = rng.random(m, dtype=f32)
        r2 = np.maximum(np.repeat(low2, k) + np.repeat(span2, k) * u, f32(1e-6))
        if surface:
            eta_g = f32(pl.c_d) * _f32_path_gain(r2, pl.alpha)
            d_r2 = r2 + f32(pl.d0**2) + f32(2.0 * pl.d0) * np.sqrt(r2) * table[3, idx]
            d_r2 = np.maximum(d_r2, f32(1e-6))
            eta_h = f32(pl.c_r) * _f32_path_gain(f32(pl.d0**2) * d_r2, pl.alpha)
            w = (eta_g * table[0, idx] + eta_h * table[1, idx]
                 + np.sqrt(eta_g * eta_h) * table[2, idx])
        else:
            w = f32(pl.c_d) * table[0, idx] * _f32_path_gain(r2, pl.alpha)
        ends = np.cumsum(k)
        for t in range(n_trials):
            total[t] += math.fsum(w[ends[t] - k[t]:ends[t]].astype(float))
    return total


def identity_jet(order: int) -> TaylorJet:
    """The identity function s around s = 1: coefficients exactly [1, 1, 0, ...]."""
    coeffs = np.zeros(order + 1)
    coeffs[:2] = 1.0
    return TaylorJet(coeffs)


def jet_div_by_recurrence(a: TaylorJet, b: TaylorJet) -> np.ndarray:
    """Coefficients of a/b by the division recurrence r_k = (a_k - sum_j b_j r_(k-j)) / b_0."""
    aa, bb = a.coeffs, b.coeffs
    r = np.empty(aa.size)
    r[0] = aa[0] / bb[0]
    for k in range(1, aa.size):
        r[k] = (aa[k] - np.dot(bb[1 : k + 1], r[k - 1 :: -1])) / bb[0]
    return r


def jet_pow_by_recurrence(f: TaylorJet, q: float) -> TaylorJet:
    """f^q for real q by the power recurrence k a_0 p_k = sum_j ((q + 1) j - k) a_j p_(k-j)."""
    a = f.coeffs
    n = f.order + 1
    if a[0] <= 0.0:
        raise ValueError("jet_pow requires a positive leading coefficient")
    p = np.empty(n)
    p[0] = a[0] ** q
    qj = (q + 1.0) * np.arange(1.0, n)
    for k in range(1, n):
        p[k] = np.dot((qj[:k] - k) * a[1 : k + 1], p[k - 1 :: -1]) / (k * a[0])
    return TaylorJet(p)


def jet_sin_cos_by_recurrence(u: TaylorJet) -> tuple[TaylorJet, TaylorJet]:
    """sin(u(s)) and cos(u(s)) by the coupled first-order recurrence."""
    a = u.coeffs
    n = u.order + 1
    s = np.empty(n)
    c = np.empty(n)
    s[0], c[0] = math.sin(a[0]), math.cos(a[0])
    ja = a[1:] * np.arange(1.0, n)
    for k in range(1, n):
        s[k] = np.dot(ja[:k], c[k - 1 :: -1]) / k
        c[k] = -np.dot(ja[:k], s[k - 1 :: -1]) / k
    return TaylorJet(s), TaylorJet(c)


def jet_si_ci_by_recurrence(u: TaylorJet) -> tuple[TaylorJet, TaylorJet]:
    """Si(u(s)) and Ci(u(s)); needs u(1) > 0.

    Built from Si' = sin(x)/x and Ci' = cos(x)/x composed with u, then
    integrated coefficientwise.
    """
    a = u.coeffs
    if a[0] <= 0.0:
        raise ValueError("jet_si_ci requires u(1) > 0")
    n = u.order + 1
    sj, cj = jet_sin_cos_by_recurrence(u)
    inv = jet_recip(u)
    ds = (sj * inv).coeffs
    dc = (cj * inv).coeffs
    si = np.empty(n)
    ci = np.empty(n)
    si0, ci0 = sp.sici(a[0])
    si[0], ci[0] = si0, ci0
    ja = a[1:] * np.arange(1.0, n)
    for k in range(1, n):
        si[k] = np.dot(ds[:k], ja[:k][::-1]) / k
        ci[k] = np.dot(dc[:k], ja[:k][::-1]) / k
    return TaylorJet(si), TaylorJet(ci)


def coverage_nearest_alpha4_by_root_jets(params: SystemParams, gamma_bar: float
                                         ) -> tuple[float, float]:
    """coverage_nearest_alpha4 with sqrt(x1) for x1 = q s taken as a jet power.

    Returns the unclamped coverage and the largest erfcx argument at s = 1
    over the association branches.
    """
    lam_pi = math.pi * params.lambda_t
    total, largest = 0.0, 0.0
    for weight, fit, _ in analytic._nearest_branches(params):
        order = analytic._jet_order(fit)
        quad_coef = gamma_bar * params.gamma_t_inv / (params.path.c_d * fit.omega)
        root = jet_pow_by_recurrence(quad_coef * identity_jet(order), 0.5)
        x2 = lam_pi * analytic._nearest_hyp_jets(params, gamma_bar, fit.omega, order)
        arg = TaylorJet(jet_div_by_recurrence(x2, 2.0 * root))
        kernel = math.sqrt(math.pi) * jet_erfcx(arg) * jet_recip(root)
        total += 0.5 * lam_pi * weight * analytic.alternating_tail_sum(kernel)[0]
        largest = max(largest, arg.coeffs[0])
    return total, largest


def exp_tail_sum_exponent(g: TaylorJet, y: float, x: float) -> TaylorJet:
    """The exponent jet -x s - y g(s) whose exp exp_tail_sum(g, y, x) sums."""
    return TaylorJet(identity_jet(g.order).coeffs * -x - y * g.coeffs)


def exp_tail_sum_by_exponent_list(g: TaylorJet, y: float, x: float) -> float:
    """exp_tail_sum's float path as it was written, on a list of exponent coefficients a_j."""
    a = [-(y * v) for v in g.coeffs.tolist()]
    a[0] -= x
    total = math.exp(a[0])
    if len(a) == 1:
        return total
    a[1] -= x
    ja = [j * aj for j, aj in enumerate(a)]
    e = [total]
    comp = 0.0
    sign = 1.0
    for k in range(1, len(a)):
        acc = 0.0
        for j in range(1, k + 1):
            acc += ja[j] * e[k - j]
        ek = acc / k
        e.append(ek)
        sign = -sign
        term = sign * ek - comp
        t = total + term
        comp = (t - total) - term
        total = t
    return total


def rate_fixed_by_mpmath(params: SystemParams, with_ris: bool, dps: int = 30) -> float:
    """Fixed-association rate E[log2(1 + S/Y)] by mpmath quadrature of Hamdi's integrand.

    S ~ Gamma(k, omega) with k the rounded shape of the serving-signal fit,
    and Y = sigma^2/P + I with E[exp(-z I)] = exp(-K z^(2/alpha)), K the
    whole-plane constant 2 pi^2 lambda_t csc(2 pi/alpha)/alpha times the
    tier-weighted gains to the power 2/alpha.  The integrand
    (1/z)(1 - (1 + z omega)^-k) E[exp(-z Y)] is integrated in t = ln z
    between breakpoints one apart in t around t = -ln(k omega).
    """
    fit = signal_gamma_fit(params.eta_g0, params.eta_h0 if with_ris else 0.0,
                           params.fading, params.n_elements)
    k = rounded_shape(fit.kappa)
    with mp.workdps(dps):
        a = mp.mpf(params.path.alpha)
        d = 2 / a
        gain_k = (2 * mp.pi**2 * params.lambda_t / mp.sin(2 * mp.pi / a) / a
                  * (params.p * mp.mpf(params.e1) ** d
                     + (1 - params.p) * mp.mpf(params.path.c_d) ** d))
        omega = mp.mpf(fit.omega)
        noise = mp.mpf(params.gamma_t_inv)

        def integrand(t):
            z = mp.exp(t)
            return -mp.expm1(-k * mp.log1p(z * omega)) * mp.exp(-z * noise - gain_k * z**d)

        centre = -mp.log(k * omega)
        value = mp.quad(integrand, [centre + j for j in range(-40, 61)])
        return float(value / mp.log(2))


def rate_from_coverage_by_log_quad(coverage_fn) -> float:
    """(1/ln 2) * integral of coverage(x)/(1 + x) by adaptive quad in s = ln x.

    The integrand coverage(e^s)/(1 + e^-s) is at most e^s, so s in
    [ln 1e-18, ln 1e30] holds all of the mass of a coverage that is
    negligible by x = 1e30.
    """
    value, _ = quad(lambda s: coverage_fn(math.exp(s)) / (1.0 + math.exp(-s)),
                    math.log(1e-18), math.log(1e30), epsabs=1e-14, epsrel=1e-12, limit=500)
    return value / math.log(2.0)
