import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from oracles import exact_signal_gamma_fit
from riscov import mcsim
from riscov.fading import FadingParams
from riscov.mcsim import sample_interferer_power, sample_signal_power
from riscov.powerdist import (GammaFit, interferer_exp_param,
                              signal_ccdf, signal_gamma_fit, signal_moments,
                              sr_gamma_fit, sr_moments)

ETA_G0 = 1e-3 * 20.0**-2.5
ETA_H0 = 1e-3 * (3.0 * math.hypot(20.0, 3.0)) ** -2.5


def _mc_element_sum(m, n_elements, n_samples, seed):
    """Element sums of the simulator's own per-element amplitude draws."""
    amp = mcsim._element_amplitudes(np.random.default_rng(seed), FadingParams(m, m),
                                    n_elements, n_samples, mcsim._Workspace())
    return amp.sum(axis=1)


# ---------------------------------------------------------------------------
# element-sum moments and fit
# ---------------------------------------------------------------------------

def test_sr_moments_single_element_rayleigh():
    mean, _ = sr_moments(FadingParams(1.0, 1.0), 1)
    assert mean == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_sr_moments_against_monte_carlo():
    mean, second = sr_moments(FadingParams(1.0, 1.0), 16)
    assert mean == pytest.approx(12.566, abs=2e-3)
    assert second == pytest.approx(164.04, abs=2e-2)
    s = _mc_element_sum(1.0, 16, 1_000_000, seed=11)
    assert abs(s.mean() - mean) <= 3.0 * s.std() / math.sqrt(s.size)
    sq = s**2
    assert abs(sq.mean() - second) <= 3.0 * sq.std() / math.sqrt(s.size)


def test_sr_moments_deterministic_limit():
    # large shapes drive the per-element product to 1
    mean, second = sr_moments(FadingParams(64.0, 64.0), 4)
    assert abs(mean - 4.0) / 4.0 < 0.01
    assert abs(second - 16.0) / 16.0 < 0.02


def test_sr_moments_validation():
    with pytest.raises(ValueError):
        sr_moments(FadingParams(1.0, 1.0), 0)


@pytest.mark.parametrize("sampler", [sample_signal_power, sample_interferer_power])
@pytest.mark.parametrize("n_elements,n_samples,message", [
    (0, 100, "element count must be at least 1, got 0"),
    (-3, 100, "element count must be at least 1, got -3"),
    (16, 0, "sample count must be at least 1, got 0")])
def test_samplers_reject_empty_sizes(sampler, n_elements, n_samples, message):
    with pytest.raises(ValueError, match=message):
        sampler(ETA_G0, ETA_H0, FadingParams(2.0, 2.0), n_elements, n_samples, seed=1)


def test_sr_gamma_fit_values():
    fit = sr_gamma_fit(FadingParams(1.0, 1.0), 16)
    assert fit.kappa == pytest.approx(25.76, abs=0.02)
    assert fit.omega == pytest.approx(0.4879, abs=5e-4)


def test_sr_gamma_fit_mean_identity():
    for m, n in ((1.0, 16), (2.0, 32), (4.0, 64)):
        fit = sr_gamma_fit(FadingParams(m, m), n)
        mean, _ = sr_moments(FadingParams(m, m), n)
        assert fit.mean == pytest.approx(mean, rel=1e-12)


def test_sr_gamma_fit_ks_distance():
    fit = sr_gamma_fit(FadingParams(1.0, 1.0), 16)
    s = np.sort(_mc_element_sum(1.0, 16, 1_000_000, seed=21))
    model = sp.gammainc(fit.kappa, s / fit.omega)
    empirical = np.arange(1, s.size + 1) / s.size
    ks = np.max(np.abs(model - empirical))
    assert ks <= 0.01


def _mp_element_sum_fit(m: float, n_elements: int) -> tuple[float, float]:
    """Shape and scale of the element-sum fit at m_h = m_r = m, from 50-digit mpmath moments."""
    with mp.workdps(50):
        m = mp.mpf(m)
        f2 = (mp.gamma(m + mp.mpf(1) / 2) / (mp.gamma(m) * mp.sqrt(m))) ** 2
        mean = n_elements * f2
        var = n_elements + n_elements * (n_elements - 1) * f2**2 - mean**2
        return float(mean**2 / var), float(var / mean)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 4.5])
def test_sr_gamma_fit_matches_mpmath(m):
    fit = sr_gamma_fit(FadingParams(m, m), 32)
    kappa, omega = _mp_element_sum_fit(m, 32)
    assert fit.kappa == pytest.approx(kappa, rel=1e-13)
    assert fit.omega == pytest.approx(omega, rel=1e-13)


@pytest.mark.xfail(strict=True, reason="_mean_mag_factor takes lgamma(m + 1/2) - lgamma(m), "
                   "which cancels at large m, and the variance N (1 - f^2) of the element sum "
                   "is formed as a difference of nearly equal moments")
def test_sr_gamma_fit_matches_mpmath_at_large_shapes():
    """At N = 32 the shape is 1.9e-4 off at m = 1e5, 5.8e-3 at 1e6 and 71 % at 1e7, with
    no error raised (1e-6 already at m = 1e4)."""
    for m in (1e5, 1e6, 1e7):
        fit = sr_gamma_fit(FadingParams(m, m), 32)
        kappa, omega = _mp_element_sum_fit(m, 32)
        assert fit.kappa == pytest.approx(kappa, rel=1e-9)
        assert fit.omega == pytest.approx(omega, rel=1e-9)


# ---------------------------------------------------------------------------
# combined signal fit
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(eta=st.floats(1e-15, 1e3), m_h=st.floats(0.5, 64.0), m_r=st.floats(0.5, 64.0),
       n_elements=st.integers(1, 4096))
def test_signal_fit_no_surface_reduces_to_exponential(eta, m_h, m_r, n_elements):
    """Zero reflected gain is exactly the Rayleigh exponential, whatever the surface."""
    assert signal_gamma_fit(eta, 0.0, FadingParams(m_h, m_r), n_elements) == GammaFit(1.0, eta)


def test_signal_moments_direct_magnitudes():
    sm = signal_moments(ETA_G0, ETA_H0, FadingParams(1.0, 1.0), 16)
    for q, mu in enumerate(sm.mu_g, start=1):
        assert mu == pytest.approx(math.gamma(1.0 + 0.5 * q), rel=1e-14)
    assert sm.chi2 > sm.chi1**2


@pytest.mark.parametrize("n_elements,cross_db", [(16, -52.0), (64, -41.0)])
def test_signal_fit_ccdf_crossings(n_elements, cross_db):
    fit = signal_gamma_fit(ETA_G0, ETA_H0, FadingParams(1.0, 1.0), n_elements)
    x = float(sp.gammaincinv(fit.kappa, 0.2)) * fit.omega
    assert 10.0 * math.log10(x) == pytest.approx(cross_db, abs=1.0)


def test_signal_ccdf_boundary_and_exponential_case():
    fit = signal_gamma_fit(ETA_G0, 0.0, FadingParams(1.0, 1.0), 16)
    assert signal_ccdf(fit, 0.0) == 1.0
    assert signal_ccdf(fit, fit.mean) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_signal_ccdf_against_simulation():
    fad = FadingParams(1.0, 1.0)
    fit = signal_gamma_fit(ETA_G0, ETA_H0, fad, 16)
    dist = sample_signal_power(ETA_G0, ETA_H0, fad, 16, 1_000_000, seed=31)
    grid = 10.0 ** (np.linspace(-60.0, -35.0, 20) / 10.0)
    for x in grid:
        assert abs(signal_ccdf(fit, x) - dist.ccdf(x)) <= 0.01


def test_moment_matching_fidelity_full_grid():
    """Fitted first two moments equal analytic ones for all shape/size combos."""
    for m_h in (1.0, 2.0, 4.0):
        for m_r in (1.0, 2.0, 4.0):
            for n in (16, 32, 64):
                fad = FadingParams(m_h, m_r)
                sm = signal_moments(ETA_G0, ETA_H0, fad, n)
                fit = signal_gamma_fit(ETA_G0, ETA_H0, fad, n)
                assert fit.mean == pytest.approx(ETA_G0 * sm.chi1, rel=1e-12)
                second = fit.variance + fit.mean**2
                assert second == pytest.approx(ETA_G0**2 * sm.chi2, rel=1e-12)


def _fit_deviation(m_h, m_r, n, n_samples, seed):
    fad = FadingParams(m_h, m_r)
    fit = signal_gamma_fit(ETA_G0, ETA_H0, fad, n)
    dist = sample_signal_power(ETA_G0, ETA_H0, fad, n, n_samples, seed=seed)
    grid = np.quantile(dist.sorted_samples, np.linspace(0.02, 0.98, 25))
    return max(abs(signal_ccdf(fit, float(x)) - float(dist.ccdf(float(x)))) for x in grid)


# every (N, m_r, m_h) but (16, 4, 4), the miss test_fit_worst_corner documents
@pytest.mark.parametrize("n,m_r,m_h", [
    case for case in itertools.product([16, 32, 64], [1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
    if case != (16, 4.0, 4.0)])
def test_fit_vs_empirical_ccdf_grid(m_h, m_r, n):
    n_samples = 250_000
    dev = _fit_deviation(m_h, m_r, n, n_samples, seed=int(m_h * 1000 + m_r * 100 + n))
    # 0.015 model bound plus the binomial noise of the empirical CCDF
    assert dev <= 0.015 + 3.0 * math.sqrt(0.25 / n_samples)


@pytest.mark.xfail(reason="the two-stage gamma match truly misses the 0.015 "
                          "bound at m_h = m_r = 4, N = 16 (deviation ~0.017)",
                   strict=False)
def test_fit_worst_corner():
    dev = _fit_deviation(4.0, 4.0, 16, 500_000, seed=4416)
    assert dev <= 0.015


def test_exact_sr_moment_variant_close_to_pipeline():
    fad = FadingParams(2.0, 2.0)
    default = signal_gamma_fit(ETA_G0, ETA_H0, fad, 32)
    exact = exact_signal_gamma_fit(ETA_G0, ETA_H0, fad, 32)
    assert exact.mean == pytest.approx(default.mean, rel=1e-12)
    assert exact.kappa == pytest.approx(default.kappa, rel=0.05)


# ---------------------------------------------------------------------------
# hardening metric
# ---------------------------------------------------------------------------

def coeff_variation(fit: GammaFit) -> float:
    """Standard deviation over mean of the fitted power."""
    return math.sqrt(fit.variance) / fit.mean


def test_coeff_variation_exponential():
    assert coeff_variation(GammaFit(1.0, 2.0)) == 1.0


def test_hardening_direction():
    fad = FadingParams(1.0, 1.0)
    nu16 = coeff_variation(signal_gamma_fit(ETA_G0, ETA_H0, fad, 16))
    nu64 = coeff_variation(signal_gamma_fit(ETA_G0, ETA_H0, fad, 64))
    assert nu64 < nu16


def test_hardening_scaling_law():
    fad = FadingParams(1.0, 1.0)
    scaled = []
    for n in (64, 256, 1024, 4096):
        nu = coeff_variation(signal_gamma_fit(ETA_G0, ETA_H0, fad, n))
        scaled.append(nu * math.sqrt(n))
    for a, b in zip(scaled, scaled[1:]):
        assert abs(b - a) / a < 0.10


def test_quantile_spread_shrinks_with_elements():
    fad = FadingParams(1.0, 1.0)
    spreads = []
    for n in (16, 32, 64, 128):
        fit = signal_gamma_fit(ETA_G0, ETA_H0, fad, n)
        lo = float(sp.gammaincinv(fit.kappa, 0.1)) * fit.omega
        hi = float(sp.gammaincinv(fit.kappa, 0.9)) * fit.omega
        spreads.append(10.0 * math.log10(hi / lo))
    assert all(a > b for a, b in zip(spreads, spreads[1:]))


# ---------------------------------------------------------------------------
# interferer power
# ---------------------------------------------------------------------------

def test_interferer_param_without_surface():
    assert interferer_exp_param(2e-7, 0.0, 32) == pytest.approx(5e6, rel=1e-12)


def test_interferer_param_zero_elements_continuity():
    assert interferer_exp_param(2e-7, 5e-9, 0) == pytest.approx(
        interferer_exp_param(2e-7, 0.0, 32), rel=1e-12)


def test_interferer_ccdf_matches_exponential_model():
    # mirrored geometry: transmitter 20 m away, surface at offset 3
    eta_g = ETA_G0
    eta_h = ETA_H0
    fad = FadingParams(1.0, 1.0)
    zeta = interferer_exp_param(eta_g, eta_h, 32)
    dist = sample_interferer_power(eta_g, eta_h, fad, 32, 1_000_000, seed=41)
    grid = np.quantile(dist.sorted_samples, np.linspace(0.02, 0.98, 25))
    dev = max(abs(math.exp(-zeta * x) - float(dist.ccdf(float(x)))) for x in grid)
    assert dev <= 0.01


def test_interferer_power_moments_depend_on_shape():
    """First two moments of one surface-bearing interferer's power at m = 1 and m = 4.

    P = |sqrt(eta_g) g + sqrt(eta_h) T| ^ 2 with g ~ CN(0, 1) and T the sum of N
    unit-power element products A e^(j phi), so E P = eta_g + N eta_h and
    E P^2 = 2 eta_g^2 + 4 N eta_g eta_h + eta_h^2 E|T|^4, where
    E|T|^4 = N E[A^4] + 2 N (N - 1) and E[A^4] = (1 + 1/m)^2.  The law thus
    depends on the Nakagami shape at O(1/N), and 1M samples resolve that.
    """
    n_elements, n_samples = 32, 1_000_000
    second = {}
    for m, seed in ((1.0, 51), (4.0, 52)):
        power = sample_interferer_power(ETA_G0, ETA_H0, FadingParams(m, m), n_elements,
                                        n_samples, seed=seed).sorted_samples
        t4 = n_elements * (1.0 + 1.0 / m) ** 2 + 2.0 * n_elements * (n_elements - 1)
        mean = ETA_G0 + n_elements * ETA_H0
        mean2 = 2.0 * ETA_G0**2 + 4.0 * n_elements * ETA_G0 * ETA_H0 + ETA_H0**2 * t4
        se = power.std() / math.sqrt(n_samples)
        se2 = (power**2).std() / math.sqrt(n_samples)
        assert abs(power.mean() - mean) <= 4.0 * se, m
        assert abs((power**2).mean() - mean2) <= 4.0 * se2, m
        second[m] = (mean2, se2)
    assert second[1.0][0] - second[4.0][0] > 4.0 * max(se2 for _, se2 in second.values())
