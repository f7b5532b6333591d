import math

import numpy as np
import pytest
from scipy import special, stats

from riscov import mcsim
from riscov.analytic import SystemParams
from riscov.fading import FadingParams, PathLossParams, db_to_linear, dbm_to_watts


def test_unit_conversions():
    assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(-70.0) == pytest.approx(1e-10, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)


def test_unit_conversions_refuse_a_finite_value_that_underflows():
    assert 0.0 < db_to_linear(-3100.0) < 1e-300        # subnormal, not 0: kept
    assert db_to_linear(-math.inf) == 0.0               # an infinite value is not refused
    for convert, value, unit in ((db_to_linear, -4000.0, "dB"), (dbm_to_watts, -4000.0, "dBm"),
                                 (db_to_linear, -1e300, "dB")):
        with pytest.raises(ValueError) as refused:
            convert(value)
        assert str(refused.value) == (f"{value:g} {unit} is out of range: its linear value "
                                      f"underflows to 0")


def test_params_refuse_a_serving_link_whose_direct_gain_underflows():
    with pytest.raises(ValueError) as refused:
        SystemParams.default(d_g0=1e200)
    assert str(refused.value) == "d_g0 = 1e+200 m is out of range: its direct gain underflows"
    assert SystemParams.default(d_g0=1e100).eta_g0 > 0.0


def _params(alpha=2.5, c=1e-3, d0=3.0, d_g0=20.0) -> SystemParams:
    """Baseline scenario with the given exponent, unit gains, offset and serving distance."""
    return SystemParams.default(path=PathLossParams(c_d=c, c_r=c, alpha=alpha, d0=d0),
                                d_g0=d_g0)


def test_param_validation():
    with pytest.raises(ValueError):
        PathLossParams(c_d=0.0, c_r=1e-3, alpha=2.5, d0=3.0)
    with pytest.raises(ValueError):
        PathLossParams(c_d=1e-3, c_r=1e-3, alpha=2.0, d0=3.0)
    with pytest.raises(ValueError):
        FadingParams(m_h=0.4, m_r=1.0)


@pytest.mark.parametrize("m_h,m_r", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                     (1.0, math.inf)])
def test_fading_params_refuse_shapes_that_are_not_finite(m_h, m_r):
    with pytest.raises(ValueError, match="Nakagami shape parameters must be finite and at "
                                         "least 0.5"):
        FadingParams(m_h=m_h, m_r=m_r)


# ---------------------------------------------------------------------------
# path loss of the serving link: eta_g0 = c_d d_g0^-alpha,
# eta_h0 = c_r (d0 d_r0)^-alpha with d_r0 = hypot(d_g0, d0)
# ---------------------------------------------------------------------------

def test_pathloss_direct_unit_distance():
    assert _params(d_g0=1.0).eta_g0 == pytest.approx(1e-3, rel=1e-14)


def test_pathloss_direct_twenty_metres():
    # 20^2.5 = 1788.854
    assert 20.0**2.5 == pytest.approx(1788.854, abs=2e-3)
    assert _params().eta_g0 == pytest.approx(5.5902e-7, rel=1e-4)


def test_pathloss_power_law_ratio():
    assert (_params(alpha=4.0, d_g0=2.0).eta_g0 / _params(alpha=4.0, d_g0=4.0).eta_g0
            == pytest.approx(16.0, rel=1e-12))


def test_pathloss_direct_domain():
    with pytest.raises(ValueError):
        _params(d_g0=0.0)


def test_pathloss_reflected_unit_product():
    # d0 = 1/2 and d_g0 = sqrt(15)/2 put the surface 2 m from the user: d0 d_r0 = 1
    p = _params(d0=0.5, d_g0=math.sqrt(15.0) / 2.0)
    assert p.d_r0 == pytest.approx(2.0, rel=1e-15)
    assert p.eta_h0 == pytest.approx(1e-3, rel=1e-14)


def test_pathloss_reflected_survey_point():
    # surface-to-user distance of the (20, 3) placement: sqrt(20^2 + 3^2)
    p = _params()
    assert p.d_r0 == pytest.approx(20.2237, abs=1e-4)
    assert p.eta_h0 == pytest.approx(3.488e-8, rel=2e-4)


def test_pathloss_reflected_product_symmetry():
    # only the product d0 d_r0 matters: 3 m * 5 m (d_g0 = 4) and 1 m * 15 m (d_g0 = sqrt(224))
    a = _params(d0=3.0, d_g0=4.0)
    b = _params(d0=1.0, d_g0=math.sqrt(224.0))
    assert a.path.d0 * a.d_r0 == pytest.approx(b.path.d0 * b.d_r0, rel=1e-15)
    assert a.eta_h0 == pytest.approx(b.eta_h0, rel=1e-14)


def test_pathloss_monotone_in_distance_and_exponent():
    for alpha in (2.5, 3.0, 4.0):
        vals = [_params(alpha=alpha, d_g0=d).eta_g0 for d in (2.0, 5.0, 20.0, 100.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        reflected = [_params(alpha=alpha, d_g0=d).eta_h0 for d in (2.0, 5.0, 20.0, 100.0)]
        assert all(a > b for a, b in zip(reflected, reflected[1:]))
    assert _params(alpha=4.0, d_g0=10.0).eta_g0 < _params(alpha=2.5, d_g0=10.0).eta_g0


# ---------------------------------------------------------------------------
# the simulator's per-element draws: amplitudes |h||r| of two unit-power
# Nakagami hops, and the uniform phases of the randomly phased element sum
# ---------------------------------------------------------------------------

def _amplitudes(m_h, m_r, rows, seed):
    return mcsim._element_amplitudes(np.random.default_rng(seed), FadingParams(m_h, m_r),
                                     1, rows, mcsim._Workspace())[:, 0]


def test_nakagami_m1_is_rayleigh():
    # both hops Rayleigh: |h|^2 |r|^2 is a product of two unit exponentials,
    # P(XY <= t) = 1 - 2 sqrt(t) K1(2 sqrt(t))
    amp2 = _amplitudes(1.0, 1.0, 200_000, seed=5) ** 2

    def cdf(t):
        z = 2.0 * np.sqrt(t)
        return 1.0 - z * special.k1(z)

    assert stats.kstest(amp2, cdf).pvalue > 0.01


def test_nakagami_unit_power():
    for m in (0.5, 1.0, 2.0, 3.0, 4.0, 4.5):
        amp = _amplitudes(m, m, 400_000, seed=int(10 * m))
        mean_sq = (amp**2).mean()
        sd = (amp**2).std(ddof=1) / math.sqrt(amp.size)
        assert abs(mean_sq - 1.0) <= 3.0 * sd


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0, 4.0, 1.5, 4.5, 6.0])
def test_hop_power_is_gamma(m):
    """Both branches of the hop-power sampler (exponential sums, rng.gamma) are Gamma(m, 1/m)."""
    out = np.empty(mcsim._EXP_SUM_MAX_SHAPE * 200_000)
    power = mcsim._hop_power(np.random.default_rng(int(100 * m)), m, (200_000,), out)
    assert stats.kstest(power, lambda x: special.gammainc(m, m * x)).pvalue > 0.01


def test_nakagami_mean_formula():
    m = 2.0
    expect = math.gamma(m + 0.5) / (math.gamma(m) * math.sqrt(m))
    assert expect == pytest.approx(0.93999, abs=2e-5)
    amp = _amplitudes(m, m, 400_000, seed=77)
    sd = amp.std(ddof=1) / math.sqrt(amp.size)
    assert abs(amp.mean() - expect**2) <= 3.0 * sd


def _phases(rows, seed):
    # with one element the phase of the sum is the phase of its only term
    re, im = mcsim._random_phase_sum(np.random.default_rng(seed), FadingParams(2.0, 2.0),
                                     1, rows)
    return np.arctan2(im, re)


def test_uniform_phase_circular_mean():
    ph = _phases(200_000, seed=8)
    z = np.exp(1j * ph).mean()
    assert abs(z) <= 3.0 / math.sqrt(ph.size)


def test_uniform_phase_ks_and_range():
    ph = _phases(100_000, seed=9)
    assert ph.min() >= -math.pi and ph.max() <= math.pi
    assert stats.kstest((ph + math.pi) / (2 * math.pi), "uniform").pvalue > 0.01


def test_uniform_phase_deterministic():
    assert np.array_equal(_phases(100, seed=3), _phases(100, seed=3))
