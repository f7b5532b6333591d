import math

import numpy as np
import pytest
from scipy import special as sp
from scipy.integrate import quad

from riscov.jets import jet_constant, jet_erfcx, jet_si_ci, jet_variable
from riscov.specfun import hyp2f1_cov, reg_lower_gamma, reg_upper_gamma


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def upper_gamma_integer_series(k: int, x: float) -> float:
    """Gamma(k, x)/Gamma(k) for integer k: sum_{i<k} x^i e^-x / i!."""
    term = math.exp(-x)
    total = 0.0
    for i in range(k):
        total += term
        term *= x / (i + 1)
    return total


def erfc_series(x: float) -> float:
    """erfc via the Maclaurin series of erf (good for moderate |x|)."""
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-18:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 1.0 - 2.0 / math.sqrt(math.pi) * total


def si_ci_series(x: float) -> tuple[float, float]:
    """Power series of the sine/cosine integrals (x <= ~4)."""
    si = 0.0
    term = x
    n = 0
    while abs(term) > 1e-19:
        si += term / (2 * n + 1)
        n += 1
        term *= -x * x / ((2 * n) * (2 * n + 1))
    ci = 0.5772156649015329 + math.log(x)
    term = 1.0
    n = 0
    while True:
        n += 1
        term *= -x * x / ((2 * n - 1) * (2 * n))
        add = term / (2 * n)
        ci += add
        if abs(add) < 1e-19:
            break
    return si, ci


def hyp_quadrature(alpha: float, z: float) -> float:
    """Integral representation 1 + d*x * int_0^1 t^-d / (1 + x t) dt, x = -z.

    The endpoint singularity is removed with t = v^(1/(1-d)).
    """
    d = 2.0 / alpha
    x = -z
    if x == 0.0:
        return 1.0
    expo = 1.0 / (1.0 - d)

    def smooth(v: float) -> float:
        t = v**expo
        return 1.0 / (1.0 + x * t)

    val, _ = quad(smooth, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return 1.0 + d * x * val * expo


# ---------------------------------------------------------------------------
# regularized incomplete gamma
# ---------------------------------------------------------------------------

def test_reg_upper_gamma_at_zero():
    assert reg_upper_gamma(2.5, 0.0) == 1.0


def test_reg_upper_gamma_exponential_case():
    assert reg_upper_gamma(1.0, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-13)


def test_reg_upper_gamma_integer_series_oracle():
    assert reg_upper_gamma(2.0, 1.0) == pytest.approx(
        upper_gamma_integer_series(2, 1.0), rel=1e-13)
    assert reg_upper_gamma(2.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)


def test_reg_upper_gamma_monotone_and_bounded():
    xs = np.linspace(0.0, 30.0, 200)
    vals = [reg_upper_gamma(3.7, x) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_reg_gamma_complement_identity():
    rng = np.random.default_rng(42)
    for _ in range(300):
        kappa = 10 ** rng.uniform(-1, 2)
        x = 10 ** rng.uniform(-3, 2.5)
        total = reg_upper_gamma(kappa, x) + reg_lower_gamma(kappa, x)
        assert abs(total - 1.0) <= 1e-14


@pytest.mark.parametrize("kappa,x", [(0.0, 1.0), (-1.0, 1.0), (2.0, -0.1)])
def test_reg_upper_gamma_domain(kappa, x):
    with pytest.raises(ValueError):
        reg_upper_gamma(kappa, x)


# ---------------------------------------------------------------------------
# erfc and the sine/cosine integrals, as the model evaluates them: the value
# and first derivative of the jets jet_erfcx and jet_si_ci (tests/test_jets.py
# checks every coefficient against mpmath)
# ---------------------------------------------------------------------------

def erfcx_fn(x: float) -> float:
    return jet_erfcx(jet_constant(x, 0)).coeffs[0]


def erfc_fn(x: float) -> float:
    return math.exp(-x * x) * erfcx_fn(x)


def sin_cos_integrals(x: float) -> tuple[float, float]:
    """(Si(x), Ci(x)) from the value of a jet_si_ci jet."""
    si, ci = jet_si_ci(jet_constant(x, 0))
    return si.coeffs[0], ci.coeffs[0]


def test_erfc_symmetry_point():
    assert erfc_fn(0.0) == 1.0


def test_erfc_series_oracle():
    oracle = erfc_series(1.0)
    assert erfc_fn(1.0) == pytest.approx(oracle, rel=1e-13)
    assert erfc_fn(1.0) == pytest.approx(0.1572992, abs=5e-8)


def test_erfc_reflection():
    assert erfc_fn(-1.0) == pytest.approx(2.0 - erfc_fn(1.0), rel=1e-14)


def test_erfcx_consistency():
    for x in (0.3, 1.0, 5.0, 25.0):
        assert erfcx_fn(x) == pytest.approx(math.exp(x * x) * sp.erfc(x), rel=1e-11)


def test_si_vanishes_at_origin():
    si, _ = sin_cos_integrals(1e-12)
    assert abs(si) < 1e-11


def test_si_ci_series_oracle():
    si, ci = sin_cos_integrals(1.0)
    osi, oci = si_ci_series(1.0)
    assert si == pytest.approx(osi, abs=1e-12)
    assert ci == pytest.approx(oci, abs=1e-12)
    assert si == pytest.approx(0.9460831, abs=5e-8)
    assert ci == pytest.approx(0.3374039, abs=5e-8)


def test_si_asymptote():
    si, _ = sin_cos_integrals(1000.0)
    assert abs(si - math.pi / 2.0) < 1e-3


def test_si_envelope_bound():
    for x in (0.5, 2.0, 7.9, 8.1, 30.0, 300.0):
        si, _ = sin_cos_integrals(x)
        assert si <= math.pi / 2.0 + 1.0 / x


def test_si_ci_derivative_crosscheck():
    # the order-1 coefficients of Si(x s), Ci(x s) are x Si'(x), x Ci'(x)
    for x in (0.7, 3.0, 9.0, 40.0):
        si, ci = jet_si_ci(jet_constant(x, 1) * jet_variable(1))
        assert si.coeffs[1] / x == pytest.approx(math.sin(x) / x, abs=1e-6)
        assert ci.coeffs[1] / x == pytest.approx(math.cos(x) / x, abs=1e-6)


def test_si_ci_domain():
    with pytest.raises(ValueError):
        sin_cos_integrals(0.0)
    with pytest.raises(ValueError):
        sin_cos_integrals(-2.0)


# ---------------------------------------------------------------------------
# hypergeometric member
# ---------------------------------------------------------------------------

def test_hyp2f1_at_zero():
    assert hyp2f1_cov(4.0, 0.0) == 1.0


def test_hyp2f1_alpha4_closed_form_point():
    assert hyp2f1_cov(4.0, -1.0) == pytest.approx(1.0 + math.pi / 4.0, rel=1e-13)


def test_hyp2f1_quadrature_oracle():
    assert hyp2f1_cov(2.5, -10.0) == pytest.approx(
        hyp_quadrature(2.5, -10.0), rel=1e-10)


def test_hyp2f1_quadrature_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        alpha = rng.uniform(2.05, 6.0)
        z = -(10.0 ** rng.uniform(-4, 5))
        assert hyp2f1_cov(alpha, z) == pytest.approx(
            hyp_quadrature(alpha, z), rel=1e-9)


def test_hyp2f1_alpha4_arctan_identity_bulk():
    rng = np.random.default_rng(123)
    t = 10.0 ** rng.uniform(-6, 6, size=1000)
    for ti in t:
        ref = 1.0 + math.sqrt(ti) * math.atan(math.sqrt(ti))
        assert abs(hyp2f1_cov(4.0, -ti) - ref) <= 1e-10 * ref


def test_hyp2f1_monotone_and_bounded_below():
    prev = 1.0
    for z in -np.logspace(-6, 8, 60):
        v = hyp2f1_cov(3.0, float(z))
        assert v >= prev - 1e-12
        prev = v
    assert hyp2f1_cov(3.0, -1e-9) >= 1.0


def test_hyp2f1_domain():
    with pytest.raises(ValueError):
        hyp2f1_cov(2.0, -1.0)
    with pytest.raises(ValueError):
        hyp2f1_cov(4.0, 0.5)
