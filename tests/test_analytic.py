import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy.integrate import quad

from oracles import (coverage_nearest_alpha4_by_root_jets, exp_tail_sum_exponent,
                     fixed_ris_coverage_by_sampling, nearest_intlimited_coverage_by_sampling,
                     identity_jet, rate_fixed_by_mpmath, rate_from_coverage_by_log_quad,
                     rounded_shape, sample_gpp)
import riscov.analytic as analytic
from riscov.analytic import (DivergenceError, QuadratureError, SystemParams,
                             coverage_fixed_noris, coverage_fixed_ris,
                             coverage_nearest, coverage_nearest_alpha4,
                             coverage_nearest_intlimited,
                             default_threshold_grid, laplace_fixed,
                             laplace_nearest, rate_fixed,
                             rate_fixed_alpha4_intlim, rate_from_coverage,
                             rate_nearest)
from riscov.fading import dbm_to_watts
from riscov.geometry import Window
from riscov import jets
from riscov.jets import (TaylorJet, alternating_tail_sum, exp_tail_sum, jet_exp,
                         jet_hyp2f1_cov, jet_spow)
from riscov.powerdist import signal_gamma_fit
from riscov.specfun import hyp2f1_cov


def params_at(p_tx_dbm: float, **kw) -> SystemParams:
    return SystemParams.default(p_tx_w=dbm_to_watts(p_tx_dbm), **kw)


# ---------------------------------------------------------------------------
# SystemParams
# ---------------------------------------------------------------------------

def test_defaults_match_baseline_setup(base_params):
    assert base_params.path.c_d == pytest.approx(1e-3)
    assert base_params.path.alpha == 2.5
    assert base_params.noise_w == pytest.approx(1e-10)
    assert base_params.d_g0 == 20.0
    assert base_params.d_r0 == pytest.approx(math.hypot(20.0, 3.0))
    assert base_params.eta_g0 == pytest.approx(5.5902e-7, rel=1e-4)
    assert base_params.e1 == pytest.approx(
        1e-3 + 32 * 1e-3 * 3.0**-2.5, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams.default(p=1.2)
    with pytest.raises(ValueError):
        SystemParams.default(lambda_t=-1.0)
    with pytest.raises(ValueError):
        SystemParams.default(p_tx_w=0.0)
    # noise-free mode lifts the power requirement
    SystemParams.default(p_tx_w=0.0, interference_limited=True)


@pytest.mark.parametrize("lambda_t", [math.nan, math.inf])
def test_params_refuse_a_density_that_is_not_finite(lambda_t):
    with pytest.raises(ValueError, match="transmitter density must be finite and non-negative"):
        SystemParams.default(lambda_t=lambda_t)


@pytest.mark.parametrize("interference_limited", [False, True])
@pytest.mark.parametrize("field", ["p_tx_w", "noise_w"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_refuse_a_power_that_is_not_finite(field, value, interference_limited):
    """Both powers must be finite, with noise or without; only their positivity is
    noise-only (test_params_validation)."""
    with pytest.raises(ValueError, match="transmit and noise powers must be finite"):
        SystemParams.default(interference_limited=interference_limited, **{field: value})


def test_gamma_t_semantics(base_params):
    assert base_params.gamma_t_inv == pytest.approx(1e-10 / 1e-3)
    nf = SystemParams.default(interference_limited=True)
    assert nf.gamma_t_inv == 0.0


# ---------------------------------------------------------------------------
# Laplace transforms
# ---------------------------------------------------------------------------

def test_laplace_fixed_at_zero(base_params):
    assert laplace_fixed(base_params, 0.0) == 1.0


def test_laplace_fixed_closed_point():
    p = SystemParams.default(lambda_t=1e-4, p=0.0, path=dataclasses.replace(
        SystemParams.default().path, alpha=4.0))
    expect = math.exp(-2 * math.pi**2 * 1e-4 * math.sqrt(1e-3) / 4.0)
    assert expect == pytest.approx(0.9999844, abs=5e-7)
    assert laplace_fixed(p, 1.0) == pytest.approx(expect, rel=1e-12)


def test_laplace_fixed_monte_carlo_crosscheck():
    """Average of exp(-s I) over sampled fields with exponential marks.

    s is chosen so the transform is driven by interferers at tens of metres,
    a range 1e4 realizations populate well (at s = 1 the whole effect sits
    below one metre and no feasible sample resolves it).
    """
    p = SystemParams.default(lambda_t=1e-4, p=0.0, path=dataclasses.replace(
        SystemParams.default().path, alpha=4.0))
    s = 1e9
    rng = np.random.default_rng(17)
    w = Window(1000.0)
    truncation = math.pi * p.lambda_t * s * p.path.c_d / w.radius**2
    vals = np.empty(10_000)
    for t in range(vals.size):
        real = sample_gpp(p.lambda_t, 0.0, 3.0, w, seed=rng.integers(2**63))
        r2 = (real.parents**2).sum(axis=1)
        marks = rng.standard_exponential(r2.size)
        i_tot = (p.path.c_d * r2**-2.0 * marks).sum()
        vals[t] = math.exp(-s * i_tot)
    err = 3.0 * vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - laplace_fixed(p, s)) <= err + truncation


def test_laplace_fixed_monotone(base_params):
    vals = [laplace_fixed(base_params, s) for s in (1.0, 10.0, 100.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_laplace_fixed_domain(base_params):
    with pytest.raises(ValueError):
        laplace_fixed(base_params, -1.0)


def test_laplace_nearest_at_zero(base_params):
    assert laplace_nearest(base_params, 0.0, 50.0) == 1.0


def test_laplace_nearest_quadrature_oracle(base_params):
    """Compare against the defining radial integral for random draws.

    The integrand tail decays like r^(1-alpha) over several decades, which
    defeats scipy.quad's semi-infinite mapping; mpmath's adaptive quadrature
    resolves it.
    """
    rng = np.random.default_rng(23)
    mp.mp.dps = 35
    for _ in range(20):
        p = SystemParams.default(
            lambda_t=10 ** rng.uniform(-5, -3),
            p=rng.uniform(0.0, 1.0),
            n_elements=int(rng.integers(8, 65)),
        )
        s = 10 ** rng.uniform(2, 6)
        d = rng.uniform(5.0, 200.0)
        a = p.path.alpha

        def fraction(r):
            return (p.p / (1 + s * p.e1 * r**-a)
                    + (1 - p.p) / (1 + s * p.path.c_d * r**-a) - 1.0)

        # r = d / t^4 maps (d, inf) to (0, 1] with a smooth integrand
        def compact(t):
            r = d / t**4
            return fraction(r) * r * 4 * d / t**5

        val = float(mp.quad(compact, [0, 1], maxdegree=10))
        oracle = math.exp(2 * math.pi * p.lambda_t * val)
        assert laplace_nearest(p, s, d) == pytest.approx(oracle, abs=1e-8)


def test_laplace_nearest_small_distance_limit(base_params):
    s = 1e4
    assert laplace_nearest(base_params, s, 1e-6) == pytest.approx(
        laplace_fixed(base_params, s), rel=1e-9)


def test_laplace_log_concavity_probe(base_params):
    """log L must be concave in s^(2/alpha) (complete monotonicity probe)."""
    d = 2.0 / base_params.path.alpha
    for fn in (lambda s: laplace_fixed(base_params, s),
               lambda s: laplace_nearest(base_params, s, 50.0)):
        s = np.logspace(1, 7, 30)
        x = s**d
        y = np.array([math.log(fn(v)) for v in s])
        second = np.diff(y, 2) / np.diff(x)[:-1] ** 2   # uneven grid, sign only
        assert np.all(second <= 1e-9)


# ---------------------------------------------------------------------------
# fixed-association coverage
# ---------------------------------------------------------------------------

def test_coverage_fixed_ris_single_term_reduces_to_noris():
    """A vanishing surface gain collapses the fit to the exponential case."""
    path = dataclasses.replace(SystemParams.default().path, c_r=1e-30)
    p = params_at(-10.0, path=path)
    assert coverage_fixed_ris(p, 1.0) == pytest.approx(
        coverage_fixed_noris(p, 1.0), rel=1e-9)


def test_coverage_fixed_ris_figure_values(fig4_params):
    assert coverage_fixed_ris(fig4_params(1e-3), 1.0) == pytest.approx(0.53, abs=0.03)
    assert coverage_fixed_ris(fig4_params(1e-4), 1.0) == pytest.approx(0.93, abs=0.03)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(2.05, 6.0), n_elements=st.integers(1, 512),
       log_lambda=st.floats(-7.0, -1.0), log_gamma=st.floats(-2.0, 3.0),
       p=st.floats(0.0, 1.0), p_tx_dbm=st.floats(-40.0, 30.0),
       noise_free=st.booleans())
def test_derivative_sums_do_not_cancel(alpha, n_elements, log_lambda, log_gamma, p,
                                       p_tx_dbm, noise_free):
    """The summed functions are completely monotone, so no term cancels another.

    Records the cancellation ratio sum |c_i| / |sum (-1)^i c_i| of every jet
    the two series-evaluated coverages sum: the exp jet behind the fixed
    link's exp_tail_sum, which it takes at every order, and each
    association branch's reciprocal jet.
    """
    path = dataclasses.replace(SystemParams.default().path, alpha=alpha)
    params = SystemParams.default(lambda_t=10.0**log_lambda, p=p, n_elements=n_elements,
                                  path=path, p_tx_w=dbm_to_watts(p_tx_dbm),
                                  interference_limited=noise_free)
    real_exp_sum = analytic.exp_tail_sum
    real_sum = analytic.alternating_tail_sum
    ratios = []

    def recording_exp_sum(g, y, x):
        ratios.append(alternating_tail_sum(jet_exp(exp_tail_sum_exponent(g, y, x)))[1])
        return real_exp_sum(g, y, x)

    def recording_sum(jet):
        value, ratio = real_sum(jet)
        ratios.append(ratio)
        return value, ratio

    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(analytic, "exp_tail_sum", recording_exp_sum)
        mp_ctx.setattr(analytic, "alternating_tail_sum", recording_sum)
        coverage_fixed_ris(params, 10.0**log_gamma)
        coverage_nearest_intlimited(params, 10.0**log_gamma)
    assert len(ratios) == 1 + (p > 0.0) + (p < 1.0)
    assert max(ratios) <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(2.05, 6.0), n_elements=st.integers(1, 512),
       log_lambda=st.floats(-7.0, -1.0), log_gamma=st.floats(-2.0, 3.0),
       p=st.floats(0.0, 1.0), p_tx_dbm=st.floats(-40.0, 30.0),
       noise_free=st.booleans(), log_u=st.floats(-8.0, 2.0))
def test_nearest_integrand_sums_do_not_cancel(alpha, n_elements, log_lambda, log_gamma, p,
                                              p_tx_dbm, noise_free, log_u):
    """exp(-x s - u H(s)) is completely monotone too, so its sums do not cancel.

    Each integrand is bound by exp_tail_integrand(H, q, alpha/2); the
    recording binder's integrand records, at u, the cancellation ratio of
    the exp jet behind exp_tail_sum(H, u, q u^(alpha/2)).
    """
    path = dataclasses.replace(SystemParams.default().path, alpha=alpha)
    params = SystemParams.default(lambda_t=10.0**log_lambda, p=p, n_elements=n_elements,
                                  path=path, p_tx_w=dbm_to_watts(p_tx_dbm),
                                  interference_limited=noise_free)
    real_bind = analytic.exp_tail_integrand
    ratios = []

    def recording_bind(g, q, power):
        bound = real_bind(g, q, power)

        def integrand(u):
            x = q * u**power
            ratios.append(alternating_tail_sum(jet_exp(exp_tail_sum_exponent(g, u, x)))[1])
            return bound(u)
        return integrand

    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(analytic, "exp_tail_integrand", recording_bind)
        for _, integrand, _ in analytic._nearest_integrands(params, 10.0**log_gamma):
            integrand(10.0**log_u)
    assert len(ratios) == (p > 0.0) + (p < 1.0)
    assert max(ratios) <= 1.0 + 1e-12


@pytest.mark.parametrize("order", range(jets._FLOAT_SUM_MAX_ORDER + 2))
@pytest.mark.parametrize("case", ["noisy", "noise-free", "underflow"])
def test_nearest_integrands_are_exp_tail_sum_bit_for_bit(order, case, monkeypatch):
    """Each bound integrand equals exp_tail_sum(H, u, q u^(alpha/2)), compared by float.hex.

    _jet_order is pinned, so the branches bind every jet length from 1 to
    one past the float cutoff, where the jet_exp path takes over.  u is
    drawn log-uniformly over [1e-8, 1e2].  Noise-free, q = 0 and x = 0; at
    -40 dBm, q u^(alpha/2) passes 745 and e_0 underflows.
    """
    overrides = {"noisy": {}, "noise-free": {"interference_limited": True},
                 "underflow": {"p_tx_w": dbm_to_watts(-40.0)}}[case]
    params = SystemParams.default(p=0.9, **overrides)
    gamma_bar = 2.0
    monkeypatch.setattr(analytic, "_jet_order", lambda fit: order)
    half_a = 0.5 * params.path.alpha
    u_scale = (params.lambda_t * math.pi) ** -half_a
    us = 10.0 ** np.random.default_rng(order).uniform(-8.0, 2.0, 12)
    integrands = analytic._nearest_integrands(params, gamma_bar)
    underflowed = 0
    for (_, integrand, name), (_, fit, _) in zip(integrands, analytic._nearest_branches(params)):
        hyp = analytic._nearest_hyp_jets(params, gamma_bar, fit.omega, order)
        assert hyp.order == order
        q = gamma_bar * params.gamma_t_inv / (params.path.c_d * fit.omega) * u_scale
        assert (q == 0.0) == (case == "noise-free")
        for u in us.tolist():
            x = q * u**half_a
            want = exp_tail_sum(hyp, u, x)
            assert integrand(u).hex() == want.hex(), (name, u)
            underflowed += x > 746.0
    assert underflowed or case != "underflow"


def test_coverage_fixed_ris_matches_stable_sampling(fig4_params):
    p = fig4_params(1e-3)
    assert coverage_fixed_ris(p, 1.0) == pytest.approx(
        fixed_ris_coverage_by_sampling(p, 1.0), abs=3e-3)


def test_coverage_fixed_noris_zero_threshold_limit(base_params):
    assert coverage_fixed_noris(base_params, 1e-15) == pytest.approx(1.0, abs=1e-9)


def test_coverage_fixed_noris_rayleigh_reduction():
    p = params_at(-10.0, lambda_t=0.0)
    for g in (0.3, 1.0, 5.0):
        expect = math.exp(-g * p.gamma_t_inv / p.eta_g0)
        assert coverage_fixed_noris(p, g) == pytest.approx(expect, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(2.05, 6.0), n_elements=st.integers(1, 512),
       log_lambda=st.floats(-7.0, -1.0), log_gamma=st.floats(-2.0, 3.0),
       p=st.floats(0.0, 1.0), p_tx_dbm=st.floats(-40.0, 30.0),
       d_g0=st.floats(1.0, 500.0), noise_free=st.booleans())
def test_coverage_fixed_noris_is_the_exponential_closed_form(alpha, n_elements, log_lambda,
                                                             log_gamma, p, p_tx_dbm, d_g0,
                                                             noise_free):
    """Zero reflected gain gives shape 1, so the derivative sum is exp(V(1)) bit for bit."""
    params = SystemParams.default(lambda_t=10.0**log_lambda, p=p, n_elements=n_elements,
                                  path=dataclasses.replace(SystemParams.default().path,
                                                           alpha=alpha),
                                  p_tx_w=dbm_to_watts(p_tx_dbm), d_g0=d_g0,
                                  interference_limited=noise_free)
    gamma_bar = 10.0**log_gamma
    eta = params.eta_g0
    expect = math.exp(-(gamma_bar * params.gamma_t_inv / eta
                        + analytic._fixed_exponent(params, gamma_bar / eta)))
    assert coverage_fixed_noris(params, gamma_bar) == expect


@pytest.mark.xfail(strict=True, reason="jet_exp underflows once the jet order passes about "
                   "745, so coverage drops to 0; ROADMAP open item 2(a)")
def test_coverage_fixed_ris_survives_high_jet_order():
    """N = 4096 at 38 dB: a 30-digit mpmath derivative sum gives 0.6015032595281."""
    params = SystemParams.default(n_elements=4096, lambda_t=1e-4, p=0.9,
                                  p_tx_w=dbm_to_watts(-20.0))
    assert coverage_fixed_ris(params, 10.0**3.8) == pytest.approx(0.6015032595281, abs=1e-9)


def test_coverage_fixed_noris_crossing_power():
    from scipy.optimize import brentq
    f = lambda dbm: coverage_fixed_noris(params_at(dbm, lambda_t=1e-5), 1.0) - 0.9
    crossing = brentq(f, -20.0, 40.0, xtol=1e-6)
    assert crossing == pytest.approx(10.0, abs=2.0)


def test_coverage_with_ris_crossing_matches_narrative():
    from scipy.optimize import brentq
    f = lambda dbm: coverage_fixed_ris(params_at(dbm, lambda_t=1e-5), 1.0) - 0.9
    crossing = brentq(f, -40.0, 0.0, xtol=1e-6)
    assert crossing == pytest.approx(-24.0, abs=2.0)


# ---------------------------------------------------------------------------
# nearest-association coverage
# ---------------------------------------------------------------------------

def test_coverage_nearest_p0_alpha4_closed_value():
    path = dataclasses.replace(SystemParams.default().path, alpha=4.0)
    p = SystemParams.default(p=0.0, path=path, interference_limited=True)
    expect = 1.0 / (1.0 + math.pi / 4.0)
    assert expect == pytest.approx(0.56010, abs=5e-6)
    assert coverage_nearest(p, 1.0) == pytest.approx(expect, abs=1e-8)
    assert coverage_nearest_intlimited(p, 1.0) == pytest.approx(expect, rel=1e-12)


def test_coverage_nearest_matches_alpha4_closed_form():
    path = dataclasses.replace(SystemParams.default().path, alpha=4.0)
    p = params_at(0.0, p=0.9, path=path)
    for g in default_threshold_grid(20, -10.0, 20.0):
        quad_val = coverage_nearest(p, float(g))
        closed = coverage_nearest_alpha4(p, float(g))
        assert abs(quad_val - closed) <= 1e-6


def test_coverage_nearest_intlimited_density_free():
    vals = []
    for lam in (1e-5, 1e-4, 1e-3):
        p = SystemParams.default(lambda_t=lam, p=0.9, interference_limited=True)
        vals.append(coverage_nearest_intlimited(p, 1.0))
    assert abs(vals[0] - vals[1]) <= 1e-14
    assert abs(vals[1] - vals[2]) <= 1e-14


def test_coverage_nearest_high_snr_limit():
    p_lim = SystemParams.default(p=0.9, interference_limited=True)
    p_fin = SystemParams.default(p=0.9, p_tx_w=1e2)     # gamma_t = 1e12
    assert coverage_nearest(p_fin, 1.0) == pytest.approx(
        coverage_nearest_intlimited(p_lim, 1.0), abs=1e-4)


def test_coverage_nearest_intlimited_matches_annulus_sampling():
    p = SystemParams.default(p=0.9, interference_limited=True)
    assert coverage_nearest_intlimited(p, 1.0) == pytest.approx(
        nearest_intlimited_coverage_by_sampling(p, 1.0), abs=5e-3)


@pytest.mark.parametrize("alpha", [2.5, 4.0])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_noise_free_nearest_coverage_has_one_evaluator(alpha, p):
    """Without noise, coverage_nearest and the alpha = 4 form return the closed form."""
    path = dataclasses.replace(SystemParams.default().path, alpha=alpha)
    params = SystemParams.default(p=p, path=path, interference_limited=True)
    evaluators = [coverage_nearest] + [coverage_nearest_alpha4] * (alpha == 4.0)
    for g in default_threshold_grid().tolist():
        expect = coverage_nearest_intlimited(params, g).hex()
        assert [fn(params, g).hex() for fn in evaluators] == [expect] * len(evaluators), g


def test_noise_free_rate_nearest_ignores_its_flag():
    """A noise-free parameter set takes the Hamdi path whatever the flag says."""
    params = SystemParams.default(p=0.9, interference_limited=True)
    assert rate_nearest(params, False).hex() == rate_nearest(params, True).hex()


def test_coverage_nearest_alpha4_rejects_wrong_exponent(base_params):
    with pytest.raises(ValueError):
        coverage_nearest_alpha4(base_params, 1.0)


@pytest.mark.parametrize("noise_free", [False, True])
@pytest.mark.parametrize("alpha,gamma_bar,lambda_t,message", [
    (2.5, 1.0, 1e-4, "this closed form requires a path-loss exponent of 4"),
    (2.5, 0.0, 0.0, "this closed form requires a path-loss exponent of 4"),
    (4.0, 0.0, 1e-4, "threshold must be positive, got 0.0"),
    (4.0, -1.0, 0.0, "threshold must be positive, got -1.0"),
    (4.0, math.nan, 1e-4, "threshold must be positive, got nan"),
    (4.0, 1.0, 0.0, "nearest association requires a positive transmitter density"),
])
def test_coverage_nearest_alpha4_refuses_as_coverage_nearest(noise_free, alpha, gamma_bar,
                                                            lambda_t, message):
    """The exponent is checked first; then the threshold and the density, with or without
    noise, as coverage_nearest checks them."""
    path = dataclasses.replace(SystemParams.default().path, alpha=alpha)
    params = SystemParams.default(lambda_t=lambda_t, path=path,
                                  interference_limited=noise_free)
    with pytest.raises(ValueError) as refused:
        coverage_nearest_alpha4(params, gamma_bar)
    assert str(refused.value) == message


@pytest.mark.parametrize("noise_free", [False, True])
@pytest.mark.parametrize("evaluator", [coverage_fixed_ris, coverage_fixed_noris,
                                       coverage_nearest, coverage_nearest_alpha4,
                                       coverage_nearest_intlimited])
def test_coverage_refuses_an_infinite_threshold(evaluator, noise_free):
    """An infinite threshold is refused as a non-positive one is; fixed coverage used to
    return NaN there."""
    path = dataclasses.replace(SystemParams.default().path, alpha=4.0)
    params = SystemParams.default(path=path, interference_limited=noise_free)
    with pytest.raises(ValueError) as refused:
        evaluator(params, math.inf)
    assert str(refused.value) == "threshold must be finite, got inf"


def test_coverage_nearest_alpha4_zero_threshold_limit():
    path = dataclasses.replace(SystemParams.default().path, alpha=4.0)
    p = params_at(0.0, p=0.7, path=path)
    assert coverage_nearest_alpha4(p, 1e-12) == pytest.approx(1.0, abs=1e-5)


def test_coverage_nearest_alpha4_p0_single_branch():
    path = dataclasses.replace(SystemParams.default().path, alpha=4.0)
    p = params_at(0.0, p=0.0, path=path)
    got = coverage_nearest_alpha4(p, 1.0)
    x3 = 1.0 * p.gamma_t_inv / p.path.c_d
    x4 = math.pi * p.lambda_t * hyp2f1_cov(4.0, -1.0)
    expect = (math.pi * p.lambda_t / 2.0 * math.sqrt(math.pi)
              * sp.erfcx(x4 / (2.0 * math.sqrt(x3))) / math.sqrt(x3))
    assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="the forward erfcx recurrence is unstable at large "
                   "argument and the [0, 1] clamp hides the blow-up; ROADMAP open item 2(c)")
@pytest.mark.parametrize("n_elements,p,lambda_t,p_tx_dbm,g_db", [
    (128, 0.9, 1e-3, 30.0, 0.0),
    (128, 0.5, 1e-3, 10.0, -10.0),
    (1024, 0.5, 1e-3, 0.0, -10.0),
])
def test_coverage_nearest_alpha4_matches_quadrature_at_high_snr(n_elements, p, lambda_t,
                                                                p_tx_dbm, g_db):
    path = dataclasses.replace(SystemParams.default().path, alpha=4.0)
    params = SystemParams.default(n_elements=n_elements, p=p, lambda_t=lambda_t,
                                  p_tx_w=dbm_to_watts(p_tx_dbm), path=path)
    gamma_bar = 10.0 ** (g_db / 10.0)
    assert coverage_nearest_alpha4(params, gamma_bar) == pytest.approx(
        coverage_nearest(params, gamma_bar), abs=1e-6)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_elements", [1, 8, 32, 128, 512])
def test_coverage_nearest_alpha4_matches_root_jet_formulation(n_elements, p):
    """The binomial-jet 1/sqrt(q s) gives the square-root/division/reciprocal jet value.

    The points keep every erfcx argument at s = 1 at or below 3, where the
    erfcx recurrence is pinned (tests/test_jets.py).
    """
    path = dataclasses.replace(SystemParams.default().path, alpha=4.0)
    for p_tx_dbm in (-20.0, 0.0):
        params = params_at(p_tx_dbm, p=p, n_elements=n_elements, path=path)
        for g_db in (-10.0, 0.0, 10.0):
            gamma_bar = 10.0 ** (g_db / 10.0)
            expect, largest_arg = coverage_nearest_alpha4_by_root_jets(params, gamma_bar)
            assert 0.0 < expect < 1.0 and largest_arg <= 3.0
            got = coverage_nearest_alpha4(params, gamma_bar)
            assert got == pytest.approx(expect, rel=1e-13), (p_tx_dbm, g_db)


def test_jet_sums_match_high_order_differentiation(fig4_params):
    """Derivatives of the fixed-association exponent kernel vs mpmath."""
    p = fig4_params(1e-3)
    from riscov.powerdist import signal_gamma_fit
    fit = signal_gamma_fit(p.eta_g0, p.eta_h0, p.fading, p.n_elements)
    d = 2.0 / p.path.alpha
    k = 2 * math.pi**2 * p.lambda_t / math.sin(2 * math.pi / p.path.alpha) / p.path.alpha
    a = 1.0 * p.gamma_t_inv / fit.omega
    b = k * (p.p * (p.e1 / fit.omega) ** d + (1 - p.p) * (p.path.c_d / fit.omega) ** d)
    jet = jet_exp(-a * identity_jet(6) - b * jet_spow(d, 6))
    mp.mp.dps = 40
    f = lambda s: mp.exp(-a * s - b * s**d)
    for i in range(7):
        ref = float(mp.diff(f, 1, i))
        assert jet.coeffs[i] * math.factorial(i) == pytest.approx(ref, rel=1e-5)


def nearest_branches_by_jet_arithmetic(params: SystemParams, gamma_bar: float,
                                       u: float) -> dict[str, float]:
    """The nearest-association integrands at u, written as a chain of jet arithmetic."""
    pl = params.path
    a = pl.alpha
    cd = pl.c_d
    half_a = 0.5 * a
    u_scale = (params.lambda_t * math.pi) ** -half_a
    tiers = [(w, g) for w, g in ((params.p, params.e1), (1.0 - params.p, cd)) if w != 0.0]
    out = {}
    if params.p > 0.0:
        fit = signal_gamma_fit(1.0, (pl.c_r / cd) * pl.d0**-a, params.fading,
                               params.n_elements)
        order = rounded_shape(fit.kappa) - 1
        hyp = TaylorJet(np.zeros(order + 1))
        for w, g in tiers:
            hyp = hyp + w * jet_hyp2f1_cov(a, -(g / cd) * gamma_bar / fit.omega, order)
        noise_coef = gamma_bar * params.gamma_t_inv / (cd * fit.omega) * u_scale
        expo = -noise_coef * u**half_a * identity_jet(order) - u * hyp
        out["surface"] = alternating_tail_sum(jet_exp(expo))[0]
    if params.p < 1.0:
        hyp_star = sum(w * hyp2f1_cov(a, -(g / cd) * gamma_bar) for w, g in tiers)
        noise_star = gamma_bar * params.gamma_t_inv / cd * u_scale
        out["direct"] = math.exp(-noise_star * u**half_a - u * hyp_star)
    return out


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(2.05, 6.0), n_elements=st.integers(1, 512),
       log_lambda=st.floats(-7.0, -1.0), p_tx_dbm=st.floats(-40.0, 30.0),
       log_gamma=st.floats(-2.0, 3.0), p=st.floats(0.0, 1.0),
       log_u=st.floats(-8.0, 2.0), interference_limited=st.booleans())
def test_hoisted_integrands_match_jet_arithmetic(alpha, n_elements, log_lambda, p_tx_dbm,
                                                 log_gamma, p, log_u, interference_limited):
    """The array-expression exponents equal their jet-arithmetic definitions."""
    base = SystemParams.default()
    params = SystemParams.default(lambda_t=10.0**log_lambda, p=p, n_elements=n_elements,
                                  path=dataclasses.replace(base.path, alpha=alpha),
                                  p_tx_w=dbm_to_watts(p_tx_dbm),
                                  interference_limited=interference_limited)
    gamma_bar = 10.0**log_gamma
    u = 10.0**log_u
    expect = nearest_branches_by_jet_arithmetic(params, gamma_bar, u)
    got = {name: integrand(u)
           for _, integrand, name in analytic._nearest_integrands(params, gamma_bar)}
    assert got.keys() == expect.keys()
    for name, value in got.items():
        assert math.isclose(value, expect[name], rel_tol=1e-14), name

    fit = signal_gamma_fit(params.eta_g0, params.eta_h0, params.fading, n_elements)
    order = rounded_shape(fit.kappa) - 1
    v = (-(gamma_bar * params.gamma_t_inv / fit.omega) * identity_jet(order)
         - analytic._fixed_exponent(params, gamma_bar / fit.omega)
         * jet_spow(2.0 / alpha, order))
    fixed = min(max(alternating_tail_sum(jet_exp(v))[0], 0.0), 1.0)
    assert math.isclose(coverage_fixed_ris(params, gamma_bar), fixed, rel_tol=1e-14)


def test_public_evaluators_return_python_floats():
    base = SystemParams.default(p=0.9)
    path4 = dataclasses.replace(base.path, alpha=4.0)
    noisy4 = SystemParams.default(p=0.9, path=path4)
    quiet4 = SystemParams.default(p=0.9, path=path4, interference_limited=True)
    values = {
        "coverage_fixed_ris": coverage_fixed_ris(base, 1.0),
        "coverage_fixed_noris": coverage_fixed_noris(base, 1.0),
        "coverage_nearest": coverage_nearest(base, 1.0),
        "coverage_nearest_alpha4": coverage_nearest_alpha4(noisy4, 1.0),
        "coverage_nearest_intlimited": coverage_nearest_intlimited(quiet4, 1.0),
        "rate_from_coverage": rate_from_coverage(lambda g: math.exp(-g)),
        "rate_fixed with surface": rate_fixed(base, True),
        "rate_fixed without surface": rate_fixed(base, False),
        "rate_fixed_alpha4_intlim with surface": rate_fixed_alpha4_intlim(quiet4, True),
        "rate_fixed_alpha4_intlim without surface": rate_fixed_alpha4_intlim(quiet4, False),
        "rate_nearest": rate_nearest(SystemParams.default(p=0.5, n_elements=2,
                                                          lambda_t=1e-3), False),
        "rate_nearest interference limited": rate_nearest(quiet4, True),
    }
    assert {name: type(v) for name, v in values.items() if type(v) is not float} == {}


def coverage_nearest_by_log_quadrature(params: SystemParams, gamma_bar: float) -> float:
    """coverage_nearest's branch integrands integrated in s = ln u.

    Both integrands are conditional coverage probabilities (at most 1) that
    decay at least like a polynomial times exp(-u), so u in [1e-22, 200]
    holds all of their mass to far below the test tolerance.
    """
    total = 0.0
    for weight, integrand, _ in analytic._nearest_integrands(params, gamma_bar):
        value, _ = quad(lambda s: integrand(math.exp(s)) * math.exp(s),
                        math.log(1e-22), math.log(200.0), epsabs=1e-13, epsrel=1e-10,
                        limit=500)
        total += weight * value
    return total


_MASS_AT_SMALL_U = ("quad in u misses integrand mass at u << 1 (low power or high "
                    "threshold); see ROADMAP open item 3")


@pytest.mark.parametrize("lambda_t,p_tx_dbm,gamma_db", [
    pytest.param(1e-4, -20.0, 0.0, id="mass-near-u-1"),
    pytest.param(1e-3, 0.0, 3.0, id="dense-high-power"),
    pytest.param(1e-5, -40.0, 0.0, id="both-branches-lost",
                 marks=pytest.mark.xfail(strict=True, reason=_MASS_AT_SMALL_U)),
    pytest.param(1e-5, -40.0, -3.0, id="direct-branch-lost",
                 marks=pytest.mark.xfail(strict=True, reason=_MASS_AT_SMALL_U)),
])
def test_coverage_nearest_matches_log_u_quadrature(lambda_t, p_tx_dbm, gamma_db):
    params = SystemParams.default(lambda_t=lambda_t, p=0.9, n_elements=32,
                                  p_tx_w=dbm_to_watts(p_tx_dbm))
    gamma_bar = 10.0 ** (gamma_db / 10.0)
    expect = coverage_nearest_by_log_quadrature(params, gamma_bar)
    assert coverage_nearest(params, gamma_bar) == pytest.approx(expect, abs=1e-6)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_rate_zero_coverage():
    assert rate_from_coverage(lambda x: 0.0) == 0.0


def test_rate_exponential_coverage_closed_form():
    # int_0^inf e^-x/(1+x) dx = e * E1(1); E1(1) = -euler + sum (-1)^(k+1)/(k k!)
    acc = 0.0
    fact = 1.0
    for k in range(1, 40):
        fact *= k
        acc += (-1.0) ** (k + 1) / (k * fact)
    e1_of_one = -0.5772156649015329 + acc
    expect = math.e * e1_of_one / math.log(2.0)
    assert e1_of_one == pytest.approx(0.2193839, abs=2e-7)
    got = rate_from_coverage(lambda x: math.exp(-x))
    assert got == pytest.approx(expect, rel=1e-9)
    assert got == pytest.approx(0.86034, abs=2e-5)


def test_rate_divergence_flagged():
    with pytest.raises(DivergenceError):
        rate_from_coverage(lambda x: 1.0)


def test_rate_step_coverage_is_refused():
    """A jump in the coverage stops the trapezoid levels converging."""
    with pytest.raises(QuadratureError):
        rate_from_coverage(lambda x: 1.0 if x < 1.0 else 0.0)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(2.2, 5.0), n_elements=st.integers(1, 48), p=st.floats(0.0, 1.0),
       lambda_t=st.floats(1e-6, 1e-3), p_tx_dbm=st.floats(-40.0, 20.0), with_ris=st.booleans())
def test_rate_from_coverage_matches_log_x_quad_on_fixed_coverage(alpha, n_elements, p, lambda_t,
                                                                 p_tx_dbm, with_ris):
    path = dataclasses.replace(SystemParams.default().path, alpha=alpha)
    params = SystemParams.default(lambda_t=lambda_t, p=p, n_elements=n_elements, path=path,
                                  p_tx_w=dbm_to_watts(p_tx_dbm))
    coverage = coverage_fixed_ris if with_ris else coverage_fixed_noris
    got = rate_from_coverage(lambda g: coverage(params, g))
    assert got == pytest.approx(rate_from_coverage_by_log_quad(lambda g: coverage(params, g)),
                                rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(k=st.floats(0.5, 8.0), c=st.floats(0.0, 5.0))
def test_rate_from_coverage_matches_log_x_quad_on_rational_exponential(k, c):
    """coverage (1 + x)^-k e^-cx: polynomial decay at c = 0, exponential otherwise."""
    def coverage(x):
        return (1.0 + x) ** -k * math.exp(-c * x)
    got = rate_from_coverage(coverage)
    assert got == pytest.approx(rate_from_coverage_by_log_quad(coverage), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n_elements", [1024, 4096])
def test_rate_fixed_matches_mpmath_hamdi_quadrature(n_elements):
    """Where the jet order passes 745 the coverage series underflows (ROADMAP
    open item 2(a)); the rate never forms it."""
    params = SystemParams.default(lambda_t=1e-4, p=0.5, n_elements=n_elements,
                                  p_tx_w=dbm_to_watts(-24.0))
    assert rate_fixed(params, True) == pytest.approx(rate_fixed_by_mpmath(params, True),
                                                     rel=0.0, abs=1e-10)


def test_rate_fixed_matches_alpha4_closed_form():
    path = dataclasses.replace(SystemParams.default().path, alpha=4.0)
    rng = np.random.default_rng(24)
    for _ in range(20):
        params = SystemParams.default(lambda_t=10 ** rng.uniform(-5, -3.5),
                                      p=float(rng.uniform(0.0, 1.0)),
                                      n_elements=int(rng.integers(8, 49)),
                                      path=path, interference_limited=True)
        for with_ris in (True, False):
            assert rate_fixed(params, with_ris) == pytest.approx(
                rate_fixed_alpha4_intlim(params, with_ris), rel=1e-12)


def test_rate_fixed_noise_free_without_interference_diverges():
    with pytest.raises(DivergenceError):
        rate_fixed(SystemParams.default(lambda_t=0.0, interference_limited=True), True)


def test_rate_fixed_monotone_in_power():
    rates = [rate_fixed(params_at(dbm, lambda_t=1e-5), True)
             for dbm in (-30.0, 0.0, 30.0)]
    assert rates[0] < rates[1] < rates[2]


def test_rate_fixed_decreasing_in_density():
    rates = [rate_fixed(params_at(0.0, lambda_t=lam), True)
             for lam in (1e-6, 1e-5, 1e-4)]
    assert rates[0] > rates[1] > rates[2]


def test_rate_with_surface_exceeds_without():
    for dbm in (-20.0, 0.0):
        p = params_at(dbm, lambda_t=1e-5)
        assert rate_fixed(p, True) > rate_fixed(p, False)


def test_rate_alpha4_closed_form_vs_integration():
    path = dataclasses.replace(SystemParams.default().path, alpha=4.0)
    for lam in (1e-5, 1e-4):
        p = SystemParams.default(lambda_t=lam, path=path, interference_limited=True)
        closed = rate_fixed_alpha4_intlim(p, with_ris=False)
        numeric = rate_from_coverage(lambda g: coverage_fixed_noris(p, g))
        assert abs(closed - numeric) <= 1e-6
        closed_ris = rate_fixed_alpha4_intlim(p, with_ris=True)
        numeric_ris = rate_from_coverage(lambda g: coverage_fixed_ris(p, g))
        assert abs(closed_ris - numeric_ris) <= 1e-6


def test_rate_alpha4_single_term_case():
    path = dataclasses.replace(SystemParams.default().path, alpha=4.0, c_r=1e-30)
    p = SystemParams.default(path=path, interference_limited=True)
    assert rate_fixed_alpha4_intlim(p, True) == pytest.approx(
        rate_fixed_alpha4_intlim(p, False), rel=1e-9)


def test_rate_alpha4_decreasing_in_density():
    path = dataclasses.replace(SystemParams.default().path, alpha=4.0)
    vals = [rate_fixed_alpha4_intlim(
        SystemParams.default(lambda_t=lam, path=path, interference_limited=True), True)
        for lam in (1e-5, 1e-4, 1e-3)]
    assert vals[0] > vals[1] > vals[2]


def test_rate_alpha4_guards(base_params):
    with pytest.raises(ValueError):
        rate_fixed_alpha4_intlim(base_params, True)


def test_rate_nearest_density_free_and_rising_in_p():
    vals = [rate_nearest(SystemParams.default(lambda_t=lam, p=0.9,
                                              interference_limited=True), True)
            for lam in (1e-5, 1e-4)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-10)
    rising = [rate_nearest(SystemParams.default(p=pp, interference_limited=True), True)
              for pp in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(rising, rising[1:]))


# ---------------------------------------------------------------------------
# curve-level properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("coverage", [
    pytest.param(coverage_fixed_ris, id="fixed_ris"),
    pytest.param(coverage_fixed_noris, id="fixed_noris"),
    pytest.param(coverage_nearest, id="nearest"),
    pytest.param(coverage_nearest_intlimited, id="nearest_intlimited"),
])
def test_coverage_in_unit_interval_and_monotone(coverage):
    p = params_at(0.0, p=0.6)
    vals = np.array([coverage(p, float(g)) for g in default_threshold_grid(12)])
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) <= 1e-10)


def test_coverage_monotone_in_transmit_snr():
    for g in (0.5, 2.0):
        vals = [coverage_fixed_ris(params_at(dbm), g) for dbm in (-30.0, -20.0, -10.0)]
        assert vals[0] < vals[1] < vals[2]


def test_coverage_fixed_decreasing_in_density():
    for fn in (coverage_fixed_ris, coverage_fixed_noris):
        vals = [fn(params_at(-10.0, lambda_t=lam), 1.0) for lam in (1e-5, 1e-4, 1e-3)]
        assert vals[0] > vals[1] > vals[2]


def test_threshold_grid_shape():
    g = default_threshold_grid()
    assert len(g) == 50
    assert g[0] == pytest.approx(1e-2)
    assert g[-1] == pytest.approx(1e4)
