"""The model's scale law: an exact symmetry every analytic evaluator must keep.

Map (lambda_t, d_g0, d0, c_r, P) to (lambda_t / c^2, c d_g0, c d0, c^alpha c_r,
c^alpha P).  The direct gain c_d d^-alpha and the reflected gain
c_r (d0 d_r)^-alpha both scale by c^-alpha, so every received power is
unchanged; the noise is too, and a scaled area holds as many transmitters.  So
the law of every SINR, and with it every coverage and rate, is unchanged with
noise or without, and no oracle is needed to check it (metamorphic testing:
Chen et al., ACM Computing Surveys 51(1), 2018).

The module also holds the model's exact reductions: with a negligible
reflected gain every surface is inert, so the evaluators must reduce to the
surface-free model bit for bit.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riscov import analytic
from riscov.analytic import SystemParams
from riscov.fading import db_to_linear, dbm_to_watts

#: the largest relative difference between a value and its scaled twin
REL_TOL = 1e-10

#: name -> evaluator of (params, threshold); the rates ignore the threshold
EVALUATORS = {
    "coverage_fixed_ris": analytic.coverage_fixed_ris,
    "coverage_fixed_noris": analytic.coverage_fixed_noris,
    "coverage_nearest": analytic.coverage_nearest,
    "coverage_nearest_intlimited": analytic.coverage_nearest_intlimited,
    "rate_fixed(with_ris=True)": lambda params, _: analytic.rate_fixed(params, True),
    "rate_fixed(with_ris=False)": lambda params, _: analytic.rate_fixed(params, False),
    "rate_nearest(interference_limited=True)":
        lambda params, _: analytic.rate_nearest(params, True),
}


def model(alpha, n_elements, lambda_t, p_tx_dbm, p) -> SystemParams:
    path = dataclasses.replace(SystemParams.default().path, alpha=alpha)
    return SystemParams.default(lambda_t=lambda_t, n_elements=n_elements, p=p,
                                p_tx_w=dbm_to_watts(p_tx_dbm), path=path)


def scaled(params: SystemParams, c: float) -> SystemParams:
    """params with every distance times c, the density over c^2, c_r and P times c^alpha."""
    gain = c ** params.path.alpha
    path = dataclasses.replace(params.path, d0=c * params.path.d0, c_r=gain * params.path.c_r)
    return dataclasses.replace(params, lambda_t=params.lambda_t / c**2, d_g0=c * params.d_g0,
                               path=path, p_tx_w=gain * params.p_tx_w)


def outcome(fn, params, gamma_bar):
    """fn's value, or the type and message of the error it signalled."""
    try:
        return fn(params, gamma_bar)
    except (ValueError, analytic.QuadratureError, analytic.DivergenceError) as exc:
        return type(exc), str(exc)


def relative_difference(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(alpha=st.floats(2.05, 6.0), n_elements=st.integers(1, 128),
       log_lambda=st.floats(-6.0, -3.0), p_tx_dbm=st.floats(-40.0, 20.0),
       g_db=st.floats(-10.0, 20.0), p=st.floats(0.0, 1.0), log_c=st.floats(-2.0, 2.0))
def test_evaluators_keep_the_scale_law(alpha, n_elements, log_lambda, p_tx_dbm, g_db, p,
                                       log_c):
    params = model(alpha, n_elements, 10.0**log_lambda, p_tx_dbm, p)
    twin = scaled(params, 10.0**log_c)
    gamma_bar = db_to_linear(g_db)
    for name, fn in EVALUATORS.items():
        value, twin_value = outcome(fn, params, gamma_bar), outcome(fn, twin, gamma_bar)
        if isinstance(value, tuple) or isinstance(twin_value, tuple):
            assert value == twin_value, name        # an error must be the same at every scale
        else:
            assert relative_difference(value, twin_value) <= REL_TOL, (name, value, twin_value)


@pytest.mark.xfail(strict=True, reason="the forward erfcx recurrence is unstable at large "
                   "argument, so the alpha = 4 form misses the law by about 1e-7 here; "
                   "ROADMAP open item 2(c)")
def test_coverage_nearest_alpha4_keeps_the_scale_law():
    params = model(4.0, 128, 1e-3, 10.0, 0.9)
    gamma_bar = db_to_linear(-5.0)
    assert relative_difference(analytic.coverage_nearest_alpha4(params, gamma_bar),
                               analytic.coverage_nearest_alpha4(scaled(params, 10.0), gamma_bar)
                               ) <= REL_TOL


#: a reflected gain so small that N c_r d0^-alpha vanishes beside c_d: e1 is c_d exactly
NEGLIGIBLE_C_R = 1e-300

#: the nearest evaluators, which see neither N nor p once every surface is inert
NEAREST = {
    "coverage_nearest": analytic.coverage_nearest,
    "coverage_nearest_intlimited": analytic.coverage_nearest_intlimited,
    "rate_nearest(interference_limited=True)":
        lambda params, _: analytic.rate_nearest(params, True),
}

#: (evaluator, p, gamma_bar) where p x + (1 - p) x rounds away from x: the one draw of the
#: grid below whose value moves with p, by 1 ulp (see the strict xfail after the gate)
P_ROUNDING_POINT = ("coverage_nearest_intlimited", 0.9, 0.1)


def inert_surfaces(p, n_elements) -> SystemParams:
    path = dataclasses.replace(SystemParams.default().path, c_r=NEGLIGIBLE_C_R)
    return SystemParams.default(p=p, n_elements=n_elements, path=path)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.sampled_from([0.0, 0.5, 0.9, 1.0]), n_elements=st.sampled_from([1, 8, 128]),
       gamma_bar=st.sampled_from([0.1, 1.0, 10.0]))
def test_a_negligible_reflected_gain_reduces_exactly(p, n_elements, gamma_bar):
    """With c_r negligible every surface is inert: the surface evaluators equal the
    surface-free ones and the nearest evaluators see neither N nor p, bit for bit."""
    params = inert_surfaces(p, n_elements)
    assert params.e1 == params.path.c_d
    assert (analytic.coverage_fixed_ris(params, gamma_bar)
            == analytic.coverage_fixed_noris(params, gamma_bar))
    assert analytic.rate_fixed(params, True) == analytic.rate_fixed(params, False)
    one_element = inert_surfaces(p, 1)
    bare = inert_surfaces(0.0, 1)
    for name, fn in NEAREST.items():
        value = fn(params, gamma_bar)
        assert value == fn(one_element, gamma_bar), name
        if (name, p, gamma_bar) != P_ROUNDING_POINT:
            assert value == fn(bare, gamma_bar), name


@pytest.mark.xfail(strict=True, reason="0.9 H + (1 - 0.9) H rounds away from H, so the "
                   "noise-free nearest coverage at p = 0.9 is 1 ulp above its p = 0 value")
def test_coverage_nearest_intlimited_ignores_p_at_its_rounding_point():
    name, p, gamma_bar = P_ROUNDING_POINT
    assert NEAREST[name](inert_surfaces(p, 8), gamma_bar) == NEAREST[name](
        inert_surfaces(0.0, 1), gamma_bar)
