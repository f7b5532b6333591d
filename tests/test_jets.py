import dataclasses
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from oracles import (exp_tail_sum_by_exponent_list, exp_tail_sum_exponent, identity_jet,
                     jet_div_by_recurrence)
from riscov import jets
from riscov.analytic import SystemParams, _nearest_hyp_jets
from riscov.jets import (TaylorJet, alternating_tail_sum, exp_tail_sum, jet_div, jet_erfcx,
                         jet_exp, jet_hyp2f1_cov, jet_pow, jet_recip, jet_si_ci,
                         jet_sin_cos, jet_spow)


def poly_jet(coeffs_at_one, order):
    """Jet of a polynomial given by its coefficients around s = 1."""
    arr = np.zeros(order + 1)
    arr[: len(coeffs_at_one)] = coeffs_at_one
    return TaylorJet(tuple(arr))


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_order_and_length():
    j = identity_jet(5)
    assert j.order == 5
    assert len(j.coeffs) == 6
    assert np.array_equal(j.coeffs, jet_spow(1.0, 5).coeffs)     # s^1, up to signed zeros


def test_rejects_empty():
    with pytest.raises(ValueError):
        TaylorJet(())


@pytest.mark.parametrize("coeffs", [[], np.empty(0), 1.5, [[1.0, 2.0]], np.ones((2, 3))])
def test_rejects_empty_and_non_vector_input(coeffs):
    with pytest.raises(ValueError):
        TaylorJet(coeffs)


def test_value_semantics():
    """Coefficients are read-only and copied in; jets compare and hash by value."""
    source = np.array([1.0, -0.5, 0.25])
    j = TaylorJet(source)
    assert np.array_equal(TaylorJet((1.0, -0.5, 0.25)).coeffs, j.coeffs)
    assert np.array_equal(TaylorJet([1, -0.5, 0.25]).coeffs, j.coeffs)
    assert j.coeffs.dtype == np.float64
    with pytest.raises(ValueError):
        j.coeffs[0] = 2.0
    with pytest.raises(AttributeError):
        j.coeffs = np.zeros(3)
    source[0] = 9.0                      # the jet took a copy
    assert j.coeffs[0] == 1.0
    with pytest.raises(ValueError):      # results of arithmetic are read-only too
        jet_exp(j).coeffs[0] = 0.0

    same = TaylorJet([1.0, -0.5, 0.25])
    assert j == same and hash(j) == hash(same)
    assert j != TaylorJet([1.0, -0.5, 0.5])
    assert j != TaylorJet([1.0, -0.5])
    zero, negative_zero = TaylorJet([0.0]), TaylorJet([-0.0])
    assert zero == negative_zero and hash(zero) == hash(negative_zero)
    assert len({j, same, identity_jet(2)}) == 2


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        identity_jet(3) * identity_jet(4)


coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=6), st.lists(coeff, min_size=1, max_size=6))
def test_mul_is_truncated_cauchy_product(a, b):
    order = 6
    pa = np.polynomial.Polynomial(a)
    pb = np.polynomial.Polynomial(b)
    prod = poly_jet((pa * pb).coef[: order + 1], order)
    got = poly_jet(a, order) * poly_jet(b, order)
    assert np.allclose(got.coeffs, prod.coeffs, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=5))
def test_recip_inverts(a):
    a = [max(1.0, abs(a[0]) + 0.5)] + a[1:]      # keep well away from zero
    j = poly_jet(a, 5)
    back = j * jet_recip(j)
    ident = np.zeros(6)
    ident[0] = 1.0
    assert np.allclose(back.coeffs, ident, atol=1e-10)


def test_sqrt_squares_back():
    j = poly_jet([2.0, 0.3, -0.1, 0.05], 5)
    r = jet_pow(j, 0.5)
    assert np.allclose((r * r).coeffs, j.coeffs, atol=1e-12)


def test_pow_matches_spow_on_variable():
    assert np.allclose(jet_pow(identity_jet(6), 0.8).coeffs,
                       jet_spow(0.8, 6).coeffs, atol=1e-14)


def test_div_matches_division_recurrence():
    a = poly_jet([1.0, 2.0, 0.5], 4)
    b = poly_jet([3.0, -0.2, 0.1], 4)
    assert np.allclose(jet_div(a, b).coeffs, jet_div_by_recurrence(a, b), atol=1e-13)
    with pytest.raises(ValueError):
        jet_div(a, poly_jet([0.0, 1.0], 4))


# ---------------------------------------------------------------------------
# jet_exp
# ---------------------------------------------------------------------------

def test_jet_exp_linear():
    a = 0.7
    j = jet_exp(a * identity_jet(3))
    expect = math.exp(a) * np.array([1.0, a, a * a / 2.0, a**3 / 6.0])
    assert np.allclose(j.coeffs, expect, rtol=1e-14)


def test_jet_exp_constant():
    j = jet_exp(TaylorJet([-1.3, 0.0, 0.0, 0.0, 0.0]))
    assert j.coeffs[0] == pytest.approx(math.exp(-1.3), rel=1e-15)
    assert all(c == 0.0 for c in j.coeffs[1:])


def test_jet_exp_finite_difference_oracle():
    # f(s) = exp(-s + s^2) around s = 1: value 1, f' = (2s-1) exp(..) etc.
    f = lambda s: math.exp(-s + s * s)
    j = jet_exp(poly_jet([0.0, 1.0, 1.0], 2))
    h = 1e-5
    d1 = (f(1 + h) - f(1 - h)) / (2 * h)
    d2 = (f(1 + h) - 2 * f(1.0) + f(1 - h)) / (h * h)
    assert j.coeffs[0] == pytest.approx(f(1.0), rel=1e-12)
    assert j.coeffs[1] == pytest.approx(d1, rel=1e-6)
    assert j.coeffs[2] == pytest.approx(d2 / 2.0, rel=1e-5)


def test_jet_exp_vs_symbolic_polynomials():
    """100 random polynomials up to degree 6 against exact derivatives of exp.

    d^i/ds^i e^P = e^P Q_i with Q_0 = 1 and Q_(i+1) = Q_i' + P' Q_i, built on
    rational coefficients, so only the final conversion to float rounds.
    """
    rng = np.random.default_rng(2024)
    s = sympy.Symbol("s")
    order = 6
    for _ in range(100):
        deg = int(rng.integers(0, 7))
        coeffs = rng.uniform(-1.5, 1.5, deg + 1)
        poly = sympy.Poly([sympy.Rational(float(c)) for c in coeffs[::-1]], s, domain="QQ")
        # polynomial jet around 1 by Taylor shift
        shifted = poly.shift(1).all_coeffs()[::-1]
        arr = np.zeros(order + 1)
        arr[: len(shifted)] = [float(c) for c in shifted]
        got = jet_exp(TaylorJet(tuple(arr)))
        exp_at_one = sympy.exp(poly.eval(1))
        dpoly = poly.diff(s)
        q = sympy.Poly(1, s, domain="QQ")
        for i in range(order + 1):
            ref = float(exp_at_one * q.eval(1) / sympy.factorial(i))
            scale = max(abs(ref), 1e-3)
            assert abs(got.coeffs[i] - ref) <= 1e-12 * scale
            q = q.diff(s) + dpoly * q


def _mp_exp_coeffs(a, dps=40):
    """exp of the jet a by its recurrence in mpmath, from a's float coefficients."""
    with mp.workdps(dps):
        a = [mp.mpf(float(v)) for v in a]
        e = [mp.exp(a[0])]
        for k in range(1, len(a)):
            e.append(mp.fsum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k)
        return [float(v) for v in e]


def _mp_recip_coeffs(a, dps=40):
    """1/a for the jet a by its recurrence in mpmath, from a's float coefficients."""
    with mp.workdps(dps):
        a = [mp.mpf(float(v)) for v in a]
        r = [1 / a[0]]
        for k in range(1, len(a)):
            r.append(-mp.fsum(a[j] * r[k - j] for j in range(1, k + 1)) / a[0])
        return [float(v) for v in r]


@pytest.mark.parametrize("order", [449, 700])
def test_high_order_exp_and_recip_vs_mpmath(order):
    """N = 512's order is one triangular solve; order 700 adds a second block.

    exp(-2 s - 5 s^0.8) and 1/(1 + 3 s^0.8) are completely monotone, so
    their coefficients alternate in sign and no recurrence sum cancels:
    each coefficient keeps its relative accuracy.
    """
    v = -2.0 * identity_jet(order) - 5.0 * jet_spow(0.8, order)
    assert np.allclose(jet_exp(v).coeffs, _mp_exp_coeffs(v.coeffs), rtol=1e-12, atol=0.0)
    f = 1.0 + 3.0 * jet_spow(0.8, order)
    assert np.allclose(jet_recip(f).coeffs, _mp_recip_coeffs(f.coeffs), rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(order=st.integers(0, 150), block=st.integers(1, 70), x=st.floats(0.0, 5.0),
       y=st.floats(0.1, 5.0), d=st.floats(0.34, 0.98))
def test_blocked_solves_match_one_block(order, block, x, y, d):
    """Any block size gives the single-solve coefficients up to rounding."""
    v = -x * identity_jet(order) - y * jet_spow(d, order)
    f = 1.0 + y * jet_spow(d, order)
    whole_exp, whole_recip = jet_exp(v).coeffs, jet_recip(f).coeffs
    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(jets, "_SOLVE_BLOCK", block)
        assert np.allclose(jet_exp(v).coeffs, whole_exp, rtol=1e-13, atol=0.0)
        assert np.allclose(jet_recip(f).coeffs, whole_recip, rtol=1e-13, atol=0.0)


def test_jet_exp_at_order_3638_holds_no_square_matrix():
    """N = 4096: the blocked solve's working memory is O(block), not O(order^2).

    A dense 3639 x 3639 solve alone needs 106 MB.
    """
    v = -0.3 * identity_jet(3638) - 2.0 * jet_spow(0.8, 3638)
    expect = jet_exp(v).coeffs          # the first call also binds scipy's dtrsv
    tracemalloc.start()
    try:
        got = jet_exp(v).coeffs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expect)
    assert peak < 20e6


def test_jet_exp_of_an_underflowed_value_is_zero():
    """exp(a_0) below the smallest double gives zero coefficients, not NaN."""
    v = -800.0 * identity_jet(1000) - 5.0 * jet_spow(0.8, 1000)
    assert not np.any(jet_exp(v).coeffs)


# ---------------------------------------------------------------------------
# exp_tail_sum
# ---------------------------------------------------------------------------

def _exp_tail_sum_by_jets(g: TaylorJet, y: float, x: float) -> float:
    return alternating_tail_sum(jet_exp(exp_tail_sum_exponent(g, y, x)))[0]


@pytest.mark.parametrize("path", ["float", "jet_exp"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), hyp=st.booleans(), x=st.floats(0.0, 30.0), y=st.floats(0.0, 30.0),
       alpha=st.floats(2.05, 6.0))
def test_exp_tail_sum_matches_jet_exp(path, data, hyp, x, y, alpha):
    """Both sides of the cutoff equal the derivative sum of the exp jet.

    g is s^(2/alpha), as in fixed coverage, or the nearest-association
    hypergeometric jet.  Sums below 1e-300 are compared absolutely: their
    coefficients are subnormal.
    """
    cutoff = jets._FLOAT_SUM_MAX_ORDER
    order = data.draw(st.integers(0, cutoff) if path == "float"
                      else st.integers(cutoff + 1, 3 * cutoff))
    if hyp:
        params = SystemParams.default(
            p=data.draw(st.floats(0.0, 1.0)), n_elements=data.draw(st.integers(1, 512)),
            path=dataclasses.replace(SystemParams.default().path, alpha=alpha))
        g = _nearest_hyp_jets(params, 10.0 ** data.draw(st.floats(-2.0, 2.0)), 1.0, order)
    else:
        g = jet_spow(2.0 / alpha, order)
    expect = _exp_tail_sum_by_jets(g, y, x)
    assert math.isclose(exp_tail_sum(g, y, x), expect, rel_tol=1e-14, abs_tol=1e-300)


@settings(max_examples=200, deadline=None)
@given(order=st.integers(0, jets._FLOAT_SUM_MAX_ORDER), hyp=st.booleans(), data=st.data(),
       x=st.floats(0.0, 30.0), y=st.floats(0.0, 30.0), alpha=st.floats(2.05, 6.0))
def test_exp_tail_sum_float_path_keeps_its_bits(order, hyp, data, x, y, alpha):
    """The float path equals the exponent-list loop it replaced, bit for bit.

    g is a nearest-association hypergeometric jet or s^(2/alpha), as in
    test_exp_tail_sum_matches_jet_exp.
    """
    if hyp:
        params = SystemParams.default(
            p=data.draw(st.floats(0.0, 1.0)), n_elements=data.draw(st.integers(1, 512)),
            path=dataclasses.replace(SystemParams.default().path, alpha=alpha))
        g = _nearest_hyp_jets(params, 10.0 ** data.draw(st.floats(-2.0, 2.0)), 1.0, order)
    else:
        g = jet_spow(2.0 / alpha, order)
    assert exp_tail_sum(g, y, x) == exp_tail_sum_by_exponent_list(g, y, x)


def test_exp_tail_sum_order_zero_is_its_value():
    """Order 0 runs kernel 1, whose bits are those of exp(-u c_0 - q u^p)."""
    g = TaylorJet([0.7])
    assert exp_tail_sum(g, 2.0, 0.3) == math.exp(-0.3 - 2.0 * 0.7)
    for p in (0.0, 1.25, 2.0):
        for q in (0.0, 0.3, 2.5):
            integrand = jets.exp_tail_integrand(g, q, p)
            for u in (0.0, 0.05, 1.0, 3.7, 41.0):
                want = math.exp(-u * 0.7 - q * u**p).hex()
                assert integrand(u).hex() == want, (u, q, p)
                assert exp_tail_sum(g, u, q * u**p).hex() == want, (u, q, p)


@pytest.mark.parametrize("jet, y, x", [
    ("spow", 0.0, 1.3),
    ("spow", 2.5, 0.0),
    ("spow", 800.0, 0.5),       # y c_0 > 745: e_0 underflows to 0
    ("spow", 3.1, 0.4),
    ("hyp", 3.1, 0.4),
])
@pytest.mark.parametrize("order", range(jets._FLOAT_SUM_MAX_ORDER + 1))
def test_every_float_order_keeps_its_bits(order, jet, y, x):
    """Each order's kernel equals the exponent-list loop, sign of zero included."""
    if jet == "hyp":
        g = _nearest_hyp_jets(SystemParams.default(p=0.9), 2.0, 1.0, order)
    else:
        g = jet_spow(0.8, order)
    got, want = exp_tail_sum(g, y, x), exp_tail_sum_by_exponent_list(g, y, x)
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_tail_kernels_are_built_once_per_length():
    jets._tail_kernel.cache_clear()
    g = jet_spow(0.8, 6)
    first = exp_tail_sum(g, 1.2, 0.3)
    kernel = jets._tail_kernel(7)
    assert exp_tail_sum(g, 1.2, 0.3) == first
    assert exp_tail_sum(jet_spow(0.4, 6), 2.0, 0.1) == exp_tail_sum_by_exponent_list(
        jet_spow(0.4, 6), 2.0, 0.1)
    exp_tail_sum(TaylorJet([0.7]), 2.0, 0.3)            # order 0 builds kernel 1
    info = jets._tail_kernel.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert jets._tail_kernel(7) is kernel


# ---------------------------------------------------------------------------
# transcendental compositions vs high-precision differentiation
# ---------------------------------------------------------------------------

def _mp_jet(fn, order):
    mp.mp.dps = 40
    return [float(mp.diff(fn, 1, k) / mp.factorial(k)) for k in range(order + 1)]


def test_jet_erfcx_vs_mpmath():
    u = 0.7 * jet_spow(0.5, 6) + 0.3 * identity_jet(6)
    got = jet_erfcx(u).coeffs
    ref = _mp_jet(lambda s: mp.exp((0.7 * mp.sqrt(s) + 0.3 * s) ** 2)
                  * mp.erfc(0.7 * mp.sqrt(s) + 0.3 * s), 6)
    assert np.allclose(got, ref, rtol=1e-12)


def _jet_erfcx_cubic(u):
    """The O(order^3) recurrence that recomputes every g_m for each k (oracle)."""
    a = u.coeffs
    n = u.order + 1
    v = np.empty(n)
    v[0] = sp.erfcx(a[0])
    two_over_rtpi = 2.0 / math.sqrt(math.pi)
    ja = a[1:] * np.arange(1.0, n)
    for k in range(1, n):
        acc = 0.0
        for m in range(k):
            g_m = 2.0 * np.dot(a[: m + 1], v[m::-1]) - (two_over_rtpi if m == 0 else 0.0)
            acc += g_m * ja[k - 1 - m]
        v[k] = acc / k
    return v


@pytest.mark.parametrize("order", [1, 24, 107, 407, 449])
def test_jet_erfcx_matches_cubic_recurrence_bitwise(order):
    rng = np.random.default_rng(20261018 + order)
    a = rng.normal(size=order + 1) * rng.uniform(0.2, 0.9) ** np.arange(order + 1)
    a[0] = rng.uniform(0.05, 3.0)
    got = jet_erfcx(TaylorJet(a)).coeffs
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, _jet_erfcx_cubic(TaylorJet(a)))


def test_jet_sin_cos_vs_mpmath():
    u = 1.3 * jet_spow(0.5, 6)
    sj, cj = jet_sin_cos(u)
    ref_s = _mp_jet(lambda s: mp.sin(1.3 * mp.sqrt(s)), 6)
    ref_c = _mp_jet(lambda s: mp.cos(1.3 * mp.sqrt(s)), 6)
    assert np.allclose(sj.coeffs, ref_s, rtol=1e-12, atol=1e-15)
    assert np.allclose(cj.coeffs, ref_c, rtol=1e-12, atol=1e-15)


def test_jet_si_ci_vs_mpmath():
    u = 0.9 * jet_spow(0.5, 6) + 0.4 * identity_jet(6)
    sij, cij = jet_si_ci(u)
    ref_si = _mp_jet(lambda s: mp.si(0.9 * mp.sqrt(s) + 0.4 * s), 6)
    ref_ci = _mp_jet(lambda s: mp.ci(0.9 * mp.sqrt(s) + 0.4 * s), 6)
    assert np.allclose(sij.coeffs, ref_si, rtol=1e-11, atol=1e-15)
    assert np.allclose(cij.coeffs, ref_ci, rtol=1e-11, atol=1e-15)


@pytest.mark.parametrize("alpha,c", [(2.5, -37.3), (4.0, -0.8), (3.0, -1e5), (2.2, -0.02)])
def test_jet_hyp2f1_vs_mpmath(alpha, c):
    order = 8
    got = jet_hyp2f1_cov(alpha, c, order).coeffs
    d = 2.0 / alpha
    ref = _mp_jet(lambda s: mp.hyp2f1(1, -d, 1 - d, c * s), order)
    # absolute floor: the recurrence keeps absolute error at the roundoff of
    # the leading coefficient, which is what the probability sums need
    assert np.allclose(got, ref, rtol=1e-11, atol=5e-15)


def test_jet_hyp2f1_rejects_positive():
    with pytest.raises(ValueError):
        jet_hyp2f1_cov(2.5, 0.3, 4)


# ---------------------------------------------------------------------------
# alternating tail sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,a", [(1, 0.5), (4, 2.0), (24, 17.0), (40, 30.0)])
def test_alternating_sum_reproduces_gamma_tail(n, a):
    """sum_{i<n} (-1)^i/i! d^i/ds^i e^{-a s} |_{s=1} = Q(n, a) exactly."""
    j = jet_exp(-a * identity_jet(n - 1))
    val, ratio = alternating_tail_sum(j)
    assert val == pytest.approx(float(sp.gammaincc(n, a)), rel=1e-12)
    assert ratio >= 1.0


def test_alternating_sum_single_term():
    j = jet_exp(TaylorJet([-0.4]))
    val, _ = alternating_tail_sum(j)
    assert val == pytest.approx(math.exp(-0.4), rel=1e-15)
