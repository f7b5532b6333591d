"""Truncated Taylor arithmetic for the derivative sums in the coverage formulas.

Several coverage and rate expressions take the form

    sum_{i=0}^{k-1} (-1)^i / i! * [d^i/ds^i F(s)]_{s=1}

for smooth F built from exp, powers, erfcx, Si/Ci and the hypergeometric
member hyp2f1_cov.  A TaylorJet carries the coefficients f^(i)(1)/i! up to a
fixed order, so those derivative sums reduce to an alternating sum of jet
coefficients.  All recurrences are the standard power-series ones and are
exact to the carried order; the expansion point is always s0 = 1.

The recurrences take their convolution sums with ndarray.dot, which numpy
hands to the BLAS ddot kernel, so coefficient bits follow that kernel:
OpenBLAS's AVX-512 ddot rounds a length-2 sum as one fused multiply-add,
where its Haswell and Prescott kernels add the products in order.
scipy.special (erfcx, Si/Ci) is imported on the first call that needs it,
not at module import, so a simulator process never loads scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import hyp2f1_cov

__all__ = [
    "TaylorJet",
    "jet_variable",
    "jet_spow",
    "jet_exp",
    "jet_pow",
    "jet_recip",
    "jet_div",
    "jet_sin_cos",
    "jet_si_ci",
    "jet_erfcx",
    "jet_hyp2f1_cov",
    "alternating_tail_sum",
]

_TINY = np.finfo(float).tiny


class TaylorJet:
    """Coefficients c[i] = f^(i)(1)/i!, i = 0..order, of a function around s = 1.

    They are one read-only float64 array, copied from the tuple, list or
    array given; jets compare and hash by value.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("a jet needs a 1-D sequence of at least one coefficient")
        c.setflags(write=False)
        self._c = c

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __eq__(self, other):
        if not isinstance(other, TaylorJet):
            return NotImplemented
        return bool(np.array_equal(self._c, other._c))

    def __hash__(self):
        return hash(tuple(self._c.tolist()))

    # -- arithmetic ---------------------------------------------------------
    def _operand(self, other) -> np.ndarray:
        """Coefficients of other, a number being a constant jet of this order."""
        if isinstance(other, TaylorJet):
            _check_same_order(self, other)
            return other._c
        return _const_array(float(other), self.order)

    def __add__(self, other):
        return _from_array(self._c + self._operand(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _from_array(self._c - self._operand(other))

    def __rsub__(self, other):
        return _from_array(self._operand(other) - self._c)

    def __neg__(self):
        return _from_array(-self._c)

    def __mul__(self, other):
        if isinstance(other, TaylorJet):
            _check_same_order(self, other)
            return _from_array(np.convolve(self._c, other._c)[: self._c.size])
        return _from_array(self._c * float(other))

    __rmul__ = __mul__


def _check_same_order(a: TaylorJet, b: TaylorJet) -> None:
    if a.order != b.order:
        raise ValueError(f"jet order mismatch: {a.order} vs {b.order}")


def _const_array(c: float, order: int) -> np.ndarray:
    out = np.zeros(order + 1)
    out[0] = c
    return out


def _from_array(a: np.ndarray) -> TaylorJet:
    """Jet that takes over a freshly computed float64 array without copying it."""
    jet = object.__new__(TaylorJet)
    a.setflags(write=False)
    jet._c = a
    return jet


def jet_variable(order: int) -> TaylorJet:
    """The identity function s, expanded around 1."""
    out = _const_array(1.0, order)
    if order >= 1:
        out[1] = 1.0
    return _from_array(out)


def jet_spow(q: float, order: int) -> TaylorJet:
    """s^q around s = 1: binomial coefficients C(q, k)."""
    out = np.empty(order + 1)
    out[0] = 1.0
    for k in range(1, order + 1):
        out[k] = out[k - 1] * (q - (k - 1)) / k
    return _from_array(out)


def jet_exp(v: TaylorJet) -> TaylorJet:
    """exp of a jet via the logarithmic-derivative recurrence."""
    a = v.coeffs
    n = a.size
    e = np.empty(n)
    e[0] = math.exp(a[0])
    ja = a[1:] * np.arange(1.0, n)
    for k in range(1, n):
        e[k] = ja[:k].dot(e[k - 1 :: -1]) / k
    return _from_array(e)


def jet_pow(f: TaylorJet, q: float) -> TaylorJet:
    """f^q for real q; needs f(1) > 0."""
    a = f.coeffs
    n = f.order + 1
    if a[0] <= 0.0:
        raise ValueError("jet_pow requires a positive leading coefficient")
    p = np.empty(n)
    p[0] = a[0] ** q
    for k in range(1, n):
        acc = 0.0
        for j in range(1, k + 1):
            acc += ((q + 1.0) * j - k) * a[j] * p[k - j]
        p[k] = acc / (k * a[0])
    return _from_array(p)


def jet_recip(f: TaylorJet) -> TaylorJet:
    """1/f; needs f(1) != 0."""
    a = f.coeffs
    n = f.order + 1
    if a[0] == 0.0:
        raise ValueError("jet_recip requires a nonzero leading coefficient")
    r = np.empty(n)
    r[0] = 1.0 / a[0]
    for k in range(1, n):
        r[k] = -np.dot(a[1 : k + 1], r[k - 1 :: -1]) / a[0]
    return _from_array(r)


def jet_div(a: TaylorJet, b: TaylorJet) -> TaylorJet:
    """a/b as a times 1/b; needs b(1) != 0."""
    return a * jet_recip(b)


def jet_sin_cos(u: TaylorJet) -> tuple[TaylorJet, TaylorJet]:
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
    return _from_array(s), _from_array(c)


def jet_si_ci(u: TaylorJet) -> tuple[TaylorJet, TaylorJet]:
    """Si(u(s)) and Ci(u(s)); needs u(1) > 0.

    Built from Si' = sin(x)/x and Ci' = cos(x)/x composed with u, then
    integrated coefficientwise.
    """
    a = u.coeffs
    if a[0] <= 0.0:
        raise ValueError("jet_si_ci requires u(1) > 0")
    n = u.order + 1
    sj, cj = jet_sin_cos(u)
    ds = jet_div(sj, u).coeffs
    dc = jet_div(cj, u).coeffs
    si = np.empty(n)
    ci = np.empty(n)
    from scipy.special import sici
    si0, ci0 = sici(a[0])
    si[0], ci[0] = si0, ci0
    ja = a[1:] * np.arange(1.0, n)
    for k in range(1, n):
        si[k] = np.dot(ds[:k], ja[:k][::-1]) / k
        ci[k] = np.dot(dc[:k], ja[:k][::-1]) / k
    return _from_array(si), _from_array(ci)


def jet_erfcx(u: TaylorJet) -> TaylorJet:
    """erfcx(u(s)) = exp(u^2) erfc(u) via v' = (2 u v - 2/sqrt(pi)) u'."""
    a = u.coeffs
    n = u.order + 1
    v = np.empty(n)
    from scipy.special import erfcx
    v[0] = erfcx(a[0])
    two_over_rtpi = 2.0 / math.sqrt(math.pi)
    ja = a[1:] * np.arange(1.0, n)
    g = []          # g[m]: coefficient m of 2 u v - 2/sqrt(pi), formed once v[m] is known
    for k in range(1, n):
        g.append(2.0 * np.dot(a[:k], v[k - 1::-1]) - (two_over_rtpi if k == 1 else 0.0))
        acc = 0.0
        for m in range(k):
            acc += g[m] * ja[k - 1 - m]
        v[k] = acc / k
    return _from_array(v)


def jet_hyp2f1_cov(alpha: float, c: float, order: int) -> TaylorJet:
    """Jet of s -> hyp2f1_cov(alpha, c*s) around s = 1, for c <= 0.

    With d = 2/alpha, the function g(z) = 2F1(1, -d; 1-d; z) satisfies
    z g'(z) = d g(z) - d/(1-z), and differentiating that identity gives a
    one-term recurrence for the scaled derivatives t_n = g^(n)(c) c^n / n!:

        t_{n+1} = ((d - n) t_n - (d/(1-c)) w^n) / (n + 1),   w = c/(1-c).

    t_0 is hyp2f1_cov(alpha, c), scipy's 2F1.  |w| < 1 for every c <= 0, so
    the coefficients stay bounded and the absolute error of the recurrence
    does not grow; at c = 0 the recurrence gives t_1 = d - d = 0 and w = 0.
    """
    if c > 0.0:
        raise ValueError(f"argument coefficient must be non-positive, got {c}")
    d = 2.0 / alpha
    n = order + 1
    t = np.empty(n)
    t[0] = hyp2f1_cov(alpha, c)
    w = c / (1.0 - c)
    scale = d / (1.0 - c)
    wn = 1.0
    for k in range(n - 1):
        t[k + 1] = ((d - k) * t[k] - scale * wn) / (k + 1)
        wn *= w
    return _from_array(t)


def alternating_tail_sum(f: TaylorJet) -> tuple[float, float]:
    """sum_i (-1)^i/i! d^i/ds^i f(s) at s=1 over all carried orders.

    Equals sum_i (-1)^i c_i in jet coefficients.  Returns the compensated
    (Kahan) sum together with the cancellation ratio sum_i |c_i| / |sum|,
    which bounds the relative roundoff amplification of the sum.
    """
    total = 0.0
    comp = 0.0
    absum = 0.0
    sign = 1.0
    for v in f.coeffs.tolist():
        term = sign * v
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        absum += abs(v)
        sign = -sign
    ratio = absum / max(abs(total), _TINY)
    return total, ratio
