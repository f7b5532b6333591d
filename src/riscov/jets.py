"""Truncated Taylor arithmetic for the derivative sums in the coverage formulas.

Several coverage and rate expressions take the form

    sum_{i=0}^{k-1} (-1)^i / i! * [d^i/ds^i F(s)]_{s=1}

for smooth F built from exp, powers, erfcx, Si/Ci and the hypergeometric
member hyp2f1_cov.  A TaylorJet carries the coefficients f^(i)(1)/i! up to a
fixed order, so those derivative sums reduce to an alternating sum of jet
coefficients.  All recurrences are the standard power-series ones and are
exact to the carried order; the expansion point is always s0 = 1.  Every
sum of an exponential exp(-x s - y g(s)) runs one kernel per jet length:
fixed coverage calls exp_tail_sum (g = s^(2/alpha)), and each nearest
integrand is exp_tail_integrand(H, q, alpha/2), the function of u = y with
x = q u^(alpha/2) that binds H and q once per threshold.

The convolution sums are BLAS calls, so coefficient bits follow the CPU's
BLAS kernels:
* jet_exp and jet_recip solve their recurrence as one lower-triangular
  system, a block of up to _SOLVE_BLOCK coefficients per dtrsv from
  scipy.linalg.blas; the terms earlier blocks feed into a block are one
  np.correlate, a ddot per row.  dtrsv takes each row's sum with OpenBLAS's
  ddot kernel, so within its 64-row panels a coefficient rounds as a ddot
  recurrence would round it.
* jet_sin_cos, jet_si_ci and jet_erfcx take theirs with ndarray.dot, the
  BLAS ddot.
OpenBLAS's AVX-512 ddot rounds a length-2 sum as one fused multiply-add,
where its Haswell and Prescott kernels add the products in order.
exp_tail_integrand and exp_tail_sum run orders up to 32 on Python floats,
which never fuse: each jet length has a straight-line kernel, generated
from integer indices and compiled on first use, that does the recurrence's
float operations one by one in a fixed order, so its bits do not depend on
the CPU.  scipy (erfcx, Si/Ci, dtrsv) is imported on the first call that
needs it, not at module import, so a simulator process never loads scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .specfun import hyp2f1_cov

__all__ = [
    "TaylorJet",
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
    "exp_tail_integrand",
    "exp_tail_sum",
]

_TINY = np.finfo(float).tiny

# Coefficients per dtrsv; a longer jet's working memory is one such square
# matrix.  On a 2-core x86-64 box jet_exp at order 448 (N = 512) took 105,
# 85, 91 and 143 us with blocks of 64, 128, 256 and 512, and a 512 block's
# 1.6 MB matrix raised the analytic benchmark's peak RSS by 1.7 MB.
_SOLVE_BLOCK = 128

# scipy.linalg.blas's dtrsv, bound by the first triangular solve
_dtrsv = None


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
        const = np.zeros(self._c.size)
        const[0] = float(other)
        return const

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


def _from_array(a: np.ndarray) -> TaylorJet:
    """Jet that takes over a freshly computed float64 array without copying it."""
    jet = object.__new__(TaylorJet)
    a.setflags(write=False)
    jet._c = a
    return jet


def jet_spow(q: float, order: int) -> TaylorJet:
    """s^q around s = 1: binomial coefficients C(q, k)."""
    out = np.empty(order + 1)
    out[0] = 1.0
    for k in range(1, order + 1):
        out[k] = out[k - 1] * (q - (k - 1)) / k
    return _from_array(out)


def _lower_triangle(low: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m x m column-major matrix with low[i - j - 1] at (i, j), i > j, and its diagonal.

    The diagonal is a writable view.  Row r of the (m, m + 1) buffer is
    (diagonal, low[:m - 1], 0); read as one m x m column-major array, entry
    (i, j) of the lower triangle is element i - j of that pattern.  The
    strict upper triangle holds wrapped-around values, which a
    lower-triangular dtrsv never reads.
    """
    buf = np.empty((m, m + 1))
    buf[:, 1:m] = low[: m - 1]
    buf[:, m] = 0.0
    return buf.reshape(-1)[: m * m].reshape(m, m).T, buf[:, 0]


def _triangular_solve(low: np.ndarray, diag: np.ndarray, head: float) -> np.ndarray:
    """x with diag[k] x_k + sum_{j=1..k} low[j-1] x_(k-j) = (head if k == 0 else 0).

    The solve runs on y = x reversed, where the system is upper triangular,
    so dtrsv (lower, transposed) takes each row's dot product from x_(k-1)
    down to x_0, the order of the recurrence.  The first block takes the
    remainder of n over _SOLVE_BLOCK.  Each later block's right-hand side is
    the correlation of low with the x already solved: one np.correlate, a
    ddot per row, which OpenBLAS runs on one thread at these lengths.  (A
    dgemv runs on OpenBLAS's thread pool: with 512-coefficient blocks on a
    loaded 2-core box it took 37 ms of a 41 ms order-3638 solve, where
    np.correlate took about 1 ms.)  An underflowed head gives zeros, not NaN.
    """
    global _dtrsv
    if _dtrsv is None:
        from scipy.linalg.blas import dtrsv as _dtrsv
    n = low.size + 1
    y = np.zeros(n)
    y[-1] = head
    first = (n - 1) % _SOLVE_BLOCK + 1
    tri, tri_diag = _lower_triangle(low, first)
    tri_diag[:] = diag[first - 1 :: -1]
    _dtrsv(tri, y, offx=n - first, lower=1, trans=1, overwrite_x=1)
    b = _SOLVE_BLOCK
    if n > first:
        tri, tri_diag = _lower_triangle(low, b)
    for s in range(first, n, b):
        # y[n - s:] is (x_(s-1), ..., x_0); row r of the block gets
        # -sum_t low[r + t] y[n - s + t], stored at y[n - s - 1 - r]
        np.negative(np.correlate(low[: s + b - 1], y[n - s :])[::-1], out=y[n - s - b : n - s])
        tri_diag[:] = diag[s + b - 1 : s - 1 : -1]
        _dtrsv(tri, y, offx=n - s - b, lower=1, trans=1, overwrite_x=1)
    return y[::-1].copy()


def jet_exp(v: TaylorJet) -> TaylorJet:
    """exp of a jet.  Solves k e_k = sum_{j=1..k} j a_j e_(k-j), e_0 = exp(a_0)."""
    a = v.coeffs
    k = np.arange(float(a.size))
    low = a[1:] * -k[1:]
    k[0] = 1.0
    return _from_array(_triangular_solve(low, k, math.exp(a[0])))


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
    """1/f; needs f(1) != 0.  Solves sum_{j=0..k} a_j r_(k-j) = (1 if k == 0 else 0)."""
    a = f.coeffs
    if a[0] == 0.0:
        raise ValueError("jet_recip requires a nonzero leading coefficient")
    return _from_array(_triangular_solve(a[1:], np.full(a.size, a[0]), 1.0))


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
    inv = jet_recip(u)
    ds = (sj * inv).coeffs
    dc = (cj * inv).coeffs
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


# Up to this order exp_tail_integrand runs the exp recurrence on Python floats.
# Per call (2-core x86-64 box, one pinned CPU, best of 5 over 399 nodes u of a
# nearest-association jet):
#
#   order                               4        14       23       30       36
#   bound kernel (exp_tail_integrand)   1.2 us   5.2 us   7.7 us   12.0 us  15.7 us
#   jet_exp + alternating_tail_sum      16.1 us  18.2 us  13.6 us  15.2 us  15.2 us
#
# The kernel is faster up to about order 35; 32 keeps a margin.  It adds in another order than
# jet_exp's BLAS dot products, so at orders 15-36 the two differ by up to
# 2.5e-15 relative, far below the 10 significant digits the CSVs print.
_FLOAT_SUM_MAX_ORDER = 32


@lru_cache(maxsize=None)
def _tail_kernel(n: int):
    """Binder of exp_tail_integrand's float recurrence for n >= 1 coefficients.

    bind(c, q, p) unpacks the coefficient list c into closure values and
    returns kernel(u), straight-line code that forms x = q u^p and then does
    the recurrence's float operations one by one, in the order of the loop
    it replaces: e_0 = exp((-u) c_0 - x), a_1 = (-u) c_1 - x (if n > 1) and
    a_j = j ((-u) c_j); e_k = (0.0 + a_1 e_(k-1) + ... + a_k e_0) / k; and
    the Kahan update of alternating_tail_sum for each term (-1)^k e_k.  The
    loop's integer factors j and k appear as the literals j.0 and k.0, the
    doubles those ints convert to, so every operation rounds as it did.

    The source is built from integer indices only and compiled with exec.
    The coefficients, q, p and u are values, never formatted into the
    source: no value passes through text on its way into the arithmetic,
    and one binder, compiled on the first call for its length and cached,
    serves every jet of that length.
    """
    lines = ["def bind(c, q, p):",
             f"    {', '.join(f'c{j}' for j in range(n))}, = c",
             "    def kernel(u):",
             "        x = q * u ** p",
             "        ny = -u",
             "        e0 = exp(ny * c0 - x)"]
    lines += ["        a1 = ny * c1 - x"] if n > 1 else []
    lines += [f"        a{j} = {j}.0 * (ny * c{j})" for j in range(2, n)]
    lines += ["        s0 = e0", "        q0 = 0.0"]
    for k in range(1, n):
        products = " + ".join(f"a{j} * e{k - j}" for j in range(1, k + 1))
        lines += [f"        e{k} = (0.0 + {products}) / {k}.0",
                  f"        r{k} = {'-1.0' if k % 2 else '1.0'} * e{k} - q{k - 1}",
                  f"        s{k} = s{k - 1} + r{k}"]
        if k < n - 1:      # the last compensation is never read
            lines.append(f"        q{k} = (s{k} - s{k - 1}) - r{k}")
    lines += [f"        return s{n - 1}", "    return kernel"]
    namespace = {"exp": math.exp}
    exec("\n".join(lines), namespace)
    return namespace["bind"]


def exp_tail_integrand(g: TaylorJet, q: float, p: float):
    """The function u -> exp_tail_sum(g, u, q u^p), bound once for many u.

    Each nearest-association integrand is one such function, which quad
    calls at every node; g, q and p are bound here, not per call.  Up to
    _FLOAT_SUM_MAX_ORDER the returned function is the straight-line kernel
    for g's length (_tail_kernel); at order 0 it is exp((-u) c_0 - q u^p).
    Above the cutoff it forms the exponent jet and takes jet_exp's sum.
    """
    c = g.coeffs
    n = c.size
    if n > _FLOAT_SUM_MAX_ORDER + 1:
        def integrand(u: float) -> float:
            a = c * -u
            a[:2] -= q * u**p
            return alternating_tail_sum(jet_exp(_from_array(a)))[0]
        return integrand
    return _tail_kernel(n)(c.tolist(), q, p)


def exp_tail_sum(g: TaylorJet, y: float, x: float) -> float:
    """Alternating derivative sum at s = 1 of exp(-x s - y g(s)).

    Equals alternating_tail_sum(jet_exp(v))[0], v the jet of -x s - y g(s),
    whose exponent coefficients it forms bit for bit.  It is
    exp_tail_integrand(g, x, 0.0) at y: x y^0.0 is x exactly.  Up to
    _FLOAT_SUM_MAX_ORDER the recurrence and the sum run on Python floats,
    which add the products in order without fused multiply-adds; above the
    cutoff the value is jet_exp's.
    """
    return exp_tail_integrand(g, x, 0.0)(y)
