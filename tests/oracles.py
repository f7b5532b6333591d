"""Reference computations the tests compare riscov against.

Nothing here runs in riscov itself.  The simulator samples the cluster
field radially; the coordinate sampler below draws the same field point by
point, so distances measured on it check the radial laws.  The element-sum
moments are the exact ones the two-stage gamma pipeline approximates, and
the CCDF integral is the coverage-to-rate identity on an empirical
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from riscov.fading import FadingParams
from riscov.geometry import Window
from riscov.mcsim import EmpiricalDistribution
from riscov.powerdist import GammaFit


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
