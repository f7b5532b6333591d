"""Window validation, and checks of the coordinate cluster sampler in tests/oracles.py.

The sampler is the reference the simulator's radial laws are compared
against (tests/test_mcsim.py, tests/test_analytic.py), so its own laws are
pinned here.
"""

import math

import numpy as np
import pytest
from scipy import stats

from oracles import GppRealization, nearest_parent, sample_gpp, sample_hppp
from riscov.geometry import Window


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0.0)
    assert Window(5000.0).area == pytest.approx(math.pi * 25e6)


# ---------------------------------------------------------------------------
# homogeneous Poisson field
# ---------------------------------------------------------------------------

def test_hppp_zero_density_empty():
    pts = sample_hppp(0.0, Window(1000.0), seed=1)
    assert pts.shape == (0, 2)


def test_hppp_negative_density_rejected():
    with pytest.raises(ValueError):
        sample_hppp(-1e-6, Window(100.0), seed=1)


def test_hppp_mean_count():
    w = Window(5000.0)
    density = 1e-4
    counts = [sample_hppp(density, w, seed=s).shape[0] for s in range(1000)]
    mean = np.mean(counts)
    expect = density * w.area          # 7853.98
    # mean of 1000 Poisson counts: sd = sqrt(expect / 1000)
    assert abs(mean - expect) <= 3.0 * math.sqrt(expect / 1000.0)


def test_hppp_points_inside_window_and_uniform_radius():
    w = Window(800.0)
    pts = sample_hppp(5e-4, w, seed=9)
    r2 = (pts**2).sum(axis=1)
    assert np.all(r2 <= w.radius**2 + 1e-6)
    # squared radius of a uniform disk point is uniform on (0, R^2)
    assert stats.kstest(r2 / w.radius**2, "uniform").pvalue > 0.01


def test_hppp_deterministic():
    w = Window(500.0)
    a = sample_hppp(1e-4, w, seed=33)
    b = sample_hppp(1e-4, w, seed=33)
    assert np.array_equal(a, b)
    c = sample_hppp(1e-4, w, seed=34)
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_hppp_void_probability():
    """P(no point in a sub-disk of area A) = exp(-lambda A)."""
    w = Window(300.0)
    density = 2e-4
    sub_r = 60.0
    centre = np.array([50.0, -40.0])
    hits = 0
    n = 2000
    for s in range(n):
        pts = sample_hppp(density, w, seed=10_000 + s)
        if pts.size and np.any(((pts - centre) ** 2).sum(axis=1) < sub_r**2):
            hits += 1
    p_void = 1.0 - hits / n
    expect = math.exp(-density * math.pi * sub_r**2)
    assert abs(p_void - expect) <= 3.0 * math.sqrt(expect * (1 - expect) / n)


# ---------------------------------------------------------------------------
# cluster process
# ---------------------------------------------------------------------------

def test_gpp_p0_daughterless():
    real = sample_gpp(1e-4, 0.0, 3.0, Window(1000.0), seed=5)
    assert not real.has_ris.any()
    assert np.isnan(real.daughters).all()


def test_gpp_daughter_offset_exact():
    real = sample_gpp(1e-4, 1.0, 3.0, Window(1000.0), seed=6)
    assert real.has_ris.all()
    d = np.hypot(*(real.daughters - real.parents).T)
    assert np.allclose(d, 3.0, rtol=1e-9)


def test_gpp_parameter_validation():
    with pytest.raises(ValueError):
        sample_gpp(1e-4, 1.5, 3.0, Window(100.0), seed=1)
    with pytest.raises(ValueError):
        sample_gpp(1e-4, 0.5, 0.0, Window(100.0), seed=1)


def test_gpp_daughter_fraction():
    total = 0
    with_d = 0
    for s in range(100):
        real = sample_gpp(1e-4, 0.5, 3.0, Window(1000.0), seed=100 + s)
        total += real.n_clusters
        with_d += int(real.has_ris.sum())
    frac = with_d / total
    assert abs(frac - 0.5) <= 3.0 * math.sqrt(0.25 / total)


def test_gpp_daughter_angle_uniform():
    angles = []
    for s in range(100):
        real = sample_gpp(1e-4, 1.0, 3.0, Window(800.0), seed=400 + s)
        delta = real.daughters - real.parents
        angles.append(np.arctan2(delta[:, 1], delta[:, 0]))
    pooled = (np.concatenate(angles) + 2 * math.pi) % (2 * math.pi)
    assert stats.kstest(pooled / (2 * math.pi), "uniform").pvalue > 0.01


def test_gpp_deterministic():
    a = sample_gpp(1e-4, 0.5, 3.0, Window(500.0), seed=77)
    b = sample_gpp(1e-4, 0.5, 3.0, Window(500.0), seed=77)
    assert np.array_equal(a.parents, b.parents)
    assert np.array_equal(a.has_ris, b.has_ris)
    assert np.array_equal(a.daughters, b.daughters, equal_nan=True)


# ---------------------------------------------------------------------------
# association
# ---------------------------------------------------------------------------

def _manual_realization(parents):
    parents = np.asarray(parents, dtype=float)
    n = parents.shape[0]
    return GppRealization(parents, np.zeros(n, dtype=bool), np.full((n, 2), np.nan))


def test_nearest_parent_single():
    real = _manual_realization([[20.0, 0.0]])
    assert nearest_parent(real, (0.0, 0.0)) == (0, pytest.approx(20.0))


def test_nearest_parent_strict_comparison():
    real = _manual_realization([[10.0, 0.0], [0.0, 10.0001]])
    idx, _ = nearest_parent(real, (0.0, 0.0))
    assert idx == 0


def test_nearest_parent_empty():
    real = _manual_realization(np.empty((0, 2)))
    with pytest.raises(ValueError):
        nearest_parent(real, (0.0, 0.0))


def test_nearest_distance_mean_matches_rayleigh():
    """Contact distance of a Poisson field has mean 1/(2 sqrt(lambda))."""
    lam = 1e-4
    w = Window(500.0)          # >> 50 m mean, boundary effect ~ e^-78
    dists = []
    for s in range(10_000):
        real = sample_gpp(lam, 0.0, 3.0, w, seed=20_000 + s)
        if real.n_clusters:
            dists.append(nearest_parent(real, (0.0, 0.0))[1])
    mean = np.mean(dists)
    expect = 1.0 / (2.0 * math.sqrt(lam))
    sd = math.sqrt((4.0 - math.pi) / (4.0 * math.pi * lam))
    assert abs(mean - expect) <= 3.0 * sd / math.sqrt(len(dists))
