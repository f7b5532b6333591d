import dataclasses
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from scipy import stats

from oracles import ccdf_rate_integral, nearest_parent, sample_gpp
from riscov import mcsim
from riscov.analytic import (SystemParams, coverage_fixed_noris,
                             coverage_fixed_ris)
from riscov.fading import FadingParams, dbm_to_watts
from riscov.geometry import Window
from riscov.mcsim import (EmpiricalDistribution, McConfig, estimate_coverage,
                          estimate_rate, simulate_sinr)
from riscov.specfun import hyp2f1_cov


def make_config(trials=10_000, seed=1, window=5000.0, **params_kw) -> McConfig:
    return McConfig(trials=trials, seed=seed,
                    params=SystemParams.default(**params_kw),
                    window=Window(window))


def truncated_noris_coverage(params: SystemParams, gamma_bar: float,
                             radius: float) -> float:
    """Closed-form coverage when interferers stop at the window edge.

    Used to compare the simulator against the model it actually samples,
    without the far-field the analytic whole-plane expression includes.
    """
    a = params.path.alpha
    d = 2.0 / a
    lead = math.pi * d / 2.0 / math.sin(math.pi * d)
    expo = gamma_bar * params.gamma_t_inv / params.eta_g0
    for weight, gain in ((params.p, params.e1), (1.0 - params.p, params.path.c_d)):
        if weight == 0.0:
            continue
        c = gain * gamma_bar / params.eta_g0
        tail = (radius**2 / 2.0) * (hyp2f1_cov(a, -c * radius**-a) - 1.0)
        expo += 2.0 * math.pi * params.lambda_t * weight * (lead * c**d - tail)
    return math.exp(-expo)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        make_config(trials=0)
    with pytest.raises(ValueError):
        McConfig(trials=10, seed=1, params=SystemParams.default(), pool_size=100)


def test_strategy_validation():
    cfg = make_config(trials=100)
    with pytest.raises(ValueError):
        simulate_sinr(cfg, "sideways")
    with pytest.raises(ValueError):
        simulate_sinr(cfg, "fixed")                       # forced_ris unspecified
    with pytest.raises(ValueError):
        simulate_sinr(cfg, "nearest", forced_ris=True)
    with pytest.raises(ValueError):
        simulate_sinr(make_config(trials=100, lambda_t=0.0), "nearest")


def test_empirical_distribution_queries():
    dist = EmpiricalDistribution(np.array([1.0, 2.0, 3.0, 4.0]))
    assert dist.ccdf(2.5) == 0.5
    assert dist.ccdf(0.0) == 1.0
    assert dist.ccdf(4.0) == 0.0
    assert dist.quantile(0.5) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        EmpiricalDistribution(np.array([2.0, 1.0]))


def test_estimators_require_samples():
    dist = EmpiricalDistribution(np.linspace(1.0, 2.0, 50))
    with pytest.raises(ValueError):
        estimate_coverage(dist, 1.0)
    with pytest.raises(ValueError):
        estimate_rate(dist)


def test_estimate_coverage_extremes():
    dist = EmpiricalDistribution(np.linspace(1.0, 2.0, 1000))
    prob, ci = estimate_coverage(dist, 0.5)
    assert prob == 1.0 and ci == 0.0
    prob, _ = estimate_coverage(dist, dist.quantile(0.5))
    assert prob == pytest.approx(0.5, abs=0.01)


def test_estimate_rate_known_values():
    zeros = EmpiricalDistribution(np.zeros(500))
    assert estimate_rate(zeros)[0] == 0.0
    ones = EmpiricalDistribution(np.ones(500))
    assert estimate_rate(ones)[0] == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# determinism and independence
# ---------------------------------------------------------------------------

def test_identical_config_identical_samples():
    a = simulate_sinr(make_config(trials=2000, seed=9, window=1000.0), "fixed",
                      forced_ris=True)
    b = simulate_sinr(make_config(trials=2000, seed=9, window=1000.0), "fixed",
                      forced_ris=True)
    assert np.array_equal(a.sorted_samples, b.sorted_samples)
    c = simulate_sinr(make_config(trials=2000, seed=10, window=1000.0), "fixed",
                      forced_ris=True)
    assert not np.array_equal(a.sorted_samples, c.sorted_samples)


def test_worker_count_does_not_change_samples():
    base = make_config(trials=4000, seed=21, window=1000.0)
    n_blocks = len(mcsim._block_plan(base))
    assert n_blocks > 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # many thread switches inside every block
    try:
        for strategy, forced in (("fixed", False), ("fixed", True), ("nearest", None)):
            serial = simulate_sinr(dataclasses.replace(base, workers=1), strategy, forced)
            for cfg in (base, *(dataclasses.replace(base, workers=w)
                                for w in (2, 3, n_blocks + 3))):
                other = simulate_sinr(cfg, strategy, forced)
                assert np.array_equal(other.sorted_samples, serial.sorted_samples), \
                    (strategy, forced, cfg.workers)
    finally:
        sys.setswitchinterval(interval)


def test_default_workers_are_the_available_cpus():
    cfg = make_config(trials=100)
    expected = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
    assert cfg.workers == expected >= 1


def test_blocks_run_on_threads_not_processes(monkeypatch):
    cfg = dataclasses.replace(make_config(trials=4000, seed=24, window=1000.0), workers=2)
    assert len(mcsim._block_plan(cfg)) > 2
    original = mcsim._run_block
    barrier = threading.Barrier(2, timeout=30)
    threads, children = [], []

    def recording(args):
        threads.append(threading.get_ident())
        children.extend(multiprocessing.active_children())
        if len(threads) <= 2:
            barrier.wait()      # the first two blocks must overlap in time
        return original(args)

    monkeypatch.setattr(mcsim, "_run_block", recording)
    simulate_sinr(cfg, "fixed", forced_ris=True)
    assert len(set(threads)) == 2
    assert threading.get_ident() not in threads
    assert children == [] and multiprocessing.active_children() == []


def test_pool_never_exceeds_the_block_count(monkeypatch):
    sizes = []

    class RecordingPool(mcsim.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    cfg = dataclasses.replace(make_config(trials=4000, seed=25, window=1000.0), workers=64)
    # the fading table has its own pool (test_table_pool_never_exceeds_the_chunk_count)
    simulate_sinr(dataclasses.replace(cfg, trials=200, workers=2), "fixed", forced_ris=False)
    monkeypatch.setattr(mcsim, "ThreadPoolExecutor", RecordingPool)
    simulate_sinr(cfg, "fixed", forced_ris=False)
    assert sizes == [len(mcsim._block_plan(cfg))]
    # a single block runs inline, in the calling thread
    one = dataclasses.replace(cfg, trials=200)
    assert len(mcsim._block_plan(one)) == 1
    simulate_sinr(one, "fixed", forced_ris=False)
    assert len(sizes) == 1


def test_trial_blocks_pass_runs_test():
    """Wald-Wolfowitz runs test on per-block rate means of one run."""
    cfg = make_config(trials=40_000, seed=5, window=1000.0, lambda_t=1e-4)
    sizes = mcsim._block_plan(cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(len(sizes))
    pad = max(1 << 19, int(3 * cfg.params.lambda_t * cfg.window.area) + 1024)
    means = []
    for n, child in zip(sizes, children):
        sinr = mcsim._run_block((cfg.params, cfg.window, "fixed", True, n,
                                 child, cfg.pool_size, pad))
        means.append(np.log2(1.0 + sinr).mean())
    means = np.asarray(means)
    assert means.size >= 30
    signs = means > np.median(means)
    n1 = int(signs.sum())
    n2 = signs.size - n1
    runs = 1 + int((signs[1:] != signs[:-1]).sum())
    expect = 2.0 * n1 * n2 / (n1 + n2) + 1.0
    var = (2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2)
           / ((n1 + n2) ** 2 * (n1 + n2 - 1.0)))
    z = (runs - expect) / math.sqrt(var)
    assert abs(z) < 2.58


# ---------------------------------------------------------------------------
# distributional correctness
# ---------------------------------------------------------------------------

def test_nearest_serving_geometry_matches_cluster_sampler(monkeypatch):
    """The radial laws of _block_nearest against distances on oracle sample_gpp fields.

    The serving distance d^2 = R^2 (1 - U^(1/k)) and the surface distance
    d_r^2 = r^2 + d0^2 + 2 r d0 cos(phi) are read back from the path gains
    the block hands to the serving-signal sampler; interference is stubbed
    out.  The offset law is checked through the cos(phi) it implies for each
    pair.  At 28 transmitters per window on average, empty fields (which
    both sides would treat differently) have probability e^-28.
    """
    params = SystemParams.default(lambda_t=1e-4, p=1.0)
    window = Window(300.0)
    n = 20_000
    recorded = []

    def recording_signal(rng, fading, n_elements, eta_g0, eta_h0, rows):
        recorded.append((np.array(eta_g0), np.array(eta_h0)))
        return np.ones(rows)

    monkeypatch.setattr(mcsim, "_coherent_signal", recording_signal)
    monkeypatch.setattr(mcsim, "_interference",
                        lambda rng, tab, params, n_trials, *rest: np.zeros(n_trials))
    mcsim._block_nearest(np.random.default_rng(20261), None, params, window, n)
    (eta_g0, eta_h0), = recorded
    pl = params.path
    d2_block = (eta_g0 / pl.c_d) ** (-2.0 / pl.alpha)
    dr2_block = (eta_h0 / pl.c_r) ** (-2.0 / pl.alpha) / pl.d0**2

    rng = np.random.default_rng(20262)
    d2_gpp, dr2_gpp = [], []
    while len(d2_gpp) < n:
        field = sample_gpp(params.lambda_t, 1.0, pl.d0, window, rng)
        if field.n_clusters == 0:
            continue
        idx, dist = nearest_parent(field, (0.0, 0.0))
        d2_gpp.append(dist**2)
        dr2_gpp.append(float((field.daughters[idx] ** 2).sum()))
    d2_gpp, dr2_gpp = np.array(d2_gpp), np.array(dr2_gpp)

    def implied_cos(d2, dr2):
        return (dr2 - d2 - pl.d0**2) / (2.0 * pl.d0 * np.sqrt(d2))

    assert stats.ks_2samp(d2_block, d2_gpp).pvalue > 0.01
    assert stats.ks_2samp(implied_cos(d2_block, dr2_block),
                          implied_cos(d2_gpp, dr2_gpp)).pvalue > 0.01


def one_shot_phase_sum(rng, fading: FadingParams, n_elements: int, rows: int):
    """Reference for _random_phase_sum: each per-element quantity drawn in one (rows, N) call."""
    amp = (np.sqrt(rng.gamma(fading.m_h, 1.0 / fading.m_h, (rows, n_elements)))
           * np.sqrt(rng.gamma(fading.m_r, 1.0 / fading.m_r, (rows, n_elements))))
    phase = rng.random((rows, n_elements), dtype=np.float32) * np.float32(2.0 * math.pi)
    return (amp * np.cos(phase)).sum(axis=1), (amp * np.sin(phase)).sum(axis=1)


@pytest.mark.parametrize("n_elements,rows,m", [(1, 70_000, 2.0), (32, 5000, 1.5),
                                               (4096, 40, 3.0)])
def test_blocked_draws_match_one_shot_draws(n_elements, rows, m):
    """Block-wise draws give the same values and leave the generator in the same state."""
    fading = FadingParams(m_h=m, m_r=2.0)
    rng_blocked, rng_reference = np.random.default_rng(11), np.random.default_rng(11)
    got = mcsim._random_phase_sum(rng_blocked, fading, n_elements, rows)
    expect = one_shot_phase_sum(rng_reference, fading, n_elements, rows)
    assert np.array_equal(got[0], expect[0]) and np.array_equal(got[1], expect[1])
    assert rng_blocked.random() == rng_reference.random()


def test_random_phase_sum_holds_one_full_size_array():
    rows, n_elements = 1 << 16, 32
    tracemalloc.start()
    try:
        mcsim._random_phase_sum(np.random.default_rng(3), FadingParams(m_h=2.0, m_r=2.0),
                                n_elements, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rows * n_elements * 8


def test_float32_phase_trig_matches_float64():
    """For the same float32 phases, float32 cos/sin move each element sum by < 1e-6 of sum(amp)."""
    rng = np.random.default_rng(13)
    amp = mcsim._element_amplitudes(rng, FadingParams(m_h=1.0, m_r=1.0), 32, 20_000)
    phase = rng.random(amp.shape, dtype=np.float32) * np.float32(2.0 * math.pi)
    assert np.cos(phase).dtype == np.float32
    bound = 1e-6 * amp.sum(axis=1)
    wide = phase.astype(np.float64)
    for trig in (np.cos, np.sin):
        gap = np.abs((amp * trig(phase)).sum(axis=1) - (amp * trig(wide)).sum(axis=1))
        assert np.all(gap <= bound), trig


# ---------------------------------------------------------------------------
# fading table
# ---------------------------------------------------------------------------

TABLE_COLUMNS = ("mag2_direct", "mag2_scatter", "cross", "exp_direct", "cos_offset")


def small_chunk_table(monkeypatch, workers, size=4096, pad=5000):
    """N = 4 table in chunks of 1024 rows: 9 chunks, the last one partial."""
    monkeypatch.setattr(mcsim, "_TABLE_CHUNK_ELEMENTS", 4096)
    return mcsim._FadingTable(4, FadingParams(m_h=1.5, m_r=2.5), size, pad, workers)


def test_table_is_the_same_for_any_worker_count(monkeypatch):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        serial = small_chunk_table(monkeypatch, 1)
        for workers in (2, 3, 12):
            other = small_chunk_table(monkeypatch, workers)
            for name in TABLE_COLUMNS:
                assert np.array_equal(getattr(other, name), getattr(serial, name)), \
                    (workers, name)
    finally:
        sys.setswitchinterval(interval)
    for name in TABLE_COLUMNS:
        col = getattr(serial, name)
        assert col.dtype == np.float32 and col.shape == (4096 + 5000,)
        # no chunk repeats another's draws (the partial last chunk has 904 rows)
        heads = [col[lo:lo + 904] for lo in range(0, col.size, 1024)]
        assert not any(np.array_equal(a, b) for i, a in enumerate(heads) for b in heads[:i])


def test_table_chunks_run_on_pool_threads(monkeypatch):
    original = mcsim._fill_table_chunk
    barrier = threading.Barrier(2, timeout=30)
    threads = []

    def recording(args):
        threads.append(threading.get_ident())
        if len(threads) <= 2:
            barrier.wait()      # the first two chunks must overlap in time
        return original(args)

    monkeypatch.setattr(mcsim, "_fill_table_chunk", recording)
    small_chunk_table(monkeypatch, 2)
    assert len(threads) == 9
    assert len(set(threads)) == 2
    assert threading.get_ident() not in threads


def test_table_pool_never_exceeds_the_chunk_count(monkeypatch):
    sizes = []

    class RecordingPool(mcsim.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(mcsim, "ThreadPoolExecutor", RecordingPool)
    small_chunk_table(monkeypatch, 64)
    small_chunk_table(monkeypatch, 2)
    assert sizes == [9, 2]
    # a table of one chunk is built inline, in the calling thread
    small_chunk_table(monkeypatch, 64, size=512, pad=512)
    assert len(sizes) == 2


def test_table_build_peak_memory():
    """The N = 32 build on two threads holds the table plus two chunks' temporaries."""
    tracemalloc.start()
    try:
        tab = mcsim._FadingTable(32, FadingParams(m_h=2.0, m_r=2.0), 1 << 20, 1 << 19, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = 5 * tab.mag2_direct.nbytes
    assert table_bytes == 5 * 4 * ((1 << 20) + (1 << 19))
    assert peak < 2 * table_bytes


def test_table_stream_is_keyed_on_exact_shapes():
    """Shapes 2.0 and 2.1 once shared a stream (the key was int(8 m))."""
    direct = [mcsim._FadingTable(4, FadingParams(m_h, m_r), 4096, 4096).mag2_direct
              for m_h, m_r in ((2.0, 2.0), (2.1, 2.0), (2.0, 2.1))]
    for i in range(3):
        for j in range(i):
            assert not np.array_equal(direct[i], direct[j]), (i, j)
    same = mcsim._FadingTable(4, FadingParams(2, 2), 4096, 4096).mag2_direct
    assert np.array_equal(same, direct[0])      # int and float shapes agree


@pytest.mark.parametrize("n_elements", [4, 32])
def test_table_columns_meet_moment_identities(n_elements):
    """E|g|^2 = 1, E|T|^2 = N, E[cross] = 0, E[exp] = 1, E[cos phi] = 0, within 4 SE."""
    tab = mcsim._FadingTable(n_elements, FadingParams(m_h=1.5, m_r=2.5), 1 << 16, 1 << 16, 2)
    for name, expect in (("mag2_direct", 1.0), ("mag2_scatter", float(n_elements)),
                         ("cross", 0.0), ("exp_direct", 1.0), ("cos_offset", 0.0)):
        col = getattr(tab, name).astype(np.float64)
        se = col.std() / math.sqrt(col.size)
        assert abs(col.mean() - expect) <= 4.0 * se, (name, col.mean(), se)


def test_replica_spread_matches_binomial_width(monkeypatch):
    """Coverage estimates of replicas with their own tables spread like binomials.

    Each replica reuses every row of its table about six times (314
    interferers a trial, 10k trials, 528k rows); the replica variance of the
    coverage estimate must sit inside the two-sided 1e-3 chi-square band of
    p (1 - p) / trials.
    """
    replicas, trials = 30, 10_000
    params = SystemParams.default(lambda_t=4e-4, n_elements=2)
    monkeypatch.setattr(mcsim, "_TABLE_CACHE", {})
    estimates = []
    for r in range(replicas):
        monkeypatch.setattr(mcsim, "_TABLE_ENTROPY", 0x51DE + r)
        mcsim._TABLE_CACHE.clear()
        cfg = McConfig(trials=trials, seed=3100 + r, params=params, window=Window(500.0),
                       pool_size=4096)
        estimates.append(estimate_coverage(simulate_sinr(cfg, "fixed", forced_ris=False),
                                           0.25)[0])
        (tab,) = mcsim._TABLE_CACHE.values()
        rows = tab.size + tab.pad
        assert trials * params.lambda_t * cfg.window.area >= 5 * rows
    estimates = np.asarray(estimates)
    prob = estimates.mean()
    assert 0.2 < prob < 0.8
    stat = (replicas - 1) * estimates.var(ddof=1) / (prob * (1.0 - prob) / trials)
    low, high = stats.chi2.ppf([5e-4, 1.0 - 5e-4], replicas - 1)
    assert low < stat < high, stat


def test_rayleigh_only_sanity():
    """No interferers, no surface: coverage is the Rayleigh outage law."""
    cfg = make_config(trials=40_000, seed=3, window=1000.0, lambda_t=0.0,
                      p_tx_w=dbm_to_watts(-10.0))
    dist = simulate_sinr(cfg, "fixed", forced_ris=False)
    for g in (0.25, 1.0, 4.0):
        prob, ci = estimate_coverage(dist, g)
        expect = math.exp(-g * cfg.params.gamma_t_inv / cfg.params.eta_g0)
        assert abs(prob - expect) <= max(3.0 * ci, 1e-3)


def test_fixed_no_surface_interferers_match_truncated_model():
    """p = 0 removes every approximation except the finite window."""
    cfg = make_config(trials=25_000, seed=7, p=0.0, p_tx_w=dbm_to_watts(-10.0))
    dist = simulate_sinr(cfg, "fixed", forced_ris=False)
    for g in (0.5, 1.0, 2.0):
        prob, ci = estimate_coverage(dist, g)
        expect = truncated_noris_coverage(cfg.params, g, cfg.window.radius)
        assert abs(prob - expect) <= 3.0 * ci


def test_fixed_surface_interferers_match_exponential_model():
    """p = 1 exercises the fading table against the Gaussian-limit model."""
    cfg = make_config(trials=25_000, seed=8, p=1.0, p_tx_w=dbm_to_watts(-10.0))
    dist = simulate_sinr(cfg, "fixed", forced_ris=False)
    prob, ci = estimate_coverage(dist, 1.0)
    expect = truncated_noris_coverage(cfg.params, 1.0, cfg.window.radius)
    assert abs(prob - expect) <= 3.0 * ci + 0.01


def test_signal_only_mode_reproduces_power_crossing():
    """lambda_t = 0 with unit transmit SNR turns SINR into the signal power."""
    params = SystemParams.default(lambda_t=0.0, n_elements=16,
                                  fading=dataclasses.replace(
                                      SystemParams.default().fading, m_h=1.0, m_r=1.0),
                                  p_tx_w=1e-10)     # gamma_t = 1
    cfg = McConfig(trials=200_000, seed=12, params=params, window=Window(5000.0))
    dist = simulate_sinr(cfg, "fixed", forced_ris=True)
    # CCDF crosses 0.8 near -52 dB
    x = dist.quantile(0.2)
    assert 10.0 * math.log10(x) == pytest.approx(-52.0, abs=1.0)


def test_nearest_statistics_match_coverage_band():
    cfg = make_config(trials=15_000, seed=14, p=0.9, p_tx_w=dbm_to_watts(10.0))
    dist = simulate_sinr(cfg, "nearest")
    prob, ci = estimate_coverage(dist, 1.0)
    # whole-plane analytic 0.9027, window bias ~ +0.004
    assert abs(prob - 0.907) <= 3.0 * ci + 0.01


def test_nearest_empty_field_scores_zero():
    cfg = McConfig(trials=200, seed=2,
                   params=SystemParams.default(lambda_t=1e-9),
                   window=Window(100.0))
    dist = simulate_sinr(cfg, "nearest")
    assert float(dist.ccdf(0.0)) <= 0.05      # nearly every trial empty


def test_lemma_identity_between_rate_estimators():
    cfg = make_config(trials=20_000, seed=15, p=0.5, p_tx_w=dbm_to_watts(0.0))
    dist = simulate_sinr(cfg, "fixed", forced_ris=True)
    direct, _ = estimate_rate(dist)
    via_ccdf = ccdf_rate_integral(dist)
    assert via_ccdf == pytest.approx(direct, rel=0.01)
    assert via_ccdf == pytest.approx(direct, rel=1e-9)


def test_fixed_with_surface_tracks_analytic():
    cfg = make_config(trials=20_000, seed=16, lambda_t=1e-4,
                      p_tx_w=dbm_to_watts(-24.0))
    dist = simulate_sinr(cfg, "fixed", forced_ris=True)
    prob, ci = estimate_coverage(dist, 1.0)
    ana = coverage_fixed_ris(cfg.params, 1.0)
    assert abs(prob - ana) <= 3.0 * ci + 0.025
