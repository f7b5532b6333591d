import dataclasses
import hashlib
import logging
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scipy import stats

from oracles import ccdf_rate_integral, interference_by_fsum, nearest_parent, sample_gpp
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
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        make_config(seed=-1)


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


def test_empirical_distribution_keeps_the_validated_array():
    """A list is stored as its float array; a float64 array is kept as given."""
    dist = EmpiricalDistribution([1.0, 2.0, 3.0])
    assert isinstance(dist.sorted_samples, np.ndarray)
    assert dist.sorted_samples.dtype == np.float64
    assert dist.n == 3
    assert dist.ccdf(1.5) == pytest.approx(2.0 / 3.0)
    assert EmpiricalDistribution([1, 2]).quantile(0.5) == 1.5
    samples = np.array([1.0, 2.0, 3.0])
    assert EmpiricalDistribution(samples).sorted_samples is samples


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


def test_estimate_rate_refuses_infinite_sinr():
    samples = np.concatenate((np.linspace(0.0, 5.0, 497), [np.inf] * 3))
    with pytest.raises(ValueError, match="^3 of 500 SINR samples are infinite"):
        estimate_rate(EmpiricalDistribution(samples))


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


# sha256 of simulate_sinr's sorted samples in the 5 km window, seed 1.  A dense point
# runs ten blocks of 3 trials that read about 235k table rows each, so some windows run
# past _TABLE_ROWS into the pad; at N = 2 the pad lies in a table chunk the table's end
# cuts short.  The sparse point runs nearest association in blocks of 3337 trials.  At
# lambda = 1e-2 each block is one trial that reads about 785k rows of an 813 758-row pad.
PINNED_SAMPLES_SHA256 = {
    "dense-fixed": (dict(lambda_t=1e-3, p_tx_w=dbm_to_watts(-24.0)), 30, "fixed", True,
                    "1df715f94e004bbed631b28977123e047b6c3d0dd11482e00c3550a7c05f922e"),
    "dense-fixed-N2": (dict(lambda_t=1e-3, p_tx_w=dbm_to_watts(-24.0), n_elements=2), 30,
                       "fixed", True,
                       "d73f02644572299da8bc65837695134c93ed41add7e21f84a4012c0ee44d2ca0"),
    "sparse-nearest": (dict(lambda_t=1e-6, p=0.9), 20_000, "nearest", None,
                       "e81a095780ce19548fb10490030eb9a56250938e48858f27493ba86b7c5a3857"),
    "one-trial-fixed-N2": (dict(lambda_t=1e-2, p_tx_w=dbm_to_watts(-24.0), n_elements=2), 6,
                           "fixed", True,
                           "7ee4c66d2aad1fdfdba3f948d57d44ba9188991cd5f3b374ab0980a478107ae2"),
    "one-trial-nearest-N2": (dict(lambda_t=1e-2, p_tx_w=dbm_to_watts(-24.0), n_elements=2),
                             6, "nearest", None,
                             "512e15e54061bf5b0ce33014fd0a1519a6b6486c30ddf25a64cb9b40d1f5ae3e"),
}


@pytest.mark.parametrize("case", list(PINNED_SAMPLES_SHA256))
def test_samples_in_the_full_window_are_unchanged(monkeypatch, case):
    params_kw, trials, strategy, forced, digest = PINNED_SAMPLES_SHA256[case]
    window_ends = []
    original = mcsim._interference

    def recording(rng, table, params, n_trials, k_ris, k_non, *rest):
        """_interference, noting where each block's window ends."""
        class StartRecorder:
            def __getattr__(self, name):
                return getattr(rng, name)

            def integers(self, *args):
                start = rng.integers(*args)
                window_ends.append(start + int(k_ris.sum() + k_non.sum()))
                return start
        return original(StartRecorder(), table, params, n_trials, k_ris, k_non, *rest)

    monkeypatch.setattr(mcsim, "_interference", recording)
    cfg = make_config(trials=trials, seed=1, **params_kw)
    dist = simulate_sinr(cfg, strategy, forced)
    assert hashlib.sha256(dist.sorted_samples.tobytes()).hexdigest() == digest
    assert max(window_ends) <= mcsim._TABLE_ROWS + mcsim._table_pad(cfg)
    if strategy == "fixed":
        assert max(window_ends) > mcsim._TABLE_ROWS      # some window reads the pad


def use_cpus(monkeypatch, cpus: int) -> None:
    """Make the simulator see cpus available CPUs, as an affinity mask of that size would."""
    monkeypatch.setattr(mcsim, "_available_cpus", lambda: cpus)


def test_worker_count_does_not_change_samples(monkeypatch):
    base = make_config(trials=4000, seed=21, window=1000.0)
    n_blocks = len(mcsim._block_plan(base))
    assert n_blocks > 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # many thread switches inside every block
    try:
        for strategy, forced in (("fixed", False), ("fixed", True), ("nearest", None)):
            use_cpus(monkeypatch, 1)
            serial = simulate_sinr(base, strategy, forced)
            for cpus in (2, 3, n_blocks + 3):
                use_cpus(monkeypatch, cpus)
                other = simulate_sinr(base, strategy, forced)
                assert np.array_equal(other.sorted_samples, serial.sorted_samples), \
                    (strategy, forced, cpus)
    finally:
        sys.setswitchinterval(interval)


def test_blocks_run_on_threads_not_processes(monkeypatch):
    use_cpus(monkeypatch, 2)
    cfg = make_config(trials=4000, seed=24, window=1000.0)
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

    cfg = make_config(trials=4000, seed=25, window=1000.0)
    n_blocks = len(mcsim._block_plan(cfg))
    # the fading table has its own pool (test_table_pool_never_exceeds_the_chunk_count)
    simulate_sinr(dataclasses.replace(cfg, trials=200), "fixed", forced_ris=False)
    monkeypatch.setattr(mcsim, "ThreadPoolExecutor", RecordingPool)
    # unpatched, the pool has one thread per CPU of the affinity mask
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    simulate_sinr(cfg, "fixed", forced_ris=False)
    assert sizes == ([min(cpus, n_blocks)] if cpus > 1 else [])
    sizes.clear()
    use_cpus(monkeypatch, 64)
    simulate_sinr(cfg, "fixed", forced_ris=False)
    assert sizes == [n_blocks]
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
    table = mcsim._get_table(cfg.params.n_elements, cfg.params.fading,
                             mcsim._TABLE_ROWS + mcsim._table_pad(cfg))
    means = []
    for n, child in zip(sizes, children):
        sinr = mcsim._run_block((cfg.params, cfg.window, table, "fixed", True, n, child))
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
    """The radial laws of nearest-association trials against distances on oracle sample_gpp fields.

    The serving distance d^2 = R^2 (1 - U^(1/k)) and the surface distance
    d_r^2 = r^2 + d0^2 + 2 r d0 cos(phi) are read back from the path gains
    the trial kernel hands to the serving-signal sampler; interference is stubbed
    out.  The offset law is checked through the cos(phi) it implies for each
    pair.  At 28 transmitters per window on average, empty fields (which
    both sides would treat differently) have probability e^-28.
    """
    params = SystemParams.default(lambda_t=1e-4, p=1.0)
    window = Window(300.0)
    n = 20_000
    recorded = []

    def recording_signal(rng, fading, n_elements, eta_g0, eta_h0, rows, ws):
        recorded.append((np.array(eta_g0), np.array(eta_h0)))
        return np.ones(rows)

    monkeypatch.setattr(mcsim, "_coherent_signal", recording_signal)
    monkeypatch.setattr(mcsim, "_interference",
                        lambda rng, table, params, n_trials, *rest: np.zeros(n_trials))
    mcsim._run_block((params, window, None, "nearest", None, n, 20261))
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


@pytest.mark.parametrize("forced_ris", [True, False])
def test_fixed_association_serves_the_configured_link(monkeypatch, forced_ris):
    """Every fixed-association trial is served with exactly eta_g0 and eta_h0.

    The fixed link's surface sits at perpendicular offset d0, the convention of
    the analytic expressions.  Interference is stubbed out, the noise term is 1
    and the Rayleigh draws are ones, so a surface-free trial's SINR is its
    direct gain bit for bit.
    """
    base = SystemParams.default()
    params = SystemParams.default(lambda_t=1e-4, d_g0=35.0, p_tx_w=base.noise_w)
    assert params.gamma_t_inv == 1.0
    n = 500
    recorded = []

    def recording_signal(rng, fading, n_elements, eta_g0, eta_h0, rows, ws):
        recorded.append((np.broadcast_to(eta_g0, rows), np.broadcast_to(eta_h0, rows)))
        return np.full(rows, 7.0)

    real_rng = np.random.default_rng

    class UnitExponentials:
        def __init__(self, seed):
            self._rng = real_rng(seed)

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def standard_exponential(self, size):
            return np.ones(size)

    monkeypatch.setattr(mcsim, "_coherent_signal", recording_signal)
    monkeypatch.setattr(mcsim, "_interference",
                        lambda rng, table, params, n_trials, *rest: np.zeros(n_trials))
    monkeypatch.setattr(np.random, "default_rng", UnitExponentials)
    sinr = mcsim._run_block((params, Window(1000.0), None, "fixed", forced_ris, n, 3))
    if forced_ris:
        (eta_g0, eta_h0), = recorded
        assert np.array_equal(eta_g0, np.full(n, params.eta_g0))
        assert np.array_equal(eta_h0, np.full(n, params.eta_h0))
        assert np.array_equal(sinr, np.full(n, 7.0))
    else:
        assert recorded == []
        assert np.array_equal(sinr, np.full(n, params.eta_g0))


def one_shot_hop_power(rng, m: float, shape: tuple) -> np.ndarray:
    """Gamma(m, 1/m) in one call: a whole m up to the cutoff sums m exponentials per element."""
    if float(m).is_integer() and m <= mcsim._EXP_SUM_MAX_SHAPE:
        exps = rng.standard_exponential((*shape, int(m)))
        return sum(exps[..., i] for i in range(int(m))) / m
    return rng.gamma(m, 1.0 / m, shape)


def per_block_phase_sum(rng, fading: FadingParams, n_elements: int, rows: int):
    """Reference for _random_phase_sum: per block of _DRAW_BLOCK // N rows, hop h, hop r, phases."""
    step = max(1, mcsim._DRAW_BLOCK // n_elements)
    sums = []
    for lo in range(0, rows, step):
        shape = (min(step, rows - lo), n_elements)
        amp = np.sqrt(one_shot_hop_power(rng, fading.m_h, shape)
                      * one_shot_hop_power(rng, fading.m_r, shape))
        phase = rng.random(shape, dtype=np.float32) * np.float32(2.0 * math.pi)
        sums.append([(amp * np.cos(phase)).sum(axis=1), (amp * np.sin(phase)).sum(axis=1)])
    return np.concatenate(sums, axis=1)


@pytest.mark.parametrize("n_elements,rows,m", [(1, 70_000, 2.0), (32, 5000, 1.5),
                                               (4096, 40, 3.0)])
def test_block_draws_match_per_block_oracle(n_elements, rows, m):
    """Values and final generator state match the per-block reference; each case spans blocks.

    m = 2 and 3 take the exponential sums of _hop_power, m = 1.5 its rng.gamma branch.
    """
    assert rows > mcsim._DRAW_BLOCK // n_elements
    fading = FadingParams(m_h=m, m_r=2.0)
    rng_blocked, rng_reference = np.random.default_rng(11), np.random.default_rng(11)
    got = mcsim._random_phase_sum(rng_blocked, fading, n_elements, rows)
    expect = per_block_phase_sum(rng_reference, fading, n_elements, rows)
    assert np.array_equal(got[0], expect[0]) and np.array_equal(got[1], expect[1])
    assert rng_blocked.random() == rng_reference.random()


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_elements", [32, 1024])
def test_per_element_draws_hold_one_block(n_elements):
    """Peak memory is the per-row outputs plus one block's temporaries, whatever rows x N is.

    One block of _DRAW_BLOCK elements peaks at about 52 bytes an element of
    temporaries (3.4 MB); a (rows, N) float64 array would take 16.8 MB here,
    and 102 MB in sample_signal_power at 200k x 64.
    """
    fading, rows = FadingParams(m_h=2.0, m_r=2.0), (1 << 21) // n_elements
    block_bytes = 80 * mcsim._DRAW_BLOCK
    peak = traced_peak(mcsim._random_phase_sum, np.random.default_rng(3), fading, n_elements,
                       rows)
    assert peak < 16 * rows + block_bytes
    peak = traced_peak(mcsim.sample_signal_power, 1.0, 1.0, fading, 64, 200_000, 3)
    assert peak < 16 << 20


_REPEAT_SPARSE_POINT = """
import resource
from riscov import mcsim
from riscov.analytic import SystemParams
mcsim._available_cpus = lambda: 1
cfg = mcsim.McConfig(trials=20_000, seed=1, params=SystemParams.default(lambda_t=1e-6, p=0.9))
mcsim.simulate_sinr(cfg, "nearest")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
mcsim.simulate_sinr(cfg, "nearest")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts page faults under glibc")
def test_blocks_keep_their_freed_temporaries_mapped():
    """In a fresh process, a repeated sparse point at N = 32 takes few page faults.

    Its six blocks run in one pooled workspace, so none allocates arrays of
    its interferer count.  Blocks that allocated and freed a few MB each, on a
    heap that hands them back to the OS, took about 1400 faults a block.
    """
    src = Path(mcsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _REPEAT_SPARSE_POINT], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    assert int(proc.stdout) < 1000


def test_a_warm_call_allocates_little(monkeypatch):
    """After a warm-up call, a dense-point call on two threads peaks below 3 MB traced.

    At the benchmark's dense point (lambda 1e-3, -24 dBm, surface on), its
    blocks of 3 trials chain about 118k float32 interferer weights per group
    in pooled workspaces.  The warm-up's first two blocks overlap, so the pool
    holds a workspace for each thread.  With fresh arrays for those chains the
    peak was 5.7 MB on two threads, and 8.4 MB with the freed array that once
    raised glibc's trim threshold.
    """
    use_cpus(monkeypatch, 2)
    cfg = make_config(trials=60, seed=3, lambda_t=1e-3, p_tx_w=dbm_to_watts(-24.0))
    original, barrier, entered = mcsim._block_sinr, threading.Barrier(2, timeout=30), []

    def overlapping(*args):
        entered.append(None)
        if len(entered) <= 2:
            barrier.wait()      # both threads hold a workspace at once
        return original(*args)

    monkeypatch.setattr(mcsim, "_block_sinr", overlapping)
    simulate_sinr(cfg, "fixed", forced_ris=True)
    monkeypatch.setattr(mcsim, "_block_sinr", original)
    assert traced_peak(simulate_sinr, cfg, "fixed", True) < 3_000_000


def test_a_warm_nearest_point_allocates_little(monkeypatch):
    """After a warm-up call, a sparse nearest-association point on one thread peaks below 2 MB.

    At lambda 1e-6, p = 0.9 and 0 dBm, its blocks of 3337 trials chain about
    258k interferers in a pooled workspace.  The float64 copy that
    np.add.reduceat(dtype=np.float64) made of each group took the peak to
    2.45 MB; the two float32 radius bounds np.repeat spreads over the
    interferers, 1 MB each, are what is left.
    """
    use_cpus(monkeypatch, 1)
    cfg = make_config(trials=20_000, seed=1, lambda_t=1e-6, p=0.9)
    simulate_sinr(cfg, "nearest")
    assert traced_peak(simulate_sinr, cfg, "nearest") < 2_000_000


def test_reused_workspaces_never_reach_the_samples(monkeypatch):
    """Samples own their memory, and a workspace other runs dirtied and grew gives the same bits.

    Between two runs of one configuration, the pool serves another N, alpha
    and strategy, then lambda = 1e-2 in a 2.3 km window, whose one-trial
    blocks of about 166k surface-bearing interferers need larger workspaces.
    """
    monkeypatch.setattr(mcsim, "_IDLE_WORKSPACES", [])
    first = make_config(trials=300, seed=41, window=1000.0)
    kept = simulate_sinr(first, "fixed", forced_ris=True)
    copy = kept.sorted_samples.copy()

    def largest_workspace() -> int:
        return max(ws._buf.nbytes for ws in mcsim._IDLE_WORKSPACES)

    before = largest_workspace()
    base = SystemParams.default(n_elements=8)
    other = dataclasses.replace(first, params=dataclasses.replace(
        base, path=dataclasses.replace(base.path, alpha=4.0)))
    simulate_sinr(other, "nearest")
    simulate_sinr(make_config(trials=300, seed=42, window=1000.0, p=0.8), "fixed", False)
    assert largest_workspace() == before
    dense = make_config(trials=2, seed=43, window=2300.0, lambda_t=1e-2, p=1.0)
    assert mcsim._block_plan(dense) == [1, 1]
    simulate_sinr(dense, "fixed", forced_ris=True)
    assert largest_workspace() > before
    assert np.array_equal(kept.sorted_samples, copy)
    assert np.array_equal(simulate_sinr(first, "fixed", forced_ris=True).sorted_samples, copy)


def test_float32_phase_trig_matches_float64():
    """For the same float32 phases, float32 cos/sin move each element sum by < 1e-6 of sum(amp)."""
    rng = np.random.default_rng(13)
    amp = mcsim._element_amplitudes(rng, FadingParams(m_h=1.0, m_r=1.0), 32, 20_000,
                                    mcsim._Workspace())
    phase = rng.random(amp.shape, dtype=np.float32) * np.float32(2.0 * math.pi)
    assert np.cos(phase).dtype == np.float32
    bound = 1e-6 * amp.sum(axis=1)
    wide = phase.astype(np.float64)
    for trig in (np.cos, np.sin):
        gap = np.abs((amp * trig(phase)).sum(axis=1) - (amp * trig(wide)).sum(axis=1))
        assert np.all(gap <= bound), trig


# ---------------------------------------------------------------------------
# interference kernel
# ---------------------------------------------------------------------------

# empty trials first, in the middle and last; the "spread" block's window, 477 rows,
# is the largest and fits the test table's 512-row pad
KERNEL_COUNTS = {
    "spread": ([0, 37, 0, 0, 120, 5, 0], [0, 0, 64, 0, 1, 250, 0]),
    "surface-free only": ([0, 9, 0, 30, 0], [0, 0, 0, 0, 0]),
    "all empty": ([0, 0, 0, 0], [0, 0, 0, 0]),
}


def built_table(n_elements: int, fading: FadingParams, rows: int) -> np.ndarray:
    """The fading table _get_table returns, built without its cache file."""
    return mcsim._table_columns(mcsim._table_root(n_elements, fading), n_elements, fading, rows)


@pytest.fixture(scope="module")
def kernel_columns():
    return built_table(4, FadingParams(m_h=2.0, m_r=2.0), (1 << 12) + (1 << 9))


@pytest.fixture
def kernel_table(monkeypatch, kernel_columns):
    """A table of 4096 window starts and a 512-row pad."""
    monkeypatch.setattr(mcsim, "_TABLE_ROWS", 1 << 12)
    return kernel_columns


def kernel_inputs(alpha: float, bounds: str, n_trials: int):
    """Params at alpha, and fixed (scalar) or nearest (per-trial) squared-radius bounds."""
    base = SystemParams.default(lambda_t=1e-3)
    params = dataclasses.replace(base, path=dataclasses.replace(base.path, alpha=alpha))
    rw2 = 400.0**2
    if bounds == "fixed":
        return params, 0.0, rw2
    d2 = rw2 * np.random.default_rng(77).random(n_trials) ** 2
    return params, d2, rw2 - d2


def kernel_and_oracle(table, alpha, bounds, k_non, k_ris):
    k_non, k_ris = np.array(k_non), np.array(k_ris)
    n = k_non.size
    params, low2, span2 = kernel_inputs(alpha, bounds, n)
    rng_kernel, rng_oracle = np.random.default_rng(5), np.random.default_rng(5)
    got = mcsim._interference(rng_kernel, table, params, n, k_ris, k_non, low2, span2,
                              mcsim._Workspace())
    want = interference_by_fsum(rng_oracle, table, params, n, k_ris, k_non, low2, span2)
    assert rng_kernel.random() == rng_oracle.random()       # same draws consumed
    return got, want


@pytest.mark.parametrize("alpha", [2.5, 4.0, 3.0])
@pytest.mark.parametrize("bounds", ["fixed", "nearest"])
@pytest.mark.parametrize("case", list(KERNEL_COUNTS))
def test_interference_matches_fsum_oracle(kernel_table, alpha, bounds, case):
    """Per-trial sums within 1e-12 of exactly rounded sums; empty trials are exactly zero."""
    k_non, k_ris = KERNEL_COUNTS[case]
    got, want = kernel_and_oracle(kernel_table, alpha, bounds, k_non, k_ris)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    empty = (np.array(k_non) + np.array(k_ris)) == 0
    assert np.all(got[empty] == 0.0) and np.all(got[~empty] > 0.0)


@pytest.mark.parametrize("n_non,n_ris", [(37, 120), (200, 100), (0, 50), (50, 0)])
def test_block_groups_read_disjoint_rows(monkeypatch, n_non, n_ris):
    """One window start per block: the surface-free group reads its first rows, the
    surface group the next, one contiguous run inside the table.

    Column |g|^2 holds row index + 1 and the others zero; at unit gain and unit
    distance each one-interferer trial's sum is the index + 1 of the row it read.
    """
    size, pad = 4096, 1 << 9
    monkeypatch.setattr(mcsim, "_TABLE_ROWS", size)
    table = np.zeros((mcsim._TABLE_COLUMNS, size + pad), np.float32)
    table[0] = np.arange(1, size + pad + 1)
    base = SystemParams.default()
    params = dataclasses.replace(base, path=dataclasses.replace(base.path, c_d=1.0))
    n = n_non + n_ris
    k_non = np.array([1] * n_non + [0] * n_ris)
    got = mcsim._interference(np.random.default_rng(9), table, params, n, 1 - k_non, k_non,
                              1.0, 0.0, mcsim._Workspace())
    rows = got.astype(int) - 1
    assert np.array_equal(rows + 1, got)
    assert rows[0] == np.random.default_rng(9).integers(0, size)   # the block's first draw
    assert np.all(np.diff(rows) == 1)
    assert rows[-1] < size + pad


def test_a_window_past_the_table_end_raises(kernel_table):
    """A block whose window runs past the table's end raises, whatever the group sizes.

    From the last start, 4095, the 4608-row table holds 513 rows, and 512
    surface-free plus 5 surface interferers need 517: the surface group's
    slice would keep one row, which would broadcast over all five.
    """
    rng = np.random.default_rng(3)

    class LastStart:
        def __getattr__(self, name):
            return getattr(rng, name)

        def integers(self, low, high):
            return high - 1

    params, low2, span2 = kernel_inputs(2.5, "fixed", 2)
    for k_non, k_ris in (([512, 0], [0, 5]), ([513, 0], [0, 5]), ([0, 0], [0, 514])):
        with pytest.raises(ValueError, match="from row 4095 overrun the 4608-row fading table"):
            mcsim._interference(LastStart(), kernel_table, params, 2, np.array(k_ris),
                                np.array(k_non), low2, span2, mcsim._Workspace())


@pytest.mark.parametrize("alpha", [2.5, 4.0, 3.0])
@pytest.mark.parametrize("bounds", ["fixed", "nearest"])
@pytest.mark.parametrize("surface", [False, True])
@pytest.mark.parametrize("n_trials", [100, 400])
def test_one_interferer_trials_match_oracle_bitwise(kernel_table, alpha, bounds, surface,
                                                    n_trials):
    """A one-term sum is exact, so each per-interferer weight must equal the oracle's."""
    ones, zeros = [1] * n_trials, [0] * n_trials
    k_non, k_ris = (zeros, ones) if surface else (ones, zeros)
    got, want = kernel_and_oracle(kernel_table, alpha, bounds, k_non, k_ris)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_weights,n_trials", [(1, 1), (5000, 40), (100_000, 7),
                                                (1 << 18, 2), (1 << 18, 3000)])
def test_trial_sums_in_spare_rows_match_a_float64_reduceat(n_weights, n_trials):
    """The float64 sums over spare workspace rows are np.add.reduceat(w, dtype=np.float64)'s bits.

    Weights are float32 from 1e-30 to 1e3; the first, a middle and the last
    trial are empty; 100k weights in 7 trials and 2^18 in 2 make segments
    longer than numpy's 8192-entry buffer.
    """
    rng = np.random.default_rng(n_weights + n_trials)
    w = (10.0 ** rng.uniform(-30.0, 3.0, n_weights)).astype(np.float32)
    counts = rng.multinomial(n_weights, np.full(n_trials, 1.0 / n_trials))
    counts = np.insert(counts, [0, n_trials // 2, n_trials], 0)
    filled = counts > 0
    starts = (np.cumsum(counts) - counts)[filled]
    total = np.zeros(counts.size)
    mcsim._add_trial_sums(total, w, counts, np.full((2, n_weights), np.nan, np.float32))
    assert np.array_equal(total[filled], np.add.reduceat(w, starts, dtype=np.float64))
    assert not total[~filled].any()


# ---------------------------------------------------------------------------
# fading table
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_tables():
    """An empty in-process table cache, emptied again after the test."""
    mcsim._get_table.cache_clear()
    yield
    mcsim._get_table.cache_clear()


def only_cached_table(cfg: McConfig) -> np.ndarray:
    """The one table the in-process cache holds, the one simulate_sinr(cfg) read."""
    info = mcsim._get_table.cache_info()
    assert info.currsize == 1
    table = mcsim._get_table(cfg.params.n_elements, cfg.params.fading,
                             mcsim._TABLE_ROWS + mcsim._table_pad(cfg))
    assert mcsim._get_table.cache_info().misses == info.misses     # a hit, not a new table
    return table


def small_chunk_table(monkeypatch, cpus, rows=4096 + 5000):
    """N = 4 table in chunks of 1024 rows: 9 chunks, the last one partial."""
    monkeypatch.setattr(mcsim, "_TABLE_CHUNK_ELEMENTS", 4096)
    use_cpus(monkeypatch, cpus)
    return built_table(4, FadingParams(m_h=1.5, m_r=2.5), rows)


def test_table_is_the_same_for_any_worker_count(monkeypatch):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        serial = small_chunk_table(monkeypatch, 1)
        for cpus in (2, 3, 12):
            assert np.array_equal(small_chunk_table(monkeypatch, cpus), serial), cpus
    finally:
        sys.setswitchinterval(interval)
    assert serial.dtype == np.float32 and serial.shape == (4, 4096 + 5000)
    for col in serial:
        # no chunk repeats another's draws (the partial last chunk has 904 rows)
        heads = [col[lo:lo + 904] for lo in range(0, col.size, 1024)]
        assert not any(np.array_equal(a, b) for i, a in enumerate(heads) for b in heads[:i])


def test_table_rows_do_not_depend_on_its_length(monkeypatch):
    """A chunk the table's end cuts short is drawn whole, so a shorter table is a prefix."""
    long = small_chunk_table(monkeypatch, 2)        # its last chunk holds 904 of 1024 rows
    for rows in (8096, 4796, 1000):
        assert np.array_equal(small_chunk_table(monkeypatch, 2, rows), long[:, :rows]), rows


def test_interferer_power_samples_combine_a_table_head(monkeypatch):
    """sample_interferer_power cuts its last chunk from a whole draw, as every table does.

    Its samples are the interference kernel's combination of the first n rows
    of a longer table from the same root; n = 2500 cuts the third 1024-row chunk.
    """
    monkeypatch.setattr(mcsim, "_TABLE_CHUNK_ELEMENTS", 4096)
    fading, n_elements, seed, n, step = FadingParams(m_h=1.5, m_r=2.5), 4, 17, 2500, 1024
    cols = mcsim._table_columns(np.random.SeedSequence(seed), n_elements, fading, n + step)
    eta_g, eta_h = 2e-3, 5e-4
    eta = np.full((2, n), [[eta_g], [eta_h]], dtype=np.float32)
    want = np.sort(mcsim._surface_interferer_power(*eta, *cols[:3, :n], np.empty(n, np.float32))
                   .astype(float))
    got = mcsim.sample_interferer_power(eta_g, eta_h, fading, n_elements, n, seed)
    assert got.sorted_samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("strategy", ["fixed", "nearest"])
def test_table_pad_holds_every_planned_window(strategy):
    """For lambda |W| from 1 to 1e6, the largest planned window plus 32 sigma fits the pad.

    A fixed-association trial reads all of its Poisson(lambda |W|) field
    points, a nearest-association one all but the serving point.  Up to
    lambda |W| = 2^18 every density shares one pad, so one table.
    """
    window = Window(5000.0)
    for mean in np.logspace(0.0, 6.0, 61):
        cfg = McConfig(trials=10_000, seed=1, window=window,
                       params=SystemParams.default(lambda_t=mean / window.area))
        per_trial = mean if strategy == "fixed" else mean - 1.0 + math.exp(-mean)
        rows = max(mcsim._block_plan(cfg)) * per_trial
        assert rows + 32.0 * math.sqrt(rows) <= mcsim._table_pad(cfg), mean
        if mean <= 1 << 18:
            assert mcsim._table_pad(cfg) == 2**18 + 2**14, mean


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
    small_chunk_table(monkeypatch, 64, rows=1024)
    assert len(sizes) == 2


def test_table_build_peak_memory(monkeypatch):
    """The N = 32 build on two threads holds the table plus two chunks' temporaries."""
    use_cpus(monkeypatch, 2)
    tracemalloc.start()
    try:
        table = built_table(32, FadingParams(m_h=2.0, m_r=2.0), (1 << 20) + (1 << 19))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = table.nbytes
    assert table_bytes == 4 * 4 * ((1 << 20) + (1 << 19))
    assert peak < 2 * table_bytes


def test_table_stream_is_keyed_on_exact_shapes():
    """Shapes 2.0 and 2.1 once shared a stream (the key was int(8 m))."""
    direct = [built_table(4, FadingParams(m_h, m_r), 8192)[0]
              for m_h, m_r in ((2.0, 2.0), (2.1, 2.0), (2.0, 2.1))]
    for i in range(3):
        for j in range(i):
            assert not np.array_equal(direct[i], direct[j]), (i, j)
    same = built_table(4, FadingParams(2, 2), 8192)[0]
    assert np.array_equal(same, direct[0])      # int and float shapes agree


@pytest.mark.parametrize("n_elements", [4, 32])
def test_table_columns_meet_moment_identities(n_elements):
    """E|g|^2 = 1, E|T|^2 = N, E[cross] = 0, E[cos phi] = 0, within 4 SE; |g|^2 is Exp(1).

    Surface-free interferers read |g|^2 as their Rayleigh power, so its whole
    law is checked, by a KS test.
    """
    table = built_table(n_elements, FadingParams(m_h=1.5, m_r=2.5), 1 << 17)
    for c, expect in enumerate((1.0, float(n_elements), 0.0, 0.0)):
        col = table[c].astype(np.float64)
        se = col.std() / math.sqrt(col.size)
        assert abs(col.mean() - expect) <= 4.0 * se, (c, col.mean(), se)
    assert stats.kstest(table[0].astype(np.float64), "expon").pvalue > 0.01


def test_replica_spread_matches_binomial_width(monkeypatch, fresh_tables):
    """Coverage estimates of replicas with their own tables spread like binomials.

    Each replica reuses every row of its table about six times (314
    interferers a trial, 10k trials, 528k rows); the replica variance of the
    coverage estimate must sit inside the two-sided 1e-3 chi-square band of
    p (1 - p) / trials.
    """
    replicas, trials = 30, 10_000
    params = SystemParams.default(lambda_t=4e-4, n_elements=2)
    monkeypatch.setattr(mcsim, "_TABLE_ROWS", 4096)
    estimates = []
    for r in range(replicas):
        monkeypatch.setattr(mcsim, "_TABLE_ENTROPY", 0x51DE + r)
        mcsim._get_table.cache_clear()
        cfg = McConfig(trials=trials, seed=3100 + r, params=params, window=Window(500.0))
        estimates.append(estimate_coverage(simulate_sinr(cfg, "fixed", forced_ris=False),
                                           0.25)[0])
        rows = only_cached_table(cfg).shape[1]
        assert trials * params.lambda_t * cfg.window.area >= 5 * rows
    estimates = np.asarray(estimates)
    prob = estimates.mean()
    assert 0.2 < prob < 0.8
    stat = (replicas - 1) * estimates.var(ddof=1) / (prob * (1.0 - prob) / trials)
    low, high = stats.chi2.ppf([5e-4, 1.0 - 5e-4], replicas - 1)
    assert low < stat < high, stat


# ---------------------------------------------------------------------------
# fading-table disk cache
# ---------------------------------------------------------------------------

@pytest.fixture
def table_cache(tmp_path, monkeypatch, fresh_tables):
    """An empty cache directory, an empty in-process cache and small (N = 4) tables."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "home"))
    monkeypatch.setattr(mcsim, "_CACHE_WARNED", False)
    monkeypatch.setattr(mcsim, "_TABLE_ROWS", 4096)
    return tmp_path / "home" / "riscov"


def small_cached_config() -> McConfig:
    return make_config(trials=400, seed=11, window=300.0, n_elements=4, lambda_t=1e-3)


def cached_files(cache_dir) -> set:
    return set(cache_dir.glob("*"))


def stored_table(n_elements: int, fading: FadingParams, rows: int) -> np.ndarray:
    """_get_table's table from the cache file, or built and saved there: never from memory."""
    mcsim._get_table.cache_clear()
    return mcsim._get_table(n_elements, fading, rows)


def table_messages(caplog) -> list[str]:
    messages = (r.getMessage() for r in caplog.records)
    return [m for m in messages if m.startswith("fading table N=")]


def test_table_cache_cold_then_warm_gives_identical_samples(table_cache, caplog):
    cfg = small_cached_config()
    with caplog.at_level(logging.INFO, logger="riscov"):
        cold = simulate_sinr(cfg, "fixed", forced_ris=True).sorted_samples
        (path,) = cached_files(table_cache)
        mcsim._get_table.cache_clear()
        warm = simulate_sinr(cfg, "fixed", forced_ris=True).sorted_samples
    built, loaded = table_messages(caplog)
    assert built.startswith("fading table N=4 built in ") and built.endswith(f"saved to {path}")
    assert loaded.startswith(f"fading table N=4 loaded from {path} in ")
    assert cold.tobytes() == warm.tobytes()
    table = only_cached_table(cfg)
    rows = table.shape[1]
    assert table.tobytes() == built_table(4, cfg.params.fading, rows).tobytes()
    assert path.stat().st_size == 4 * 4 * rows + 32
    assert oct(path.parent.stat().st_mode & 0o777) == "0o700"


def test_table_cache_rebuilds_a_damaged_file(table_cache, caplog):
    fading = FadingParams(m_h=2.0, m_r=2.0)
    good = stored_table(4, fading, 8192)
    (path,) = cached_files(table_cache)
    saved = path.read_bytes()

    def flipped(offset: int) -> bytes:
        raw = bytearray(saved)
        raw[offset] ^= 0x01
        return bytes(raw)

    # the file is the raw float32 columns followed by their sha256
    damaged = {"first byte": flipped(0), "column byte": flipped(4 * 5000),
               "digest byte": flipped(len(saved) - 1), "truncated": saved[:-40],
               "overlong": saved + b"\0"}
    for case, raw in damaged.items():
        path.write_bytes(raw)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="riscov"):
            again = stored_table(4, fading, 8192)
        assert [m.split(" in ")[0] for m in table_messages(caplog)] == [
            "fading table N=4 built"], case
        assert again.tobytes() == good.tobytes()
        assert path.read_bytes() == saved
        assert cached_files(table_cache) == {path}      # no temporary file left


def test_table_cache_rebuilds_when_chunk_zero_is_not_the_seeded_draw(table_cache, caplog):
    """A file whose digest holds but whose chunk 0 another numpy or CPU would draw."""
    fading = FadingParams(m_h=2.0, m_r=2.0)
    good = stored_table(4, fading, 8192)
    (path,) = cached_files(table_cache)
    other = good.copy()
    other[1, 7] = np.nextafter(other[1, 7], np.float32(np.inf))
    path.write_bytes(other.tobytes() + hashlib.sha256(other).digest())
    with caplog.at_level(logging.INFO, logger="riscov"):
        again = stored_table(4, fading, 8192)
    assert [m.split(" in ")[0] for m in table_messages(caplog)] == ["fading table N=4 built"]
    assert again.tobytes() == good.tobytes()


def test_table_cache_in_an_uncreatable_place_still_runs(table_cache, tmp_path, monkeypatch,
                                                        caplog):
    cfg = small_cached_config()
    expect = simulate_sinr(cfg, "fixed", forced_ris=True).sorted_samples
    mcsim._get_table.cache_clear()
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    with caplog.at_level(logging.INFO, logger="riscov"):
        got = simulate_sinr(cfg, "fixed", forced_ris=True).sorted_samples
        stored_table(4, FadingParams(m_h=2.0, m_r=3.0), 128)
    assert got.tobytes() == expect.tobytes()
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and warnings[0].startswith("fading tables are not cached")
    assert all(m.endswith("saved to nowhere") for m in table_messages(caplog))
    assert blocker.read_text() == ""


def test_table_cache_file_is_keyed_on_every_input_of_the_bits(table_cache, tmp_path,
                                                               monkeypatch):
    base = dict(n_elements=4, fading=FadingParams(m_h=2.0, m_r=2.0), rows=128)

    def file_of(**changes) -> set:
        before = cached_files(table_cache)
        stored_table(**{**base, **changes})
        return cached_files(table_cache) - before

    (first,) = file_of()
    assert file_of() == set()                     # the same key finds the same file
    after_two = np.nextafter(2.0, 3.0)
    changes = {"N": dict(n_elements=5),
               "m_h": dict(fading=FadingParams(m_h=after_two, m_r=2.0)),
               "m_r": dict(fading=FadingParams(m_h=2.0, m_r=after_two)),
               "rows": dict(rows=129)}
    names = {first}
    for field_name, change in changes.items():
        moved = file_of(**change)
        assert len(moved) == 1, field_name
        names |= moved
    source = tmp_path / "mcsim.py"
    source.write_bytes(Path(mcsim.__file__).read_bytes() + b"\n")
    patches = {"_TABLE_ENTROPY": (mcsim, "_TABLE_ENTROPY", mcsim._TABLE_ENTROPY + 1),
               "_TABLE_CHUNK_ELEMENTS": (mcsim, "_TABLE_CHUNK_ELEMENTS", 1 << 12),
               "numpy version": (np, "__version__", np.__version__ + ".other"),
               "mcsim source": (mcsim, "__file__", str(source))}
    for field_name, (target, attr, value) in patches.items():
        with monkeypatch.context() as m:
            m.setattr(target, attr, value)
            moved = file_of()
        assert len(moved) == 1, field_name
        names |= moved
    assert len(names) == 1 + len(changes) + len(patches)


def test_table_cache_deletes_tables_unused_for_a_week(table_cache):
    """Saving a table deletes cached tables whose mtime is a week old; a load refreshes it."""
    fading = FadingParams(m_h=2.0, m_r=2.0)
    stored_table(4, fading, 128)
    (used,) = cached_files(table_cache)
    now, week = time.time(), 7 * 86400
    stale = table_cache / "fading-n32-stale.f32"
    recent = table_cache / "fading-n32-recent.f32"
    unrelated = table_cache / "notes.txt"
    stuck = table_cache / "fading-n8-stuck.f32"      # unlink fails on a directory
    stuck.mkdir()
    for path, age in ((stale, week + 60), (recent, week - 3600), (unrelated, 2 * week),
                      (stuck, 2 * week), (used, 2 * week)):
        if not path.exists():
            path.write_bytes(b"")
        os.utime(path, (now - age, now - age))
    stored_table(4, fading, 128)        # a load: refreshed, nothing deleted
    assert used.stat().st_mtime >= now - 60
    assert stale.exists()
    stored_table(4, fading, 129)        # a save deletes the stale table
    (saved,) = cached_files(table_cache) - {used, stale, recent, unrelated, stuck}
    assert cached_files(table_cache) == {used, recent, unrelated, stuck, saved}


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
