"""Ground-truth Monte Carlo simulator of the typical user's SINR.

Every trial draws a fresh cluster field and full small-scale fading, builds
the coherent serving power and the aggregate interference with the true
geometry (no distance shortcuts), and records SINR = S / (I + 1/gamma_t).

Implementation notes, all distribution-preserving:

* Only distances to the origin matter, so cluster geometry is sampled
  radially: parent squared radii are uniform on (0, R^2) and a surface
  offset enters through the law d_r^2 = r^2 + d0^2 + 2 r d0 cos(phi) with
  phi uniform.  This is exactly the law of distances in a coordinate
  sample of the cluster field (each transmitter uniform on the disk, its
  surface d0 away in a uniform direction); tests/oracles.py holds such a
  sampler and the tests compare the two.
* Interferer fading is expensive (per-element Nakagami magnitudes and
  uniform phases for every surface-bearing interferer), so it is drawn once
  into a large seeded table of per-cluster composites
  (|g|^2, |T|^2, 2 Re(g T*)) and each interferer consumes one fresh row of
  the table; rows inside a trial are distinct.  The marginal law of each
  composite is the full per-element one; no Gaussian shortcut is taken.
  The serving link never uses the table.
* The table is built on the thread pool in fixed chunks, chunk k seeded by
  child k of a root of fixed entropy and (N, m_h, m_r): one table for any
  worker count and, as the root ignores McConfig.seed, for every seed and
  sweep point of a process.  Float32 phases and cos/sin move an element sum
  by about 1e-7 of its amplitude sum, below the table's float32 rounding.
* Trials are grouped into blocks with independent child seeds, run on threads
  sharing one table and joined in plan order: samples ignore the worker count.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analytic import SystemParams
from .fading import FadingParams
from .geometry import Window

__all__ = [
    "McConfig",
    "EmpiricalDistribution",
    "simulate_sinr",
    "estimate_coverage",
    "estimate_rate",
    "sample_signal_power",
    "sample_interferer_power",
]

log = logging.getLogger(__name__)

_F32 = np.float32
_R2_FLOOR = _F32(1e-6)      # 1 mm^2; keeps float32 path-gain finite
_POOL_PAD_MIN = 1 << 19
# elements of one block of per-element draws (see _element_amplitudes)
_DRAW_BLOCK = 1 << 16
_BLOCK_TARGET_ROWS = 1 << 18
_MAX_BLOCK_TRIALS = 8192
_TABLE_ENTROPY = 0x9B5C_17AD
_TABLE_CHUNK_ELEMENTS = 1 << 20


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class McConfig:
    """Simulation control: trial count, seed, observation window, scenario."""

    trials: int
    seed: int
    params: SystemParams
    window: Window = field(default_factory=lambda: Window(5000.0))
    pool_size: int = 1 << 20
    workers: int = field(default_factory=_available_cpus)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trial count must be at least 1, got {self.trials}")
        if self.pool_size < 1 << 12:
            raise ValueError("fading table must hold at least 4096 rows")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted Monte Carlo samples with CCDF/quantile/confidence queries."""

    sorted_samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sorted_samples, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("need a non-empty 1-D sample array")
        if np.any(np.diff(s) < 0.0):
            raise ValueError("samples must be sorted ascending")

    @property
    def n(self) -> int:
        return int(self.sorted_samples.size)

    def ccdf(self, x) -> np.ndarray | float:
        """Fraction of samples strictly above x."""
        pos = np.searchsorted(self.sorted_samples, x, side="right")
        out = (self.n - pos) / self.n
        return float(out) if np.isscalar(x) else out

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.sorted_samples, q))

    def ci_halfwidth(self, prob: float) -> float:
        """95% binomial half-width for an empirical probability estimate."""
        return 1.96 * math.sqrt(max(prob * (1.0 - prob), 0.0) / self.n)


# ---------------------------------------------------------------------------
# Fading table
# ---------------------------------------------------------------------------

class _FadingTable:
    """Seeded per-cluster fading composites for randomly phased interferers.

    Row j holds (|g|^2, |T|^2, 2 Re(g T*)) for one draw of a Rayleigh direct
    coefficient g and a randomly phased element sum T, plus an independent
    exponential for surface-free interferers and an independent cos(phi) for
    the surface-offset geometry.
    """

    def __init__(self, n_elements: int, fading: FadingParams, size: int, pad: int,
                 workers: int = 1):
        total = size + pad
        self.size = size
        self.pad = pad
        # the exact float bits key the stream, so every (m_h, m_r) gets its own
        key = [n_elements, *np.float64([fading.m_h, fading.m_r]).view(np.uint64).tolist()]
        root = np.random.SeedSequence(entropy=_TABLE_ENTROPY, spawn_key=key)
        step = max(1, _TABLE_CHUNK_ELEMENTS // n_elements)
        cols = np.empty((5, total), dtype=_F32)
        starts = range(0, total, step)
        chunks = [(cols[:, lo:lo + step], child, n_elements, fading)
                  for lo, child in zip(starts, root.spawn(len(starts)))]
        _run_jobs(_fill_table_chunk, chunks, workers)
        self.mag2_direct, self.mag2_scatter, self.cross, self.exp_direct, self.cos_offset = cols


def _fill_table_chunk(args) -> None:
    """Draw the five table columns of one chunk into out from the chunk's own seed."""
    out, seed, n_elements, fading = args
    rng = np.random.default_rng(seed)
    rows = out.shape[1]
    g = rng.standard_normal((2, rows)) * math.sqrt(0.5)
    t_re, t_im = _random_phase_sum(rng, fading, n_elements, rows)
    out[0] = g[0] ** 2 + g[1] ** 2
    out[1] = t_re**2 + t_im**2
    out[2] = 2.0 * (g[0] * t_re + g[1] * t_im)
    out[3] = rng.standard_exponential(rows)
    out[4] = np.cos(rng.uniform(0.0, 2.0 * math.pi, rows))


_TABLE_CACHE: dict[tuple, _FadingTable] = {}


def _get_table(n_elements: int, fading: FadingParams, size: int, pad: int,
               workers: int = 1) -> _FadingTable:
    key = (n_elements, float(fading.m_h), float(fading.m_r), int(size), int(pad))
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = _FadingTable(n_elements, fading, size, pad, workers)
        _TABLE_CACHE[key] = tab
    return tab


def _run_jobs(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], on min(workers, len(jobs)) threads when that exceeds one."""
    threads = min(workers, len(jobs))
    if threads > 1:
        # numpy's random fills and ufuncs release the GIL, so jobs overlap
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, jobs))
    return [fn(j) for j in jobs]


# ---------------------------------------------------------------------------
# Per-element fading
# ---------------------------------------------------------------------------

def _element_amplitudes(rng, fading: FadingParams, n_elements: int, rows: int) -> np.ndarray:
    """(rows, N) products sqrt(Gamma(m_h)) sqrt(Gamma(m_r)) of unit-power Nakagami hops.

    Later per-element draws, here and in _random_phase_sum, come a block of
    rows at a time: the stream is that of one (rows, N) draw, and the result
    is the only (rows, N) array alive.
    """
    amp = rng.gamma(fading.m_h, 1.0 / fading.m_h, (rows, n_elements))
    np.sqrt(amp, out=amp)
    step = max(1, _DRAW_BLOCK // n_elements)
    for lo in range(0, rows, step):
        block = amp[lo:lo + step]
        block *= np.sqrt(rng.gamma(fading.m_r, 1.0 / fading.m_r, block.shape))
    return amp


def _random_phase_sum(rng, fading: FadingParams, n_elements: int,
                      rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the element sum under independent uniform phases."""
    amp = _element_amplitudes(rng, fading, n_elements, rows)
    out = np.empty((2, rows))
    step = max(1, _DRAW_BLOCK // n_elements)
    for lo in range(0, rows, step):
        block = amp[lo:lo + step]
        phase = rng.random(block.shape, dtype=_F32)
        phase *= _F32(2.0 * math.pi)
        out[0, lo:lo + step] = (block * np.cos(phase)).sum(axis=1)
        out[1, lo:lo + step] = (block * np.sin(phase)).sum(axis=1)
    return out[0], out[1]


def _coherent_signal(rng, fading: FadingParams, n_elements: int, eta_g0, eta_h0,
                     rows: int) -> np.ndarray:
    """Surface-assisted serving power with aligned phases (fresh fading).

    eta_g0 and eta_h0 are scalars or arrays of length rows.
    """
    g0 = np.sqrt(rng.standard_exponential(rows))
    elem = _element_amplitudes(rng, fading, n_elements, rows).sum(axis=1)
    return (np.sqrt(eta_g0) * g0 + np.sqrt(eta_h0) * elem) ** 2


# ---------------------------------------------------------------------------
# Vectorized kernels
# ---------------------------------------------------------------------------

def _pow_neg_half_alpha(x2: np.ndarray, alpha: float) -> np.ndarray:
    """x2^(-alpha/2) with square-root chains for the common exponents."""
    if alpha == 2.5:
        return 1.0 / (x2 * np.sqrt(np.sqrt(x2)))
    if alpha == 3.0:
        return 1.0 / (x2 * np.sqrt(x2))
    if alpha == 3.5:
        r = np.sqrt(x2)
        return 1.0 / (x2 * r * np.sqrt(r))
    if alpha == 4.0:
        return 1.0 / (x2 * x2)
    return np.power(x2, _F32(-0.5 * alpha))


def _interference(rng, tab: _FadingTable, params: SystemParams, n_trials: int,
                  k_ris: np.ndarray, k_non: np.ndarray,
                  low2: np.ndarray | float, span2: np.ndarray | float) -> np.ndarray:
    """Aggregate interference per trial from group row counts.

    Parent squared radii are uniform on (low2, low2 + span2) per trial;
    scalars broadcast.  Returns float64 sums of length n_trials.
    """
    pl = params.path
    alpha = pl.alpha
    d0 = pl.d0
    total = np.zeros(n_trials)
    scalar_bounds = np.isscalar(span2)

    def radii2(counts: np.ndarray, m: int) -> np.ndarray:
        u = rng.random(m, dtype=_F32)
        if scalar_bounds:
            r2 = _F32(span2) * u
            if low2 != 0.0:
                r2 += _F32(low2)
        else:
            r2 = np.repeat(span2.astype(_F32), counts) * u
            r2 += np.repeat(low2.astype(_F32), counts)
        return np.maximum(r2, _R2_FLOOR)

    def rows(counts: np.ndarray, m: int):
        """Contiguous table window of m fresh rows (wraps only when oversized)."""
        s = int(rng.integers(0, tab.size))
        if m <= tab.pad:
            return slice(s, s + m)
        return (s + np.arange(m)) % tab.size

    n_non = int(k_non.sum())
    if n_non:
        r2 = radii2(k_non, n_non)
        sl = rows(k_non, n_non)
        w = _F32(pl.c_d) * tab.exp_direct[sl] * _pow_neg_half_alpha(r2, alpha)
        tid = np.repeat(np.arange(n_trials), k_non)
        total += np.bincount(tid, weights=w, minlength=n_trials)

    n_ris = int(k_ris.sum())
    if n_ris:
        r2 = radii2(k_ris, n_ris)
        sl = rows(k_ris, n_ris)
        eta_g = _F32(pl.c_d) * _pow_neg_half_alpha(r2, alpha)
        d_r2 = r2 + _F32(d0 * d0) + _F32(2.0 * d0) * np.sqrt(r2) * tab.cos_offset[sl]
        d_r2 = np.maximum(d_r2, _R2_FLOOR)
        eta_h = _F32(pl.c_r) * _pow_neg_half_alpha(_F32(d0 * d0) * d_r2, alpha)
        w = (eta_g * tab.mag2_direct[sl] + eta_h * tab.mag2_scatter[sl]
             + np.sqrt(eta_g * eta_h) * tab.cross[sl])
        tid = np.repeat(np.arange(n_trials), k_ris)
        total += np.bincount(tid, weights=w, minlength=n_trials)
    return total


def _block_fixed(rng, tab, params: SystemParams, window: Window,
                 forced_ris: bool, n_trials: int) -> np.ndarray:
    area = window.area
    rw2 = window.radius**2
    if forced_ris:
        s = _coherent_signal(rng, params.fading, params.n_elements,
                             params.eta_g0, params.eta_h0, n_trials)
    else:
        s = params.eta_g0 * rng.standard_exponential(n_trials)
    counts = rng.poisson(params.lambda_t * area, n_trials)
    k_ris = rng.binomial(counts, params.p)
    i_tot = _interference(rng, tab, params, n_trials, k_ris, counts - k_ris,
                          0.0, rw2)
    return s / (i_tot + params.gamma_t_inv)


def _block_nearest(rng, tab, params: SystemParams, window: Window,
                   n_trials: int) -> np.ndarray:
    pl = params.path
    area = window.area
    rw2 = window.radius**2
    counts = rng.poisson(params.lambda_t * area, n_trials)
    occupied = counts > 0
    if not np.all(occupied):
        log.warning("%d trials drew an empty field; scoring them as zero SINR",
                    int((~occupied).sum()))
    k = np.maximum(counts, 1)
    # squared distance to the nearest of k uniform points on the disk
    with np.errstate(divide="ignore"):
        d2 = rw2 * (-np.expm1(np.log(rng.random(n_trials)) / k))
    served_ris = rng.random(n_trials) < params.p
    eta_g0 = pl.c_d * d2 ** (-0.5 * pl.alpha)
    signal = np.empty(n_trials)
    idx_r = np.flatnonzero(served_ris)
    idx_n = np.flatnonzero(~served_ris)
    if idx_r.size:
        cos_ofs = np.cos(rng.uniform(0.0, 2.0 * math.pi, idx_r.size))
        dr2 = d2[idx_r] + pl.d0**2 + 2.0 * pl.d0 * np.sqrt(d2[idx_r]) * cos_ofs
        eta_h0 = pl.c_r * (pl.d0**2 * dr2) ** (-0.5 * pl.alpha)
        signal[idx_r] = _coherent_signal(rng, params.fading, params.n_elements,
                                         eta_g0[idx_r], eta_h0, idx_r.size)
    if idx_n.size:
        signal[idx_n] = eta_g0[idx_n] * rng.standard_exponential(idx_n.size)
    rest = counts - 1
    np.clip(rest, 0, None, out=rest)
    k_ris = rng.binomial(rest, params.p)
    i_tot = _interference(rng, tab, params, n_trials, k_ris, rest - k_ris,
                          d2, rw2 - d2)
    sinr = signal / (i_tot + params.gamma_t_inv)
    sinr[~occupied] = 0.0
    return sinr


def _run_block(args) -> np.ndarray:
    (params, window, strategy, forced_ris, n_trials, child_seed,
     pool_size, pad) = args
    rng = np.random.default_rng(child_seed)
    tab = (_get_table(params.n_elements, params.fading, pool_size, pad)
           if params.lambda_t > 0.0 else None)
    if strategy == "fixed":
        return _block_fixed(rng, tab, params, window, forced_ris, n_trials)
    return _block_nearest(rng, tab, params, window, n_trials)


def _block_plan(config: McConfig) -> list[int]:
    rows_per_trial = max(config.params.lambda_t * config.window.area, 1.0)
    per_block = int(max(1, min(_MAX_BLOCK_TRIALS, _BLOCK_TARGET_ROWS // rows_per_trial)))
    sizes = [per_block] * (config.trials // per_block)
    if config.trials % per_block:
        sizes.append(config.trials % per_block)
    return sizes


def simulate_sinr(config: McConfig, strategy: str = "fixed",
                  forced_ris: bool | None = None) -> EmpiricalDistribution:
    """Simulate the typical user's SINR distribution.

    strategy "fixed" serves the user from the configured distance d_g0 (the
    surface, when forced_ris is true, sits at perpendicular offset d0);
    strategy "nearest" serves from the closest sampled transmitter and uses
    that cluster's own surface flag, so forced_ris must stay None.
    """
    if strategy not in ("fixed", "nearest"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "fixed" and forced_ris is None:
        raise ValueError("fixed association requires forced_ris True or False")
    if strategy == "nearest":
        if forced_ris is not None:
            raise ValueError("nearest association uses each cluster's own surface flag")
        if not config.params.lambda_t > 0.0:
            raise ValueError("nearest association requires a positive transmitter density")

    rows_per_trial = config.params.lambda_t * config.window.area
    pad = max(_POOL_PAD_MIN, int(3 * rows_per_trial) + 1024)
    if config.params.lambda_t > 0.0:
        # build (or fetch) the shared fading table before the threads start
        _get_table(config.params.n_elements, config.params.fading, config.pool_size, pad,
                   config.workers)
    sizes = _block_plan(config)
    children = np.random.SeedSequence(config.seed).spawn(len(sizes))
    jobs = [(config.params, config.window, strategy, forced_ris, n, child,
             config.pool_size, pad)
            for n, child in zip(sizes, children)]
    samples = np.concatenate(_run_jobs(_run_block, jobs, config.workers))
    samples.sort()
    return EmpiricalDistribution(samples)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def estimate_coverage(dist: EmpiricalDistribution, gamma_bar: float) -> tuple[float, float]:
    """Empirical P(SINR > gamma_bar) with its 95% binomial half-width."""
    if dist.n < 100:
        raise ValueError(f"need at least 100 samples, got {dist.n}")
    prob = float(dist.ccdf(gamma_bar))
    return prob, dist.ci_halfwidth(prob)


def estimate_rate(dist: EmpiricalDistribution) -> tuple[float, float]:
    """Sample mean of log2(1 + SINR) in bits/s/Hz with its 95% half-width."""
    if dist.n < 100:
        raise ValueError(f"need at least 100 samples, got {dist.n}")
    rates = np.log2(1.0 + dist.sorted_samples)
    mean = float(rates.mean())
    return mean, float(1.96 * rates.std(ddof=1) / math.sqrt(dist.n))


# ---------------------------------------------------------------------------
# Distribution-validation sampling (fresh per-element fading, no table)
# ---------------------------------------------------------------------------

def sample_signal_power(eta_g0: float, eta_h0: float, fading, n_elements: int,
                        n_samples: int, seed) -> EmpiricalDistribution:
    """Draws of the coherently combined serving power (surface present)."""
    rng = np.random.default_rng(seed)
    out = np.empty(n_samples)
    chunk = max(1, (1 << 23) // max(n_elements, 1))
    for lo in range(0, n_samples, chunk):
        hi = min(lo + chunk, n_samples)
        out[lo:hi] = _coherent_signal(rng, fading, n_elements, eta_g0, eta_h0, hi - lo)
    out.sort()
    return EmpiricalDistribution(out)


def sample_interferer_power(eta_gk: float, eta_hk: float, fading, n_elements: int,
                            n_samples: int, seed) -> EmpiricalDistribution:
    """Draws of one surface-bearing interferer's power, fully per element."""
    rng = np.random.default_rng(seed)
    out = np.empty(n_samples)
    chunk = max(1, (1 << 23) // max(n_elements, 1))
    for lo in range(0, n_samples, chunk):
        hi = min(lo + chunk, n_samples)
        rows = hi - lo
        g = rng.standard_normal((rows, 2)) * math.sqrt(0.5)
        t_re, t_im = _random_phase_sum(rng, fading, n_elements, rows)
        out[lo:hi] = ((math.sqrt(eta_gk) * g[:, 0] + math.sqrt(eta_hk) * t_re) ** 2
                      + (math.sqrt(eta_gk) * g[:, 1] + math.sqrt(eta_hk) * t_im) ** 2)
    out.sort()
    return EmpiricalDistribution(out)
