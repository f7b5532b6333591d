"""Ground-truth Monte Carlo simulator of the typical user's SINR.

Every trial draws a fresh cluster field and full small-scale fading, builds
the coherent serving power and the aggregate interference with the true
geometry (no distance shortcuts), and records SINR = S / (I + 1/gamma_t).

Implementation notes, all distribution-preserving:

* A hop's power Gamma(m, 1/m) with a whole shape m up to 3 is drawn as the
  mean of m unit exponentials: the Erlang law, the same distribution, at
  about half the cost of a gamma draw for m = 2.  Other shapes draw a
  standard gamma and scale it by 1/m, the bits of rng.gamma.
* Per-element fading comes _DRAW_BLOCK // N rows at a time (hop h, hop r,
  then any float32 phases), reduced to per-row sums before the next block:
  _DRAW_BLOCK sets the stream, and no (rows, N) array is held.
* Only distances to the origin matter, so cluster geometry is sampled
  radially: parent squared radii are uniform on (0, R^2) and a surface
  offset enters through the law d_r^2 = r^2 + d0^2 + 2 r d0 cos(phi) with
  phi uniform.  This is exactly the law of distances in a coordinate
  sample of the cluster field (each transmitter uniform on the disk, its
  surface d0 away in a uniform direction); tests/oracles.py holds such a
  sampler and the tests compare the two.
* Interferer fading is expensive (per-element Nakagami magnitudes and
  uniform phases for every surface-bearing interferer), so it is drawn once
  into a large seeded table: one float32 array of shape (4, rows) whose
  columns, its first axis, are the per-cluster composites |g|^2, |T|^2,
  2 Re(g T*) and the offset angle's cos(phi).  Each block with interferers
  draws one window start and reads one contiguous slice of rows: the
  surface-free group its first rows (its Rayleigh power is the Exp(1)
  column |g|^2), the surface group the next.  The marginal law of each
  composite is the full per-element one; no Gaussian shortcut is taken.
  The serving link never uses the table.
* The table is built on the thread pool in fixed chunks, chunk k seeded by
  child k of a root of fixed entropy and (N, m_h, m_r): one table for any
  thread count and, as the root ignores McConfig.seed, for every seed and
  sweep point of a process.  Float32 phases and cos/sin move an element sum
  by about 1e-7 of its amplitude sum, below the table's float32 rounding.
* The table holds _TABLE_ROWS window starts plus a pad, so that every
  planned window fits from any start: m + 32 sqrt(m) rows, the largest
  block the plan makes (m = max(_BLOCK_TARGET_ROWS, lambda |W|) expected
  rows) plus 32 Poisson sigma; a window that still overruns the table's
  end raises ValueError.  A chunk cut short by the table's end is drawn
  whole and cut, so row j is the same whatever the pad.
* A cache file, named by a hash of every input of the table's bits, carries
  the table across processes.  It is used only if its length, sha256 and
  chunk 0 (drawn again from its seed) all match, else rebuilt.  A load
  refreshes the file's mtime; saving a table deletes the cached tables
  that have gone unused for _CACHE_MAX_IDLE_S (7 days).
* Trials are grouped into blocks with independent child seeds, run on threads
  sharing one table and joined in plan order: samples ignore the thread count.
  The pool has one thread per CPU the process may run on (its affinity mask,
  so `taskset` limits it), at most one per block or table chunk.
* One kernel runs a block under either strategy.  The strategy sets the
  serving gains, which trials have a surface and which field points
  interfere; the Poisson count comes first, then the serving signal, then
  the interference.
* A trial's interferers are contiguous in each group, so per-trial sums are
  np.add.reduceat over the segments: float64 sums in numpy's pairwise,
  buffered order, not sequential ones, so they can differ in the last bits.
* Each running block holds one pooled workspace, a byte buffer that only
  grows: the serving signal draws its hop powers into it as float64, then
  the interference chains run in it as three float32 rows, with out=, and
  a group's weights are summed as float64 in the two rows its chain no
  longer needs.  The operations and their order are those of fresh arrays,
  so are the bits.  A fixed-association block allocates nothing of the
  size of its interferer count; a nearest-association one only the two
  float32 radius bounds np.repeat spreads over its interferers.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import logging
import math
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

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
_TABLE_ROWS = 1 << 20       # fading-table rows, before the pad that keeps windows contiguous
# elements of one block of per-element draws; it sets their stream (see _element_amplitudes)
_DRAW_BLOCK = 1 << 16
# whole Nakagami shapes up to this one draw a hop's power as a sum of unit exponentials
# (see _hop_power); on a 2-core x86-64 box an exponential takes about 9 ns and one
# rng.gamma draw about 35 ns, so at m = 4 the gamma draw is already the cheaper
_EXP_SUM_MAX_SHAPE = 3
_BLOCK_TARGET_ROWS = 1 << 18
_MAX_BLOCK_TRIALS = 8192
_TABLE_ENTROPY = 0x9B5C_17AD
_TABLE_CHUNK_ELEMENTS = 1 << 20
_TABLE_COLUMNS = 4          # |g|^2, |T|^2, 2 Re(g T*), cos(phi); see _get_table
_WORKSPACE_STEP = 1 << 20   # workspace bytes round up to whole MiB, so they rarely regrow
_CACHE_MAX_IDLE_S = 7 * 86400   # saving a table deletes cached ones unused this long
MIN_SAMPLES = 100           # the estimators refuse fewer samples
DEFAULT_WINDOW = Window(5000.0)     # the baseline 5 km disk


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
    window: Window = DEFAULT_WINDOW

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trial count must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def check_strategy(self, strategy: str, forced_ris: bool | None) -> None:
        """Raise ValueError unless simulate_sinr can serve the user by strategy here."""
        if strategy not in ("fixed", "nearest"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy == "fixed" and forced_ris is None:
            raise ValueError("fixed association requires forced_ris True or False")
        if strategy == "nearest":
            if forced_ris is not None:
                raise ValueError("nearest association uses each cluster's own surface flag")
            self.params.check_nearest_density()


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted Monte Carlo samples with CCDF/quantile/confidence queries."""

    sorted_samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sorted_samples, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("need a non-empty 1-D sample array")
        if np.any(s[1:] < s[:-1]):
            raise ValueError("samples must be sorted ascending")
        object.__setattr__(self, "sorted_samples", s)

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

def _table_root(n_elements: int, fading: FadingParams) -> np.random.SeedSequence:
    # the exact float bits key the stream, so every (m_h, m_r) gets its own
    key = [n_elements, *np.float64([fading.m_h, fading.m_r]).view(np.uint64).tolist()]
    return np.random.SeedSequence(entropy=_TABLE_ENTROPY, spawn_key=key)


def _table_columns(root: np.random.SeedSequence, n_elements: int, fading: FadingParams,
                   rows: int) -> np.ndarray:
    """The (_TABLE_COLUMNS, rows) float32 table in fixed chunks, chunk k from child k of root.

    The chunk plan depends on N alone, so the columns ignore the thread count.
    Child k is keyed as root.spawn would key it on a fresh root, without
    spawning: a root used before gives the same columns.  A chunk's draws
    depend on its length, so a last chunk that rows cuts short is drawn whole
    and its head kept: row j is the same in a table of any length.
    """
    step = max(1, _TABLE_CHUNK_ELEMENTS // n_elements)
    cols = np.empty((_TABLE_COLUMNS, rows), dtype=_F32)
    outs = [cols[:, lo:lo + step] for lo in range(0, rows, step)]
    cut = outs[-1] if rows % step else None
    if cut is not None:
        outs[-1] = np.empty((_TABLE_COLUMNS, step), dtype=_F32)
    _run_jobs(_fill_table_chunk,
              [(out, np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, k)),
                n_elements, fading) for k, out in enumerate(outs)])
    if cut is not None:
        cut[...] = outs[-1][:, :cut.shape[1]]
    return cols


def _fill_table_chunk(args) -> None:
    """Draw the table columns of one chunk into out from the chunk's own seed."""
    out, seed, n_elements, fading = args
    rng = np.random.default_rng(seed)
    rows = out.shape[1]
    g = rng.standard_normal((2, rows)) * math.sqrt(0.5)
    t_re, t_im = _random_phase_sum(rng, fading, n_elements, rows)
    out[0] = g[0] ** 2 + g[1] ** 2
    out[1] = t_re**2 + t_im**2
    out[2] = 2.0 * (g[0] * t_re + g[1] * t_im)
    out[3] = np.cos(rng.uniform(0.0, 2.0 * math.pi, rows))


_CACHE_WARNED = False


@functools.lru_cache(maxsize=None)
def _get_table(n_elements: int, fading: FadingParams, rows: int) -> np.ndarray:
    """The (_TABLE_COLUMNS, rows) float32 fading table: its checked cache file, else built.

    Row j holds (|g|^2, |T|^2, 2 Re(g T*)) for one draw of a Rayleigh direct
    coefficient g and a randomly phased element sum T, and an independent
    cos(phi) for the surface-offset geometry.  |g|^2 is Exp(1), the power of
    a surface-free interferer's Rayleigh link, so that group reads it too.
    A table that is built is saved to the cache file.
    """
    global _CACHE_WARNED
    root, t0 = _table_root(n_elements, fading), time.perf_counter()
    key = (root.entropy, root.spawn_key, rows, _TABLE_CHUNK_ELEMENTS, np.__version__,
           hashlib.sha256(Path(__file__).read_bytes()).hexdigest())
    path = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "riscov",
                f"fading-n{n_elements}-{hashlib.sha256(repr(key).encode()).hexdigest()[:32]}.f32")
    with contextlib.suppress(OSError):
        with open(path, "rb") as fh:    # the raw float32 columns, then their sha256
            cols, digest = np.fromfile(fh, _F32, _TABLE_COLUMNS * rows), fh.read()
        step = min(rows, max(1, _TABLE_CHUNK_ELEMENTS // n_elements))
        if (cols.size == _TABLE_COLUMNS * rows and hashlib.sha256(cols).digest() == digest
                and cols.reshape(_TABLE_COLUMNS, rows)[:, :step].tobytes()
                == _table_columns(root, n_elements, fading, step).tobytes()):
            with contextlib.suppress(OSError):
                os.utime(path)      # its mtime is its last use (see _prune_cache)
            log.info("fading table N=%d loaded from %s in %.2f s", n_elements, path,
                     time.perf_counter() - t0)
            return cols.reshape(_TABLE_COLUMNS, rows)
    cols = _table_columns(root, n_elements, fading, rows)
    built = time.perf_counter() - t0
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
            with open(os.path.join(tmp, path.name), "wb") as fh:
                cols.tofile(fh)
                fh.write(hashlib.sha256(cols).digest())
            os.replace(fh.name, path)
        _prune_cache(path.parent)
    except OSError as exc:
        if not _CACHE_WARNED:
            log.warning("fading tables are not cached on disk: %s", exc)
        _CACHE_WARNED, path = True, "nowhere"
    log.info("fading table N=%d built in %.2f s, saved to %s", n_elements, built, path)
    return cols


def _prune_cache(directory: Path) -> None:
    """Delete the cached tables in directory that no process has loaded or saved for a while.

    A load refreshes a file's mtime, so a table any checkout still reads stays.
    """
    stale = time.time() - _CACHE_MAX_IDLE_S
    with contextlib.suppress(OSError):
        for old in directory.glob("fading-n*-*.f32"):
            with contextlib.suppress(OSError):
                if old.stat().st_mtime < stale:
                    old.unlink()


def _run_jobs(fn, jobs: list) -> list:
    """[fn(job) for job in jobs], on one thread per available CPU, at most one per job."""
    threads = min(_available_cpus(), len(jobs))
    if threads > 1:
        # numpy's random fills and ufuncs release the GIL, so jobs overlap
        with ThreadPoolExecutor(threads) as pool:
            return list(pool.map(fn, jobs))
    return [fn(j) for j in jobs]


# ---------------------------------------------------------------------------
# Block workspaces
# ---------------------------------------------------------------------------

class _Workspace:
    """Scratch memory of one running block: one byte buffer that grows and never shrinks.

    A block's serving-signal phase views it as float64 hop-power draws, and
    its interference phase, which starts after that one ends, as float32 rows.
    """

    def __init__(self):
        self._buf = np.empty(0, np.uint8)

    def view(self, dtype, shape: tuple) -> np.ndarray:
        """The front of the buffer, grown if too small, as a C-contiguous dtype array of shape."""
        nbytes = np.dtype(dtype).itemsize * math.prod(shape)
        if self._buf.size < nbytes:
            self._buf = np.empty(-(-nbytes // _WORKSPACE_STEP) * _WORKSPACE_STEP, np.uint8)
        return self._buf[:nbytes].view(dtype).reshape(shape)


# idle workspaces: as many as blocks have ever run at once, each reused by the next block
_IDLE_WORKSPACES: list[_Workspace] = []
_IDLE_WORKSPACES_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# Per-element fading
# ---------------------------------------------------------------------------

def _exp_sum_terms(m: float) -> int:
    """Unit exponentials _hop_power sums per element at shape m, 0 where it draws gamma."""
    return int(m) if float(m).is_integer() and m <= _EXP_SUM_MAX_SHAPE else 0


def _hop_power(rng, m: float, shape: tuple, out: np.ndarray) -> np.ndarray:
    """Gamma(m, 1/m) draws of the given shape: powers of a unit-power Nakagami-m hop.

    A whole m up to _EXP_SUM_MAX_SHAPE takes the mean of m unit exponentials,
    exactly Gamma(m, 1/m) (the Erlang law); any other m a standard gamma
    draw times 1/m.  The draws fill the front of out, a float64 array.
    """
    k = _exp_sum_terms(m)
    dims = (*shape, k) if k else shape
    out = out[:math.prod(dims)].reshape(dims)
    if not k:
        power = rng.standard_gamma(m, dims, out=out)
        power *= 1.0 / m
        return power
    exps = rng.standard_exponential(dims, out=out)
    power = exps[..., 0]
    for i in range(1, k):   # slice adds: a sum over the short last axis is ~2x slower
        power += exps[..., i]
    power /= k
    return power


def _element_amplitudes(rng, fading: FadingParams, n_elements: int, rows: int,
                        ws: _Workspace) -> np.ndarray:
    """(rows, N) products |h||r| of two unit-power Nakagami hops: hop h, then hop r, then sqrt.

    Its callers draw blocks of _DRAW_BLOCK // N rows (at least one), so no
    (rows, N) array is held and the block size is part of their stream.  The
    result is a view of workspace ws, valid until ws is used again.
    """
    shape = (rows, n_elements)
    h, r = (max(1, _exp_sum_terms(m)) * rows * n_elements for m in (fading.m_h, fading.m_r))
    draws = ws.view(np.float64, (h + r,))
    amp = _hop_power(rng, fading.m_h, shape, draws[:h])
    amp *= _hop_power(rng, fading.m_r, shape, draws[h:])
    return np.sqrt(amp, out=amp)


def _random_phase_sum(rng, fading: FadingParams, n_elements: int,
                      rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of the element sum under uniform phases; a block draws amplitudes, then phases."""
    out, ws = np.empty((2, rows)), _Workspace()
    step = max(1, _DRAW_BLOCK // n_elements)
    for lo in range(0, rows, step):
        amp = _element_amplitudes(rng, fading, n_elements, min(step, rows - lo), ws)
        phase = rng.random(amp.shape, dtype=_F32)
        phase *= _F32(2.0 * math.pi)
        out[0, lo:lo + step] = (amp * np.cos(phase)).sum(axis=1)
        out[1, lo:lo + step] = (amp * np.sin(phase)).sum(axis=1)
    return out[0], out[1]


def _coherent_signal(rng, fading: FadingParams, n_elements: int, eta_g0, eta_h0,
                     rows: int, ws: _Workspace) -> np.ndarray:
    """Surface-assisted serving power with aligned phases (fresh fading).

    g0 is drawn for all rows first, then the element sums block by block,
    each block's hop powers into workspace ws.  eta_g0 and eta_h0 are
    scalars or arrays of length rows.
    """
    g0 = np.sqrt(rng.standard_exponential(rows))
    step = max(1, _DRAW_BLOCK // n_elements)
    elem = np.concatenate([_element_amplitudes(rng, fading, n_elements, min(step, rows - lo), ws)
                           .sum(axis=1) for lo in range(0, rows, step)])
    return (np.sqrt(eta_g0) * g0 + np.sqrt(eta_h0) * elem) ** 2


# ---------------------------------------------------------------------------
# Vectorized kernels
# ---------------------------------------------------------------------------

def _path_gain(gain, x2: np.ndarray, alpha: float, out: np.ndarray) -> np.ndarray:
    """gain * x2^(-alpha/2) into out (not x2), by square-root chains for the usual exponents."""
    if alpha == 2.5:
        np.sqrt(x2, out=out)
        np.divide(1.0, np.multiply(np.sqrt(out, out=out), x2, out=out), out=out)
    elif alpha == 4.0:
        np.multiply(x2, x2, out=out)
        np.divide(1.0, out, out=out)
    else:
        np.power(x2, _F32(-0.5 * alpha), out=out)
    out *= gain
    return out


def _surface_interferer_power(eta_g, eta_h, mag2_direct, mag2_scatter, cross, scratch):
    """|sqrt(eta_g) g + sqrt(eta_h) T|^2 from |g|^2, |T|^2, 2 Re(g T*), into eta_g.

    Overwrites eta_h and scratch, an array of eta_g's shape.
    """
    root = np.multiply(eta_g, eta_h, out=scratch)
    np.multiply(np.sqrt(root, out=root), cross, out=root)
    eta_g *= mag2_direct
    eta_g += np.multiply(eta_h, mag2_scatter, out=eta_h)
    return np.add(eta_g, root, out=eta_g)


def _add_trial_sums(total: np.ndarray, w: np.ndarray, counts: np.ndarray,
                    spare: np.ndarray) -> None:
    """Add to total[t] the float64 sum of trial t's weights, the next counts[t] entries of w.

    The float32 weights are copied to float64 into spare, a C-contiguous
    float32 array of at least 2 w.size entries that w does not overlap, and
    summed there: the bits of np.add.reduceat(w, dtype=np.float64), without
    the float64 copy it would allocate.  Only trials with weights get a
    segment: reduceat returns the first element for an empty one.
    """
    filled = counts > 0
    starts = np.cumsum(counts) - counts
    w64 = spare.reshape(-1).view(np.float64)[:w.size]
    w64[...] = w
    total[filled] += np.add.reduceat(w64, starts[filled])


def _interference(rng, table: np.ndarray, params: SystemParams, n_trials: int,
                  k_ris: np.ndarray, k_non: np.ndarray,
                  low2: np.ndarray | float, span2: np.ndarray | float,
                  ws: _Workspace) -> np.ndarray:
    """Aggregate interference per trial from group row counts.

    A block with interferers reads one contiguous window of table rows, from
    one start draw: the surface-free group its first rows, the surface group
    the next.  A window that runs past the table's end raises ValueError.
    Parent squared radii are uniform on (low2, low2 + span2) per trial;
    scalars broadcast.  Each group's chain runs in three float32 rows of
    workspace ws and leaves its weights in the last; their float64 per-trial
    sums run in the first two.  Returns float64 sums of length n_trials.
    """
    pl = params.path
    total = np.zeros(n_trials)

    def radii2(counts: np.ndarray, r2: np.ndarray) -> None:
        """Draw the group's squared parent radii into r2; counts are its per-trial sizes."""
        rng.random(r2.size, dtype=_F32, out=r2)
        if np.isscalar(span2):
            r2 *= _F32(span2)
            if low2 != 0.0:
                r2 += _F32(low2)
        else:
            r2 *= np.repeat(span2.astype(_F32), counts)
            r2 += np.repeat(low2.astype(_F32), counts)
        np.maximum(r2, _R2_FLOOR, out=r2)

    n_non, n_ris = int(k_non.sum()), int(k_ris.sum())
    if n_non + n_ris == 0:
        return total
    start = int(rng.integers(0, _TABLE_ROWS))
    window = table[:, start:start + n_non + n_ris]
    if window.shape[1] < n_non + n_ris:
        raise ValueError(f"{n_non + n_ris} interferers from row {start} overrun the "
                         f"{table.shape[1]}-row fading table")
    work = ws.view(_F32, (3, max(n_non, n_ris)))

    if n_non:
        r2, gain, w = work[:, :n_non]
        radii2(k_non, r2)
        np.multiply(_F32(pl.c_d), window[0, :n_non], out=gain)
        _add_trial_sums(total, _path_gain(gain, r2, pl.alpha, w), k_non, work[:2])

    if n_ris:
        r2, offset, eta_g = work[:, :n_ris]
        radii2(k_ris, r2)
        mag2_direct, mag2_scatter, cross, cos_offset = window[:, n_non:]
        _path_gain(_F32(pl.c_d), r2, pl.alpha, eta_g)
        # r2 becomes d0^2 d_r^2, with d_r^2 = r2 + d0^2 + 2 d0 sqrt(r2) cos(phi)
        np.sqrt(r2, out=offset)
        offset *= _F32(2.0 * pl.d0)
        r2 += _F32(pl.d0 * pl.d0)
        r2 += np.multiply(offset, cos_offset, out=offset)
        np.maximum(r2, _R2_FLOOR, out=r2)
        r2 *= _F32(pl.d0 * pl.d0)
        eta_h = _path_gain(_F32(pl.c_r), r2, pl.alpha, offset)
        w = _surface_interferer_power(eta_g, eta_h, mag2_direct, mag2_scatter, cross, r2)
        _add_trial_sums(total, w, k_ris, work[:2])
    return total


def _run_block(args) -> np.ndarray:
    """SINR of one block of trials, in a workspace taken from the idle pool and given back."""
    with _IDLE_WORKSPACES_LOCK:
        ws = _IDLE_WORKSPACES.pop() if _IDLE_WORKSPACES else _Workspace()
    try:
        return _block_sinr(ws, *args)
    finally:
        with _IDLE_WORKSPACES_LOCK:
            _IDLE_WORKSPACES.append(ws)


def _block_sinr(ws: _Workspace, params: SystemParams, window: Window, table: np.ndarray | None,
                strategy: str, forced_ris: bool | None, n_trials: int, child_seed) -> np.ndarray:
    """SINR of one block of trials under either association strategy.

    The strategy sets the serving gains, which trials have a surface and the
    interferer annulus; one serving-signal draw and one interference sum follow.
    """
    rng = np.random.default_rng(child_seed)
    pl = params.path
    rw2 = window.radius**2
    counts = rng.poisson(params.lambda_t * window.area, n_trials)
    if strategy == "fixed":
        # the configured link (surface at perpendicular offset d0); every field point interferes
        eta_g0 = np.full(n_trials, params.eta_g0)
        eta_h0 = params.eta_h0
        has_ris = np.full(n_trials, forced_ris)
        empty = None
        rest, low2, span2 = counts, 0.0, rw2
    else:
        empty = counts == 0
        if empty.any():
            log.warning("%d trials drew an empty field; scoring them as zero SINR",
                        int(empty.sum()))
        # squared distance to the nearest of k uniform points on the disk
        with np.errstate(divide="ignore"):
            d2 = rw2 * (-np.expm1(np.log(rng.random(n_trials)) / np.maximum(counts, 1)))
        has_ris = rng.random(n_trials) < params.p
        eta_g0 = pl.c_d * d2 ** (-0.5 * pl.alpha)
        d2_ris = d2[has_ris]
        cos_ofs = np.cos(rng.uniform(0.0, 2.0 * math.pi, d2_ris.size))
        dr2 = d2_ris + pl.d0**2 + 2.0 * pl.d0 * np.sqrt(d2_ris) * cos_ofs
        eta_h0 = pl.c_r * (pl.d0**2 * dr2) ** (-0.5 * pl.alpha)
        # the nearest point serves; the others interfere from beyond it
        rest, low2, span2 = np.maximum(counts - 1, 0), d2, rw2 - d2
    signal = np.empty(n_trials)
    n_ris = int(has_ris.sum())
    if n_ris:
        signal[has_ris] = _coherent_signal(rng, params.fading, params.n_elements,
                                           eta_g0[has_ris], eta_h0, n_ris, ws)
    if n_ris < n_trials:
        signal[~has_ris] = eta_g0[~has_ris] * rng.standard_exponential(n_trials - n_ris)
    k_ris = rng.binomial(rest, params.p)
    i_tot = _interference(rng, table, params, n_trials, k_ris, rest - k_ris, low2, span2, ws)
    with np.errstate(divide="ignore"):    # noise-free, a trial with no interferer: inf
        sinr = signal / (i_tot + params.gamma_t_inv)
    if empty is not None:
        sinr[empty] = 0.0
    return sinr


def _table_pad(config: McConfig) -> int:
    """Table rows past _TABLE_ROWS, so that a block's window stays contiguous.

    The largest block _block_plan makes expects m = max(_BLOCK_TARGET_ROWS,
    lambda |W|) rows, and a Poisson count of mean m spreads by sqrt(m): the
    pad holds m plus 32 sigma, so every planned window fits.
    """
    m = max(_BLOCK_TARGET_ROWS, config.params.lambda_t * config.window.area)
    return math.ceil(m + 32.0 * math.sqrt(m))


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
    config.check_strategy(strategy, forced_ris)
    table = None
    if config.params.lambda_t > 0.0:
        # build (or fetch) the shared fading table before the threads start
        table = _get_table(config.params.n_elements, config.params.fading,
                           _TABLE_ROWS + _table_pad(config))
    sizes = _block_plan(config)
    children = np.random.SeedSequence(config.seed).spawn(len(sizes))
    jobs = [(config.params, config.window, table, strategy, forced_ris, n, child)
            for n, child in zip(sizes, children)]
    samples = np.concatenate(_run_jobs(_run_block, jobs))
    samples.sort()
    return EmpiricalDistribution(samples)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def estimate_coverage(dist: EmpiricalDistribution, gamma_bar: float) -> tuple[float, float]:
    """Empirical P(SINR > gamma_bar) with its 95% binomial half-width."""
    if dist.n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {dist.n}")
    prob = float(dist.ccdf(gamma_bar))
    return prob, dist.ci_halfwidth(prob)


def estimate_rate(dist: EmpiricalDistribution) -> tuple[float, float]:
    """Sample mean of log2(1 + SINR) in bits/s/Hz with its 95% half-width.

    A noise-free trial that draws no interferer has an infinite SINR, and
    the mean rate of such samples is unbounded, so they are refused.
    """
    if dist.n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {dist.n}")
    infinite = int(np.count_nonzero(np.isinf(dist.sorted_samples)))
    if infinite:
        raise ValueError(f"{infinite} of {dist.n} SINR samples are infinite (noise-free trials "
                         "with no interferer): the mean rate is unbounded")
    rates = np.log2(1.0 + dist.sorted_samples)
    mean = float(rates.mean())
    return mean, float(1.96 * rates.std(ddof=1) / math.sqrt(dist.n))


# ---------------------------------------------------------------------------
# Distribution-validation sampling
# ---------------------------------------------------------------------------

def _check_sample_sizes(n_elements: int, n_samples: int) -> None:
    if n_elements < 1:
        raise ValueError(f"element count must be at least 1, got {n_elements}")
    if n_samples < 1:
        raise ValueError(f"sample count must be at least 1, got {n_samples}")


def sample_signal_power(eta_g0: float, eta_h0: float, fading, n_elements: int,
                        n_samples: int, seed) -> EmpiricalDistribution:
    """Draws of the coherently combined serving power (surface present)."""
    _check_sample_sizes(n_elements, n_samples)
    out = _coherent_signal(np.random.default_rng(seed), fading, n_elements, eta_g0, eta_h0,
                           n_samples, _Workspace())
    out.sort()
    return EmpiricalDistribution(out)


def sample_interferer_power(eta_gk: float, eta_hk: float, fading, n_elements: int,
                            n_samples: int, seed) -> EmpiricalDistribution:
    """Draws of one surface-bearing interferer's power, fully per element.

    The rows come from the fading table's chunk sampler rooted at seed and are
    combined as the interference kernel combines them, so these are draws of
    the float32 table the simulator uses.
    """
    _check_sample_sizes(n_elements, n_samples)
    mag2_direct, mag2_scatter, cross, _ = _table_columns(
        np.random.SeedSequence(seed), n_elements, fading, n_samples)
    eta = np.full((2, n_samples), [[eta_gk], [eta_hk]], dtype=_F32)
    out = _surface_interferer_power(*eta, mag2_direct, mag2_scatter, cross,
                                    np.empty_like(eta[0])).astype(float)
    out.sort()
    return EmpiricalDistribution(out)
