"""The benchmark's workloads: inputs from the seed, a fixed body, and checks.

Every workload calls riscov through module attributes (``analytic.rate_nearest``,
``mcsim.simulate_sinr``, ``cli.main``), never through names bound at import,
so a traced pass sees every call.  Each call that yields values is one or more
*operations*: one curve point, analytic value or Monte Carlo estimate.  An
operation fails if it raises, returns a non-finite value or a probability
outside [0, 1], or misses its correctness check.

A workload's fixed body is ``parts(rep)``: callables ``part(checks, begin_op)``
run in order, each returning the work counts it knows (trials simulated,
computed interferer draws, CSV bytes written) or None.  Repetition ``rep``
gets its own MC seeds.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import math
from pathlib import Path

import numpy as np

from riscov import analytic, cli, mcsim
from riscov.analytic import SystemParams
from riscov.fading import dbm_to_watts

# Analytic values must match the recorded references, and the closed forms
# their quadrature counterparts, within this absolute tolerance.
ANALYTIC_TOL = 1e-6
# An MC estimate passes when it lies within this multiple of the combined
# 95% half-widths of itself and the recorded reference estimate.
MC_CI_MULTIPLE = 2.5


class Checks:
    """Tally of checked operations, keeping the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)}")

    def raised(self, label: str, exc: Exception, n_ops: int) -> None:
        """Count n_ops operations that a raising call did not deliver."""
        for _ in range(n_ops):
            self.op(label, [f"raised {type(exc).__name__}: {exc}"])


def value_problems(value: float, kind: str) -> list[str]:
    """kind 'prob' needs a value in [0, 1]; kind 'rate' a non-negative one."""
    if not math.isfinite(value):
        return [f"non-finite value {value!r}"]
    if kind == "prob" and not 0.0 <= value <= 1.0:
        return [f"probability {value!r} outside [0, 1]"]
    if kind == "rate" and value < 0.0:
        return [f"negative rate {value!r}"]
    return []


def near(value: float, other: float, what: str) -> list[str]:
    if abs(value - other) <= ANALYTIC_TOL:
        return []
    return [f"{value!r} differs from {what} {other!r} by more than {ANALYTIC_TOL:g}"]


def ci95(prob: float, n: int) -> float:
    """95% half-width of a binomial proportion, Agresti-Coull adjusted.

    The adjustment (two extra successes and failures) keeps the width
    positive when an estimate is exactly 0 or 1.
    """
    adj = (prob * n + 2.0) / (n + 4.0)
    return 1.96 * math.sqrt(adj * (1.0 - adj) / (n + 4.0))


def mc_problems(prob: float, n: int, ref: float, ref_n: int) -> list[str]:
    problems = value_problems(prob, "prob")
    if problems:
        return problems
    tol = MC_CI_MULTIPLE * math.hypot(ci95(prob, n), ci95(ref, ref_n))
    if abs(prob - ref) > tol:
        problems.append(f"estimate {prob:.5f} ({n} trials) is {abs(prob - ref):.5f} from "
                        f"reference {ref:.5f} ({ref_n} trials), over {MC_CI_MULTIPLE} x "
                        f"combined CI = {tol:.5f}")
    return problems


# ---------------------------------------------------------------------------
# analytic_curves
# ---------------------------------------------------------------------------

# scenario, value columns with their kind, columns that identify one power
# curve (None: not a power curve)
FIGURES = (
    ("fig4", {"coverage_analytic": "prob"}, ("lambda_t",)),
    ("fig6", {"rate_analytic": "rate"}, ("lambda_t",)),
    ("fig7", {"coverage_analytic": "prob"}, ("lambda_t", "alpha")),
    ("fig8", {"coverage_analytic": "prob", "rate_analytic": "rate"}, None),
)
DENSE_JET_ELEMENTS = (128, 512)
DENSE_JET_THRESHOLDS_DB = (-3.0, 0.0, 3.0)
RATE_NEAREST_CASE = {"n_elements": 8, "lambda_t": 1e-3, "p": 0.9, "p_tx_dbm": -20.0}
ALPHA4_THRESHOLDS = tuple(float(g) for g in 10.0 ** np.linspace(-1.0, 2.0, 20))
SEEDED_RATE_DRAWS = 20


def _path4():
    return dataclasses.replace(SystemParams.default().path, alpha=4.0)


def dense_jet_params(n_elements: int) -> SystemParams:
    return SystemParams.default(lambda_t=1e-4, p=0.9, n_elements=n_elements,
                                p_tx_w=dbm_to_watts(-24.0))


def rate_nearest_params() -> SystemParams:
    c = RATE_NEAREST_CASE
    return SystemParams.default(lambda_t=c["lambda_t"], p=c["p"], n_elements=c["n_elements"],
                                p_tx_w=dbm_to_watts(c["p_tx_dbm"]))


def alpha4_params() -> SystemParams:
    """The acceptance criterion-5 coverage point: p = 0.9, alpha = 4, 0 dBm."""
    return SystemParams.default(p=0.9, path=_path4(), p_tx_w=dbm_to_watts(0.0))


def seeded_rate_draws(seed: int) -> list[SystemParams]:
    """Criterion-5 style noise-free alpha = 4 draws, from the run seed."""
    rng = np.random.default_rng(seed)
    return [SystemParams.default(lambda_t=10 ** rng.uniform(-5, -3.5),
                                 p=float(rng.uniform(0.0, 1.0)),
                                 n_elements=int(rng.integers(8, 49)),
                                 path=_path4(), interference_limited=True)
            for _ in range(SEEDED_RATE_DRAWS)]


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class AnalyticCurves:
    """fig4/6/7/8 analytic columns via the CLI, dense jets, a nested-quadrature
    rate, and the criterion-5 closed-form cross-checks."""

    name = "analytic_curves"
    first_call_layer = "analytic"

    def __init__(self, seed: int, refs: dict, workdir: Path):
        self.refs = refs["analytic_curves"]
        self.workdir = workdir
        self.draws = seeded_rate_draws(seed)
        self.sizes = {
            "figures": [f for f, _, _ in FIGURES],
            "dense_jet_elements": list(DENSE_JET_ELEMENTS),
            "dense_jet_thresholds_db": list(DENSE_JET_THRESHOLDS_DB),
            "rate_nearest": RATE_NEAREST_CASE,
            "alpha4_pairs": len(ALPHA4_THRESHOLDS),
            "seeded_rate_draws": SEEDED_RATE_DRAWS,
        }

    def setup(self) -> float:
        """First call: one nearest-association threshold (jets, quadrature, 2F1)."""
        return float(analytic.coverage_nearest(SystemParams.default(p=0.9), 1.0))

    def parts(self, rep: int) -> list:
        """The body in order; the inputs do not depend on the repetition."""
        return ([functools.partial(self._figure, *figure) for figure in FIGURES]
                + [self._dense_jets, self._rate_nearest, self._alpha4_pairs,
                   self._seeded_rates])

    def _figure(self, fig, columns, curve_keys, checks, begin_op) -> dict[str, int]:
        out = self.workdir / f"{fig}.csv"
        ref = self.refs[fig]
        n_rows = len(ref[next(iter(columns))])
        begin_op()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(["run", fig, "--mode", "analytic", "--out", str(out)])
            if status != 0:
                raise RuntimeError(f"riscov run {fig} exited with status {status}")
            rows = read_csv(out)
            if len(rows) != n_rows:
                raise RuntimeError(f"{len(rows)} rows, expected {n_rows}")
            table = {col: [float(r[col]) for r in rows] for col in columns}
        except Exception as exc:  # a failing call fails every point it owed
            checks.raised(fig, exc, n_rows * len(columns))
            return {}
        for col, kind in columns.items():
            last = {}
            for i, v in enumerate(table[col]):
                problems = value_problems(v, kind) + near(v, ref[col][i], "reference")
                if curve_keys is not None:
                    key = tuple(rows[i][k] for k in curve_keys)
                    if key in last and v < last[key]:
                        problems.append(f"{v!r} below {last[key]!r} at the next lower power")
                    last[key] = v
                checks.op(f"{fig} row {i} {col}", problems)
        return {"csv_bytes": out.stat().st_size}

    def _dense_jets(self, checks, begin_op) -> None:
        for n_el in DENSE_JET_ELEMENTS:
            params = dense_jet_params(n_el)
            ref = self.refs["dense_jets"][str(n_el)]
            previous = None
            for i, g_db in enumerate(DENSE_JET_THRESHOLDS_DB):
                label = f"coverage_nearest N={n_el} {g_db:g} dB"
                begin_op()
                try:
                    v = float(analytic.coverage_nearest(params, 10.0 ** (g_db / 10.0)))
                except Exception as exc:
                    checks.raised(label, exc, 1)
                    continue
                problems = value_problems(v, "prob") + near(v, ref[i], "reference")
                if previous is not None and v > previous:
                    problems.append(f"{v!r} above {previous!r} at the next lower threshold")
                previous = v
                checks.op(label, problems)

    def _rate_nearest(self, checks, begin_op) -> None:
        begin_op()
        try:
            v = float(analytic.rate_nearest(rate_nearest_params(), interference_limited=False))
        except Exception as exc:
            checks.raised("rate_nearest", exc, 1)
            return
        checks.op("rate_nearest", value_problems(v, "rate")
                  + near(v, self.refs["rate_nearest"], "reference"))

    def _alpha4_pairs(self, checks, begin_op) -> None:
        params = alpha4_params()
        refs = self.refs["alpha4_pairs"]
        for g, (ref_quad, ref_closed) in zip(ALPHA4_THRESHOLDS, refs):
            label = f"alpha=4 pair at {10 * math.log10(g):.2f} dB"
            begin_op()
            try:
                by_quad = float(analytic.coverage_nearest(params, g))
                closed = float(analytic.coverage_nearest_alpha4(params, g))
            except Exception as exc:
                checks.raised(label, exc, 2)
                continue
            agree = near(by_quad, closed, "closed form")
            checks.op(label + " quadrature", value_problems(by_quad, "prob") + agree
                      + near(by_quad, ref_quad, "reference"))
            checks.op(label + " closed form", value_problems(closed, "prob") + agree
                      + near(closed, ref_closed, "reference"))

    def _seeded_rates(self, checks, begin_op) -> None:
        for i, params in enumerate(self.draws):
            for with_ris in (True, False):
                coverage = (analytic.coverage_fixed_ris if with_ris
                            else analytic.coverage_fixed_noris)
                label = f"seeded draw {i} {'with' if with_ris else 'without'} surface"
                begin_op()
                try:
                    closed = float(analytic.rate_fixed_alpha4_intlim(params, with_ris))
                    numeric = float(analytic.rate_from_coverage(
                        lambda g: coverage(params, g)))
                except Exception as exc:
                    checks.raised(label, exc, 2)
                    continue
                agree = near(closed, numeric, "rate_from_coverage")
                checks.op(label + " closed form", value_problems(closed, "rate") + agree)
                checks.op(label + " integral", value_problems(numeric, "rate") + agree)


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

DENSE_TRIALS = 2000
SPARSE_TRIALS = 20_000
SPARSE_POWERS_DBM = tuple(float(x) for x in np.arange(-40.0, 30.1, 2.0))


def dense_params() -> SystemParams:
    """The acceptance criterion-2 point at lambda = 1e-3 (forced surface, -24 dBm)."""
    return SystemParams.default(lambda_t=1e-3, p_tx_w=dbm_to_watts(-24.0))


def sparse_params(p_dbm: float) -> SystemParams:
    """One point of a fig7-shaped curve: nearest association, p = 0.9, lambda = 1e-6."""
    return SystemParams.default(lambda_t=1e-6, p=0.9, p_tx_w=dbm_to_watts(p_dbm))


def rep_seed(seed: int, rep: int) -> int:
    """Distinct base seed for each repetition of each run seed."""
    return (seed * 10_000 + rep) * 100


def _expected_interferers(config: mcsim.McConfig) -> int:
    """Computed draws lambda |W| trials (the expected field size), not measured."""
    return round(config.params.lambda_t * config.window.area * config.trials)


def _mc_point(config: mcsim.McConfig, strategy: str, forced_ris: bool | None,
              ref: float, ref_trials: int, label: str, checks: Checks,
              begin_op) -> dict[str, int]:
    """One checked coverage estimate at the 0 dB threshold."""
    begin_op()
    try:
        dist = mcsim.simulate_sinr(config, strategy, forced_ris)
        prob, _ = mcsim.estimate_coverage(dist, 1.0)
    except Exception as exc:
        checks.raised(label, exc, 1)
    else:
        checks.op(label, mc_problems(prob, dist.n, ref, ref_trials))
    return {"trials": config.trials, "interferers": _expected_interferers(config)}


class McDensePoint:
    """Independent replicas of one dense fixed-association point."""

    name = "mc_dense_point"
    first_call_layer = "mcsim"

    def __init__(self, seed: int, refs: dict, workdir: Path):
        self.seed = seed
        self.ref = refs["mc_dense_point"]
        self.sizes = {"trials_per_replica": DENSE_TRIALS, "lambda_t": 1e-3, "p_tx_dbm": -24.0,
                      "n_elements": 32, "strategy": "fixed", "forced_ris": True,
                      "window_radius_m": 5000.0}

    def setup(self) -> float:
        """First call: builds the shared fading table."""
        cfg = mcsim.McConfig(trials=100, seed=self.seed, params=dense_params())
        return float(mcsim.simulate_sinr(cfg, "fixed", forced_ris=True).n)

    def parts(self, rep: int) -> list:
        cfg = mcsim.McConfig(trials=DENSE_TRIALS, seed=rep_seed(self.seed, rep),
                             params=dense_params())
        return [functools.partial(_mc_point, cfg, "fixed", True, self.ref["coverage"],
                                  self.ref["trials"], f"dense point rep {rep}")]


class McSparseSweep:
    """MC column of a 36-point nearest-association power sweep, one call per point."""

    name = "mc_sparse_sweep"
    first_call_layer = "mcsim"

    def __init__(self, seed: int, refs: dict, workdir: Path):
        self.seed = seed
        self.ref = refs["mc_sparse_sweep"]
        self.sizes = {"trials_per_point": SPARSE_TRIALS, "points": len(SPARSE_POWERS_DBM),
                      "p_tx_dbm": [SPARSE_POWERS_DBM[0], SPARSE_POWERS_DBM[-1], 2.0],
                      "lambda_t": 1e-6, "p": 0.9, "n_elements": 32,
                      "strategy": "nearest", "window_radius_m": 5000.0}

    def setup(self) -> float:
        """First call: builds the shared fading table."""
        cfg = mcsim.McConfig(trials=100, seed=self.seed, params=sparse_params(0.0))
        return float(mcsim.simulate_sinr(cfg, "nearest").n)

    def parts(self, rep: int) -> list:
        base = rep_seed(self.seed, rep)
        return [functools.partial(
                    _mc_point,
                    mcsim.McConfig(trials=SPARSE_TRIALS, seed=base + k, params=sparse_params(p)),
                    "nearest", None, self.ref["coverage"][k], self.ref["trials"],
                    f"sweep point {p:g} dBm rep {rep}")
                for k, p in enumerate(SPARSE_POWERS_DBM)]


WORKLOADS = {w.name: w for w in (AnalyticCurves, McDensePoint, McSparseSweep)}
