"""Command-line front end: scenario sweeps with CSV output.

Scenarios fig2..fig8 reproduce the standard evaluation curves (signal and
interferer power CCDFs, coverage and rate versus transmit power or
association probability); `custom` evaluates one configuration on a
threshold grid.  Analytic and Monte Carlo columns are controlled by
--mode.  All defaults follow the baseline setup: 5 km disk window, 3 m
surface offset, exponent 2.5, -30 dB unit gains, -70 dBm noise, serving
link from (20, 0) with surface at (20, 3).
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import analytic, mcsim
from .analytic import SystemParams
from .fading import (FadingParams, PathLossParams, db_to_linear, dbm_to_watts,
                     linear_to_db, watts_to_dbm)
from .geometry import Window

__all__ = ["RunSpec", "main", "run", "parse_config", "render_config", "build_params"]

MODES = ("analytic", "mc", "both")
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")

#: strategy of custom, fig4 (fixed_ris) and fig5 (fixed_noris) -> simulate_sinr's strategy
#: and forced_ris; each also names the analytic.coverage_<strategy> function.
STRATEGIES = {"fixed_ris": ("fixed", True), "fixed_noris": ("fixed", False),
              "nearest": ("nearest", None), "nearest_alpha4": ("nearest", None)}

_BASE = SystemParams.default()

#: config/flag keys: (help with units, parser, default); every SystemParams field is here,
#: with its SystemParams.default() value (dB keys converted back, to the same round
#: numbers), and the window radius is mcsim.DEFAULT_WINDOW's.
KEY_SPECS: dict[str, tuple[str, type, object]] = {
    "lambda_t": ("transmitters per m^2", float, _BASE.lambda_t),
    "p": ("surface association probability", float, _BASE.p),
    "n_elements": ("reflecting elements per surface", int, _BASE.n_elements),
    "alpha": ("path-loss exponent", float, _BASE.path.alpha),
    "c_d_db": ("direct unit-distance gain, dB", float, linear_to_db(_BASE.path.c_d)),
    "c_r_db": ("reflected unit-distance gain, dB", float, linear_to_db(_BASE.path.c_r)),
    "d0": ("transmitter-to-surface offset, m", float, _BASE.path.d0),
    "d_g0": ("fixed-association serving distance, m", float, _BASE.d_g0),
    "m_h": ("Nakagami shape, transmitter-to-surface hop", float, _BASE.fading.m_h),
    "m_r": ("Nakagami shape, surface-to-user hop", float, _BASE.fading.m_r),
    "p_tx_dbm": ("transmit power, dBm", float, watts_to_dbm(_BASE.p_tx_w)),
    "noise_dbm": ("noise power, dBm", float, watts_to_dbm(_BASE.noise_w)),
    "interference_limited": ("1 to drop the noise term", int, int(_BASE.interference_limited)),
    "gamma_bar_db": ("SINR threshold, dB", float, 0.0),
    "window_radius": ("simulation window radius, m", float, mcsim.DEFAULT_WINDOW.radius),
    "trials": ("Monte Carlo trials per point (0 = per-scenario default)", int, 0),
    "seed": ("Monte Carlo seed", int, 1),
    "strategy": ("custom scenario strategy: " + "|".join(STRATEGIES), str, "fixed_ris"),
}


@dataclass(frozen=True)
class RunSpec:
    """One run: scenario id, overrides onto the defaults, output, and mode."""

    scenario: str
    overrides: dict = field(default_factory=dict)
    out: str | None = None
    mode: str = "both"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"choose from {', '.join(sorted(SCENARIOS))}")
        for key in self.overrides:
            if key not in KEY_SPECS:
                raise ValueError(f"unknown config key {key!r}")
        for key, (_, typ, _) in KEY_SPECS.items():
            if typ is float and not math.isfinite(float(self.setting(key))):
                raise ValueError(f"{key} must be finite, got {self.setting(key)!r}")
        if self.setting("strategy") not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.setting('strategy')!r}; "
                             f"choose from {', '.join(STRATEGIES)}")
        if self.setting("interference_limited") not in (0, 1):
            raise ValueError(f"interference_limited must be 0 or 1, "
                             f"got {self.setting('interference_limited')!r}")

    def setting(self, key: str):
        return self.overrides.get(key, KEY_SPECS[key][2])

    @property
    def out_path(self) -> str:
        """The CSV path: out, or <scenario>.csv in the working directory."""
        return self.out or f"{self.scenario}.csv"


def build_params(spec: RunSpec, **extra) -> SystemParams:
    """SystemParams from a run spec, with call-site keyword overrides."""
    get = lambda k: extra[k] if k in extra else spec.setting(k)
    return SystemParams(
        lambda_t=float(get("lambda_t")),
        p=float(get("p")),
        n_elements=int(get("n_elements")),
        path=PathLossParams(c_d=db_to_linear(float(get("c_d_db"))),
                            c_r=db_to_linear(float(get("c_r_db"))),
                            alpha=float(get("alpha")),
                            d0=float(get("d0"))),
        fading=FadingParams(m_h=float(get("m_h")), m_r=float(get("m_r"))),
        p_tx_w=dbm_to_watts(float(get("p_tx_dbm"))),
        noise_w=dbm_to_watts(float(get("noise_dbm"))),
        d_g0=float(get("d_g0")),
        interference_limited=bool(get("interference_limited")),
    )


def _trials(spec: RunSpec, default: int) -> int:
    """The spec's Monte Carlo trials per point, default for 0; 1 to MIN_SAMPLES - 1 refused."""
    trials = int(spec.setting("trials"))
    if 0 < trials < mcsim.MIN_SAMPLES:
        raise ValueError(f"trials must be 0 (the scenario default) or at least "
                         f"{mcsim.MIN_SAMPLES}, got {trials}")
    return trials or default


def _mc_config(spec: RunSpec, params: SystemParams, default_trials: int,
               seed_offset: int = 0) -> mcsim.McConfig:
    return mcsim.McConfig(trials=_trials(spec, default_trials),
                          seed=int(spec.setting("seed")) + seed_offset,
                          params=params,
                          window=Window(float(spec.setting("window_radius"))))


# ---------------------------------------------------------------------------
# Config file handling: flat "key = value" lines, '#' comments
# ---------------------------------------------------------------------------

def parse_config(text: str) -> RunSpec:
    scenario = "custom"
    mode = "both"
    out = None
    overrides: dict = {}
    seen: dict[str, int] = {}       # key -> the line that first set it
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if seen.setdefault(key, ln) != ln:
            raise ValueError(f"line {ln}: {key} is already set on line {seen[key]}")
        if key == "scenario":
            scenario = value
        elif key == "mode":
            mode = value
        elif key == "out":
            out = value
        elif key in KEY_SPECS:
            try:
                overrides[key] = KEY_SPECS[key][1](value)
            except ValueError as exc:
                raise ValueError(f"line {ln}: bad value for {key}: {exc}") from exc
        else:
            raise ValueError(f"line {ln}: unknown config key {key!r}")
    return RunSpec(scenario=scenario, overrides=overrides, out=out, mode=mode)


def render_config(spec: RunSpec) -> str:
    """Config text that parses back to an identical run."""
    lines = [f"scenario = {spec.scenario}", f"mode = {spec.mode}"]
    if spec.out is not None:
        lines.append(f"out = {spec.out}")
    for key in KEY_SPECS:
        if key in spec.overrides:
            lines.append(f"{key} = {spec.overrides[key]}  # {KEY_SPECS[key][0]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{x:.10g}" if isinstance(x, float) else str(x)


def _crossing_db(x_db: np.ndarray, values: np.ndarray, level: float) -> float | None:
    """First dB abscissa where a monotone curve crosses the level."""
    for i in range(1, len(x_db)):
        lo, hi = values[i - 1], values[i]
        if (lo - level) * (hi - level) <= 0.0 and lo != hi:
            return float(x_db[i - 1] + (level - lo) * (x_db[i] - x_db[i - 1]) / (hi - lo))
    return None


def _column_rows(cells: dict, columns: dict) -> list[dict]:
    """One row per index of the equal-length columns {name: values}, each with the cells."""
    return [{**cells, **dict(zip(columns, values))} for values in zip(*columns.values())]


def _scenario_fig2(spec: RunSpec):
    """Signal-power CCDF families over element counts and fading shapes."""
    from .powerdist import signal_ccdf, signal_gamma_fit
    rows, summaries = [], []
    x_db = np.arange(-65.0, -24.9, 0.5)
    x_lin = 10.0 ** (x_db / 10.0)
    trials = _trials(spec, 200_000)
    for m in (1.0, 2.0, 4.0):
        for n_el in (16, 32, 64):
            params = build_params(spec, m_h=m, m_r=m, n_elements=n_el)
            ccdfs = {}
            if spec.mode != "mc":
                fit = signal_gamma_fit(params.eta_g0, params.eta_h0, params.fading, n_el)
                ccdfs["analytic"] = np.array([signal_ccdf(fit, x) for x in x_lin])
            if spec.mode != "analytic":
                dist = mcsim.sample_signal_power(params.eta_g0, params.eta_h0,
                                                 params.fading, n_el, trials,
                                                 int(spec.setting("seed")) + n_el + int(m))
                ccdfs["mc"] = dist.ccdf(x_lin)
            for kind, ccdf in ccdfs.items():     # summarise the columns computed
                cross = _crossing_db(x_db, ccdf, 0.8)
                summaries.append(f"fig2 m={m:g} N={n_el}: " + (
                    f"{kind} CCDF crosses 0.8 at {cross:.2f} dB" if cross is not None
                    else f"no {kind} 0.8 crossing on grid"))
            rows += _column_rows({"n_elements": n_el, "m": m}, {
                "x_db": x_db, **{f"ccdf_{kind}": ccdf for kind, ccdf in ccdfs.items()}})
    return ["n_elements", "m", "x_db", "ccdf_analytic", "ccdf_mc"], rows, summaries


def _scenario_fig3(spec: RunSpec):
    """Per-interferer power CCDF against the exponential model."""
    rows, summaries = [], []
    x_db = np.arange(-60.0, -19.9, 0.5)
    x_lin = 10.0 ** (x_db / 10.0)
    trials = _trials(spec, 200_000)
    from .powerdist import interferer_exp_param
    for n_el in (16, 32, 64):
        params = build_params(spec, n_elements=n_el)
        eta_g, eta_h = params.eta_g0, params.eta_h0   # mirrored interferer geometry
        zeta = interferer_exp_param(eta_g, eta_h, n_el)
        model = np.exp(-zeta * x_lin)
        columns = {"x_db": x_db}
        if spec.mode != "mc":
            columns["ccdf_exp_model"] = model
        if spec.mode != "analytic":
            dist = mcsim.sample_interferer_power(eta_g, eta_h, params.fading, n_el,
                                                 trials, int(spec.setting("seed")) + n_el)
            columns["ccdf_mc"] = dist.ccdf(x_lin)
            dev = float(np.nanmax(np.abs(model - columns["ccdf_mc"])))
            summaries.append(f"fig3 N={n_el}: max |model - empirical| = {dev:.4f}")
        else:
            summaries.append(f"fig3 N={n_el}: exponential parameter {zeta:.6g}")
        rows += _column_rows({"n_elements": n_el}, columns)
    return ["n_elements", "x_db", "ccdf_exp_model", "ccdf_mc"], rows, summaries


def _sweep(spec: RunSpec, curves, points, default_trials: int, analytic_fn, mc_fn):
    """Rows of curves over points as {column: cell} dicts, and each curve's own rows.

    curves and points hold (row cells, build_params overrides) pairs.  A row
    holds its point's and its curve's cells, the cells of analytic_fn(params)
    unless the mode is mc, and those of mc_fn(config) unless it is analytic;
    the k-th point's config is seeded seed + k.  Both functions return dicts of
    cells and look their evaluators up at call time, so a wrapped function is
    the one called.
    """
    per_curve = []
    for curve_cells, curve_overrides in curves:
        per_curve.append([])
        for k, (cells, overrides) in enumerate(points):
            params = build_params(spec, **curve_overrides, **overrides)
            row = {**cells, **curve_cells}
            if spec.mode != "mc":
                row.update(analytic_fn(params))
            if spec.mode != "analytic":
                row.update(mc_fn(_mc_config(spec, params, default_trials, seed_offset=k)))
            per_curve[-1].append(row)
    return [row for curve in per_curve for row in curve], per_curve


def _power_points(p_grid_dbm):
    return [({"p_dbm": p_dbm}, {"p_tx_dbm": p_dbm}) for p_dbm in p_grid_dbm]


def _coverage_cells(dist: mcsim.EmpiricalDistribution, gamma_bar: float) -> dict:
    return dict(zip(("coverage_mc", "mc_ci"), mcsim.estimate_coverage(dist, gamma_bar)))


def _span(label: str, curve, column: str) -> str:
    """A curve's summary line: the first..last cell of its column, a quantity_kind name."""
    quantity, kind = column.split("_")
    return f"{label}: {kind} {quantity} {curve[0][column]:.3f}..{curve[-1][column]:.3f}"


def _scenario_fixed_coverage(spec: RunSpec, strategy: str, lambdas, p_grid_dbm):
    """Fixed-association coverage of one custom strategy over transmit power."""
    gamma_bar = db_to_linear(float(spec.setting("gamma_bar_db")))
    rows, curves = _sweep(
        spec, [({"lambda_t": lam}, {"lambda_t": lam}) for lam in lambdas],
        _power_points(p_grid_dbm), 4000,
        lambda params: {"coverage_analytic":
                        getattr(analytic, f"coverage_{strategy}")(params, gamma_bar)},
        lambda cfg: _coverage_cells(mcsim.simulate_sinr(cfg, *STRATEGIES[strategy]), gamma_bar))
    summaries = []
    for lam, curve in zip(lambdas, curves):
        label = f"{spec.scenario} lambda_t={lam:g}"
        if spec.mode != "mc":
            cross = _crossing_db(np.asarray(p_grid_dbm),
                                 np.array([row["coverage_analytic"] for row in curve]), 0.9)
            summaries.append(f"{label}: analytic coverage 0.9 at "
                             + (f"{cross:.2f} dBm" if cross is not None else "n/a"))
        if spec.mode != "analytic":
            summaries.append(_span(label, curve, "coverage_mc"))
    return ["p_dbm", "lambda_t", "coverage_analytic", "coverage_mc", "mc_ci"], rows, summaries


_FIG6_LAMBDAS = (1e-6, 1e-5, 1e-4)
_FIG6_P_GRID = np.arange(-40.0, 0.1, 4.0)
_FIG6_TRIALS = 4000
# Largest chance a noise-free fig6 simulation may have of drawing an empty window
_EMPTY_WINDOW_RISK = 1e-3


def _scenario_fig6(spec: RunSpec):
    rows, curves = _sweep(
        spec, [({"lambda_t": lam}, {"lambda_t": lam}) for lam in _FIG6_LAMBDAS],
        _power_points(_FIG6_P_GRID), _FIG6_TRIALS,
        lambda params: {"rate_analytic": analytic.rate_fixed(params, with_ris=True)},
        lambda cfg: dict(zip(("rate_mc", "mc_ci"), mcsim.estimate_rate(
            mcsim.simulate_sinr(cfg, "fixed", forced_ris=True)))))
    summaries = [_span(f"fig6 lambda_t={lam:g}", curve, column)
                 for lam, curve in zip(_FIG6_LAMBDAS, curves)
                 for column in ("rate_analytic", "rate_mc") if column in curve[0]]
    return ["p_dbm", "lambda_t", "rate_analytic", "rate_mc", "mc_ci"], rows, summaries


def _check_fig6_windows(spec: RunSpec, window: Window) -> None:
    """Refuse a noise-free fig6 simulation that is likely to draw an empty window.

    Without noise, a fixed-association trial whose window holds no
    interferer has infinite SINR, and estimate_rate refuses such samples.
    A window is empty with probability exp(-lambda_t |W|); summed over the
    run's trials (a union bound), that must stay below _EMPTY_WINDOW_RISK.
    """
    trials = _trials(spec, _FIG6_TRIALS)
    empty = [math.exp(-lam * window.area) for lam in _FIG6_LAMBDAS]
    if trials * _FIG6_P_GRID.size * sum(empty) > _EMPTY_WINDOW_RISK:
        raise ValueError(f"noise-free fig6 simulation: a {window.radius:g} m window at "
                         f"lambda_t = {_FIG6_LAMBDAS[0]:g} holds no interferer with probability "
                         f"{empty[0]:.3g}, and such a trial's SINR is infinite; "
                         f"widen window_radius")


def _scenario_fig7(spec: RunSpec):
    gamma_bar = db_to_linear(float(spec.setting("gamma_bar_db")))
    families = [(lam, 2.5) for lam in (1e-5, 5e-5, 1e-4, 1e-3)] + [(1e-4, 4.0)]
    rows, curves = _sweep(
        spec, [({"lambda_t": lam, "alpha": alpha}, {"lambda_t": lam, "alpha": alpha, "p": 0.9})
               for lam, alpha in families],
        _power_points(np.arange(-40.0, 30.1, 2.0)), 2000,
        lambda params: {"coverage_analytic": (
            analytic.coverage_nearest_alpha4 if params.path.alpha == 4.0
            else analytic.coverage_nearest)(params, gamma_bar)},
        lambda cfg: _coverage_cells(mcsim.simulate_sinr(cfg, "nearest"), gamma_bar))
    summaries = []
    for (lam, alpha), curve in zip(families, curves):
        label = f"fig7 lambda_t={lam:g} alpha={alpha:g}"
        if spec.mode != "mc":
            summaries.append(f"{label}: high-power analytic coverage "
                             f"{curve[-1]['coverage_analytic']}")
        if spec.mode != "analytic":
            summaries.append(_span(label, curve, "coverage_mc"))
    columns = ["p_dbm", "lambda_t", "alpha", "coverage_analytic", "coverage_mc", "mc_ci"]
    return columns, rows, summaries


def _scenario_fig8(spec: RunSpec):
    gamma_bar = db_to_linear(float(spec.setting("gamma_bar_db")))

    def simulate(cfg):
        # simulate at a large but finite transmit SNR (gamma_t = 1e8)
        params = replace(cfg.params, interference_limited=False, p_tx_w=dbm_to_watts(10.0))
        dist = mcsim.simulate_sinr(replace(cfg, params=params), "nearest")
        return {**_coverage_cells(dist, gamma_bar), "rate_mc": mcsim.estimate_rate(dist)[0]}

    p_grid = [round(float(p), 3) for p in np.arange(0.1, 0.91, 0.1)]
    rows, _ = _sweep(
        spec, [({}, {"interference_limited": 1})], [({"p": p}, {"p": p}) for p in p_grid], 20_000,
        lambda params: {
            "coverage_analytic": analytic.coverage_nearest_intlimited(params, gamma_bar),
            "rate_analytic": analytic.rate_nearest(params, interference_limited=True)},
        simulate)
    return (["p", "coverage_analytic", "coverage_mc", "mc_ci", "rate_analytic", "rate_mc"], rows,
            ["fig8: coverage and rate versus association probability "
             "(noise-free analytics, gamma_t = 1e8 simulation)"])


def _scenario_custom(spec: RunSpec):
    params = build_params(spec)
    strategy = str(spec.setting("strategy"))
    grid = analytic.default_threshold_grid()
    columns = {"gamma_bar_db": [10.0 * math.log10(g) for g in grid]}
    if spec.mode != "mc":
        # looked up at call time so a wrapped analytic function is the one called
        coverage = getattr(analytic, f"coverage_{strategy}")
        columns["coverage_analytic"] = [float(coverage(params, float(g))) for g in grid]
    if spec.mode != "analytic":
        dist = mcsim.simulate_sinr(_mc_config(spec, params, 20_000), *STRATEGIES[strategy])
        columns["coverage_mc"], columns["mc_ci"] = zip(
            *(mcsim.estimate_coverage(dist, float(g)) for g in grid))
    return (["gamma_bar_db", "coverage_analytic", "coverage_mc", "mc_ci"],
            _column_rows({}, columns),
            [f"custom strategy={strategy}: evaluated {len(grid)} thresholds"])


#: scenario id -> (function returning columns, rows as {column: cell} dicts and summaries;
#: one-line help)
SCENARIOS = {
    "fig2": (_scenario_fig2, "signal-power CCDF vs gamma fit, m x N families"),
    "fig3": (_scenario_fig3, "per-interferer power CCDF vs exponential model"),
    "fig4": (partial(_scenario_fixed_coverage, strategy="fixed_ris",
                     lambdas=(1e-3, 1e-4, 1e-5, 0.0), p_grid_dbm=np.arange(-40.0, 0.1, 2.0)),
             "fixed association with surface: coverage vs transmit power"),
    "fig5": (partial(_scenario_fixed_coverage, strategy="fixed_noris",
                     lambdas=(1e-4, 1e-5, 1e-6, 0.0), p_grid_dbm=np.arange(-20.0, 30.1, 2.0)),
             "fixed association without surface: coverage vs transmit power"),
    "fig6": (_scenario_fig6, "fixed association: rate vs transmit power"),
    "fig7": (_scenario_fig7, "nearest association: coverage vs transmit power"),
    "fig8": (_scenario_fig8, "nearest association, noise-free: coverage and rate vs p"),
    "custom": (_scenario_custom, "one configuration on the default threshold grid"),
}


def _check(spec: RunSpec) -> None:
    """Raise ValueError for a spec whose run would fail, before any column is computed.

    Every mode builds the model and simulator parameters and converts the
    threshold, which refuses a key outside the model, one whose window area or
    linear value overflows a float, or a finite one whose linear value
    underflows to 0; and it refuses an output path that is a directory or
    lies in a directory that does not exist.  A mode with MC columns checks the
    simulator's work budgets and float32 gain range (mcsim._check_work, which
    simulate_sinr also calls, at the most trials a scenario defaults to).  For
    the custom scenario a mode with analytic columns evaluates its strategy
    once; a mode with MC columns checks the simulator's strategy rules for
    custom and for fig8's nearest association, and a noise-free fig6's
    windows, so a config that validates also runs.
    """
    params = build_params(spec)
    # custom's and fig8's default, the most trials any scenario hands to simulate_sinr
    mc_config = _mc_config(spec, params, default_trials=20_000)
    if spec.mode != "analytic":
        mcsim._check_work(mc_config)
    db_to_linear(float(spec.setting("gamma_bar_db")))     # refuses one out of range
    if not os.path.isdir(os.path.dirname(spec.out_path) or "."):
        raise ValueError(f"cannot write {spec.out_path}: its directory does not exist")
    if os.path.isdir(spec.out_path):
        raise ValueError(f"cannot write {spec.out_path}: it is a directory")
    if spec.scenario == "custom":
        strategy = str(spec.setting("strategy"))
        if spec.mode != "mc":
            getattr(analytic, f"coverage_{strategy}")(
                params, float(analytic.default_threshold_grid()[0]))
        if spec.mode != "analytic":
            mc_config.check_strategy(*STRATEGIES[strategy])
    elif spec.scenario == "fig8" and spec.mode != "analytic":
        mc_config.check_strategy("nearest", None)    # its formulas are density-free
    elif spec.scenario == "fig6" and spec.mode != "analytic" and params.interference_limited:
        _check_fig6_windows(spec, mc_config.window)


def run(spec: RunSpec) -> int:
    """Check a run spec, then execute it: write its CSV artifact and print curve summaries."""
    _check(spec)
    columns, rows, summaries = SCENARIOS[spec.scenario][0](spec)
    with open(spec.out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows([_fmt(row.get(column, "")) for column in columns] for row in rows)
    for line in summaries:
        print(line)
    print(f"wrote {len(rows)} rows to {spec.out_path}")
    return 0


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    for key, (help_text, typ, _) in KEY_SPECS.items():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ,
                            default=None, help=help_text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riscov",
        description="Coverage and rate toolkit for surface-assisted networks")
    parser.add_argument("-v", "--log-level", type=str.upper, choices=LOG_LEVELS,
                        help="print riscov's log records from this level on to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write CSV output")
    p_run.add_argument("scenario", choices=sorted(SCENARIOS))
    p_run.add_argument("--mode", choices=MODES, default=None,
                       help="columns to compute (default both)")
    p_run.add_argument("--out", default=None, help="output CSV path")
    p_run.add_argument("--config", default=None, help="config file with key = value lines")
    _add_override_flags(p_run)

    p_val = sub.add_parser("validate-config", help="parse and validate a config file")
    p_val.add_argument("config", help="config file path")

    sub.add_parser("list-scenarios", help="list scenario ids")
    return parser


def _spec_from_args(args) -> RunSpec:
    """The one run-spec loader: the config file's spec, or the defaults without one, and
    for run the positional scenario, --mode, --out and the key flags on top."""
    spec = RunSpec(scenario="custom")
    if args.config is not None:
        with open(args.config) as fh:
            spec = parse_config(fh.read())
    if args.command != "run":
        return spec
    flags = {key: getattr(args, key) for key in KEY_SPECS if getattr(args, key) is not None}
    return RunSpec(scenario=args.scenario, overrides={**spec.overrides, **flags},
                   out=args.out or spec.out, mode=args.mode or spec.mode)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logger = logging.getLogger("riscov")
    if args.log_level and not logger.handlers:     # one handler, however often main runs
        logger.addHandler(logging.StreamHandler())
    logger.setLevel(args.log_level or logger.level)
    try:
        if args.command == "list-scenarios":
            for name, (_, help_text) in sorted(SCENARIOS.items()):
                print(f"{name:8s} {help_text}")
            return 0
        spec = _spec_from_args(args)
        if args.command == "run":
            return run(spec)
        _check(spec)
        sys.stdout.write(render_config(spec))
        print("config ok")
        return 0
    except (ValueError, OSError, analytic.QuadratureError,
            analytic.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
