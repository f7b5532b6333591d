"""Each input rule of the model has one owner, and every entry point refuses alike.

The paper's expressions hold on a stated domain: alpha > 2, N >= 1, a
positive serving distance, non-negative Laplace arguments, alpha = 4 for the
closed forms, and a finite noise-free rate only with interference.  Each rule
is written once (tests/test_exports.py checks that no message is raised from
two places), and each test below runs every public entry point that applies
the rule on the same refused inputs, expecting one exception type and one
message, word for word.
"""

import csv
import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from riscov.cli import KEY_SPECS, STRATEGIES, main
from riscov.analytic import (DivergenceError, SystemParams, coverage_nearest_alpha4,
                             laplace_fixed, laplace_nearest, rate_fixed,
                             rate_fixed_alpha4_intlim)
from riscov.fading import FadingParams, PathLossParams
from riscov.jets import jet_hyp2f1_cov
from riscov.mcsim import (EmpiricalDistribution, estimate_coverage, estimate_rate,
                          sample_interferer_power, sample_signal_power)
from riscov.powerdist import (interferer_exp_param, signal_gamma_fit, signal_moments,
                              sr_gamma_fit, sr_moments)
from riscov.specfun import hyp2f1_cov

BASE = SystemParams.default()
FADING = FadingParams(2.0, 2.0)


def path(alpha: float) -> PathLossParams:
    return PathLossParams(c_d=BASE.path.c_d, c_r=BASE.path.c_r, alpha=alpha, d0=BASE.path.d0)


def refusal(call) -> tuple[type, str]:
    """The type and message of the exception call raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("s", [-1.0, -1e-300, -math.inf])
@pytest.mark.parametrize("entry", [
    lambda s: laplace_fixed(BASE, s),
    lambda s: laplace_nearest(BASE, s, 20.0),
    lambda s: laplace_nearest(BASE, s, 0.0),       # the argument is checked first
], ids=["laplace_fixed", "laplace_nearest", "laplace_nearest_at_zero_distance"])
def test_transform_argument_must_be_non_negative(entry, s):
    assert refusal(lambda: entry(s)) == (
        ValueError, f"transform argument must be non-negative, got {s}")


@pytest.mark.parametrize("d_g0", [0.0, -20.0, math.nan])
@pytest.mark.parametrize("entry", [
    lambda d: SystemParams.default(d_g0=d),
    lambda d: laplace_nearest(BASE, 1.0, d),
], ids=["SystemParams", "laplace_nearest"])
def test_serving_distance_must_be_positive(entry, d_g0):
    assert refusal(lambda: entry(d_g0)) == (
        ValueError, f"serving distance must be positive, got {d_g0}")


@pytest.mark.parametrize("alpha", [2.5, 3.999, 6.0])
@pytest.mark.parametrize("entry", [
    lambda params: coverage_nearest_alpha4(params, 1.0),
    lambda params: coverage_nearest_alpha4(params, -1.0),     # before the threshold rule
    lambda params: rate_fixed_alpha4_intlim(params, True),
    lambda params: rate_fixed_alpha4_intlim(params, False),
    lambda params: rate_fixed_alpha4_intlim(
        SystemParams.default(path=params.path, lambda_t=0.0), True),
], ids=["coverage_nearest_alpha4", "coverage_nearest_alpha4_bad_threshold",
        "rate_fixed_alpha4_intlim", "rate_fixed_alpha4_intlim_noris",
        "rate_fixed_alpha4_intlim_noisy_and_empty"])
def test_closed_forms_require_alpha_4(entry, alpha):
    params = SystemParams.default(path=path(alpha), interference_limited=True)
    assert refusal(lambda: entry(params)) == (
        ValueError, "this closed form requires a path-loss exponent of 4")


@pytest.mark.parametrize("with_ris", [True, False])
@pytest.mark.parametrize("entry,alpha", [(rate_fixed, 2.5), (rate_fixed, 4.0),
                                         (rate_fixed_alpha4_intlim, 4.0)],
                         ids=["rate_fixed", "rate_fixed_at_alpha_4", "rate_fixed_alpha4_intlim"])
def test_noise_free_rate_needs_interference(entry, alpha, with_ris):
    """One type for the rule: the alpha = 4 closed form raised ValueError before."""
    params = SystemParams.default(path=path(alpha), lambda_t=0.0, interference_limited=True)
    assert refusal(lambda: entry(params, with_ris)) == (
        DivergenceError, "the noise-free rate is unbounded without interference")


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("entry", [
    lambda n: SystemParams.default(n_elements=n),
    lambda n: sr_moments(FADING, n),
    lambda n: sr_gamma_fit(FADING, n),
    lambda n: signal_gamma_fit(BASE.eta_g0, BASE.eta_h0, FADING, n),
    lambda n: sample_signal_power(BASE.eta_g0, BASE.eta_h0, FADING, n, 100, seed=1),
    lambda n: sample_interferer_power(BASE.eta_g0, BASE.eta_h0, FADING, n, 100, seed=1),
], ids=["SystemParams", "sr_moments", "sr_gamma_fit", "signal_gamma_fit",
        "sample_signal_power", "sample_interferer_power"])
def test_element_count_must_be_at_least_1(entry, n):
    assert refusal(lambda: entry(n)) == (
        ValueError, f"element count must be at least 1, got {n}")


@pytest.mark.parametrize("alpha", [2.0, 1.5, -4.0, math.nan])
@pytest.mark.parametrize("entry", [
    path,
    lambda alpha: hyp2f1_cov(alpha, -1.0),
    lambda alpha: hyp2f1_cov(alpha, np.array([-1.0, 0.0])),
    lambda alpha: jet_hyp2f1_cov(alpha, -1.0, 4),
], ids=["PathLossParams", "hyp2f1_cov", "hyp2f1_cov_array", "jet_hyp2f1_cov"])
def test_path_loss_exponent_must_exceed_2(entry, alpha):
    assert refusal(lambda: entry(alpha)) == (
        ValueError, f"path-loss exponent must exceed 2, got {alpha}")


@pytest.mark.parametrize("field", ["c_d", "c_r", "alpha", "d0"])
def test_path_loss_fields_must_be_finite(field):
    """An infinite field passes each positivity rule; the serving gain it makes infinite
    or 0 is refused by SystemParams, naming the fields: c_d = inf used to end in a NaN
    quadrature error, c_r = inf in the gamma fit, d0 = inf nowhere."""
    gain, verb = {"c_d": ("eta_g0", "overflows a float"),
                  "c_r": ("eta_h0", "overflows a float"),
                  "alpha": ("eta_g0", "underflows to 0"),
                  "d0": ("eta_h0", "underflows to 0")}[field]
    pl = dataclasses.replace(BASE.path, **{field: math.inf})
    assert refusal(lambda: SystemParams.default(path=pl)) == (
        ValueError, f"{pl} at d_g0 = 20 m and n_elements = 32 is out of range: "
                    f"its gain {gain} {verb}")


@pytest.mark.parametrize("n", [1, 99])
@pytest.mark.parametrize("entry", [lambda dist: estimate_coverage(dist, 1.0), estimate_rate],
                         ids=["estimate_coverage", "estimate_rate"])
def test_estimators_need_100_samples(entry, n):
    dist = EmpiricalDistribution(np.arange(1.0, n + 1.0))
    assert refusal(lambda: entry(dist)) == (ValueError, f"need at least 100 samples, got {n}")


GAIN_ENTRIES = [lambda g, h: signal_moments(g, h, FADING, 32),
                lambda g, h: signal_gamma_fit(g, h, FADING, 32),
                lambda g, h: interferer_exp_param(g, h, 32)]
GAIN_IDS = ["signal_moments", "signal_gamma_fit", "interferer_exp_param"]


@pytest.mark.parametrize("eta_g", [0.0, -1e-6, math.nan])
@pytest.mark.parametrize("entry", GAIN_ENTRIES, ids=GAIN_IDS)
def test_direct_gain_must_be_positive(entry, eta_g):
    for eta_h in (0.0, 1e-9, -1.0):       # the direct gain is checked first
        assert refusal(lambda: entry(eta_g, eta_h)) == (
            ValueError, f"direct gain must be positive, got {eta_g}")


@pytest.mark.parametrize("eta_h", [-1e-300, -1.0, -math.inf])
@pytest.mark.parametrize("entry", GAIN_ENTRIES, ids=GAIN_IDS)
def test_reflected_gain_must_be_non_negative(entry, eta_h):
    assert refusal(lambda: entry(1e-6, eta_h)) == (
        ValueError, f"reflected gain must be non-negative, got {eta_h}")


# ---------------------------------------------------------------------------
# A generated sweep of every config key over its edges and the float extremes
# ---------------------------------------------------------------------------

#: the domain edges of each KEY_SPECS key, the bounds its rules name (none for a key that
#: is unbounded), and for the string key its choices
EDGES = {"lambda_t": [0.0], "p": [0.0, 1.0], "n_elements": [1], "alpha": [2.0], "c_d_db": [],
         "c_r_db": [], "d0": [0.0], "d_g0": [0.0], "m_h": [0.5], "m_r": [0.5], "p_tx_dbm": [],
         "noise_dbm": [], "interference_limited": [0, 1], "gamma_bar_db": [],
         "window_radius": [0.0], "trials": [0, 100], "seed": [0], "strategy": list(STRATEGIES)}

#: the settings every sweep run makes, unless it sweeps that key: a small simulation
SMALL_MC = {"trials": 100, "window_radius": 300.0}


def sweep_values(key: str) -> list:
    """A float key's edges, 1 ulp either side of them, and +-5e-324, +-1e-300, +-1e300 and
    +-max float; an int key's edges, 1 either side, 2**31 and 2**63 - 1; a string key's
    choices and one unknown value."""
    typ, edges = KEY_SPECS[key][1], EDGES[key]
    if typ is float:
        return sorted({v for e in edges for v in (math.nextafter(e, -math.inf), e,
                                                  math.nextafter(e, math.inf))}
                      | {sign * x for sign in (1.0, -1.0)
                         for x in (5e-324, 1e-300, 1e300, sys.float_info.max)})
    if typ is int:
        return sorted({v for e in edges for v in (e - 1, e, e + 1)} | {2**31, 2**63 - 1})
    return [*edges, "bogus"]


def test_the_sweep_covers_every_key():
    assert EDGES.keys() == KEY_SPECS.keys()
    assert len(sweep_values("p")) == 12 and len(sweep_values("trials")) == 8


@pytest.mark.parametrize("key", list(KEY_SPECS))
def test_every_key_value_is_refused_in_one_line_or_runs_to_finite_values(tmp_path, capsys, key):
    """Each value of the sweep, in a custom config of mode analytic and of mode mc (with
    SMALL_MC), is either refused by validate-config and by run alike, with one error
    line and no CSV, or validated and run to 50 rows of finite values whose coverages lie
    in [0, 1].  No value ends in a traceback."""
    cfg, out = tmp_path / "x.cfg", tmp_path / "x.csv"
    settings = "".join(f"{k} = {v}\n" for k, v in SMALL_MC.items() if k != key)
    for value in sweep_values(key):
        for mode in ("analytic", "mc"):
            where = f"{key} = {value!r} in mode {mode}"
            cfg.write_text(f"scenario = custom\nmode = {mode}\nout = {out}\n{settings}"
                           f"{key} = {value!r}\n".replace("'", ""))
            out.unlink(missing_ok=True)
            try:
                validated, refusal = main(["validate-config", str(cfg)]), capsys.readouterr().err
                ran, err = main(["run", "custom", "--config", str(cfg)]), capsys.readouterr().err
            except Exception as exc:        # a traceback from the command line
                pytest.fail(f"{where}: {type(exc).__name__}: {exc}")
            assert (validated, refusal) == (ran, err), where
            if ran:
                assert re.fullmatch(r"error: [^\n]+\n", err) and not out.exists(), where
                continue
            rows = list(csv.DictReader(out.open()))
            assert len(rows) == 50, where
            for row in rows:
                cells = {name: float(cell) for name, cell in row.items() if cell}
                assert all(map(math.isfinite, cells.values())), (where, row)
                assert all(0.0 <= cells[name] <= 1.0 for name in cells
                           if name.startswith("coverage")), (where, row)
