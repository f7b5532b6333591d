import csv
import dataclasses
import hashlib
import logging
import math
import re

import numpy as np
import pytest

from riscov import analytic, cli, mcsim
from riscov.analytic import SystemParams
from riscov.cli import (MODES, STRATEGIES, RunSpec, build_params, main,
                        parse_config, render_config)
from riscov.mcsim import McConfig


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def recording(calls: list, fn):
    """fn, wrapped to append (its name, its positional arguments) to calls on each call."""
    def wrapped(*args, **kwargs):
        calls.append((fn.__name__, args))
        return fn(*args, **kwargs)
    return wrapped


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig4", "fig7", "custom"):
        assert name in out


def test_runspec_validation():
    with pytest.raises(ValueError):
        RunSpec(scenario="fig99")
    with pytest.raises(ValueError):
        RunSpec(scenario="fig4", mode="sideways")
    with pytest.raises(ValueError):
        RunSpec(scenario="fig4", overrides={"bogus_key": 1.0})


def test_custom_rejects_unknown_strategy(tmp_path, capsys):
    for strategy in STRATEGIES:
        assert callable(getattr(analytic, f"coverage_{strategy}"))
    out = tmp_path / "x.csv"
    cfg = tmp_path / "bad.cfg"
    for strategy in ("bogus", "fixed_typo", "nearest_intlimited"):
        with pytest.raises(ValueError, match="unknown strategy"):
            RunSpec(scenario="custom", overrides={"strategy": strategy})
        for mode in MODES:
            assert main(["run", "custom", "--strategy", strategy, "--mode", mode,
                         "--trials", "200", "--out", str(out)]) == 1
            assert "error: unknown strategy" in capsys.readouterr().err
        cfg.write_text(f"scenario = custom\nstrategy = {strategy}\n")
        assert main(["validate-config", str(cfg)]) == 1
        assert "error: unknown strategy" in capsys.readouterr().err
    assert not out.exists()


def test_config_roundtrip():
    spec = RunSpec(scenario="fig5", overrides={"lambda_t": 2e-5, "trials": 1000,
                                               "seed": 7, "n_elements": 16},
                   out="x.csv", mode="analytic")
    again = parse_config(render_config(spec))
    assert again == spec


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = fig4\nnonsense = 1\n")
    assert main(["validate-config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err
    # the user density enters no expression, so it is not a key
    cfg.write_text("scenario = custom\nlambda_u = 1e-4\n")
    assert main(["validate-config", str(cfg)]) == 1
    assert "error: line 2: unknown config key 'lambda_u'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run", "custom", "--lambda-u", "1e-4"])


def test_fading_table_size_is_not_a_key(tmp_path, capsys):
    """The simulator fixes its table size and sizes its thread pool from the CPUs it may
    use, so a config naming either is refused."""
    cfg = tmp_path / "old.cfg"
    for key in ("pool_size", "workers"):
        cfg.write_text(f"scenario = custom\n{key} = 4\n")
        assert main(["validate-config", str(cfg)]) == 1
        assert f"error: line 2: unknown config key '{key}'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["run", "custom", f"--{key.replace('_', '-')}", "4"])


def test_default_spec_matches_library_defaults():
    """The KEY_SPECS defaults (dB units) and the library defaults describe one baseline."""
    spec = RunSpec(scenario="custom")
    params = build_params(spec)
    assert params == SystemParams.default()
    from_cli = cli._mc_config(spec, params, default_trials=100)
    assert from_cli == McConfig(trials=100, seed=from_cli.seed, params=params)
    assert from_cli.window.radius == cli.KEY_SPECS["window_radius"][2]


def test_default_db_values_are_the_baseline_round_numbers():
    """KEY_SPECS converts the library's linear defaults back to dB, landing exactly."""
    assert [cli.KEY_SPECS[k][2] for k in ("c_d_db", "c_r_db", "p_tx_dbm", "noise_dbm")] == \
        [-30.0, -30.0, 0.0, -70.0]


def test_config_rejects_bad_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda_t = not_a_number\n")
    assert main(["validate-config", str(cfg)]) == 1


def test_validate_config_makes_the_run_checks(tmp_path, capsys):
    """A value the simulator rejects is refused by validate-config and by every run mode."""
    out = tmp_path / "x.csv"
    cfg = tmp_path / "bad.cfg"
    for text, message in (("trials = -5\n", "trial count must be at least 1"),
                          ("trials = 50\n", "trials must be 0 (the scenario default) or at "
                                            "least 100, got 50"),
                          ("seed = -1\n", "seed must be non-negative, got -1"),
                          ("window_radius = -1\n", "window radius must be positive")):
        cfg.write_text("scenario = custom\n" + text)
        assert main(["validate-config", str(cfg)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        for mode in MODES:
            assert main(["run", "custom", "--config", str(cfg), "--mode", mode,
                         "--out", str(out)]) == 1
            assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["fig2", "fig3"])
def test_run_refuses_too_few_trials_as_main_does(tmp_path, scenario):
    """fig2 and fig3 read their own trial counts; a direct run refuses 1-99 trials too."""
    out = tmp_path / "x.csv"
    spec = RunSpec(scenario, {"trials": 50}, out=str(out), mode="mc")
    with pytest.raises(ValueError, match="at least 100, got 50"):
        cli.run(spec)
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("strategy = nearest\nlambda_t = 0\n",
     "nearest association requires a positive transmitter density"),
    ("strategy = nearest_alpha4\n", "this closed form requires a path-loss exponent of 4"),
])
def test_validate_config_makes_the_analytic_checks(tmp_path, capsys, text, message):
    """A custom strategy the analytic columns refuse is refused by every mode that computes them."""
    out = tmp_path / "x.csv"
    cfg = tmp_path / "bad.cfg"
    for mode in ("analytic", "both"):
        cfg.write_text(f"scenario = custom\nmode = {mode}\n" + text)
        assert main(["validate-config", str(cfg)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert main(["run", "custom", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_validate_config_makes_the_simulator_strategy_checks(tmp_path, capsys):
    """A custom strategy the simulator refuses is refused by every mode that simulates it."""
    out = tmp_path / "x.csv"
    cfg = tmp_path / "bad.cfg"
    message = "nearest association requires a positive transmitter density"
    for mode in ("mc", "both"):
        cfg.write_text(f"scenario = custom\nmode = {mode}\nstrategy = nearest\nlambda_t = 0\n")
        assert main(["validate-config", str(cfg)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert main(["run", "custom", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
    for strategy in STRATEGIES:
        cfg.write_text(f"scenario = custom\nmode = mc\nstrategy = {strategy}\n")
        assert main(["validate-config", str(cfg)]) == 0
        assert "config ok" in capsys.readouterr().out


def test_run_noise_free_intlimited_simulates_beside_its_formula(tmp_path):
    """Both columns are of one model: they differ by the formula's distance approximation
    and sampling error (4e-2 at most here), not by a noise term."""
    out = tmp_path / "x.csv"
    assert main(["run", "custom", "--strategy", "nearest", "--mode", "both",
                 "--interference-limited", "1", "--p", "0.9", "--trials", "2000",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 50
    for row in rows:
        assert abs(float(row["coverage_analytic"]) - float(row["coverage_mc"])) < 0.1


def test_validate_config_ok(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# baseline tweak\nscenario = custom\nlambda_t = 5e-5\n"
                   "p = 0.25\nmode = analytic\n")
    assert main(["validate-config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "lambda_t = 5e-05" in out


FLOAT_KEYS = [key for key, (_, typ, _) in cli.KEY_SPECS.items() if typ is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_key_must_be_finite(tmp_path, capsys, key, value):
    """A non-finite float key is refused by name before any column is computed: by
    validate-config, by run in every mode, and by a RunSpec built directly."""
    message = f"{key} must be finite, got {float(value)!r}"
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"scenario = fig4\n{key} = {value}\n")
    assert main(["validate-config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    out = tmp_path / "x.csv"
    for mode in MODES:
        # the flag comes last so that it overrides the small run's window; "=" keeps
        # argparse from reading -inf as an option
        assert main(["run", "fig4", "--mode", mode, "--trials", "100", "--window-radius", "300",
                     "--out", str(out), f"--{key.replace('_', '-')}={value}"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    with pytest.raises(ValueError) as refused:
        RunSpec("fig4", {key: float(value)})
    assert str(refused.value) == message


@pytest.mark.parametrize("key,value,message", [
    ("p_tx_dbm", "4000", "4000 dBm is out of range: its linear value overflows a float"),
    ("c_d_db", "4000", "4000 dB is out of range: its linear value overflows a float"),
    ("window_radius", "1e200", "window radius 1e+200 m is out of range: its area overflows "
                               "a float"),
    ("gamma_bar_db", "4000", "4000 dB is out of range: its linear value overflows a float"),
    ("d_g0", "1e200", "PathLossParams(c_d=0.001, c_r=0.001, alpha=2.5, d0=3.0) at d_g0 = 1e+200 m "
                      "and n_elements = 32 is out of range: its gain eta_g0 underflows to 0"),
    ("c_r_db", "-4000", "-4000 dB is out of range: its linear value underflows to 0"),
    ("p_tx_dbm", "-4000", "-4000 dBm is out of range: its linear value underflows to 0"),
    ("noise_dbm", "-4000", "-4000 dBm is out of range: its linear value underflows to 0"),
    ("gamma_bar_db", "-4000", "-4000 dB is out of range: its linear value underflows to 0"),
])
def test_a_key_that_overflows_is_refused_by_value(tmp_path, capsys, key, value, message):
    """A finite key whose linear value or window area overflows a float, or whose linear
    value or serving gain underflows to 0, ends in one error line that names the key or
    the value, in validate-config and in every run mode."""
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"scenario = custom\n{key} = {value}\n")
    assert main(["validate-config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    out = tmp_path / "x.csv"
    for mode in MODES:
        assert main(["run", "custom", "--mode", mode, "--trials", "100", "--out", str(out),
                     f"--{key.replace('_', '-')}", value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


_FIT = "FadingParams(m_h={}, m_r={}) at eta_g0 = 5.59017e-07, eta_h0 = {} and N = 32"
_LOSS = "PathLossParams(c_d=0.001, c_r=0.001, alpha={}, d0=3.0) at d_g0 = {} m and n_elements = 32"


@pytest.mark.parametrize("key,value,message", [
    ("d0", "1e-120", _FIT.format(2.0, 2.0, "5.59017e+293") + " is out of range: its signal "
                                                             "moment overflows a float"),
    ("d_g0", "1e-300", _LOSS.format(2.5, "1e-300") + " is out of range: its gain eta_g0 "
                                                     "overflows a float"),
    ("m_h", "1e300", _FIT.format("1e+300", 2.0, "3.48773e-08")
     + " is out of range: its element-sum moment overflows a float"),
    ("m_r", "1e300", _FIT.format(2.0, "1e+300", "3.48773e-08")
     + " is out of range: its element-sum moment overflows a float"),
    ("c_r_db", "3000", _FIT.format(2.0, 2.0, "3.48773e+295") + " is out of range: its signal "
                                                              "moment overflows a float"),
    ("alpha", "1e300", _LOSS.format("1e+300", 20) + " is out of range: its gain eta_g0 "
                                                    "underflows to 0"),
], ids=["d0", "d_g0", "m_h", "m_r", "c_r_db", "alpha"])
def test_a_derived_quantity_out_of_range_is_refused_in_every_mode(tmp_path, capsys, key, value,
                                                                  message):
    """A key whose serving gains or signal fit leave a float's range ends in one error line
    that names the quantity and the values it comes from: from validate-config in every
    mode, since SystemParams builds the fits, and from every run mode.  Before, the first
    five ended in an OverflowError traceback, and mc mode validated d0 = 1e-120 and
    c_r_db = 3000; alpha = 1e300 was refused as d_g0 = 20 m being out of range."""
    cfg, out = tmp_path / "x.cfg", tmp_path / "x.csv"
    for mode in MODES:
        cfg.write_text(f"scenario = custom\nmode = {mode}\n{key} = {value}\n")
        assert main(["validate-config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["run", "custom", "--mode", mode, "--trials", "100", "--window-radius", "300",
                     "--out", str(out), f"--{key.replace('_', '-')}", value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("window_radius", "1e6", "lambda_t = 0.0001 on a 1e+06 m window expects 3.14e+08 "
                             "interferers a trial, over the budget of 2097152"),
    ("n_elements", "100000", "n_elements = 100000, trials = 20000 and 7.85e+03 interferers a "
                             "trial make 1.35e+11 random draws, over the budget of 1.72e+10"),
])
def test_a_simulation_over_the_work_budget_is_refused_in_modes_with_mc_columns(
        tmp_path, capsys, key, value, message):
    """window_radius = 1e6 planned a 4.7 GiB fading table and n_elements = 100000 an hour of
    table draws, and both validated; the budgets refuse them in mc and both modes, and
    analytic mode, which simulates nothing, still takes them."""
    cfg, out = tmp_path / "x.cfg", tmp_path / "x.csv"
    for mode in MODES:
        cfg.write_text(f"scenario = custom\nmode = {mode}\n{key} = {value}\n")
        refused = mode != "analytic"
        assert main(["validate-config", str(cfg)]) == refused
        assert capsys.readouterr().err == (f"error: {message}\n" if refused else "")
        if refused:
            assert main(["run", "custom", "--mode", mode, "--out", str(out),
                         f"--{key.replace('_', '-')}", value]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()


@pytest.mark.parametrize("strategy", ["fixed_ris", "nearest"])
def test_scaled_gains_are_refused_or_keep_the_coverage_counts(tmp_path, capsys, strategy):
    """Without noise the SINR does not depend on a gain scale common to c_d and c_r, so a
    scaled run either is refused (its float32 interferer gains would overflow or lose their
    bits) or gives the unscaled run's coverage column exactly.  Before, c_d_db = c_r_db =
    250 read 0.56 at 14.3 dB where the unscaled run reads 0.925, and 300 and 400 read 1."""
    out = tmp_path / "x.csv"

    def coverage(db):
        out.unlink(missing_ok=True)
        code = main(["run", "custom", "--mode", "mc", "--strategy", strategy, "--trials", "200",
                     "--window-radius", "300", "--interference-limited", "1", "--c-d-db", db,
                     "--c-r-db", db, "--out", str(out)])
        err = capsys.readouterr().err
        if code:
            assert re.fullmatch(r"error: c_d = [^\n]* give interferer gains outside float32's "
                                r"range\n", err) and not out.exists(), db
            return None
        return [row["coverage_mc"] for row in read_csv(out)]

    unscaled = coverage("-30")
    ran = {db for db in ("-400", "-250", "-190", "-150", "-100", "-50", "0", "50", "100", "120",
                         "190", "250", "300", "400") if coverage(db) is not None}
    for db in ran:
        assert coverage(db) == unscaled, db
    assert {"-100", "0", "100"} <= ran and not {"-400", "250", "300", "400"} & ran


@pytest.mark.parametrize("key,value", [("lambda_t", "1e-5"), ("mode", "mc"),
                                       ("scenario", "fig5"), ("out", "b.csv")])
def test_a_key_given_twice_is_refused(tmp_path, capsys, key, value):
    """A config file sets each key once; a second line naming it is refused with both lines."""
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"scenario = fig4\nmode = analytic\nlambda_t = 1e-4\nout = a.csv\n"
                   f"# a comment\n{key} = {value}\n")
    first = {"scenario": 1, "mode": 2, "lambda_t": 3, "out": 4}[key]
    message = f"error: line 6: {key} is already set on line {first}\n"
    assert main(["validate-config", str(cfg)]) == 1
    assert capsys.readouterr().err == message
    out = tmp_path / "x.csv"
    for mode in MODES:
        assert main(["run", "fig4", "--config", str(cfg), "--mode", mode,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
    assert not out.exists()


def refused_first(tmp_path, capsys, monkeypatch, scenario, out, message):
    """Every run mode and validate-config refuse out with message, before any evaluator
    or simulation runs."""
    evaluated = []
    for name in ("coverage_nearest", "coverage_nearest_alpha4", "coverage_fixed_ris",
                 "coverage_nearest_intlimited", "rate_nearest"):
        monkeypatch.setattr(analytic, name, recording(evaluated, getattr(analytic, name)))
    monkeypatch.setattr(mcsim, "simulate_sinr", recording(evaluated, mcsim.simulate_sinr))
    for mode in MODES:
        assert main(["run", scenario, "--mode", mode, "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"scenario = {scenario}\nout = {out}\n")
    assert main(["validate-config", str(cfg)]) == 1
    assert capsys.readouterr().err == message
    assert evaluated == []


@pytest.mark.parametrize("scenario", ["fig7", "custom"])
def test_an_output_path_without_its_directory_is_refused_first(tmp_path, capsys, monkeypatch,
                                                                scenario):
    """An --out in a directory that does not exist is refused before any column is computed,
    by every run mode and by validate-config, and no file is written."""
    out = tmp_path / "missing_dir" / "x.csv"
    refused_first(tmp_path, capsys, monkeypatch, scenario, out,
                  f"error: cannot write {out}: its directory does not exist\n")
    assert not out.parent.exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["x.cfg"]


@pytest.mark.parametrize("scenario", ["fig8", "custom"])
def test_an_output_path_that_is_a_directory_is_refused_first(tmp_path, capsys, monkeypatch,
                                                              scenario):
    """An --out naming an existing directory is refused before any column is computed, by
    every run mode and by validate-config, and nothing is written into it."""
    out = tmp_path / "out_dir"
    out.mkdir()
    refused_first(tmp_path, capsys, monkeypatch, scenario, out,
                  f"error: cannot write {out}: it is a directory\n")
    assert list(out.iterdir()) == []
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out_dir", "x.cfg"]


@pytest.mark.parametrize("flags,message", [
    (["--lambda-t", "-1"], "transmitter density must be finite and non-negative, got -1.0"),
    (["--lambda-t", "-0.0001"], "transmitter density must be finite and non-negative, "
                                "got -0.0001"),
    (["--m-h", "0.25"], "Nakagami shape parameters must be finite and at least 0.5, "
                        "got m_h = 0.25, m_r = 2.0"),
    (["--interference-limited", "7"], "interference_limited must be 0 or 1, got 7"),
])
@pytest.mark.parametrize("mode", MODES)
def test_run_refuses_values_outside_the_model(tmp_path, capsys, flags, message, mode):
    out = tmp_path / "x.csv"
    assert main(["run", "custom", *flags, "--mode", mode, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_spec_takes_interference_limited_0_or_1():
    for value in (0, 1, False, True):
        RunSpec("fig4", {"interference_limited": value})
    for value in (7, -1, 0.5, math.nan, "1"):
        with pytest.raises(ValueError, match="interference_limited must be 0 or 1"):
            RunSpec("fig4", {"interference_limited": value})


def test_run_and_validate_config_load_a_config_alike(tmp_path):
    """One loader: validate-config takes the file's spec as it stands; run puts its
    scenario, --mode, --out and key flags on top, and uses the defaults without a file."""
    cfg = tmp_path / "x.cfg"
    cfg.write_text("scenario = fig4\nmode = analytic\nout = a.csv\nlambda_t = 1e-5\np = 0.2\n")
    parser = cli._build_parser()
    load = lambda argv: cli._spec_from_args(parser.parse_args(argv))
    assert load(["validate-config", str(cfg)]) == parse_config(cfg.read_text())
    assert load(["run", "fig5", "--config", str(cfg)]) == RunSpec(
        "fig5", {"lambda_t": 1e-5, "p": 0.2}, out="a.csv", mode="analytic")
    assert load(["run", "fig5", "--config", str(cfg), "--lambda-t", "1e-4", "--mode", "mc",
                 "--out", "b.csv"]) == RunSpec("fig5", {"lambda_t": 1e-4, "p": 0.2},
                                               out="b.csv", mode="mc")
    assert load(["run", "fig5", "--p", "0.3"]) == RunSpec("fig5", {"p": 0.3})


def test_build_params_units():
    spec = RunSpec(scenario="custom",
                   overrides={"c_d_db": -30.0, "noise_dbm": -70.0, "p_tx_dbm": 0.0})
    p = build_params(spec)
    assert p.path.c_d == pytest.approx(1e-3)
    assert p.noise_w == pytest.approx(1e-10)
    assert p.p_tx_w == pytest.approx(1e-3)


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("scenario = custom\nlambda_t = 1e-5\ntrials = 400\n")
    out = tmp_path / "run.csv"
    code = main(["run", "custom", "--config", str(cfg), "--mode", "analytic",
                 "--lambda-t", "1e-4", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 50


def test_run_reproducible_csv(tmp_path):
    args = ["run", "custom", "--mode", "both", "--lambda-t", "1e-5",
            "--window-radius", "1000", "--trials", "500", "--seed", "11",
            "--strategy", "fixed_ris"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_default_workers_match_one_worker(tmp_path, monkeypatch):
    args = ["run", "custom", "--trials", "2000", "--mode", "mc"]
    serial = tmp_path / "serial.csv"
    default = tmp_path / "default.csv"
    assert main(args + ["--out", str(default)]) == 0
    monkeypatch.setattr(mcsim, "_available_cpus", lambda: 1)
    assert main(args + ["--out", str(serial)]) == 0
    assert serial.read_bytes() == default.read_bytes()


@pytest.fixture
def riscov_logger():
    """The riscov logger, with its handlers and level put back after the test."""
    logger = logging.getLogger("riscov")
    handlers, level = logger.handlers[:], logger.level
    yield logger
    logger.handlers[:] = handlers
    logger.setLevel(level)


def test_log_level_flag_routes_riscov_records(tmp_path, capsys, caplog, monkeypatch,
                                              riscov_logger):
    mcsim._get_table.cache_clear()
    out = tmp_path / "out.csv"
    args = ["run", "custom", "--mode", "mc", "--strategy", "nearest", "--lambda-t", "1e-8",
            "--n-elements", "3", "--trials", "200", "--out", str(out)]
    assert main(args) == 0          # no flag: no handler of riscov's own, no INFO record
    csv_bytes = out.read_bytes()
    assert capsys.readouterr().err == "" and riscov_logger.handlers == []
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "drew an empty field" in caplog.text
    mcsim._get_table.cache_clear()
    assert main(["-v", "info", *args]) == 0
    err = capsys.readouterr().err
    assert re.search(r"^fading table N=3 loaded from \S+fading-n3-\w+\.f32 in [0-9.]+ s$",
                     err, re.M), err
    assert "drew an empty field" in err
    mcsim._get_table.cache_clear()
    assert main(["--log-level", "ERROR", *args]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == csv_bytes
    assert len(riscov_logger.handlers) == 1


def test_run_no_interference_matches_rayleigh(tmp_path):
    out = tmp_path / "ray.csv"
    code = main(["run", "custom", "--mode", "mc", "--lambda-t", "0", "--p", "0",
                 "--strategy", "fixed_noris", "--trials", "20000",
                 "--p-tx-dbm", "-10", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    eta = 1e-3 * 20.0**-2.5
    gti = 1e-10 / 1e-4
    checked = 0
    for row in rows:
        g = 10.0 ** (float(row["gamma_bar_db"]) / 10.0)
        expect = math.exp(-g * gti / eta)
        if 0.05 < expect < 0.95:
            ci = float(row["mc_ci"])
            assert abs(float(row["coverage_mc"]) - expect) <= 3.0 * ci + 0.01
            checked += 1
    assert checked >= 5


def test_run_fig2_crossings(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["run", "fig2", "--mode", "analytic", "--out", str(out)]) == 0
    rows = [r for r in read_csv(out)
            if r["m"] == "1" and r["n_elements"] == "16"]
    x = np.array([float(r["x_db"]) for r in rows])
    v = np.array([float(r["ccdf_analytic"]) for r in rows])
    i = int(np.argmin(np.abs(v - 0.8)))
    crossing = np.interp(0.8, v[::-1], x[::-1])
    assert crossing == pytest.approx(-52.0, abs=1.0)
    assert abs(v[i] - 0.8) < 0.1


def test_run_fig7_analytic_density_free_tail(tmp_path):
    out = tmp_path / "fig7.csv"
    assert main(["run", "fig7", "--mode", "analytic", "--out", str(out)]) == 0
    rows = read_csv(out)
    tail = {}
    for r in rows:
        if r["alpha"] == "2.5" and float(r["p_dbm"]) == 30.0:
            tail[r["lambda_t"]] = float(r["coverage_analytic"])
    assert len(tail) == 4
    vals = list(tail.values())
    assert max(vals) - min(vals) <= 0.01


def test_run_fig7_mc_summary_reports_mc_coverage(tmp_path, capsys):
    out = tmp_path / "fig7.csv"
    assert main(["run", "fig7", "--mode", "mc", "--trials", "100",
                 "--window-radius", "300", "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("fig7 ")]
    assert len(lines) == 5
    for line in lines:
        assert re.search(r": mc coverage \d\.\d{3}\.\.\d\.\d{3}$", line), line
        assert "analytic" not in line and "None" not in line
    # fig2 summarises the CCDF columns it computed: the empirical one in mc mode
    for mode, kinds in (("mc", ["mc"]), ("both", ["analytic", "mc"]),
                        ("analytic", ["analytic"])):
        assert main(["run", "fig2", "--mode", mode, "--trials", "100",
                     "--out", str(tmp_path / "fig2.csv")]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("fig2 ")]
        assert len(lines) == 9 * len(kinds)
        for family, line in zip([k for _ in range(9) for k in kinds], lines):
            assert re.search(rf": {family} CCDF crosses 0\.8 at -\d+\.\d\d dB$", line), line


def test_run_fig6_summary_reports_rate_ranges(tmp_path, capsys):
    # one line per density and computed rate column, first..last power
    for mode, kinds in (("mc", ["mc"]), ("both", ["analytic", "mc"])):
        assert main(["run", "fig6", "--mode", mode, "--trials", "100",
                     "--window-radius", "300", "--out", str(tmp_path / "fig6.csv")]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("fig6 ")]
        assert len(lines) == 3 * len(kinds)
        for (lam, kind), line in zip([(lam, k) for lam in ("1e-06", "1e-05", "0.0001")
                                      for k in kinds], lines):
            assert re.search(rf"^fig6 lambda_t={lam}: {kind} rate \d+\.\d{{3}}\.\.\d+\.\d{{3}}$",
                             line), line


@pytest.mark.parametrize("mode", ["mc", "both"])
def test_noise_free_fig6_refuses_windows_that_may_be_empty(tmp_path, capsys, mode):
    """A 300 m window at lambda_t = 1e-6 is empty in 75 % of trials; noise-free, SINR is infinite.

    A run that went ahead would write inf,nan rate cells.  validate-config
    and run refuse it alike; the default 5 km window validates.
    """
    out = tmp_path / "fig6.csv"
    cfg = tmp_path / "fig6.cfg"
    cfg.write_text(f"scenario = fig6\nmode = {mode}\ninterference_limited = 1\n")
    assert main(["validate-config", str(cfg)]) == 0
    message = ("error: noise-free fig6 simulation: a 300 m window at lambda_t = 1e-06 holds "
               "no interferer with probability 0.754")
    assert main(["run", "fig6", "--config", str(cfg), "--trials", "100",
                 "--window-radius", "300", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    cfg.write_text(cfg.read_text() + "trials = 100\nwindow_radius = 300\n")
    assert main(["validate-config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_run_reports_estimate_rate_refusing_infinite_sinr(tmp_path, capsys, monkeypatch):
    """An empty window the up-front check let through still ends the run with an error."""
    monkeypatch.setattr(cli, "_EMPTY_WINDOW_RISK", math.inf)
    out = tmp_path / "fig6.csv"
    assert main(["run", "fig6", "--mode", "mc", "--interference-limited", "1",
                 "--trials", "100", "--window-radius", "300", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: \d+ of 100 SINR samples are infinite", err, re.MULTILINE), err
    assert not out.exists()


def test_run_writes_summary(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert main(["run", "fig3", "--mode", "analytic", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out


# sha256 of `riscov run <args> --mode analytic` CSVs: a refactor of the analytic
# layer must leave every byte of these columns as it is.  fig6 was re-recorded
# when rate_fixed moved to Hamdi's lemma: 9 of its 33 rates moved by at most
# 9.1e-10, the error of the coverage quadrature it replaced.
ANALYTIC_CSV_SHA256 = {
    "fig2": (["fig2"], "b6539f7e4e4d586bc8a248ed281c05eaff4c3b83f3ff866ebb3421216ff2cfba"),
    "fig3": (["fig3"], "8e6f6e58bebb69ae6f5065734b4f2b29c2cc46b898c3545db92be0fe7d09aabc"),
    "fig4": (["fig4"], "f45552b302a2d2aed92787adeee8b2dea76f7a43937c0441fa1717dcb0fc12cb"),
    "fig5": (["fig5"], "058383015f0263040fbcc2c1c98f6e8545137e6cec970d6859e4f2a16abe3a73"),
    "fig6": (["fig6"], "86b76f6addf61c1199efb48a4e818b6d325e94adff53f497ef284d5eae8880b3"),
    "fig7": (["fig7"], "1c875699a031e733f11f7c06a21667a9ed39357ce3585ab1cd7d837794e89de0"),
    "fig7-noise-free": (["fig7", "--interference-limited", "1"],
                        "4a185bd23ce09f71c9c9be6b8c2883f6f1efb70d0a5183aa946f80ad79dc2e25"),
    "fig8": (["fig8"], "6841f9e871086c59b9e76fd1285364f12893bb23b576d0b74aa6d7a3cb862d8c"),
    "nearest-p0": (["custom", "--strategy", "nearest", "--p", "0"],
                   "cacbcfca9e54fcc98bd4b463c62b537847ee0d63e3105ac25f5c5769c09a65c1"),
    "nearest-p1": (["custom", "--strategy", "nearest", "--p", "1"],
                   "c2bc35a4d41120d5882da93875d100d41a2859bf57a86f9c41f90425fbee0995"),
    "nearest_intlimited-p0": (["custom", "--strategy", "nearest", "--interference-limited", "1",
                               "--p", "0"],
                              "9e0645d546f45d76672603eef11689810a0703bc614e8db127ac3795153a98c1"),
    "nearest_intlimited-p1": (["custom", "--strategy", "nearest", "--interference-limited", "1",
                               "--p", "1"],
                              "6f8f1be528ea53264c8f4a9a47d8e359351f1e8544a3c1ffe0c5958a01402012"),
    "nearest_alpha4-p0": (["custom", "--strategy", "nearest_alpha4", "--alpha", "4", "--p", "0"],
                          "7b3b0db7c387646764e2ad7cb88cf350873bd4de482d6e4ee2ae32a3bf103d25"),
    "nearest_alpha4-p1": (["custom", "--strategy", "nearest_alpha4", "--alpha", "4", "--p", "1"],
                          "a925ce6e5ece1be43efaaeef4a687e41f53c28ac3950833fb2c9fa051f655b21"),
    "fixed_noris": (["custom", "--strategy", "fixed_noris"],
                    "f3bdc9c43eb8387763930b36e26d0699729eae19b69c1609cefb56b2fc659713"),
}


@pytest.mark.parametrize("run_id", list(ANALYTIC_CSV_SHA256))
def test_analytic_csv_bytes_are_unchanged(tmp_path, run_id):
    args, digest = ANALYTIC_CSV_SHA256[run_id]
    out = tmp_path / "out.csv"
    assert main(["run", *args, "--mode", "analytic", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of nearest-association `riscov run <args> --mode mc` CSVs: a change to the
# simulator's fixed-association path must leave every byte of these samples as it is.
NEAREST_MC_CSV_SHA256 = {
    "custom-nearest": (["custom", "--strategy", "nearest", "--trials", "2000"],
                       "5b72a86bb8b3be79b41b7d855bfa44e65ec2d6755bb4996bae59547760249147"),
    "fig8": (["fig8", "--trials", "400"],
             "ec8e176a91e354237c8ea91dabcebe79f0285c38cc78789dacc6217e6e2753c1"),
}


@pytest.mark.parametrize("run_id", list(NEAREST_MC_CSV_SHA256))
def test_nearest_mc_csv_bytes_are_unchanged(tmp_path, run_id):
    args, digest = NEAREST_MC_CSV_SHA256[run_id]
    out = tmp_path / "out.csv"
    assert main(["run", *args, "--mode", "mc", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of fixed-association `riscov run custom <args> --mode mc` CSVs at the dense
# point, where the interference kernel does nearly all the work: a change to that
# kernel must leave every byte of these columns as it is.
FIXED_MC_CSV_SHA256 = {
    "fixed_ris": (["--strategy", "fixed_ris"],
                  "baec2e6698c1bfc0d44ecbb2261f57813717d12b4f366562b8e3d9c55fbe32c8"),
    "fixed_noris": (["--strategy", "fixed_noris"],
                    "dd269d1414a67732aed69a22a43dc684c70a342510bab606ad2afa24654cb851"),
}


@pytest.mark.parametrize("run_id", list(FIXED_MC_CSV_SHA256))
def test_fixed_mc_csv_bytes_are_unchanged(tmp_path, run_id):
    args, digest = FIXED_MC_CSV_SHA256[run_id]
    out = tmp_path / "out.csv"
    assert main(["run", "custom", *args, "--lambda-t", "1e-3", "--trials", "2000",
                 "--mode", "mc", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `riscov run <args> --mode mc` CSVs that read no interference-kernel draws:
# fig3 reads the first three fading-table columns through sample_interferer_power,
# fig2 draws only serving signals through sample_signal_power, and at zero density
# the simulator builds no table and sums no interference.
KERNEL_FREE_MC_CSV_SHA256 = {
    "fig3": (["fig3", "--trials", "3000"],
             "1b6a934e9e0f304ee20b11abb3e1bd95832275d09bb445cede7a15015884c1a3"),
    "fig2": (["fig2", "--trials", "200"],
             "d0f7bf581e8f4c973b2b3a0ac364778c339dd7f99f2ce182a43eda550e78d023"),
    "fixed_ris-lambda0": (["custom", "--strategy", "fixed_ris", "--lambda-t", "0",
                           "--trials", "2000"],
                          "81bdce2b38aaacb34235a519272d4885e1e690a2e222c5496895c59df74bf0f2"),
}


@pytest.mark.parametrize("run_id", list(KERNEL_FREE_MC_CSV_SHA256))
def test_kernel_free_mc_csv_bytes_are_unchanged(tmp_path, run_id):
    args, digest = KERNEL_FREE_MC_CSV_SHA256[run_id]
    out = tmp_path / "out.csv"
    assert main(["run", *args, "--mode", "mc", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


SMALL_MC = ["--trials", "100", "--window-radius", "300"]

# sha256 of `riscov run figN --mode mc` CSVs in a small window: fig4-fig7 share one
# power-sweep loop, whose seeds (seed + k at the k-th power) fix every sample.
POWER_SWEEP_MC_CSV_SHA256 = {
    "fig4": "cd015b9df867ee8be1ba00e1dbea6c19c309817dd16812e909f47255604f24fb",
    "fig5": "f24ad4af5f597c069a71415bd8036056637d651df25aff66e82f229de1e6ff0b",
    "fig6": "a5572b379b6f87b92cf82f4f6303a0e3de6ef0b083994a355520d7739dcba8c1",
    "fig7": "617bd630b95a80ad78e66a6026b2c4a73b3d38de8d7355e34e2cb29a2c12755d",
}


@pytest.mark.parametrize("fig", list(POWER_SWEEP_MC_CSV_SHA256))
def test_power_sweep_mc_csv_bytes_are_unchanged(tmp_path, fig):
    out = tmp_path / "out.csv"
    assert main(["run", fig, "--mode", "mc", *SMALL_MC, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == POWER_SWEEP_MC_CSV_SHA256[fig]


# fig4's and fig5's summary lines, one per density: the 0.9 crossing of the analytic
# curve, and the first..last MC coverage of the small-window run above.
FIXED_SWEEP_SUMMARIES = {
    ("fig4", "analytic"): ["fig4 lambda_t=0.001: analytic coverage 0.9 at -12.55 dBm",
                           "fig4 lambda_t=0.0001: analytic coverage 0.9 at -24.00 dBm",
                           "fig4 lambda_t=1e-05: analytic coverage 0.9 at -24.11 dBm",
                           "fig4 lambda_t=0: analytic coverage 0.9 at -24.12 dBm"],
    ("fig4", "mc"): ["fig4 lambda_t=0.001: mc coverage 0.000..0.910",
                     "fig4 lambda_t=0.0001: mc coverage 0.000..0.990",
                     "fig4 lambda_t=1e-05: mc coverage 0.000..1.000",
                     "fig4 lambda_t=0: mc coverage 0.000..1.000"],
    ("fig5", "analytic"): ["fig5 lambda_t=0.0001: analytic coverage 0.9 at n/a",
                           "fig5 lambda_t=1e-05: analytic coverage 0.9 at 11.51 dBm",
                           "fig5 lambda_t=1e-06: analytic coverage 0.9 at 2.79 dBm",
                           "fig5 lambda_t=0: analytic coverage 0.9 at 2.35 dBm"],
    ("fig5", "mc"): ["fig5 lambda_t=0.0001: mc coverage 0.000..0.540",
                     "fig5 lambda_t=1e-05: mc coverage 0.000..0.930",
                     "fig5 lambda_t=1e-06: mc coverage 0.000..0.990",
                     "fig5 lambda_t=0: mc coverage 0.000..1.000"],
}


@pytest.mark.parametrize("fig,mode", list(FIXED_SWEEP_SUMMARIES))
def test_fixed_sweep_summary_lines_are_unchanged(tmp_path, capsys, fig, mode):
    out = tmp_path / "out.csv"
    assert main(["run", fig, "--mode", mode, *SMALL_MC, "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith(f"{fig} ")]
    assert lines == FIXED_SWEEP_SUMMARIES[fig, mode]


# Every scenario's `--mode both` run in a small window: sha256 of its CSV and its exact
# summary lines (the "wrote ... to <path>" line aside).  The test runs over every
# registered scenario, so a scenario added without a pin fails.
BOTH_MODE_PINS = {
    "custom": ("40d08da029d38123056c1233b4b41eb352bc047c4b0e38918cde5f1c4344e14f",
               ["custom strategy=fixed_ris: evaluated 50 thresholds"]),
    "fig2": ("2c736a52928d72d09226b2515bffa14f0e44e0cd96654c78adfd5842d22819c7",
             [f"fig2 m={m} N={n}: {kind} CCDF crosses 0.8 at {db} dB"
              for (m, n), pair in {
                  (1, 16): ("-52.02", "-51.86"), (1, 32): ("-46.52", "-46.57"),
                  (1, 64): ("-40.75", "-40.68"), (2, 16): ("-50.84", "-50.75"),
                  (2, 32): ("-45.33", "-45.41"), (2, 64): ("-39.54", "-39.47"),
                  (4, 16): ("-50.20", "-50.33"), (4, 32): ("-44.69", "-44.71"),
                  (4, 64): ("-38.91", "-38.97")}.items()
              for kind, db in zip(("analytic", "mc"), pair)]),
    "fig3": ("fe5f4d429090ca353540ffdef62699f7e5839b33f6c22fd3ef3892f784a97fa9",
             ["fig3 N=16: max |model - empirical| = 0.0260",
              "fig3 N=32: max |model - empirical| = 0.0382",
              "fig3 N=64: max |model - empirical| = 0.0484"]),
    "fig4": ("12306c675d78a2eeace751ecee1563cc22402a087235044cfcdf2464be264006",
             ["fig4 lambda_t=0.001: analytic coverage 0.9 at -12.55 dBm",
              "fig4 lambda_t=0.001: mc coverage 0.000..0.885",
              "fig4 lambda_t=0.0001: analytic coverage 0.9 at -24.00 dBm",
              "fig4 lambda_t=0.0001: mc coverage 0.000..0.990",
              "fig4 lambda_t=1e-05: analytic coverage 0.9 at -24.11 dBm",
              "fig4 lambda_t=1e-05: mc coverage 0.000..1.000",
              "fig4 lambda_t=0: analytic coverage 0.9 at -24.12 dBm",
              "fig4 lambda_t=0: mc coverage 0.000..1.000"]),
    "fig5": ("9570dd321edd52d27640940b0262b9ae9d06ab27efd4ed953a5349919382935e",
             ["fig5 lambda_t=0.0001: analytic coverage 0.9 at n/a",
              "fig5 lambda_t=0.0001: mc coverage 0.000..0.510",
              "fig5 lambda_t=1e-05: analytic coverage 0.9 at 11.51 dBm",
              "fig5 lambda_t=1e-05: mc coverage 0.000..0.935",
              "fig5 lambda_t=1e-06: analytic coverage 0.9 at 2.79 dBm",
              "fig5 lambda_t=1e-06: mc coverage 0.000..0.990",
              "fig5 lambda_t=0: analytic coverage 0.9 at 2.35 dBm",
              "fig5 lambda_t=0: mc coverage 0.000..1.000"]),
    "fig6": ("04a6f8d3307d4ff3a8ce8ff41c974494c82b7b6cbe39dbe7c793bc34c96029f0",
             ["fig6 lambda_t=1e-06: analytic rate 0.050..8.390",
              "fig6 lambda_t=1e-06: mc rate 0.050..8.411",
              "fig6 lambda_t=1e-05: analytic rate 0.050..7.915",
              "fig6 lambda_t=1e-05: mc rate 0.051..7.971",
              "fig6 lambda_t=0.0001: analytic rate 0.050..5.673",
              "fig6 lambda_t=0.0001: mc rate 0.051..5.966"]),
    "fig7": ("b0db930163794bbeea835b4055468fc07f649f8df5ebb08e442f1b60ed445acc",
             ["fig7 lambda_t=1e-05 alpha=2.5: high-power analytic coverage 0.9035061246967792",
              "fig7 lambda_t=1e-05 alpha=2.5: mc coverage 0.000..0.895",
              "fig7 lambda_t=5e-05 alpha=2.5: high-power analytic coverage 0.9036538763861867",
              "fig7 lambda_t=5e-05 alpha=2.5: mc coverage 0.000..0.880",
              "fig7 lambda_t=0.0001 alpha=2.5: high-power analytic coverage 0.9036670419990206",
              "fig7 lambda_t=0.0001 alpha=2.5: mc coverage 0.000..0.885",
              "fig7 lambda_t=0.001 alpha=2.5: high-power analytic coverage 0.9036760509054436",
              "fig7 lambda_t=0.001 alpha=2.5: mc coverage 0.055..0.885",
              "fig7 lambda_t=0.0001 alpha=4: high-power analytic coverage 0.9007453356254439",
              "fig7 lambda_t=0.0001 alpha=4: mc coverage 0.000..0.870"]),
    "fig8": ("adc6d102a78a6bcfa8c8d460c3d9ce9ac5a2a153645422ebb779e2c831b3ad54",
             ["fig8: coverage and rate versus association probability "
              "(noise-free analytics, gamma_t = 1e8 simulation)"]),
}


@pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
def test_both_mode_csv_and_summary_are_unchanged(tmp_path, capsys, scenario):
    digest, summaries = BOTH_MODE_PINS[scenario]
    out = tmp_path / "out.csv"
    assert main(["run", scenario, "--mode", "both", "--trials", "200", "--window-radius", "300",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [*summaries, f"wrote {len(read_csv(out))} rows to {out}"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("fig,strategy", [("fig4", "fixed_ris"), ("fig5", "fixed_noris")])
def test_fixed_sweeps_look_their_strategy_up_at_call_time(tmp_path, monkeypatch, fig, strategy):
    """fig4 and fig5 evaluate analytic.coverage_<strategy> and simulate STRATEGIES[strategy],
    both looked up when the run computes, so a wrapped evaluator is the one called."""
    calls = []
    evaluator = f"coverage_{strategy}"
    monkeypatch.setattr(analytic, evaluator, recording(calls, getattr(analytic, evaluator)))
    monkeypatch.setattr(mcsim, "simulate_sinr", recording(calls, mcsim.simulate_sinr))
    assert main(["run", fig, "--mode", "both", "--trials", "100", "--window-radius", "300",
                 "--out", str(tmp_path / "x.csv")]) == 0
    rows = read_csv(tmp_path / "x.csv")
    assert [name for name, _ in calls] == [evaluator, "simulate_sinr"] * len(rows)
    assert {args[1:] for name, args in calls if name == "simulate_sinr"} == {STRATEGIES[strategy]}


def test_run_fig7_noise_free_is_flat_at_the_intlimited_coverage(tmp_path):
    """Without noise the transmit power cancels, so each curve is the density-free
    coverage_nearest_intlimited value, whichever evaluator its exponent picks."""
    out = tmp_path / "fig7.csv"
    assert main(["run", "fig7", "--mode", "analytic", "--interference-limited", "1",
                 "--out", str(out)]) == 0
    curves = {}
    for row in read_csv(out):
        curves.setdefault((row["lambda_t"], row["alpha"]), []).append(
            float(row["coverage_analytic"]))
    assert len(curves) == 5
    for (lam, alpha), values in curves.items():
        assert len(values) == 36
        params = build_params(RunSpec(scenario="fig7"), lambda_t=float(lam), alpha=float(alpha),
                              p=0.9, interference_limited=1)
        expect = analytic.coverage_nearest_intlimited(params, 1.0)
        assert max(abs(v - expect) for v in values) < 1e-9, (lam, alpha)


def test_noise_free_nearest_is_the_intlimited_closed_form(tmp_path):
    """Noise-free nearest association is the density-free closed form, not a radial
    quadrature: at 40 dB, where quad misses the narrow integrand peak, the row reads
    the closed form's value rather than one 5e4 times smaller."""
    out = tmp_path / "x.csv"
    assert main(["run", "custom", "--strategy", "nearest", "--interference-limited", "1",
                 "--p", "0", "--mode", "analytic", "--out", str(out)]) == 0
    last = read_csv(out)[-1]
    assert (last["gamma_bar_db"], last["coverage_analytic"]) == ("40", "0.0001475634576")


@pytest.mark.parametrize("mode", ["mc", "both"])
def test_fig8_refuses_a_zero_density_simulation(tmp_path, capsys, mode):
    """fig8 simulates nearest association, which needs transmitters to serve the user."""
    out = tmp_path / "x.csv"
    cfg = tmp_path / "fig8.cfg"
    cfg.write_text(f"scenario = fig8\nmode = {mode}\nlambda_t = 0\n")
    message = "error: nearest association requires a positive transmitter density"
    assert main(["validate-config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert main(["run", "fig8", "--config", str(cfg), "--trials", "100",
                 "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_fig8_analytic_columns_run_at_zero_density(tmp_path):
    """fig8's noise-free formulas do not depend on the density."""
    out = tmp_path / "x.csv"
    assert main(["run", "fig8", "--mode", "analytic", "--lambda-t", "0", "--out", str(out)]) == 0
    assert len(read_csv(out)) == 9


@pytest.mark.parametrize("setting", ["interference_limited = 1", "lambda_t = 0",
                                     "strategy = nearest\ninterference_limited = 1",
                                     "interference_limited = 7", "lambda_t = nan"])
@pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
def test_validate_config_agrees_with_run(tmp_path, capsys, monkeypatch, scenario, setting):
    """A config that validates also runs, and one that fails fails alike in both and in a
    direct cli.run of the parsed spec, which refuses before it computes a column."""
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"scenario = {scenario}\nmode = both\ntrials = 100\nwindow_radius = 300\n"
                   f"{setting}\n")

    def errors():
        return [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]

    validated = main(["validate-config", str(cfg)]), errors()
    ran = main(["run", scenario, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]), errors()
    assert validated == ran
    if validated[0] == 0:
        return
    evaluated = []
    for name in ("coverage_nearest_intlimited", "rate_nearest"):    # fig8's analytic columns
        monkeypatch.setattr(analytic, name, recording(evaluated, getattr(analytic, name)))
    out = tmp_path / "direct.csv"
    with pytest.raises(ValueError) as refused:
        cli.run(dataclasses.replace(parse_config(cfg.read_text()), out=str(out)))
    assert validated[1] == [f"error: {refused.value}"]
    assert not out.exists()
    if scenario == "fig8":
        assert evaluated == []
