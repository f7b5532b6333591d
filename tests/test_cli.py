import csv
import math

import numpy as np
import pytest

from riscov import analytic, cli
from riscov.analytic import SystemParams
from riscov.cli import (MODES, STRATEGIES, RunSpec, build_params, main,
                        parse_config, render_config)
from riscov.mcsim import McConfig


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


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
    for strategy in ("bogus", "fixed_typo"):
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


def test_default_spec_matches_library_defaults():
    """cli.DEFAULTS (dB units) and the library defaults describe one baseline."""
    spec = RunSpec(scenario="custom")
    params = build_params(spec)
    assert params == SystemParams.default()
    from_cli = cli._mc_config(spec, params, default_trials=100)
    assert from_cli == McConfig(trials=100, seed=from_cli.seed, params=params)
    assert from_cli.window.radius == cli.DEFAULTS["window_radius"]
    assert from_cli.pool_size == cli.DEFAULTS["pool_size"]


def test_config_rejects_bad_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda_t = not_a_number\n")
    assert main(["validate-config", str(cfg)]) == 1


def test_validate_config_ok(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# baseline tweak\nscenario = custom\nlambda_t = 5e-5\n"
                   "p = 0.25\nmode = analytic\n")
    assert main(["validate-config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "lambda_t = 5e-05" in out


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


def test_default_workers_match_one_worker(tmp_path, capsys):
    args = ["run", "custom", "--trials", "2000"]
    serial = tmp_path / "serial.csv"
    default = tmp_path / "default.csv"
    assert main(args + ["--mode", "mc", "--workers", "1", "--out", str(serial)]) == 0
    assert main(args + ["--mode", "mc", "--out", str(default)]) == 0
    assert serial.read_bytes() == default.read_bytes()
    capsys.readouterr()
    for mode in MODES:
        assert main(args + ["--mode", mode, "--workers", "-1", "--out", str(default)]) == 1
        assert "error: workers must be 0" in capsys.readouterr().err


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


def test_run_writes_summary(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert main(["run", "fig3", "--mode", "analytic", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
