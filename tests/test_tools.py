import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mc_shift.py"


@pytest.fixture(scope="module")
def mc_shift():
    spec = importlib.util.spec_from_file_location("mc_shift", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HEADER = "p,coverage_analytic,coverage_mc,mc_ci,rate_analytic,rate_mc\n"


def test_mc_shift_reports_the_worst_row_per_column(tmp_path, mc_shift, capsys):
    """sigma = sqrt(ci_old^2 + ci_new^2) / 1.96: 0.0588 and 0.0784 give 0.05."""
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(HEADER + "0.1,,0.5,0.0588,,1.0\n0.2,,0.4,0.0588,,2.0\n0.3,,0,0,,\n")
    new.write_text(HEADER + "0.1,,0.55,0.0784,,1.5\n0.2,,0.3,0.0784,,2.1\n0.3,,0,0,,\n")
    assert mc_shift.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "coverage_mc: worst |d|/sigma = 2 at row 1 (p=0.2) of 3",
        "rate_mc: worst |d| (no mc_ci column) = 0.5 at row 0 (p=0.1) of 3",
    ]
    new.write_text(HEADER + "0.1,,0.5,0.0588,,1.0\n0.2,,0.4,0.0588,,2.0\n0.3,,0.01,0,,\n")
    assert mc_shift.shifts(str(old), str(new))[0].startswith("coverage_mc: worst |d|/sigma = inf")


def test_mc_shift_refuses_different_grids(tmp_path, mc_shift, capsys):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(HEADER + "0.1,,0.5,0.01,,1.0\n")
    new.write_text(HEADER)
    assert mc_shift.main([str(old), str(new)]) == 1
    assert "differ in header or row count" in capsys.readouterr().err
    assert mc_shift.main([str(old)]) == 2


@pytest.fixture(scope="module")
def bench_pairs():
    path = TOOL.parent / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_statistics_on_synthetic_runs(bench_pairs):
    halved = bench_pairs.pair_stats([1.0, 2.0, 3.0, 4.0], [0.5, 1.0, 1.5, 2.0], "lower")
    assert halved.ratios == [0.5, 0.5, 0.5, 0.5]
    assert (halved.median, halved.low, halved.high, halved.wins) == (0.5, 0.5, 0.5, 4)

    base, change = [1.0] * 5, [0.8, 0.9, 0.95, 1.1, 1.2]
    lower = bench_pairs.pair_stats(base, change, "lower")
    assert lower.median == 0.95 and lower.wins == 3
    assert 0.8 <= lower.low <= lower.median <= lower.high <= 1.2
    assert lower.low < lower.high
    higher = bench_pairs.pair_stats(base, change, "higher")
    assert higher.wins == 2 and (higher.low, higher.high) == (lower.low, lower.high)
    assert bench_pairs.pair_stats(base, change, "lower") == lower
    with pytest.raises(ValueError):
        bench_pairs.pair_stats([1.0], [1.0, 2.0], "lower")
    assert bench_pairs.spread([4.0, 1.0, 3.0, 2.0]) == "2.5 [1.25, 3.75]"


def test_bench_pairs_refuses_a_larger_failed_share(bench_pairs):
    """The shares are over all of a side's runs: 1 of 20 against 1 of 10 is smaller."""
    def runs(*counts):
        return [{"failed": f, "attempted": a} for f, a in counts]

    assert bench_pairs.failed_share(runs((1, 10), (0, 10))) == 0.05
    assert bench_pairs.failed_share([]) == 0.0
    assert not bench_pairs.more_failures(runs((0, 10), (0, 10)), runs((0, 10), (0, 10)))
    assert not bench_pairs.more_failures(runs((1, 10)), runs((1, 10), (0, 10)))
    assert bench_pairs.more_failures(runs((1, 10), (0, 10)), runs((1, 10)))
    assert bench_pairs.more_failures(runs((0, 10)), runs((0, 10), (1, 10)))
    assert not bench_pairs.more_failures(runs((2, 10)), runs((1, 10)))


def test_bench_pairs_marks_trace_spans_as_wrapped_calls(bench_pairs, monkeypatch, capsys):
    """A moved work count DIFFERS; a moved span count is only fewer wrapped calls."""
    counts = {"base": {"analytic.quad.neval": 508647, "analytic.quad.calls": 2735,
                       "trace.spans": 595620},
              "change": {"analytic.quad.neval": 508647, "analytic.quad.calls": 2736,
                         "trace.spans": 38000}}
    units = {"analytic.quad.neval": "count", "analytic.quad.calls": "count",
             "trace.spans": "count"}

    def bench(checkout, args):
        assert args[-2:] == ["--trace", "1"]
        return {"metrics": {name: {"value": v, "unit": units[name]}
                            for name, v in counts[checkout].items()}}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    bench_pairs.count_diff({"base": "base", "change": "change"}, "analytic_curves", 3)
    marks = {line.split()[0]: line.split(None, 4)[-1]
             for line in capsys.readouterr().out.splitlines()[1:]}
    assert marks == {"analytic.quad.neval": "equal", "analytic.quad.calls": "DIFFERS",
                     "trace.spans": "(wrapped calls, not work)"}


def test_bench_pairs_verdict_on_synthetic_runs(bench_pairs):
    """A gain needs 9 of 10 wins and a median shift beyond the base's quartile spread;
    a spread wider than the bound leaves the rest unresolved."""
    base = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.02, 0.98]
    verdict = bench_pairs.verdict
    assert verdict(base, [b * 0.8 for b in base], "lower", 0.1) == "gain resolved"
    assert verdict(base, [b * 1.25 for b in base], "higher", 0.1) == "gain resolved"
    # 8 of 10 wins is no resolved gain, however far the median moved
    eight = [b * 0.8 for b in base[:8]] + [b * 1.05 for b in base[8:]]
    assert verdict(base, eight, "lower", 0.1) == "within bound"
    # 10 of 10 wins by less than the quartile spread (0.03 here) is no gain either
    assert verdict(base, [b - 0.01 for b in base], "lower", 0.1) == "within bound"
    assert verdict(base, [b * 1.05 for b in base], "lower", 0.1) == "within bound"
    assert verdict(base, [b * 1.2 for b in base], "lower", 0.1) == "worse beyond bound"
    assert verdict(base, [b * 0.8 for b in base], "higher", 0.1) == "worse beyond bound"
    # a base quartile spread of 0.25, wider than the 10 % bound: small moves are unresolved
    wide = [1.0, 1.2, 0.9, 1.1, 0.8, 1.0, 1.2, 0.9, 1.1, 0.8]
    assert verdict(wide, [w * 1.05 for w in wide], "lower", 0.1) == "unresolved"
    assert verdict(wide, [w * 0.95 for w in wide], "lower", 0.1) == "unresolved"
    assert verdict(wide, [w * 0.7 for w in wide], "lower", 0.1) == "gain resolved"
    # every change run better than every base run, by no more than the spread
    assert verdict(wide, [0.75] * 10, "lower", 0.1) == "within bound"
    assert verdict([2.0], [1.0], "lower", 0.25) == "gain resolved"


def test_bench_pairs_counts_src_lines_as_wc_does(bench_pairs, tmp_path, capsys):
    """Newlines per Python file under src/: a last line without one is not counted."""
    pkg = tmp_path / "src" / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n\n")
    (pkg / "sub" / "b.py").write_text("z = 3\nw = 4")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "outside.py").write_text("nor\nthis\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "oracles.py").write_text("# moved here\ndef f():\n    return 1\n")
    assert bench_pairs.src_lines(tmp_path) == {"pkg/a.py": 3, "pkg/sub/b.py": 1}
    bench_pairs.print_src_lines({"base": tmp_path})
    assert capsys.readouterr().out == ("base src/ lines, wc -l / code: 4 / 4 "
                                       "(pkg/a.py 3/2, pkg/sub/b.py 1/2); "
                                       "tests/oracles.py 3/2\n")


CODE_SAMPLE = '''"""Module docstring,
on two lines."""

import math   # a comment after code


# a comment line
class Box:
    """Class docstring."""

    def area(self):
        \'\'\'Function docstring,

        with a blank line inside.\'\'\'
        text = """a string that is
no docstring"""
        "a string statement after the first is no docstring"
        return math.pi
'''


def test_bench_pairs_counts_code_lines_without_comments_or_docstrings(bench_pairs, tmp_path,
                                                                      capsys):
    """Code lines: import, class, def, the two lines of the assigned string, the later
    string statement and the return; blank, comment-only and docstring lines are not."""
    assert bench_pairs.code_lines(CODE_SAMPLE) == 7
    assert bench_pairs.code_lines("") == 0
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(CODE_SAMPLE)
    (pkg / "b.py").write_text("# only a comment\n\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "oracles.py").write_text(CODE_SAMPLE)
    bench_pairs.print_src_lines({"change": tmp_path})
    assert capsys.readouterr().out == ("change src/ lines, wc -l / code: 20 / 7 "
                                       "(pkg/a.py 18/7, pkg/b.py 2/0); tests/oracles.py 18/7\n")
