"""Paired benchmark runs of two revisions: per-pair ratios, their median and wins.

    python tools/bench_pairs.py BASE CHANGE [--workload W] [--pairs N] [--seed S]

BASE and CHANGE are git revisions of the repository holding this file.  Each
is checked out with ``git worktree add --detach`` under a temporary
directory, and both worktrees are removed on exit.  Pair i runs
``perfbench/run.py --workload W --seed S+i`` once in each checkout, from that
checkout's own sources, for the benchmark's own run length; the side that
runs first alternates, so a drifting load falls on both sides alike.

It first prints each side's ``src/`` line count, as ``wc -l`` counts it, and
its code-line count (lines that are not blank, not only a comment and not part
of a docstring), in total and per module, so a change reads its line delta
from the same report, with and without its comments and docstrings.
For every end-to-end metric it prints each pair's ratio (change / base), the
median ratio with a percentile-bootstrap 95 % interval, the pairs the change
wins, each side's median and quartiles, and a verdict under the bound that
the base checkout's BENCHMARK.json gives the metric (see ``verdict``).  Then
it runs one ``--trace 1`` pass per side and prints every count metric of
both: counts such as ``analytic.quad.neval`` or ``jets.jet_exp.calls`` do
not move with load, so equal counts show the two sides did the same work.
``trace.spans`` is the exception: it counts wrapped calls, not work, and is
marked so.

It exits with status 1 when a larger share of the change's operations failed
than of the base's, or a metric is worse beyond its bound, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import random
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
RESAMPLES = 10_000
# a claimed gain must win at least this share of the pairs (9 of 10)
GAIN_WIN_SHARE = 0.9
WORSE = "worse beyond bound"
# trace.spans counts calls of wrapped public functions, so it moves whenever a
# change adds or removes such calls, even with the work unchanged.
WRAPPED_CALLS = "(wrapped calls, not work)"


class PairStats(NamedTuple):
    ratios: list[float]      # change / base, one per pair
    median: float
    low: float               # percentile-bootstrap 95 % interval of the median
    high: float
    wins: int                # pairs where the change is better


def pair_stats(base: list[float], change: list[float], better: str) -> PairStats:
    """Ratios change / base of paired runs, their median, its bootstrap interval and wins."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of base and change runs")
    ratios = [c / b for b, c in zip(base, change)]
    rng = random.Random(0)
    boots = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                   for _ in range(RESAMPLES))
    wins = sum(r < 1.0 if better == "lower" else r > 1.0 for r in ratios)
    return PairStats(ratios, statistics.median(ratios), boots[round(0.025 * (RESAMPLES - 1))],
                     boots[round(0.975 * (RESAMPLES - 1))], wins)


def quartiles(runs: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of one side's runs."""
    return tuple(statistics.quantiles(runs, n=4)) if len(runs) > 1 else (runs[0],) * 3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """How paired runs read under a metric's bound, a fraction of the base's median.

    "worse beyond bound": the change's median is worse than the base's by more
    than the bound.  "gain resolved": the change wins at least GAIN_WIN_SHARE of
    the pairs and its median is better by more than the base's quartile
    spread.  Otherwise "unresolved" when that spread is wider than the bound,
    unless every change run reads better than every base run, else "within
    bound".
    """
    wins = pair_stats(base, change, better).wins
    q1, median, q3 = quartiles(base)
    gain = median - statistics.median(change)
    all_better = max(change) < min(base)
    if better == "higher":
        gain, all_better = -gain, min(change) > max(base)
    if -gain > bound * median:
        return WORSE
    if wins >= GAIN_WIN_SHARE * len(base) and gain > q3 - q1:
        return "gain resolved"
    if q3 - q1 > bound * median and not all_better:
        return "unresolved"
    return "within bound"


def failed_share(runs: list[dict]) -> float:
    """Share of one side's attempted operations that failed, over all its runs."""
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def more_failures(base: list[dict], change: list[dict]) -> bool:
    """Whether a larger share of the change's operations failed than of the base's."""
    return failed_share(change) > failed_share(base)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def bench(checkout: Path, args: list[str]) -> dict:
    """One perfbench/run.py call in a checkout; its final JSON line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                          text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench/run.py {' '.join(args)} in {checkout} "
                           f"exited with status {proc.returncode}")
    return json.loads(lines[-1])


def compare(sides: dict[str, Path], spec: dict[str, dict], workload: str, pairs: int,
            seed: int) -> bool:
    """Run the pairs and print each end-to-end metric's ratios, summary and verdict.

    Returns whether a larger share of the change's operations failed or a
    metric is worse beyond its bound.

    spec maps a metric name to its BENCHMARK.json entry ("better", "bound");
    with --workload all, run.py prefixes each name with its workload.
    """
    runs = {side: [] for side in sides}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(bench(sides[side], ["--workload", workload,
                                                  "--seed", str(seed + i)]))
        if i == 0:
            metrics = [m for m in runs["base"][0]["metrics"] if m.rsplit(".", 1)[-1] in spec]
        print(f"pair {i + 1} ({order[0]} first): " + "  ".join(
            f"{m} {runs['base'][i]['metrics'][m]['value']:.4g} -> "
            f"{runs['change'][i]['metrics'][m]['value']:.4g}" for m in metrics), flush=True)
    for side in sides:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {failed} of {attempted} operations failed")
    worse = False
    for m in metrics:
        entry = spec[m.rsplit(".", 1)[-1]]
        direction, bound = entry["better"], entry["bound"]
        base = [r["metrics"][m]["value"] for r in runs["base"]]
        change = [r["metrics"][m]["value"] for r in runs["change"]]
        s = pair_stats(base, change, direction)
        reading = verdict(base, change, direction, bound)
        worse |= reading == WORSE
        print(f"{m} ({direction} is better): ratios " + " ".join(f"{r:.3f}" for r in s.ratios))
        print(f"  median ratio {s.median:.3f} [95 % {s.low:.3f}, {s.high:.3f}], "
              f"change better in {s.wins} of {pairs}; median [quartiles] "
              f"{spread(base)} -> {spread(change)}")
        print(f"  verdict (bound {bound:.0%}): {reading}")
    return more_failures(runs["base"], runs["change"]) or worse


def spread(runs: list[float]) -> str:
    """Median and quartiles of one side's runs, as "median [q1, q3]"."""
    q1, q2, q3 = quartiles(runs)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def src_lines(checkout: Path) -> dict[str, int]:
    """Newlines (``wc -l``) of each Python file under checkout's src/, by path below src/."""
    src = checkout / "src"
    return {path.relative_to(src).as_posix(): path.read_bytes().count(b"\n")
            for path in sorted(src.rglob("*.py"))}


# tokens that make no line a code line
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of Python source that hold code: not blank, not only a comment, and not
    part of a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def print_src_lines(sides: dict[str, Path]) -> None:
    for side, path in sides.items():
        lines = src_lines(path)
        code = {name: code_lines((path / "src" / name).read_text()) for name in lines}
        print(f"{side} src/ lines, wc -l / code: {sum(lines.values())} / "
              f"{sum(code.values())} (" + ", ".join(
                  f"{name} {n}/{code[name]}" for name, n in lines.items()) + ")", flush=True)


def count_diff(sides: dict[str, Path], workload: str, seed: int) -> None:
    traced = {side: bench(path, ["--workload", workload, "--seed", str(seed),
                                 "--trace", "1"])["metrics"]
              for side, path in sides.items()}
    print(f"traced counts (--trace 1, seed {seed}): base -> change")
    for name, metric in traced["base"].items():
        if metric["unit"] != "count":
            continue
        new = traced["change"].get(name, {}).get("value")
        mark = ("equal" if new == metric["value"]
                else WRAPPED_CALLS if name == "trace.spans" else "DIFFERS")
        print(f"  {name:44s} {metric['value']:.10g} -> "
              f"{'missing' if new is None else f'{new:.10g}'}  {mark}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", default="analytic_curves")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    revs = {"base": git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
            "change": git("rev-parse", "--verify", f"{args.change}^{{commit}}")}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {}
        try:
            for side, rev in revs.items():
                path = Path(tmp) / side
                git("worktree", "add", "--detach", "--quiet", str(path), rev)
                sides[side] = path
            print(f"{args.workload}: {args.pairs} pairs, base {revs['base'][:12]} vs change "
                  f"{revs['change'][:12]}; ratio = change / base", flush=True)
            print_src_lines(sides)
            bench_spec = json.loads((sides["base"] / "BENCHMARK.json").read_text())
            spec = {m["name"]: m for m in bench_spec["end_to_end"]}
            worse = compare(sides, spec, args.workload, args.pairs, args.seed)
            count_diff(sides, args.workload, args.seed)
        finally:
            for path in sides.values():
                git("worktree", "remove", "--force", str(path))
    if worse:
        print("refused: a larger share of the change's operations failed, "
              "or a metric is worse beyond its bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
