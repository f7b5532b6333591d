"""Paired benchmark runs of two revisions: per-pair ratios, their median and wins.

    python tools/bench_pairs.py BASE CHANGE [--workload W] [--pairs N] [--seed S]

BASE and CHANGE are git revisions of the repository holding this file.  Each
is checked out with ``git worktree add --detach`` under a temporary
directory, and both worktrees are removed on exit.  Pair i runs
``perfbench/run.py --workload W --seed S+i`` once in each checkout, from that
checkout's own sources, for the benchmark's own run length; the side that
runs first alternates, so a drifting load falls on both sides alike.

For every end-to-end metric it prints each pair's ratio (change / base), the
median ratio with a percentile-bootstrap 95 % interval, the pairs the change
wins, and each side's median and quartiles: a gain is resolved when the
medians differ by more than the base's quartile spread.  Then it runs one
``--trace 1`` pass per side and prints every count metric of both: counts
such as ``analytic.quad.neval`` or ``jets.jet_exp.calls`` do not move with
load, so equal counts show the two sides did the same work.  ``trace.spans``
is the exception: it counts wrapped calls, not work, and is marked so.

It exits with status 1 when a larger share of the change's operations failed
than of the base's, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
RESAMPLES = 10_000
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


def compare(sides: dict[str, Path], better: dict[str, str], workload: str, pairs: int,
            seed: int) -> bool:
    """Run the pairs and print each end-to-end metric's ratios and their summary.

    Returns whether a larger share of the change's operations failed.

    better maps a metric name to "lower" or "higher"; with --workload all,
    run.py prefixes each name with its workload.
    """
    runs = {side: [] for side in sides}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(bench(sides[side], ["--workload", workload,
                                                  "--seed", str(seed + i)]))
        if i == 0:
            metrics = [m for m in runs["base"][0]["metrics"] if m.rsplit(".", 1)[-1] in better]
        print(f"pair {i + 1} ({order[0]} first): " + "  ".join(
            f"{m} {runs['base'][i]['metrics'][m]['value']:.4g} -> "
            f"{runs['change'][i]['metrics'][m]['value']:.4g}" for m in metrics), flush=True)
    for side in sides:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {failed} of {attempted} operations failed")
    for m in metrics:
        direction = better[m.rsplit(".", 1)[-1]]
        base = [r["metrics"][m]["value"] for r in runs["base"]]
        change = [r["metrics"][m]["value"] for r in runs["change"]]
        s = pair_stats(base, change, direction)
        print(f"{m} ({direction} is better): ratios " + " ".join(f"{r:.3f}" for r in s.ratios))
        print(f"  median ratio {s.median:.3f} [95 % {s.low:.3f}, {s.high:.3f}], "
              f"change better in {s.wins} of {pairs}; median [quartiles] "
              f"{spread(base)} -> {spread(change)}")
    return more_failures(runs["base"], runs["change"])


def spread(runs: list[float]) -> str:
    """Median and quartiles of one side's runs, as "median [q1, q3]"."""
    q1, q2, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


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
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench_spec["end_to_end"]}
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
            worse = compare(sides, better, args.workload, args.pairs, args.seed)
            count_diff(sides, args.workload, args.seed)
        finally:
            for path in sides.values():
                git("worktree", "remove", "--force", str(path))
    if worse:
        print("refused: a larger share of the change's operations failed")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
