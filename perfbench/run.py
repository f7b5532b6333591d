"""riscov benchmark: one workload (or all) per call, each in fresh processes.

    python3 perfbench/run.py --workload analytic_curves|mc_dense_point|mc_sparse_sweep|all
                             [--seed N] [--seconds S] [--trace 0|1]

A closed loop: one caller, each riscov call waits for the previous one, and
nothing runs concurrently beyond what the library itself does.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  ``setup_s`` is
the median over three fresh processes (two set-up-only probes and the
measuring process itself); ``wall_s`` is the median repetition of the
workload's fixed body over ``--seconds``; ``peak_rss_mb`` is the measuring
process's peak resident set.  --trace 1 reports the per-layer metrics of a
traced pass and the tracing overhead.  The error rate (failed / attempted
operations) is printed by name and carried by the result's ``failed`` and
``attempted`` fields.

Human-readable lines and a one-line run manifest come first; the last line
of standard output is the JSON result.  The manifest is also written to
perfbench/out/.  Exits non-zero without a result when riscov's sources are
missing or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src" / "riscov"
SETUP_PROBES = 2
WORKLOAD_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    probes = [] if trace else [spawn(common + ["--phase", "setup"], deadline)
                               for _ in range(SETUP_PROBES)]
    result = spawn(common + ["--phase", "run", "--seconds", str(seconds),
                             "--trace", str(trace)], deadline)
    result["setup_s_samples"] = [p["setup_s"] for p in probes] + [result["setup_s"]]
    result["setup_s"] = statistics.median(result["setup_s_samples"])
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return proc.stdout.strip() or None


def report(name: str, r: dict, trace: int, units: dict[str, str]) -> None:
    rate = r["failed"] / r["attempted"]
    print(f"== {name}: {r['reps']} body repetition(s), {r['attempted']} operations")
    if trace:
        print(f"  traced wall_s      {r['traced_wall_s']:.4f} s")
        print(f"  untraced wall_s    {r['wall_s']:.4f} s")
        for key, unit in units.items():
            print(f"  {key:48s} {r['layers'][key]:.6g} {unit}")
    else:
        print(f"  setup_s            {r['setup_s']:.4f} s  (median of "
              + ", ".join(f"{v:.3f}" for v in r["setup_s_samples"]) + ")")
        print(f"  wall_s             {r['wall_s']:.4f} s  (median of "
              + ", ".join(f"{v:.3f}" for v in r["wall_s_samples"]) + ")")
        print(f"  cpu_s              {r['cpu_s']:.4f} s  (diagnostic, median repetition)")
        print(f"  peak_rss_mb        {r['peak_rss_mb']:.1f} MB")
    print(f"  error_rate         {rate:.6g} fraction  ({r['failed']} of {r['attempted']} failed)")
    for message in r["failures"]:
        print(f"  FAILED {message}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: riscov sources not found under {SRC.parent}", file=sys.stderr)
        return 2

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    selected = names if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in selected:
            r = run_workload(name, args.seed, args.seconds, args.trace,
                             time.monotonic() + WORKLOAD_DEADLINE_S)
            values = r["layers"] if args.trace else {k: r[k] for k in units}
            if set(values) != set(units):
                raise BenchError(f"{name} reported {sorted(set(values) ^ set(units))} "
                                 "against BENCHMARK.json")
            report(name, r, args.trace, units)
            manifest = {
                "workload": name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "nproc": os.cpu_count(), "versions": r["versions"],
                "git_commit": git_commit(), "source_sha256": source_digest(),
                "sizes": r["sizes"], "reps": r["reps"], "setup_s": r["setup_s"],
                "setup_s_samples": r["setup_s_samples"], "wall_s": r["wall_s"],
                "wall_s_samples": r["wall_s_samples"], "cpu_s": r["cpu_s"],
                "traced_wall_s": r.get("traced_wall_s"), "peak_rss_mb": r["peak_rss_mb"],
                "attempted": r["attempted"], "failed": r["failed"],
                "error_rate": r["failed"] / r["attempted"], "failures": r["failures"],
                "metrics": values,
            }
            text = json.dumps(manifest)
            (OUT / f"{name}-trace{args.trace}-seed{args.seed}.json").write_text(text + "\n")
            print(f"manifest {text}")
            prefix = "" if len(selected) == 1 else f"{name}."
            for key, value in values.items():
                metrics[prefix + key] = {"value": value, "unit": units[key]}
            attempted += r["attempted"]
            failed += r["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
