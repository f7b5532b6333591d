"""One workload in a fresh process: set-up, the timed body, and its checks.

    python3 perfbench/worker.py --workload NAME --seed N --phase setup
    python3 perfbench/worker.py --workload NAME --seed N --phase run --seconds S --trace 0|1

riscov's ``src`` directory must be on PYTHONPATH (run.py arranges that).
The last line of standard output is one JSON object with the results.

Set-up is timed from just before ``import riscov`` to the end of the
workload's first call.  In the run phase the body repeats until ``--seconds``
have passed (at least once); each repetition has its own inputs from the
seed, and ``wall_s`` is the median repetition.  With ``--trace 1`` each part
of one body runs traced and then untraced on the same inputs, and the summed
difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"


def set_up(name: str, seed: int, workdir: Path):
    """Import riscov, build the workload and make its first call.

    riscov and the modules that import it are imported here, not at the top,
    so that the set-up time covers the import.
    """
    t0 = time.perf_counter()
    import riscov
    origin = Path(riscov.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"riscov was imported from {origin}, not from {ROOT / 'src'}")
    import workloads
    workload = workloads.WORKLOADS[name](seed, json.loads(REFERENCE.read_text()), workdir)
    t1 = time.perf_counter()
    workload.setup()
    t2 = time.perf_counter()
    return workload, t2 - t0, t2 - t1


def _no_op() -> None:
    pass


def repeat_body(workload, checks, seconds: float):
    """Run the body until `seconds` have passed (at least once); wall and CPU per run."""
    walls, cpus = [], []
    started = time.perf_counter()
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        for part in workload.parts(len(walls)):
            part(checks, _no_op)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        if time.perf_counter() - started >= seconds:
            return walls, cpus


def traced_body(workload, checks, tracer):
    """One body with each part run traced and then again untraced on the same inputs.

    Pairing the two runs part by part keeps slow drifts of machine speed out
    of the overhead estimate.  The traced run goes first, so its counts are
    those of a process that has not seen these inputs yet.
    """
    traced_s = untraced_s = untraced_cpu = 0.0
    counts = Counter()
    for part in workload.parts(0):
        tracer.install()
        try:
            t0 = time.perf_counter()
            counts.update(part(checks, tracer.begin_op) or {})
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        t0, c0 = time.perf_counter(), time.process_time()
        part(checks, _no_op)
        untraced_s += time.perf_counter() - t0
        untraced_cpu += time.process_time() - c0
    return traced_s, untraced_s, untraced_cpu, counts


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def versions() -> dict[str, str]:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_phase(args) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload, setup_s, first_call_s = set_up(args.workload, args.seed, Path(tmp))
        import workloads
        checks = workloads.Checks()
        result = {"setup_s": setup_s, "first_call_s": first_call_s}
        if args.trace:
            import spans
            tracer = spans.Tracer()
            traced_s, untraced_s, untraced_cpu, counts = traced_body(workload, checks, tracer)
            walls, cpus = [untraced_s], [untraced_cpu]
            layers = spans.layer_metrics(tracer.arrays(), counts)
            layers["mcsim.first_call_s"] = (first_call_s if workload.first_call_layer == "mcsim"
                                            else 0.0)
            layers["trace.overhead_s"] = traced_s - untraced_s
            tracer.save(OUT / f"spans-{args.workload}.npz")
            result.update(layers=layers, traced_wall_s=traced_s)
        else:
            walls, cpus = repeat_body(workload, checks, args.seconds)
        result.update(
            reps=len(walls), wall_s=statistics.median(walls), wall_s_samples=walls,
            cpu_s=statistics.median(cpus), peak_rss_mb=peak_rss_mb(),
            attempted=checks.attempted, failed=checks.failed, failures=checks.messages,
            sizes=workload.sizes, versions=versions())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.phase == "setup":
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            _, setup_s, first_call_s = set_up(args.workload, args.seed, Path(tmp))
        result = {"setup_s": setup_s, "first_call_s": first_call_s,
                  "peak_rss_mb": peak_rss_mb()}
    else:
        result = run_phase(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
