"""The benchmark's traced pass still finds every riscov name it indexes.

perfbench/spans.py wraps riscov's public functions by name and reads fixed
span labels (``specfun.hyp2f1_cov``, ``analytic.rate_from_coverage``,
``mcsim.estimate_coverage``, ``jets.TaylorJet.__mul__`` ...).  Deleting or
renaming one of them fails here instead of only when the benchmark runs.
"""

import importlib.util
import json
import threading
import time
import types
from pathlib import Path

import riscov.analytic as analytic
import riscov.mcsim as mcsim
from riscov.analytic import SystemParams
from riscov.geometry import Window

ROOT = Path(__file__).resolve().parents[1]

# Measured by the benchmark's worker process, not derived from spans.
_WORKER_METRICS = {"mcsim.first_call_s", "trace.overhead_s"}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_reports_every_per_layer_metric():
    spans = _load_spans()
    original = analytic.coverage_fixed_ris
    tracer = spans.Tracer()
    tracer.install()
    try:
        # N = 128 puts the fixed link's jet above the float cutoff, on jet_exp
        analytic.coverage_fixed_ris(SystemParams.default(n_elements=128), 1.0)
        analytic.coverage_nearest_intlimited(
            SystemParams.default(p=0.9, interference_limited=True), 1.0)
    finally:
        tracer.uninstall()
    assert analytic.coverage_fixed_ris is original

    metrics = spans.layer_metrics(tracer.arrays(), {})
    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - set(metrics) == _WORKER_METRICS
    assert metrics["analytic.coverage_fixed_ris.calls"] == 1
    assert metrics["analytic.coverage_nearest_intlimited.calls"] == 1
    # one sum for the fixed link, one per association branch of the nearest one
    assert metrics["jets.alternating_tail_sum.calls"] == 3
    assert metrics["jets.ops_computed"] > 0


def _traced_coverage_nearest(params):
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        analytic.coverage_nearest(params, 1.0)
    finally:
        tracer.uninstall()
    return spans.layer_metrics(tracer.arrays(), {})


def test_traced_coverage_nearest_sees_quadrature_and_jets():
    """Above the float cutoff the integrands call the public jet functions.

    At N = 128 the surface branch's jet is order 107, so each node of its
    quadrature runs jet_exp and alternating_tail_sum, which the trace sees.
    At N = 32 (order 23) every integrand is a bound straight-line kernel,
    so no jet_exp span is recorded.

    analytic binds scipy's quad on its first quadrature, and the tracer can
    only swap a function that is already bound.  So one untraced call comes
    first, as the benchmark worker's set-up call does before its traced
    body; without it the count depends on whether an earlier test has run
    a quadrature.
    """
    analytic.coverage_nearest(SystemParams.default(p=0.9), 1.0)
    metrics = _traced_coverage_nearest(SystemParams.default(p=0.9, n_elements=128))
    assert metrics["analytic.coverage_nearest.calls"] == 1
    assert metrics["analytic.quad.calls"] == 2          # one per association branch
    assert metrics["analytic.quad.neval"] > 0
    assert metrics["jets.jet_exp.calls"] > 0
    assert metrics["jets.alternating_tail_sum.calls"] == metrics["jets.jet_exp.calls"]

    below = _traced_coverage_nearest(SystemParams.default(p=0.9))
    assert below["analytic.quad.neval"] > 0
    assert below["jets.jet_exp.calls"] == 0


def test_traced_threaded_simulation_records_spans_only_in_the_caller(monkeypatch):
    """The span stack assumes one thread; only private functions run in the pool."""
    spans = _load_spans()
    threads = set()

    def clock():
        threads.add(threading.get_ident())
        return time.perf_counter()

    # every wrapper reads the tracer's clock at install time
    monkeypatch.setattr(spans, "time", types.SimpleNamespace(perf_counter=clock))
    monkeypatch.setattr(mcsim, "_available_cpus", lambda: 2)
    config = mcsim.McConfig(trials=4000, seed=3, params=SystemParams.default(n_elements=4),
                            window=Window(1000.0))
    assert len(mcsim._block_plan(config)) > 1
    tracer = spans.Tracer()
    tracer.install()
    try:
        mcsim.simulate_sinr(config, "fixed", forced_ris=True)
    finally:
        tracer.uninstall()

    metrics = spans.layer_metrics(tracer.arrays(), {})
    assert metrics["mcsim.simulate_sinr.calls"] == 1
    assert metrics["trace.spans"] == 1
    assert threads == {threading.get_ident()}
