"""In-memory span tracing of riscov's public functions, from outside the package.

A traced pass swaps each public function for a wrapper at every module that
looks it up by name (for example both ``riscov.jets.jet_exp`` and
``riscov.analytic.jet_exp``, and the ``quad`` name inside
``riscov.analytic``), plus the ``TaylorJet`` arithmetic methods.  Each call
appends one span (name, start, end, parent, operation id, integer argument)
to flat arrays; nothing is written until the pass ends.  Self time is a
span's duration minus the durations of its direct child spans (calls are
single-threaded and nested, so children never overlap).

``fading`` and ``geometry`` are not wrapped: no workload does measurable
work there (only ``Window.area`` and dB conversions run).
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np
import scipy.integrate

import riscov
from riscov import analytic, cli, fading, geometry, jets, mcsim, powerdist, specfun

_MODULES = (riscov, specfun, jets, powerdist, analytic, mcsim, cli, fading, geometry)

_JET_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__")

# Jet functions whose order is given by an explicit last argument; the rest
# take a jet as their first argument.
_JET_ORDER_ARG_LAST = {"jet_constant", "jet_variable", "jet_spow", "jet_hyp2f1_cov"}


def _tri(n):
    return n * (n - 1) // 2


# Multiply-adds of each call's own O(n^2) (erfcx: O(n^3)) recurrence loops at
# n = order + 1 coefficients, as the jets module implements them.  A call made
# from inside a jet function (jet_si_ci -> jet_sin_cos, jet_sqrt -> jet_pow)
# is a span of its own and is counted there.  Linear-time work (constants,
# binomial series, the hypergeometric recurrence, sums, scalar products) is
# not counted.
_JET_MACS = {
    "jets.jet_exp": _tri,
    "jets.jet_pow": _tri,
    "jets.jet_recip": _tri,
    "jets.jet_div": _tri,
    "jets.jet_sin_cos": lambda n: 2 * _tri(n),
    "jets.jet_si_ci": lambda n: 2 * _tri(n),
    "jets.jet_erfcx": lambda n: (n - 1) * n * (n + 1) // 6 + _tri(n),
    "jets.TaylorJet.__mul__": lambda n: n * (n + 1) // 2,
    "jets.TaylorJet.__rmul__": lambda n: n * (n + 1) // 2,
}

# Bands of jets.jet_exp self time by jet order: (suffix, lowest order, highest order).
JET_EXP_BANDS = (("low", 0, 63), ("mid", 64, 255), ("high", 256, 1 << 30))

ANALYTIC_REPORTED = ("coverage_fixed_ris", "coverage_nearest", "coverage_nearest_alpha4",
                     "coverage_nearest_intlimited", "rate_fixed", "rate_nearest")

_TAIL_LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999)


def tail(durations: np.ndarray) -> float:
    """Highest ladder percentile with at least ten calls beyond it (max below 20 calls)."""
    n = durations.size
    if n == 0:
        return 0.0
    fits = [q for q in _TAIL_LADDER if n * (1.0 - q) >= 10.0]
    return float(np.quantile(durations, fits[-1])) if fits else float(durations.max())


def _public_functions(module) -> list[str]:
    return [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]


def _jet_order_arg(name: str):
    if name in _JET_ORDER_ARG_LAST:
        return lambda args: int(args[-1])
    return lambda args: args[0].order


def _mul_order_arg(args) -> int:
    """Order of a jet-by-jet product; -1 marks a product with a scalar."""
    return args[0].order if isinstance(args[1], jets.TaylorJet) else -1


def _quad_neval(out) -> int:
    if isinstance(out, tuple) and len(out) >= 3 and isinstance(out[2], dict):
        return int(out[2].get("neval", 0))
    return 0


class Tracer:
    """Span recorder.  install() swaps in the wrappers, uninstall() restores them.

    A tracer may be installed and uninstalled repeatedly; its spans accumulate.
    """

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.arg = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_id = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        """Start a new operation: later spans share the next id."""
        self.op_id += 1

    def _wrap(self, label, fn, arg_of=None, arg_from_result=None):
        nid = self._label_ids.setdefault(label, len(self.labels))
        if nid == len(self.labels):
            self.labels.append(label)
        name, parent, op, arg = self.name, self.parent, self.op, self.arg
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            arg.append(arg_of(args) if arg_of is not None else 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if arg_from_result is not None:
                arg[i] = arg_from_result(out)
            return out

        return traced

    def _swap_everywhere(self, fn, wrapper) -> None:
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        targets = []
        for module in (specfun, powerdist, analytic, mcsim):
            short = module.__name__.rsplit(".", 1)[-1]
            targets += [(f"{short}.{n}", getattr(module, n), None)
                        for n in _public_functions(module)]
        targets += [(f"jets.{n}", getattr(jets, n), _jet_order_arg(n))
                    for n in _public_functions(jets)]
        targets.append(("cli.main", cli.main, None))
        for label, fn, arg_of in targets:
            self._swap_everywhere(fn, self._wrap(label, fn, arg_of))
        self._swap_everywhere(scipy.integrate.quad,
                              self._wrap("analytic.quad", scipy.integrate.quad,
                                         arg_from_result=_quad_neval))
        for attr in _JET_ARITHMETIC:
            original = jets.TaylorJet.__dict__[attr]
            arg_of = _mul_order_arg if attr.endswith("mul__") else (lambda args: args[0].order)
            self._restore.append((jets.TaylorJet, attr, original))
            setattr(jets.TaylorJet, attr,
                    self._wrap(f"jets.TaylorJet.{attr}", original, arg_of))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "labels": np.array(self.labels),
            "name": np.frombuffer(self.name, dtype=np.intc),
            "parent": np.frombuffer(self.parent, dtype=np.intc),
            "op": np.frombuffer(self.op, dtype=np.intc),
            "arg": np.frombuffer(self.arg, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def layer_metrics(spans: dict[str, np.ndarray], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass and the pass's own counts.

    counts holds the trials simulated, the computed interferer draws
    (lambda |W| trials) and the CSV bytes written during the pass.
    """
    labels = list(spans["labels"])
    name, parent, arg = spans["name"], spans["parent"], spans["arg"]
    dur = spans["end"] - spans["start"]
    n_labels = len(labels)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_t = dur - child
    calls = np.bincount(name, minlength=n_labels)
    self_by = np.bincount(name, weights=self_t, minlength=n_labels)
    ix = {label: i for i, label in enumerate(labels)}

    def mask(label):
        return name == ix[label]

    out: dict[str, float] = {}
    out["specfun.hyp2f1_cov.calls"] = int(calls[ix["specfun.hyp2f1_cov"]])
    out["specfun.hyp2f1_cov.self_s"] = float(self_by[ix["specfun.hyp2f1_cov"]])

    exp_mask = mask("jets.jet_exp")
    out["jets.jet_exp.calls"] = int(exp_mask.sum())
    for suffix, lo, hi in JET_EXP_BANDS:
        band = exp_mask & (arg >= lo) & (arg <= hi)
        out[f"jets.jet_exp.self_s.{suffix}"] = float(self_t[band].sum())
    out["jets.alternating_tail_sum.calls"] = int(calls[ix["jets.alternating_tail_sum"]])
    out["jets.alternating_tail_sum.self_s"] = float(self_by[ix["jets.alternating_tail_sum"]])
    out["jets.other.self_s"] = float(sum(
        self_by[i] for i, label in enumerate(labels)
        if label.startswith("jets.")
        and label not in ("jets.jet_exp", "jets.alternating_tail_sum")))
    ops = 0
    for label, macs in _JET_MACS.items():
        orders = arg[mask(label)]
        n = orders[orders >= 0].astype(np.int64) + 1
        ops += int(macs(n).sum())
    out["jets.ops_computed"] = ops

    out["powerdist.signal_gamma_fit.calls"] = int(calls[ix["powerdist.signal_gamma_fit"]])

    for fn in ANALYTIC_REPORTED:
        m = mask(f"analytic.{fn}")
        d = dur[m]
        out[f"analytic.{fn}.calls"] = int(m.sum())
        out[f"analytic.{fn}.p50_ms"] = float(np.median(d)) * 1e3 if d.size else 0.0
        out[f"analytic.{fn}.tail_ms"] = tail(d) * 1e3
        out[f"analytic.{fn}.self_s"] = float(self_t[m].sum())
    out["analytic.rate_from_coverage.coverage_evals"] = _coverage_evals(labels, name, parent)
    quad_mask = mask("analytic.quad")
    out["analytic.quad.calls"] = int(quad_mask.sum())
    out["analytic.quad.neval"] = int(arg[quad_mask].sum())
    out["analytic.quad.self_s"] = float(self_t[quad_mask].sum())

    sim_mask = mask("mcsim.simulate_sinr")
    out["mcsim.simulate_sinr.calls"] = int(sim_mask.sum())
    out["mcsim.simulate_sinr.self_s"] = float(self_t[sim_mask].sum())
    sim_s = float(dur[sim_mask].sum())
    out["mcsim.trials_per_s"] = counts.get("trials", 0) / sim_s if sim_s else 0.0
    out["mcsim.interferers_per_s"] = counts.get("interferers", 0) / sim_s if sim_s else 0.0
    out["mcsim.interferers_computed"] = counts.get("interferers", 0)
    out["mcsim.estimate_coverage.self_s"] = float(self_by[ix["mcsim.estimate_coverage"]])
    out["cli.main.self_s"] = float(self_by[ix["cli.main"]])
    out["cli.csv_bytes"] = counts.get("csv_bytes", 0)
    out["trace.spans"] = int(dur.size)
    return out


def _coverage_evals(labels, name, parent) -> int:
    """Coverage spans with a rate_from_coverage span among their ancestors."""
    rate_id = labels.index("analytic.rate_from_coverage")
    coverage_ids = [i for i, label in enumerate(labels)
                    if label.startswith("analytic.coverage_")]
    name_l = name.tolist()
    parent_l = parent.tolist()
    count = 0
    for i in np.flatnonzero(np.isin(name, coverage_ids)).tolist():
        p = parent_l[i]
        while p >= 0 and name_l[p] != rate_id:
            p = parent_l[p]
        count += p >= 0
    return count
