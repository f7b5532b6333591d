"""Record the reference values the benchmark checks against (reference.json).

    PYTHONPATH=src python3 perfbench/make_reference.py

Analytic references are the values of the fixed-grid analytic operations
(figure CSV columns, dense-jet thresholds, the nested-quadrature rate and the
alpha = 4 pairs).  Monte Carlo references are estimates from larger runs with
seeds that no benchmark run uses (benchmark seeds are multiples of 100 plus a
point index below 36).  Rerun only when the model itself changes on purpose.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads as w
from riscov import analytic, cli, mcsim

HERE = Path(__file__).resolve().parent
DENSE_REF_TRIALS = 40_000
DENSE_REF_SEED = 12_345
SPARSE_REF_TRIALS = 200_000
SPARSE_REF_SEED = 777_777_750


def analytic_reference() -> dict:
    ref: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fig, columns, _ in w.FIGURES:
            out = Path(tmp) / f"{fig}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["run", fig, "--mode", "analytic", "--out", str(out)]) != 0:
                    raise SystemExit(f"riscov run {fig} failed")
            rows = w.read_csv(out)
            ref[fig] = {col: [float(r[col]) for r in rows] for col in columns}
    ref["dense_jets"] = {
        str(n): [analytic.coverage_nearest(w.dense_jet_params(n), 10.0 ** (g / 10.0))
                 for g in w.DENSE_JET_THRESHOLDS_DB]
        for n in w.DENSE_JET_ELEMENTS}
    ref["rate_nearest"] = analytic.rate_nearest(w.rate_nearest_params(),
                                                interference_limited=False)
    p4 = w.alpha4_params()
    ref["alpha4_pairs"] = [[analytic.coverage_nearest(p4, g),
                            analytic.coverage_nearest_alpha4(p4, g)]
                           for g in w.ALPHA4_THRESHOLDS]
    return ref


def coverage(params, trials: int, seed: int, strategy: str, forced_ris=None) -> float:
    cfg = mcsim.McConfig(trials=trials, seed=seed, params=params)
    return mcsim.estimate_coverage(mcsim.simulate_sinr(cfg, strategy, forced_ris), 1.0)[0]


def main() -> int:
    ref = {
        "analytic_curves": analytic_reference(),
        "mc_dense_point": {
            "trials": DENSE_REF_TRIALS, "seed": DENSE_REF_SEED,
            "coverage": coverage(w.dense_params(), DENSE_REF_TRIALS, DENSE_REF_SEED,
                                 "fixed", True)},
        "mc_sparse_sweep": {
            "trials": SPARSE_REF_TRIALS, "seed": SPARSE_REF_SEED,
            "p_tx_dbm": list(w.SPARSE_POWERS_DBM),
            "coverage": [coverage(w.sparse_params(p), SPARSE_REF_TRIALS,
                                  SPARSE_REF_SEED + k, "nearest")
                         for k, p in enumerate(w.SPARSE_POWERS_DBM)]},
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
