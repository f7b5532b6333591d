"""How far the Monte Carlo columns moved between two CSVs of one riscov run.

    python tools/mc_shift.py OLD.csv NEW.csv

Both files must come from the same scenario and grid, with the same header
and row count.  For each column ending in ``_mc`` that is followed by an
``mc_ci`` column (a 95 % half-width) it prints the worst |new - old| / sigma,
sigma = sqrt(ci_old^2 + ci_new^2) / 1.96, and the row where it occurs; for
an MC column without a half-width it prints the worst |new - old|.  Rows
where either value is blank are skipped; a move with sigma = 0 reads inf.
"""

from __future__ import annotations

import csv
import math
import sys


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    return rows[0], rows[1:]


def shifts(old_path: str, new_path: str) -> list[str]:
    """One report line per MC column of the two CSVs."""
    header, old = read_table(old_path)
    new_header, new = read_table(new_path)
    if new_header != header or len(new) != len(old):
        raise ValueError("the CSVs differ in header or row count; compare runs of one grid")
    # the grid columns lead, up to the first value column
    keys = next((i for i, name in enumerate(header)
                 if "analytic" in name or "model" in name or name.endswith("_mc")), 0)
    lines = []
    for col, name in enumerate(header):
        if not name.endswith("_mc"):
            continue
        ci = col + 1 if header[col + 1:col + 2] == ["mc_ci"] else None
        worst, where = -1.0, None
        for i, (a, b) in enumerate(zip(old, new)):
            if a[col] == "" or b[col] == "":
                continue
            move = abs(float(b[col]) - float(a[col]))
            if ci is not None:
                sigma = math.hypot(float(a[ci]), float(b[ci])) / 1.96
                move = move / sigma if sigma > 0.0 else (math.inf if move else 0.0)
            if move > worst:
                worst, where = move, i
        if where is None:
            lines.append(f"{name}: no values")
            continue
        at = ", ".join(f"{k}={v}" for k, v in zip(header[:keys], old[where][:keys]))
        kind = "|d|/sigma" if ci is not None else "|d| (no mc_ci column)"
        lines.append(f"{name}: worst {kind} = {worst:.3g} at row {where} ({at}) of {len(old)}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        lines = shifts(*argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines) if lines else "no MC column")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
