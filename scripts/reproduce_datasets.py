#!/usr/bin/env python3
"""Regenerate every reference dataset (pole tables, spectra, transients,
reconstructions) for the three built-in systems into ./out.

The time-evolution runs cover the short/medium/long detector distances.
The quadrature-oracle column is added at 2L only, by choice, not for want
of nodes: at their 400 times the sb 20L, db 200L and qb 200L runs would need
0.20M, 15.0M and 6.6M nodes, all inside the oracle's 1e8-node budget.  The
test suite compares the closed form with the oracle at 20L and 200L.
End to end this took 7.4 to 7.9 s (two runs) on a 2-core host with
Python 3.11.7 and numpy 2.4.6; the sb, db and qb ``evolve --oracle`` steps
took 0.67, 2.9 and 1.4 s when run on their own (process wall time, best of
four; one oracle call over all 400 times each).
Catalogs are swept once per system and cached; every later run, the
``evolve`` runs included, reuses them.
"""

import shutil
import sys
from pathlib import Path

from tunnelwave.cli import main

OUT = Path("out")

RUNS = [
    ["poles", "--preset", "sb"],
    ["poles", "--preset", "db"],
    ["poles", "--preset", "qb"],
    ["spectrum", "--preset", "sb", "--poles", "10,100,300"],
    ["spectrum", "--preset", "db", "--poles", "10,100,1000"],
    ["spectrum", "--preset", "qb", "--poles", "10,100,1000,4000"],
    ["evolve", "--preset", "sb", "--xd", "2L", "--tmax", "20", "--oracle"],
    ["evolve", "--preset", "sb", "--xd", "20L", "--tmax", "40"],
    ["evolve", "--preset", "sb", "--xd", "2e5L", "--tmax", "4e5"],
    ["evolve", "--preset", "db", "--xd", "2L", "--tmax", "2", "--oracle"],
    ["evolve", "--preset", "db", "--xd", "200L", "--tmax", "30"],
    ["evolve", "--preset", "db", "--xd", "2e5L", "--tmax", "2e4"],
    ["evolve", "--preset", "qb", "--xd", "2L", "--tmax", "3", "--oracle"],
    ["evolve", "--preset", "qb", "--xd", "200L", "--tmax", "60"],
    ["evolve", "--preset", "qb", "--xd", "2e5L", "--tmax", "5e4"],
    ["reconstruct", "--preset", "sb", "--xd", "2e5L"],
    ["reconstruct", "--preset", "db", "--xd", "2e5L"],
    ["reconstruct", "--preset", "qb", "--xd", "2e5L"],
]


def run_all():
    for args in RUNS:
        # distinct output directories per distance so evolve runs coexist;
        # each starts from the catalogs already cached under OUT
        out = OUT
        if args[0] == "evolve":
            out = OUT / f"evolve_{args[2]}_{args[4]}"
            shutil.copytree(OUT / "cache", out / "cache", dirs_exist_ok=True)
        code = main(args + ["--out", str(out)])
        if code != 0:
            print(f"FAILED ({code}): {' '.join(args)}", file=sys.stderr)
            return code
    print(f"all datasets under {OUT.resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(run_all())
