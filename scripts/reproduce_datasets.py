#!/usr/bin/env python3
"""Regenerate every reference dataset (pole tables, spectra, transients,
reconstructions) for the three built-in systems into ./out.

The time-evolution runs cover the short/medium/long detector distances; the
quadrature-oracle column is added only at 2L where the node budget allows.
End to end this took 39 s (median of seven runs, 31 to 44 s) on a 2-core
Xeon host with Python 3.11 and numpy 2.4; the sb, db and qb
``evolve --oracle`` steps took 2.7, 24 and 7.8 s of it (one oracle call over
all 400 times each), every other step under 1.5 s.
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
