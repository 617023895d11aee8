"""Shows that the benchmark's correctness checks are live.

    python3 bench/selftest.py

On the single barrier it runs two checks twice, once on the program's own
output and once on a deliberately broken copy: a catalog pole moved by 1e-4
must fail the 50-digit zero check, and the closed form with one residue's
sign flipped must fail the oracle comparison.  Exits 0 only when every
unbroken input passes and every broken one fails.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from tunnelwave import ResidueSet, psi_quadrature  # noqa: E402
from tunnelwave.evolution import TruncationWarning  # noqa: E402
from tunnelwave.presets import preset_profile  # noqa: E402
from tunnelwave.validation import ORACLE_WINDOWS  # noqa: E402

from inputs import (  # noqa: E402
    ORACLE_TOL,
    mp_zero_check,
    oracle_deviation,
    oracle_window,
    preset_inputs,
    search_config,
    traced_residues,
    traced_sweep,
)
from tracer import Tracer  # noqa: E402


def main():
    warnings.filterwarnings("ignore", category=TruncationWarning)
    tracer = Tracer(False)
    profile = preset_profile("sb")
    catalog = traced_sweep(tracer, "sb", profile, search_config("sb", 0))
    inp = preset_inputs("sb", profile, catalog, traced_residues(tracer, "sb", profile, catalog))
    tol = catalog.config.dedup_tol
    results = []

    poles = catalog.poles[[0, 1, len(catalog) // 2]]
    worst, ok = mp_zero_check(profile, poles, tol)
    results.append(("catalog poles pass the 50-digit zero check", ok, worst))
    for k in poles:
        moved, ok = mp_zero_check(profile, [k + 1e-4], tol)
        results.append((f"pole {k:.4f} moved by 1e-4 fails it", not ok, moved))

    x = 2.0 * profile.length
    t_end, n_pts = ORACLE_WINDOWS["sb"]
    ts = np.linspace(*oracle_window(inp, t_end), n_pts)
    quad = [psi_quadrature(inp.packet, profile, x, t) for t in ts[::8]]
    peak = inp.packet.sigma * float(np.max(np.abs(quad)) ** 2)
    dev = oracle_deviation(inp, inp.rset, x, ts[::8], quad, peak)
    results.append(("closed form agrees with quadrature", dev <= ORACLE_TOL, dev))
    flipped = np.array(inp.rset.residues)
    flipped[0] = -flipped[0]
    broken = ResidueSet(residues=flipped, u0=inp.rset.u0, u_l=inp.rset.u_l)
    dev = oracle_deviation(inp, broken, x, ts[::8], quad, peak)
    results.append(("first residue with its sign flipped fails it", dev > ORACLE_TOL, dev))

    for text, ok, value in results:
        print(f"{'PASS' if ok else 'FAIL'} {text} (measured {value:.2e})")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
