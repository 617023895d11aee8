"""Layered benchmark of tunnelwave: one workload per invocation.

    python3 bench/run.py --workload catalog|transient|oracle \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
give every check with its measured values.  A traced run also writes its
spans to ``.bench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import os

# One thread everywhere: the workloads are single-process, single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
E2E_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("catalog", "transient", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "tunnelwave" / "__init__.py").is_file():
        print(f"error: no tunnelwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from tunnelwave.evolution import TruncationWarning

    from inputs import Run
    from layers import PER_LAYER, layer_metrics
    from tracer import Tracer
    from workloads import THROUGHPUT, WORKLOADS

    # the bracket warns per point when the last pole pair still matters; the
    # test suite silences it the same way
    warnings.filterwarnings("ignore", category=TruncationWarning)
    out_dir = ROOT / ".bench_out"
    tracer = Tracer(bool(args.trace))
    run = Run(tracer, args.seed)
    res = WORKLOADS[args.workload](run, args.seconds, out_dir / "work")

    rounds = len(res.round_s)
    e2e = {
        "setup_s": res.setup_s,
        "round_s": median(res.round_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, (status, detail) in sorted(run.report.items()):
        print(f"{status} {name}: {detail}")
    for msg in run.errors:
        print(f"FAILED-OP {msg}")
    print(f"{args.workload}: {rounds} rounds, attempted {run.attempted}, failed {run.failed}")
    print(f"raw: setup {res.raw_setup_s:.6g} s, rounds "
          + " ".join(f"{t:.4g}" for t in res.raw_round_s)
          + f" s; {len(run.calibration_s)} calibrations, median "
          + (f"{median(run.calibration_s):.4g} s" if run.calibration_s else "-"))
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {E2E_UNITS[name]}")
    if args.workload in THROUGHPUT:
        per_round = run.attempted / rounds
        print(f"{THROUGHPUT[args.workload]} = {per_round / e2e['round_s']:.6g} points/s "
              f"({per_round:g} points per round; raw {per_round / median(res.raw_round_s):.6g})")
    else:
        print(f"catalog_s = {e2e['round_s']:.6g} s")

    if args.trace:
        layers = layer_metrics(tracer, res.inputs, run.rng, out_dir / "work")
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {PER_LAYER[name][0]}")
        metrics = {n: {"value": layers[n], "unit": u} for n, (u, _) in PER_LAYER.items()}
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "end_to_end": e2e,
                      "raw_setup_s": res.raw_setup_s, "raw_round_s": res.raw_round_s,
                      "calibration_s": run.calibration_s, "per_layer": layers})
    else:
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in e2e.items()}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
