#!/usr/bin/env python3
"""Compare two output trees written by ``scripts/reproduce_datasets.py``.

    python3 scripts/compare_outputs.py DIR_A DIR_B

For every file under either tree it prints one line: ``byte-identical``, or
for a CSV that differs, the header lines that differ and one line per data
column with either ``byte-identical`` (every value written the same) or the
largest relative deviation ``|a - b| / max(|a|, |b|)`` and the row where it
occurs.  Each differing column gets a second line with the largest
``|a - b|`` relative to the column's peak finite ``|value|`` over both files.
Exits with 0 when every file is byte-identical, 1 when only values or
header lines differ, and 2 when the trees hold different files or a file's
columns or row count differ, and also when a tree is no directory or
neither holds a file, so that a run that wrote nothing cannot pass.
"""

import argparse
import math
import sys
from pathlib import Path


def _split(path):
    """(header lines, column names, rows of value strings) of a '#'-headed CSV."""
    header, rows = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line.strip():
            rows.append(line.split(","))
    columns = []
    for line in header:
        key, _, val = line[1:].partition(":")
        if key.strip() == "columns":
            columns = val.strip().split(",")
    return header, columns, rows


def _devs(a, b):
    """``|a - b|`` and ``|a - b| / max(|a|, |b|)`` of two written values."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    # nan or an infinity against a different value
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf, math.inf
    return abs(x - y), abs(x - y) / max(abs(x), abs(y))


def _peak(values):
    """Largest finite ``|value|`` among written values (0 when there is none)."""
    return max((abs(v) for v in map(float, values) if math.isfinite(v)), default=0.0)


def compare_file(path_a, path_b):
    """Report lines for one file pair and whether its structure matches."""
    if path_a.read_bytes() == path_b.read_bytes():
        return ["byte-identical"], True
    head_a, cols_a, rows_a = _split(path_a)
    head_b, cols_b, rows_b = _split(path_b)
    lines = []
    for la, lb in zip(head_a, head_b):
        if la != lb:
            lines.append(f"header: {la!r} vs {lb!r}")
    if len(head_a) != len(head_b):
        lines.append(f"header: {len(head_a)} vs {len(head_b)} lines")
    if cols_a != cols_b or len(rows_a) != len(rows_b):
        lines.append(
            f"structure differs: columns {cols_a} vs {cols_b}, "
            f"{len(rows_a)} vs {len(rows_b)} rows"
        )
        return lines, False
    names = cols_a or [f"col{i}" for i in range(len(rows_a[0]) if rows_a else 0)]
    for i, name in enumerate(names):
        worst, worst_row, worst_abs = 0.0, None, 0.0
        same = True
        for row, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1):
            if ra[i] == rb[i]:
                continue
            same = False
            diff, dev = _devs(ra[i], rb[i])
            if worst_row is None or dev > worst:
                worst, worst_row = dev, row
            worst_abs = max(worst_abs, diff)
        if same:
            lines.append(f"{name}: byte-identical")
        else:
            lines.append(f"{name}: max rel dev {worst:.3e} (row {worst_row})")
            peak = max(_peak(r[i] for r in rows_a), _peak(r[i] for r in rows_b))
            if worst_abs == 0.0:
                of_peak = 0.0
            else:
                of_peak = worst_abs / peak if peak > 0.0 else math.inf
            lines.append(f"{name}: max |a - b| / column peak {of_peak:.3e}")
    return lines, True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for root in (args.dir_a, args.dir_b):
        if not root.is_dir():
            print(f"{root}: no such directory")
            return 2
    files_a = {p.relative_to(args.dir_a) for p in args.dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(args.dir_b) for p in args.dir_b.rglob("*") if p.is_file()}
    if not files_a | files_b:
        print(f"{args.dir_a} and {args.dir_b} hold no file")
        return 2
    code = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            side = args.dir_b if rel in files_a else args.dir_a
            print(f"{rel}: missing under {side}")
            code = 2
            continue
        lines, same_shape = compare_file(args.dir_a / rel, args.dir_b / rel)
        if not same_shape:
            code = 2
        elif lines != ["byte-identical"]:
            code = max(code, 1)
        if len(lines) == 1:
            print(f"{rel}: {lines[0]}")
        else:
            print(f"{rel}:")
            for line in lines:
                print(f"  {line}")
    return code


if __name__ == "__main__":
    sys.exit(main())
