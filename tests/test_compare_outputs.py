import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CSV = "# tunnelwave 0.1\n# columns: a,b\n1.0,2.0\n3.0,4.0\n"


def tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


@pytest.mark.parametrize("changed, code, line", [
    ({}, 0, None),
    ({"x.csv": CSV.replace("4.0", "4.5")}, 1, "b: max rel dev 1.111e-01 (row 2)"),
    # an infinity against a number is an infinite deviation, not nan
    ({"x.csv": CSV.replace("2.0", "inf").replace("4.0", "4.5")}, 1,
     "b: max rel dev inf (row 1)"),
    ({"x.csv": CSV.replace("0.1", "0.2")}, 1, None),
    ({"x.csv": CSV.replace("a,b", "a,c")}, 2, None),
    ({"x.csv": CSV + "5.0,6.0\n"}, 2, None),
    ({"cache/extra.csv": CSV}, 2, None),
], ids=["identical", "value", "inf", "header", "column", "rows", "extra-file"])
def test_exit_code(tmp_path, capsys, changed, code, line):
    files = {"x.csv": CSV, "cache/y.csv": CSV}
    a = tree(tmp_path / "a", files)
    b = tree(tmp_path / "b", {**files, **changed})
    assert compare_outputs.main([str(a), str(b)]) == code
    out = capsys.readouterr().out
    assert "cache/y.csv: byte-identical" in out
    if line is not None:
        assert f"  {line}\n" in out


def test_deviation_relative_to_column_peak(tmp_path, capsys):
    # 0.5 off a value of 4 is 1.1e-1 of the larger value but 5e-2 of the
    # column's peak |value| 10, which sits in another row
    csv = "# columns: a,b\n1.0,-10.0\n3.0,4.0\n"
    a = tree(tmp_path / "a", {"x.csv": csv})
    b = tree(tmp_path / "b", {"x.csv": csv.replace("4.0", "4.5")})
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "  b: max rel dev 1.111e-01 (row 2)\n  b: max |a - b| / column peak 5.000e-02\n" in out
    assert "a: byte-identical" in out
    assert "a: max |a - b|" not in out
