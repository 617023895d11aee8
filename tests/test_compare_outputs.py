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


@pytest.mark.parametrize("changed, code", [
    ({}, 0),
    ({"x.csv": CSV.replace("4.0", "4.5")}, 1),
    ({"x.csv": CSV.replace("0.1", "0.2")}, 1),
    ({"x.csv": CSV.replace("a,b", "a,c")}, 2),
    ({"x.csv": CSV + "5.0,6.0\n"}, 2),
    ({"cache/extra.csv": CSV}, 2),
], ids=["identical", "value", "header", "column", "rows", "extra-file"])
def test_exit_code(tmp_path, capsys, changed, code):
    files = {"x.csv": CSV, "cache/y.csv": CSV}
    a = tree(tmp_path / "a", files)
    b = tree(tmp_path / "b", {**files, **changed})
    assert compare_outputs.main([str(a), str(b)]) == code
    assert "cache/y.csv: byte-identical" in capsys.readouterr().out
