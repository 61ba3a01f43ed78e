"""This checkout computes the outputs recorded in ``tests/golden/outputs.txt``.

The run directories of ``tests/run_dirs.py`` and the ``tools/run_hashes.py``
lines at seed 1 are compared with the file; CI checks seeds 2 and 7.  A
change that alters outputs on purpose regenerates the file with
``python3 tools/golden.py --write`` and says why.
"""
import importlib.util
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_outputs_match_the_golden_file():
    problems = golden.check([1])
    assert not problems, "\n".join(problems)


def test_a_moved_output_is_named():
    expected = {"numpy": "1", "run/a": "x", "run/b": "y", "seed1/w": "z"}
    assert golden.moved(expected, ["run/a x", "run/b q", "run/c r"], "run/") == ["run/b", "run/c"]
    assert golden.moved(expected, [], "seed1/") == ["seed1/w"]


def test_another_numpy_names_both_versions(tmp_path, monkeypatch):
    path = tmp_path / "outputs.txt"
    path.write_text("numpy 0.0.1\nrun/a exit=0\n", "utf-8")
    monkeypatch.setattr(golden, "GOLDEN", path)
    assert golden.check([1]) == [
        f"numpy {np.__version__} here, but the golden file was made with numpy 0.0.1"]
