"""``tools/output_digest.py``: a case run twice gives the same digest (seeded reproducibility)."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_case_digests_repeat():
    tool = load_tool()
    grid = [("scheme", "kvquant_like", 2, 0.01, "some", "calibrated"), ("cache", "pt_kv_static", 3, None, "some", "none")]
    assert all(case in tool.cases() for case in grid)
    first, second = ([tool.case_digest(case) for case in grid] for _ in range(2))
    assert first == second
    assert len(set(first)) == 2 and all(len(d) == 64 for d in first)
