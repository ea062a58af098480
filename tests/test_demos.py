"""Smoke runs of the demos.

Each demo is imported from its file, runs as shipped and writes its SVGs
into a temporary directory.  The closed-loop experiments are not demos:
`robustroa reproduce fig3` and `reproduce fig4a` run them, and
test_acceptance.py checks them.
"""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def load_demo(name, out, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", out)
    return module


def test_double_integrator_brs_demo(tmp_path, monkeypatch, capsys):
    demo = load_demo("double_integrator_brs", tmp_path, monkeypatch)
    counts = demo.main()
    assert counts["within_two_cells"]
    assert counts["mismatch"] < 0.1 * counts["analytic"]
    assert (tmp_path / "double_integrator_brs.svg").exists()
    assert "all within 2 cells of the true boundary: true" in capsys.readouterr().out


def test_certified_bound_demo(tmp_path, monkeypatch, capsys):
    demo = load_demo("certified_bound", tmp_path, monkeypatch)
    res = demo.main()
    assert res.w_max > 0.0 and res.level > 0.0
    assert (tmp_path / "certified_bound_z.svg").exists()
    assert "wrote" in capsys.readouterr().out
