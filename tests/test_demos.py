"""Smoke runs of the closed-loop demos on short horizons.

Each demo is imported from its file, writes its SVGs into a temporary
directory and runs both controller modes for a fraction of its usual
duration; together they take about 2 s.
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


def test_quadruped_walk_demo(tmp_path, monkeypatch, capsys):
    demo = load_demo("quadruped_walk", tmp_path, monkeypatch)
    trajs = demo.main(duration=0.5)
    assert set(trajs) == {"nominal", "robust"}
    for traj in trajs.values():
        assert len(traj.t) == 501 and not traj.diverged
    assert trajs["robust"].invariant_exits == (0, 0)
    assert (tmp_path / "quadruped_height_energy.svg").exists()
    assert "wrote" in capsys.readouterr().out


def test_quadcopter_tracking_demo(tmp_path, monkeypatch, capsys):
    demo = load_demo("quadcopter_tracking", tmp_path, monkeypatch)
    runs = demo.main(duration=0.5)
    assert set(runs) == {"nominal", "robust"}
    for traj in runs.values():
        assert len(traj.t) == 501 and not traj.diverged
    assert runs["robust"].invariant_exits == (0,)
    for name in ("quadcopter_energy.svg", "quadcopter_paths.svg"):
        assert (tmp_path / name).exists()
    assert "wrote" in capsys.readouterr().out
