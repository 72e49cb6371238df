"""Smoke tests: every shipped example config validates and runs."""

import pathlib

import numpy as np
import pytest

from twpasim.cli import TASKS, run, validate

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_example_config_runs(path, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)  # data paths in configs are repo-relative
    text = path.read_text()
    # shrink the sweep grids so the smoke test stays fast
    text = text.replace("signal_points = 200", "signal_points = 12")
    text = text.replace("signal_points = 51", "signal_points = 8")
    text = text.replace("signal_power_points = 27",
                        "signal_power_points = 9")
    cfg = validate(text)
    out = run(cfg, out_path=str(tmp_path / "out.csv"))
    lines = pathlib.Path(out).read_text().strip().split("\n")
    assert len(lines) >= 2  # header plus at least one row
    header = lines[0].split(",")
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert body.shape[1] == len(header)


def test_every_task_ships_one_example(monkeypatch):
    """CI reruns each ``*_example.cfg`` under its own task: every task has
    exactly one."""
    monkeypatch.chdir(REPO)
    tasks = [validate(path.read_text())["task"]
             for path in (REPO / "configs").glob("*_example.cfg")]
    assert sorted(tasks) == sorted(TASKS)
