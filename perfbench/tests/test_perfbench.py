"""Self-test of the benchmark harness on tiny grids.

Run with the rest of the suite (``PYTHONPATH=src python -m pytest``) or
alone: ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import measure  # noqa: E402

import twpasim  # noqa: E402
import twpasim.cli  # noqa: E402


def tiny(name, workdir):
    """The workload on the smallest grid its checks still cover."""
    cls = workloads.WORKLOADS[name]
    if cls is workloads.DesignScan:
        return cls(3, workdir, pairs=1)
    return cls(3, workdir, points=2)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One untraced and one traced call of every workload, tiny grids."""
    out = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        out[name] = measure(tiny(name, workdir), 0.0, spans.Tracer())
    return out


@pytest.fixture(scope="module")
def setup_samples():
    return run.time_setup(ROOT / "src", 1)


def test_metrics_match_benchmark_json(traced_runs, setup_samples):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(w["name"] for w in spec["workloads"])
    assert names == sorted(workloads.WORKLOADS) == sorted(run.WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name, result in traced_runs.items():
            result = dict(result, peak_rss_mb=1.0)
            metrics = run.metrics_from(result, setup_samples, trace)
            got = {k: v["unit"] for k, v in metrics.items()}
            assert got == want, name
            assert all(isinstance(v["value"], float | int)
                       for v in metrics.values())


def test_tiny_runs_pass_and_trace_the_right_layers(traced_runs):
    for name, result in traced_runs.items():
        assert result["failed"] == 0, name
        assert result["attempted"] > 0
        assert result["absent"] == []
        assert result["spans"]
    calls = {name: r["layers"]["_kernels.integrate"]["calls"]
             for name, r in traced_runs.items()}
    assert calls == {"gain-spectrum": 2, "saturation-sweep": 2,
                     "isolation-spectrum": 2, "design-scan": 0}
    layers = traced_runs["design-scan"]["layers"]
    assert layers["phasematch.find_matched_pump"]["calls"] == 1
    assert layers["medium.MediumParams.from_cell"]["calls"] > 0
    for stats in layers.values():
        assert stats["self_s"] <= stats["busy_s"] + 1e-12


def test_perturbed_reference_counts_as_failed(tmp_path):
    w = tiny("gain-spectrum", tmp_path)
    w.call()
    ref = w.load_reference()
    i = ref["x"].index(min(ref["x"], key=lambda x: abs(x - w.grid[0])))

    w.reference = copy.deepcopy(ref)
    w.reference["rows"][i][1] += 3e-11      # a reordered integrator passes
    assert w.check() == {"gain": (2, 0)}

    w.reference = copy.deepcopy(ref)
    w.reference["rows"][i][1] += 1e-3       # beyond the 1e-4 dB tolerance
    assert w.check() == {"gain": (2, 1)}
    assert "gain_db" in w.failures[-1]


class Flaky(workloads.Workload):
    """Writes a different artifact on every call."""

    name = "flaky"

    def call(self):
        path = self.artifacts.setdefault("out", self.workdir / "out.csv")
        path.write_text(f"x\n{self.rng.random()}\n")

    def check(self):
        return {"out": (1, 0)}


def test_rerun_that_is_not_byte_identical_fails(tmp_path):
    result = measure(Flaky(0, tmp_path), 0.0)
    assert result["attempted"] == 2
    assert result["failed"] == 1


def test_missing_boundary_is_reported_absent(monkeypatch):
    original = twpasim.cme.integrate_4wm
    monkeypatch.delattr(twpasim._kernels, "integrate")
    tracer = spans.Tracer(spans.BOUNDARIES + ("cme.no_such_function",
                                              "no_such_module.f"))
    assert tracer.absent == ["_kernels.integrate", "cme.no_such_function",
                             "no_such_module.f"]
    with tracer:
        assert twpasim.cme.integrate_4wm is not original
        assert twpasim.integrate_4wm is twpasim.cme.integrate_4wm
    assert twpasim.cme.integrate_4wm is original
    assert twpasim.integrate_4wm is original
    assert tracer.stats["_kernels.integrate"]["calls"] == 0


def test_classmethod_boundary_is_restored():
    before = vars(twpasim.MediumParams)["from_cell"]
    with spans.Tracer(("medium.MediumParams.from_cell",)) as tracer:
        spec = workloads._device_spec()
        c = twpasim.cell_coefficients(spec,
                                      twpasim.equilibrium_phase(spec, 0.35))
        m = twpasim.MediumParams.from_cell(spec, c)
    assert isinstance(m, twpasim.MediumParams)
    assert tracer.stats["medium.MediumParams.from_cell"]["calls"] == 1
    assert vars(twpasim.MediumParams)["from_cell"] is before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gain-spectrum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
