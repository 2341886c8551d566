"""Tests of the benchmark itself: smoke runs, tracer hygiene, BENCHMARK.json.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fvi  # noqa: E402
import fvi.harness  # noqa: E402
from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from tracer import PER_LAYER, SITES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, run=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(metrics) == [m["name"] for m in listed]
    for m in listed:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert "absent" not in metrics[m["name"]]
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())
    elif workload == "ensemble-lobatto4":
        # four runs with the smoke size share one table: 3 hits of 4 calls
        assert metrics["cq.compute_weights.hit_ratio"]["value"] == 0.75
    elif workload == "sweep-lobatto3":
        assert metrics["cq.compute_weights.hit_ratio"]["value"] == 0.0
        assert metrics["harness.converge.case_s_sum"]["value"] > 0


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [row[:3] for row in PER_LAYER]


def _module_attributes():
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "fvi" or name.startswith("fvi.")]
    return {m.__name__: dict(vars(m)) for m in modules}


def test_tracer_leaves_fvi_attributes_as_found():
    before = _module_attributes()
    spec = fvi.by_name("coupled-oscillator")
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            assert fvi.harness.converge is not before["fvi.harness"]["converge"]
            fvi.harness.converge(spec, "lobatto2", [4, 8, 16], horizon=2.0)
            1 / 0
    after = _module_attributes()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [k for k in attrs if after[name][k] is not attrs[k]]
        assert not changed, (name, changed)
    layers, absent = tracer.metrics()
    assert layers["cq.compute_weights.calls"] == 3 and not absent


def test_missing_traced_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(fvi.stepper, "step")
    spec = fvi.by_name("damped-oscillator-1d")
    with Tracer() as tracer:
        fvi.harness.run_benchmark(spec, "midcq", 16)
    assert not hasattr(fvi.stepper, "step")
    layers, absent = tracer.metrics()
    assert absent == ["stepper.step.calls", "stepper.step.s"]
    assert layers["stepper.step.calls"] == 0
    assert layers["cq.midcq_weights.calls"] == 1
    assert set(tracer.absent) <= set(SITES)


def test_without_fvi_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("midcq-long", 0, cwd=tmp_path, run=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
