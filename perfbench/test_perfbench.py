"""Smoke tests of the benchmark on a tiny model (one block per stage, 32x32).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
import compare  # noqa: E402
from falconnet import WeightStore, load_weights, save_weights  # noqa: E402
from falconnet.model import ModelConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(preset: str) -> ModelConfig:
    return ModelConfig(stem_channels=8, stage_blocks=(1, 1, 1, 1), stage_channels=(8, 16, 32, 64),
                       block=bench.preset_config(preset).block, head_width=32, num_classes=10,
                       input_resolution=32)


def run(name, tmp_path, trace, poison=None):
    wl = replace(bench.WORKLOADS[name], batch=min(bench.WORKLOADS[name].batch, 2))
    cfg = tiny(wl.preset)
    path = tmp_path / "w.falc"
    bench.write_weights(cfg, path)
    if poison is not None:
        store = load_weights(path)
        save_weights(WeightStore({k: np.full_like(v, np.nan) if k == poison else v
                                  for k, v in store.items()}), path)
    return bench.measure(wl, cfg, path, seed=3, seconds=0, trace=trace, root=ROOT)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, record = run(name, tmp_path, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= bench.MIN_OPS
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert record["env"]["seed"] == 3 and record["identity"]["nodes"] > 0


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_gate_catches_injected_nan(name, tmp_path):
    result, record = run(name, tmp_path, trace=False, poison="s2.b0.spatial.dw3x3_0.kernel")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert "non-finite logits" in record["failures"]["0"]


def test_runner_fails_without_library_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fused-falcon-b1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("parent, change, expect", [
    ([10.0 + 0.01 * i for i in range(10)], [8.0 + 0.01 * i for i in range(10)], "improved"),
    ([10.0 + 0.01 * i for i in range(10)], [12.0 + 0.01 * i for i in range(10)],
     "worse beyond bound"),
    ([10.0 + 0.01 * i for i in range(10)], [10.0 + 0.01 * i for i in range(10)], "within bound"),
    ([6.0, 8.0, 10.0, 12.0, 14.0] * 2, [9.5, 11.0, 10.0, 12.0, 9.0] * 2, "unresolved"),
])
def test_compare_verdicts(parent, change, expect):
    paired = list(zip(parent, change))
    assert compare.verdict(parent, change, paired, "lower", 0.1)[0] == expect
