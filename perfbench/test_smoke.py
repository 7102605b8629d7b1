"""Smoke test for the benchmark itself: every workload at a tiny size, both
modes, every named metric printed with a unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"

END_TO_END = ("setup_s", "run_s", "peak_rss_mb")
PER_LAYER = (
    "scenario.validate_s", "scenario.parse_s", "scenario.assemble_s",
    "topology.build_s",
    "data.make_blobs_s", "data.batch_calls", "data.batch_s",
    "mlp.calls", "mlp.self_s", "mlp.share", "mlp.forward_us.p50", "mlp.backward_us.p50",
    "engine.events", "engine.schedule_calls", "engine.dispatch_self_s",
    "engine.us_per_event",
    "engine.reserve_calls", "engine.reserve_s", "engine.reserve_us.p50",
    "engine.reserve_us.p99", "engine.blocks_used", "engine.reserve_waited_ratio",
    "engine.block_wait_sim_s",
    "engine.charge_calls", "engine.charge_s", "engine.rng_calls", "engine.rng_streams",
    "engine.log_records",
    "radio.rate_calls", "radio.gain_draws", "radio.self_s",
    "costs.calls", "costs.self_s",
    "protocols.callback_self_s", "protocols.write_s", "protocols.records",
    "protocols.sim_latency_s", "protocols.sim_energy_J", "protocols.final_loss",
    "protocols.bytes_up",
    "placement.candidates", "placement.estimate_calls", "placement.estimate_us.p50",
    "placement.feasible_ratio", "placement.select_pool_s", "placement.self_s",
    "trace.run_s", "trace.untraced_run_s", "trace.attributed_share",
)


def run_bench(workload: str, trace: int, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=cwd, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["fl_wide", "split_long", "plan_wide"])
def test_every_metric_is_printed_with_a_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = END_TO_END if trace == 0 else PER_LAYER
    for name in names:
        metric = result["metrics"][name]
        assert isinstance(metric["value"], (int, float)) and metric["unit"], name
        assert any(line.startswith(f"{name} ") and metric["unit"] in line.split()
                   for line in lines[:-1]), f"{name} not printed with its unit"
    assert any(line.startswith("fail_ratio 0 ratio") for line in lines)
    if trace == 0:
        assert any(line.startswith("run_s ") and "(median of" in line for line in lines)
    else:
        assert result["metrics"]["trace.attributed_share"]["value"] > 0.9


def test_layer_expectations_hold_at_tiny_size():
    plan = json.loads(run_bench("plan_wide", 1).stdout.strip().splitlines()[-1])["metrics"]
    assert plan["mlp.calls"]["value"] == 0 and plan["engine.events"]["value"] == 0
    split = json.loads(run_bench("split_long", 1).stdout.strip().splitlines()[-1])["metrics"]
    assert split["engine.reserve_waited_ratio"]["value"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("fl_wide", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
