"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from achilles import random_network  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for name, unit in expected + (("fail_frac", "ratio"),):
        assert printed.get(name) == unit, name
    if trace:
        assert result["metrics"]["harness.runs"]["value"] >= 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "weak-seeds", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_window_reports_reference_seconds(monkeypatch):
    # The kernel reads twice its reference time: the host runs at half speed.
    monkeypatch.setattr(worker, "kernel_s", lambda: 2 * hostspeed.REF_S)

    class Sleeper:
        def run(self, i):
            time.sleep(0.01)
            return i, [4.0, 6.0]

    outputs, walls, raw_walls, latencies = worker.run_window(Sleeper(), count=3)
    assert outputs == [0, 1, 2]
    assert walls == pytest.approx([wall / 2 for wall in raw_walls])
    assert latencies == pytest.approx([2.0, 3.0] * 3)


@pytest.fixture
def campaign(tmp_path):
    net = random_network([2, 12, 12, 2], 7, weight_scale=3.0)
    plan = {
        "nets": [{"path": str(tmp_path / "net.relunet"), "delta": 0.2}],
        "mode": "bg",
        "target": 3,
        "per_query_timeout": 60.0,
        "rng_base": 11,
        "seeding": {"sample_set_size": 200, "col_num": 200},
    }
    return worker.CampaignWorkload(plan, [net])


def test_campaign_gate_accepts_genuine_witnesses(campaign):
    report, _ = campaign.run(0)
    check = campaign.check(0, report)
    assert check["bad_witnesses"] == 0 and check["found"] == report.sat_total == 3


def test_campaign_gate_rejects_tampered_witness(campaign):
    report, _ = campaign.run(0)
    sat = next(i for i, r in enumerate(report.records) if r.outcome == "sat")
    # The seed itself keeps its label, so it is no counter-example.
    report.records[sat] = replace(report.records[sat], witness=report.records[sat].seed)
    check = campaign.check(0, report)
    assert check["bad_witnesses"] > 0 and check["failed"] > 0


def test_attack_gate_rejects_tampered_success():
    net = random_network([10, 16, 16, 3], 7000)
    plan = {
        "selection": "b",
        "n_inputs": 20,
        "rng_base": 5,
        "seeding": {"sample_set_size": 200, "col_num": 100},
        "attack": {"eps": 0.02, "epo": 4},
    }
    workload = worker.AttackWorkload(plan, [net])
    result, latencies = workload.run(0)
    assert len(latencies) == result.attempts
    assert workload.check(0, result)["bad_witnesses"] == 0
    result.successes += 1
    assert workload.check(0, result)["bad_witnesses"] > 0


def test_tracer_splits_campaign_wall_without_changing_it(campaign):
    untraced, _ = campaign.run(0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = tracer.run_span(lambda: campaign.run(0)[0], "harness.run_campaign", 0)
    finally:
        tracer.uninstall()
    assert [r.witness for r in traced.records] == [r.witness for r in untraced.records]
    layers = tracer.layer_metrics()
    fractions = sum(v for k, v in layers.items() if k.endswith(".wall_frac"))
    assert fractions == pytest.approx(1.0)
    assert layers["seeding.samples"] > 0 and layers["greedy.calls"] == traced.runs
    assert set(np.frombuffer(tracer.run, dtype=np.int32)) == {0}


def test_tracer_restores_the_library():
    from achilles import harness, seeding

    before = (harness.generate_seed, seeding.margin)
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert (harness.generate_seed, seeding.margin) == before
