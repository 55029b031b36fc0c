"""Smoke runs of the experiment scripts, at tiny sizes, through their loops."""

import csv
import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from audiotrim import harness
from conftest import count_train_calls

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny(cfg, **dataset):
    return dataclasses.replace(
        cfg, dataset=dataclasses.replace(cfg.dataset, n_items=10, **dataset),
        training=harness.TrainingConfig(epochs=1, batch_size=8),
        imp=dataclasses.replace(cfg.imp, rewind_step=1))


def test_criterion_sweep_writes_one_row_per_cell_and_iteration(tmp_path, monkeypatch):
    script = _load("criterion_sweep")
    calls = count_train_calls(monkeypatch)
    # information scoring needs 100 frames in a validation item: 1.25 s
    cfg = _tiny(script.base_config(str(tmp_path), seed=0, iterations=1),
                duration=1.25)
    criteria = ["magnitude", "gradient", "activation", "information"]
    rows = script.sweep(cfg, criteria)
    with open(tmp_path / "sweep_summary.csv", newline="") as fh:
        written = list(csv.reader(fh))
    assert written[1:] == [[str(v) for v in row] for row in rows]
    assert [tuple(r[:3]) for r in rows] == [
        (c, s, i) for c in criteria
        for s in ("local", "global") for i in (0, 1)]
    assert all(float(r[3]) < 1.0 for r in rows if r[2] == 1)
    # one dense start for all 8 cells, then one retraining per iteration
    assert len(calls) == 1 + 8 * 1


def test_mask_vs_trim_runs_both_parts(tmp_path):
    script = _load("mask_vs_trim")
    cfg = _tiny(script.paired_config(str(tmp_path), seed=0, iterations=1))
    deep = dataclasses.replace(script.DEEP_MODEL, conv_channels=8,
                               n_conv_layers=3)
    sparsity, removable = script.compare(cfg, deep)
    assert (tmp_path / "paired.csv").exists()
    assert 0.98 < sparsity < 1.0 and 0.0 <= removable <= 1.0
    report = (tmp_path / "prunability.txt").read_text()
    assert f"masked_weight_sparsity: {sparsity:.6f}" in report


def test_fault_count_reports_each_call_and_medians():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "fault_count.py"),
         "--workload", "ddsp_info_trim", "--calls", "2"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["call"] for r in lines[:-1]] == [0, 1]
    assert all(r["failed"] == 0 and r["wall_s"] > 0 for r in lines[:-1])
    summary = lines[-1]["median"]
    assert summary["calls"] == 2 and summary["minflt"] >= 0
    assert summary["peak_rss_mb"] > 0


@pytest.mark.parametrize("apart", [False, True])
def test_bench_fold_warns_when_checkouts_sit_apart(tmp_path, monkeypatch, capsys,
                                                   apart):
    script = _load("bench_fold")
    runs = []
    monkeypatch.setattr(script, "run_pairs", lambda *args: runs.append(args))
    parent = tmp_path / ("elsewhere" if apart else "side") / "parent"
    change = tmp_path / "side" / "change"
    log = tmp_path / "runs.jsonl"
    log.write_text("")
    script.main([str(log), "--out", str(tmp_path / "bench.json"),
                 "--parent", str(parent), "--change", str(change),
                 "--workload", "ddsp_info_trim", "--seeds", "1"])
    err = capsys.readouterr().err
    assert len(runs) == 1
    assert ("different directories" in err) == apart
    if apart:
        assert str(parent) in err and "setup_s" in err


def test_bench_fold_keeps_the_pairs_of_two_invocations_apart():
    script = _load("bench_fold")

    def run(seed, side, value):
        metrics = {m: {"value": value}
                   for m in ("setup_s", "wall_s", "step_ms", "peak_rss_mb")}
        return {"workload": "w", "seed": seed, "pair": 0, "side": side,
                "seconds": 50, "stamp": {},
                "result": {"metrics": metrics, "failed": 0, "attempted": 1}}
    # each invocation numbers its pairs from 0
    recs = [run(1, "parent", 2.0), run(1, "change", 1.0),
            run(2, "parent", 4.0), run(2, "change", 3.0)]
    total = script.fold(recs)["workloads"]["w"]["all"]
    assert total["pairs"] == 2 and total["wins"]["wall_s"] == 2
    assert total["parent"]["wall_s"]["values"] == [2.0, 4.0]


@pytest.mark.parametrize("workload", ["ddsp_info_trim", "wavenet_paired"])
def test_step_memory_reports_one_train_step(workload):
    script = _load("step_memory")
    sizes = script.workloads.TINY[workload]
    row = script.measure(workload, 0, sizes)
    assert row["batch"][0] == sizes["batch_size"]
    assert row["graph_nodes"] > 1
    assert row["setup_peak_bytes"] > 0 and row["step_start_bytes"] > 0
    assert 0 < row["graph_bytes"] <= row["forward_peak_bytes"]
    assert row["backward_peak_bytes"] > 0
    assert row["peak_rss_mb_with_setup"] > 0
