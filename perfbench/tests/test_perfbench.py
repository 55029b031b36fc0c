"""Tests of the benchmark itself, at tiny sizes, through the real code path.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as W  # noqa: E402

W.import_program()

# captured before any traced run, to check each is put back afterwards
ORIGINALS = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _, _ in W.trace_targets()]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced tiny run per workload: its result and its spans."""
    base = tmp_path_factory.mktemp("bench")
    out = {}
    for name in W.WORKLOADS:
        spans = base / f"{name}.jsonl"
        res = W.run_workload(name, seed=3, seconds=0, trace=True,
                             sizes=W.TINY[name], workdir=base / name,
                             spans_path=spans)
        out[name] = (res, [json.loads(line) for line in spans.open()])
    return out


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_tiny_run_passes_every_check(traced_runs, name):
    res, _ = traced_runs[name]
    assert res["failed"] == 0 and not res["problems"], res["problems"]
    assert res["attempted"] >= 2
    assert [c["traced"] for c in res["calls"]] == [False, True]
    assert res["macs_ratio"] == 1.0
    layers = res["layers"]
    assert set(layers) == {n for n, _, _ in W.PER_LAYER}
    assert all(np.isfinite(v) for v in layers.values())


def test_each_workload_exercises_its_layers(traced_runs):
    ddsp = traced_runs["ddsp_info_trim"][0]["layers"]
    paired = traced_runs["wavenet_paired"][0]["layers"]
    assert ddsp["fourier.fft.calls"] > 0 and ddsp["nn.gru_scan.calls"] > 0
    assert ddsp["mi.estimate_mi.calls"] > 0 and ddsp["tensor.conv1d.calls"] == 0
    assert paired["pruning.mask_enforce.calls"] > 0
    assert 0 < paired["pruning.useful_weight_frac"] < 1
    assert paired["fourier.fft.calls"] == 0
    assert paired["harness.train.steps"] > 0 and paired["tensor.conv1d.macs"] > 0
    assert ddsp["harness.gen_synthetic_tones.self_s"] > 0
    assert ddsp["pruning.error_mult_final"] > 0
    assert paired["models.wavenet_generate.self_s"] > 0
    assert 0 < paired["models.wavenet_generate.tensor.conv1d.macs"] \
        < paired["tensor.conv1d.macs"]
    assert ddsp["models.wavenet_generate.self_s"] == 0
    assert ddsp["models.wavenet_generate.tensor.conv1d.macs"] == 0


def test_traced_run_restores_every_rebound_attribute(traced_runs):
    assert all(traced_runs[name][0]["layers"] for name in traced_runs)
    for owner, attr, original in ORIGINALS:
        assert owner.__dict__[attr] is original, f"{attr} still rebound"


def test_attributes_are_restored_when_the_workload_raises():
    from audiotrim import fourier
    original = fourier.__dict__["fft"]
    t = tr.Tracer()
    with pytest.raises(ZeroDivisionError):
        with t.installed(W.trace_targets()):
            assert fourier.fft is not original
            fourier.fft(np.ones(4))
            1 / 0
    assert fourier.__dict__["fft"] is original
    assert [s[tr.NAME] for s in t.spans] == ["fourier.fft"]


def test_child_self_time_never_exceeds_parent_span(traced_runs):
    for _, spans in traced_runs.values():
        child_total = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child_total[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            dur = s["end"] - s["start"]
            self_s = dur - child_total[i]
            assert -1e-9 <= self_s <= dur + 1e-9
            if s["parent"] >= 0:
                p = spans[s["parent"]]
                assert p["start"] <= s["start"] and s["end"] <= p["end"]
                assert self_s <= p["end"] - p["start"]


def test_imp_checks_flag_growing_fractions_and_bad_multipliers():
    from audiotrim import pruning
    def rec(it, w, u, mult):
        return pruning.ImpRecord(it, w, u, 1.0, mult, 1.0, 1, 1.0, 0.1, {})
    good = pruning.ImpTrace([rec(0, 1.0, 1.0, 1.0), rec(1, 0.7, 0.7, 1.1)])
    assert W.imp_problems("trim", good, 1) == []
    grows = pruning.ImpTrace([rec(0, 0.7, 1.0, 1.0), rec(1, 0.8, 0.7, 1.1)])
    assert "weight fraction increased" in W.imp_problems("trim", grows, 1)[0]
    nan = pruning.ImpTrace([rec(0, 1.0, 1.0, 1.0), rec(1, 0.7, 0.7, np.nan)])
    assert "non-finite" in W.imp_problems("trim", nan, 1)[0]
    short = pruning.ImpTrace([rec(0, 1.0, 1.0, 1.0)])
    assert "0 of 1 iterations" in W.imp_problems("trim", short, 1)[0]


def test_sample_checks_flag_bad_waveforms():
    assert W.sample_problems(np.zeros(4, np.float32), 4) == []
    assert "shape" in W.sample_problems(np.zeros(3, np.float32), 4)[0]
    nan = np.array([0.0, np.nan], np.float32)
    assert "non-finite" in W.sample_problems(nan, 2)[0]
    loud = np.array([0.0, 1.5], np.float32)
    assert "outside [-1, 1]" in W.sample_problems(loud, 2)[0]


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [tuple(m) for m in W.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS)


def test_fails_without_printing_in_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "wavenet_paired",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
