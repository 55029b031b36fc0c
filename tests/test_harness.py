"""Dataset generation, WAV round trips, config plumbing, Adam training,
and whole-experiment orchestration."""

import ctypes
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from audiotrim import embed, harness, models, nn, pruning
from audiotrim import tensor as T
from conftest import adam, count_train_calls, use_spec

_OPENBLAS = "openblas" in np.show_config(
    mode="dicts")["Build Dependencies"]["blas"]["name"].lower()


def tiny_cfg(tmp_path, **over):
    base = dict(
        model=models.ModelConfig(arch="sing_ae", conv_channels=8,
                                 n_conv_layers=2, sing_kernel=5,
                                 spec_windows=(32, 64)),
        dataset=harness.DatasetConfig(n_items=12, duration=0.25),
        training=harness.TrainingConfig(epochs=2, batch_size=8),
        imp=pruning.ImpConfig(iterations=2, criterion="magnitude"),
        output_dir=str(tmp_path / "run"),
        seed=3,
        emit_samples=False,
    )
    base.update(over)
    return harness.ExperimentConfig(**base)


class TestTones:
    def test_fixed_seed_reproduces_bytes(self):
        a = harness.gen_synthetic_tones(8, 16000, 0.25, seed=11)
        b = harness.gen_synthetic_tones(8, 16000, 0.25, seed=11)
        for x, y in zip(a, b):
            assert x["wave"].tobytes() == y["wave"].tobytes()
            assert np.array_equal(x["f0"], y["f0"])
        c = harness.gen_synthetic_tones(8, 16000, 0.25, seed=12)
        assert not np.array_equal(a[0]["wave"], c[0]["wave"])

    def test_spectral_peak_tracks_f0(self):
        # fundamental carries the largest partial weight, so the peak DFT
        # bin of every item must sit within one bin of the true f0
        items = harness.gen_synthetic_tones(24, 16000, 0.3, seed=4)
        n = 2048
        win = np.hanning(n)
        for it in items:
            spec = np.abs(np.fft.rfft(it["wave"][:n] * win))
            peak = int(np.argmax(spec[1:])) + 1
            bin_hz = 16000 / n
            assert abs(peak * bin_hz - it["f0"][0]) <= bin_hz

    def test_waveform_and_conditioning_shapes(self):
        items = harness.gen_synthetic_tones(5, 8000, 0.25, seed=0,
                                            frame_hop=100)
        for it in items:
            assert it["wave"].dtype == np.float32
            assert np.abs(it["wave"]).max() <= 1.0
            assert len(it["wave"]) == len(it["f0"]) * 100
            assert it["loud"].shape == it["f0"].shape
            assert 80.0 <= it["f0"][0] <= 800.0
            assert np.all(it["loud"] > 0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="sample rate"):
            harness.gen_synthetic_tones(4, 44100, 0.25, seed=0)
        with pytest.raises(ValueError, match="duration"):
            harness.gen_synthetic_tones(4, 16000, 0.1, seed=0)

    def test_empty_dataset_rejected_by_split(self):
        items = harness.gen_synthetic_tones(0, 16000, 0.25, seed=0)
        assert items == []
        with pytest.raises(ValueError, match="at least 10"):
            harness.split_dataset(items, seed=0)


class TestSplit:
    def marked(self, n):
        return [{"wave": np.array([i], dtype=np.float32), "tag": i}
                for i in range(n)]

    @pytest.mark.parametrize("n,v,t", [(10, 1, 1), (20, 2, 2), (64, 6, 6),
                                       (100, 10, 10), (95, 10, 10)])
    def test_counts_follow_eighty_ten_ten(self, n, v, t):
        split = harness.split_dataset(self.marked(n), seed=0)
        assert (len(split.valid), len(split.test)) == (v, t)
        assert len(split.train) == n - v - t

    def test_partition_is_disjoint_and_exhaustive(self):
        items = self.marked(37)
        split = harness.split_dataset(items, seed=5)
        tags = [it["tag"] for part in (split.train, split.valid, split.test)
                for it in part]
        assert sorted(tags) == list(range(37))

    def test_seed_controls_the_partition(self):
        items = self.marked(40)
        a = harness.split_dataset(items, seed=1)
        b = harness.split_dataset(items, seed=1)
        c = harness.split_dataset(items, seed=2)
        assert [it["tag"] for it in a.valid] == [it["tag"] for it in b.valid]
        assert [it["tag"] for it in a.valid] != [it["tag"] for it in c.valid]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            harness.split_dataset(self.marked(9), seed=0)

    def test_build_splits_batches(self):
        items = harness.gen_synthetic_tones(20, 16000, 0.25, seed=0)
        split = harness.split_dataset(items, seed=0)
        splits = harness.build_splits(split, batch_size=4)
        assert all(b["wave"].shape[0] == 1 for b in splits.valid)
        assert all(b["wave"].shape[0] == 1 for b in splits.test)
        sizes = [b["wave"].shape[0] for b in splits.train]
        assert sum(sizes) == len(split.train)
        assert max(sizes) <= 4
        assert set(splits.train[0]) == {"wave", "f0", "loud"}


class TestWavIO:
    def test_documented_scaling(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -32768)
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload),
                             b"WAVE", b"fmt ", 16, 1, 1, 16000, 32000, 2, 16,
                             b"data", len(payload))
        (tmp_path / "x.wav").write_bytes(header + payload)
        wave = harness.read_wav(tmp_path / "x.wav", 16000)
        assert np.array_equal(wave, np.array([0.0, 0.5, -1.0],
                                             dtype=np.float32))

    def test_reemission_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        wave = rng.uniform(-1, 1, 400).astype(np.float32)
        harness.write_wav(tmp_path / "a.wav", wave, 16000)
        loaded = harness.read_wav(tmp_path / "a.wav", 16000)
        harness.write_wav(tmp_path / "b.wav", loaded, 16000)
        assert (tmp_path / "a.wav").read_bytes() \
            == (tmp_path / "b.wav").read_bytes()

    def test_stereo_rejected(self, tmp_path):
        payload = struct.pack("<4h", 0, 0, 0, 0)
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload),
                             b"WAVE", b"fmt ", 16, 1, 2, 16000, 64000, 4, 16,
                             b"data", len(payload))
        (tmp_path / "st.wav").write_bytes(header + payload)
        with pytest.raises(harness.WavFormatError, match="channels"):
            harness.read_wav(tmp_path / "st.wav", 16000)

    def test_malformed_header_names_file(self, tmp_path):
        (tmp_path / "bad.wav").write_bytes(b"OOPS" + b"\x00" * 64)
        with pytest.raises(harness.WavFormatError, match="bad.wav"):
            harness.read_wav(tmp_path / "bad.wav", 16000)

    def test_truncated_payload_names_file(self, tmp_path):
        payload = struct.pack("<2h", 1, 2)
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 8,
                             b"WAVE", b"fmt ", 16, 1, 1, 16000, 32000, 2, 16,
                             b"data", 8)
        (tmp_path / "cut.wav").write_bytes(header + payload)
        with pytest.raises(harness.WavFormatError, match="cut.wav.*truncat"):
            harness.read_wav(tmp_path / "cut.wav", 16000)

    def test_compressed_encoding_rejected(self, tmp_path):
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36, b"WAVE",
                             b"fmt ", 16, 7, 1, 16000, 16000, 1, 16,
                             b"data", 0)
        (tmp_path / "ulaw.wav").write_bytes(header)
        with pytest.raises(harness.WavFormatError, match="PCM"):
            harness.read_wav(tmp_path / "ulaw.wav", 16000)

    def test_sample_rate_mismatch(self, tmp_path):
        harness.write_wav(tmp_path / "a.wav", np.zeros(10), 8000)
        with pytest.raises(harness.WavFormatError, match="8000"):
            harness.read_wav(tmp_path / "a.wav", 16000)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(harness.WavFormatError, match="no .wav"):
            harness.load_wav_dir(tmp_path, 16000)

    def test_dataset_roundtrip_with_conditioning(self, tmp_path):
        items = harness.gen_synthetic_tones(4, 16000, 0.25, seed=2)
        harness.save_dataset(items, tmp_path / "ds", 16000)
        back = harness.load_wav_dir(tmp_path / "ds", 16000)
        assert len(back) == 4
        for orig, got in zip(items, back):
            assert np.array_equal(got["f0"], orig["f0"])
            assert np.array_equal(got["loud"], orig["loud"])
            assert np.max(np.abs(got["wave"] - orig["wave"])) <= 1.0 / 32768

    @pytest.mark.parametrize("text", [
        '{"f0": [100.0]}',
        '3',
        '{"f0": [100.0], "loud": [0.5], "hop": 200}',
        '{"f0": 100.0, "loud": [0.5]}',
        '{"f0": [true], "loud": [0.5]}',
        '{"f0": [100.0], "loud": [NaN]}',
        '{"f0": [Infinity], "loud": [0.5]}',
        '{"f0": [1e39], "loud": [0.5]}',
        '{"f0": ["100"], "loud": [0.5]}',
        '{"f0": [100.0, 110.0], "loud": [0.5]}',
    ], ids=["missing-loud", "entry-not-object", "unknown-key", "not-a-list",
            "boolean", "nan", "infinity", "beyond-float32", "string-number",
            "unequal-lengths"])
    def test_malformed_conditioning_entry_names_file_and_entry(self, tmp_path, text):
        harness.save_dataset(harness.gen_synthetic_tones(1, 16000, 0.25, seed=2),
                             tmp_path, 16000)
        sidecar = tmp_path / "conditioning.json"
        sidecar.write_text(f'{{"tone_0000.wav": {text}}}')
        with pytest.raises(harness.WavFormatError,
                           match="entry 'tone_0000.wav' must hold") as err:
            harness.load_wav_dir(tmp_path, 16000)
        assert str(err.value).startswith(f"{sidecar}: ")

    @pytest.mark.parametrize("text", ['[{"f0": [100.0], "loud": [0.5]}]',
                                      '{"tone_0000.wav": {"f0": [100.0]'],
                             ids=["top-level-list", "unparsed"])
    def test_malformed_conditioning_file_names_file(self, tmp_path, text):
        harness.save_dataset(harness.gen_synthetic_tones(1, 16000, 0.25, seed=2),
                             tmp_path, 16000)
        sidecar = tmp_path / "conditioning.json"
        sidecar.write_text(text)
        with pytest.raises(harness.WavFormatError) as err:
            harness.load_wav_dir(tmp_path, 16000)
        assert str(err.value).startswith(f"{sidecar}: ")


class TestConfig:
    def doc(self, tmp_path):
        return {
            "model": {"arch": "sing_ae", "conv_channels": 8,
                      "n_conv_layers": 2, "sing_kernel": 5,
                      "spec_windows": [32, 64]},
            "dataset": {"n_items": 12},
            "training": {"epochs": 2, "batch_size": 8},
            "imp": {"iterations": 2, "scaling": "layer_max",
                    "mi": {"bin_counts": [4, 8], "max_samples": 500}},
            "output_dir": str(tmp_path / "run"),
            "seed": 1,
        }

    def test_defaults_follow_training_recipe(self):
        tr = harness.TrainingConfig()
        assert (tr.batch_size, tr.lr, tr.weight_decay, tr.plateau_patience) \
            == (64, 1e-3, 2e-4, 10)

    def test_json_roundtrip(self, tmp_path):
        cfg = harness.config_from_dict(self.doc(tmp_path))
        again = harness.config_from_dict(
            json.loads(json.dumps(harness.config_to_dict(cfg))))
        assert cfg == again
        assert harness.config_hash(cfg) == harness.config_hash(again)

    def test_hash_tracks_content(self, tmp_path):
        cfg = harness.config_from_dict(self.doc(tmp_path))
        assert harness.config_hash(cfg) \
            != harness.config_hash(replace(cfg, seed=2))

    def test_path_output_dir_serializes(self, tmp_path):
        cfg = harness.config_from_dict(self.doc(tmp_path))
        cfg = replace(cfg, output_dir=tmp_path / "run")
        doc = json.loads(json.dumps(harness.config_to_dict(cfg)))
        assert doc["output_dir"] == str(tmp_path / "run")
        assert harness.config_from_dict(doc) is not None

    def test_unknown_keys_rejected_everywhere(self, tmp_path):
        doc = self.doc(tmp_path)
        doc["extra"] = 1
        with pytest.raises(ValueError, match="extra"):
            harness.config_from_dict(doc)
        doc = self.doc(tmp_path)
        doc["training"]["momentum"] = 0.9
        with pytest.raises(ValueError, match="momentum"):
            harness.config_from_dict(doc)
        doc = self.doc(tmp_path)
        doc["model"]["depth"] = 3
        with pytest.raises(ValueError, match="depth"):
            harness.config_from_dict(doc)
        for key in ("noise_sigma_relative", "clamp_nonneg"):
            doc = self.doc(tmp_path)
            doc["imp"]["mi"][key] = 0.01
            with pytest.raises(ValueError, match=key):
                harness.config_from_dict(doc)

    @pytest.mark.parametrize("section,value,match", [
        ("model", 5, "section 'model' must be a JSON object"),
        ("imp", [1], "section 'imp' must be a JSON object"),
        ("training", {"epochs": "3"}, "field 'training.epochs' must be int"),
        ("imp", {"mi": {"bin_counts": [4, 8.5]}}, "field 'imp.mi.bin_counts'"),
        ("seed", True, "field 'seed' must be int"),
    ])
    def test_wrong_json_types_are_value_errors(self, tmp_path, section, value,
                                               match):
        doc = self.doc(tmp_path)
        doc[section] = value
        with pytest.raises(ValueError, match=match):
            harness.config_from_dict(doc)

    def test_model_section_required(self):
        with pytest.raises(ValueError, match="model"):
            harness.config_from_dict({"seed": 1})

    def test_scaling_is_a_checked_string(self, tmp_path):
        doc = self.doc(tmp_path)
        doc["imp"]["scaling"] = "fan_scaled"
        cfg = harness.config_from_dict(doc)
        assert cfg.imp.scaling == "fan_scaled"
        assert cfg.imp.mi.bin_counts == (4, 8)
        for bad in ({"kind": "fan_scaled"}, "weird"):
            doc["imp"]["scaling"] = bad
            with pytest.raises(ValueError, match="scaling"):
                harness.config_from_dict(doc)

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.json"):
            harness.load_config(tmp_path / "nope.json")

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="wav_dir"):
            harness.DatasetConfig(kind="wav_dir")
        with pytest.raises(ValueError, match="kind"):
            harness.DatasetConfig(kind="mp3_dir")


def quick_splits(seed=0, n=12):
    items = harness.gen_synthetic_tones(n, 16000, 0.25, seed=seed)
    return harness.build_splits(harness.split_dataset(items, seed), 8)


class TestAdamTrainer:
    def sing(self, seed=0):
        return models.build_model(models.ModelConfig(
            arch="sing_ae", conv_channels=6, n_conv_layers=2, sing_kernel=5,
            spec_windows=(32, 64)), seed=seed)

    def test_record_step_zero_is_the_initial_state(self):
        net = self.sing()
        before = net.param_state()
        state = adam(epochs=1, seed=0)(net, quick_splits(),
                                                       record_step=0)
        for key, arr in before.items():
            assert np.array_equal(state[key], arr)
        assert any(not np.array_equal(net.param_state()[k], before[k])
                   for k in before)

    def test_training_is_deterministic(self):
        outs = []
        for _ in range(2):
            net = self.sing(seed=1)
            adam(epochs=2, seed=7)(net, quick_splits(1))
            outs.append(net.param_state())
        for key in outs[0]:
            assert np.array_equal(outs[0][key], outs[1][key])

    def test_snapshot_lands_after_k_steps(self):
        # both runs draw the same first-epoch permutation, so a 2-epoch
        # run's snapshot after one epoch of steps is the 1-epoch end state
        splits = quick_splits()
        k = len(splits.train)
        one = self.sing(seed=2)
        adam(epochs=1, seed=3)(one, splits)
        want = one.param_state()
        got = {}
        for step in (k, k + 1):
            got[step] = adam(epochs=2, seed=3)(
                self.sing(seed=2), splits, record_step=step)
        for key, arr in want.items():
            assert np.array_equal(got[k][key], arr), key
        assert any(not np.array_equal(got[k + 1][key], arr)
                   for key, arr in want.items())

    def test_record_step_beyond_budget_rejected(self):
        net = self.sing()
        with pytest.raises(ValueError, match="beyond"):
            adam(epochs=1)(net, quick_splits(),
                                           record_step=1000)

    def test_after_step_keeps_masked_weights_dead(self):
        net = self.sing(seed=3)
        mask = pruning.select_weights(net, 0.5, "global")
        mask.enforce(net)
        adam(epochs=1, seed=0)(net, quick_splits(3),
                                               after_step=mask.enforce)
        for key, m in mask.entries.items():
            lname, pname = key.split(".")
            data = net.layers[lname].params[pname].data
            assert np.all(data[~m] == 0.0)
            assert np.any(data[m] != 0.0)

    def test_plateau_exhaustion_stops_early(self, monkeypatch):
        # a loss with zero gradient never improves validation, so training
        # must stop after 1 + 2*patience epochs instead of the full budget
        net = self.sing()
        splits = quick_splits()
        calls = {"n": 0}

        def flat_loss(n, batch):
            calls["n"] += 1
            p = n.parameters()[0]
            return T.mul(T.tsum(p), T.Tensor(0.0))

        use_spec(monkeypatch, net, loss=flat_loss)
        adam(epochs=50, plateau_patience=2, seed=0)(net, splits)
        per_epoch = len(splits.train) + len(splits.valid)
        assert calls["n"] == 5 * per_epoch

    def test_last_epoch_is_not_validated(self, monkeypatch):
        # its loss would only steer the halving and the early stop
        passes = []
        mean_loss = pruning.mean_loss
        monkeypatch.setattr(pruning, "mean_loss",
                            lambda net, items: passes.append(1) or mean_loss(net, items))
        adam(epochs=3, seed=0)(self.sing(), quick_splits())
        assert len(passes) == 2


class TestRunExperiment:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = tiny_cfg(tmp_path, emit_samples=True)
        trace = harness.run_experiment(cfg)
        out = tmp_path / "run"
        for name in ("config.json", "trace.csv", "embed_reports.csv",
                     "pareto.csv", "MANIFEST.txt", "iter_00.ckpt",
                     "iter_02.ckpt"):
            assert (out / name).exists(), name
        assert trace.records[0].test_error_multiplier == 1.0

        manifest = (out / "MANIFEST.txt").read_text()
        assert manifest.startswith("status: complete")
        assert harness.config_hash(cfg) in manifest
        assert "trace.csv" in manifest

        reports = (out / "embed_reports.csv").read_text().splitlines()
        assert len(reports) == 1 + len(trace.records) * 4

        wavs = sorted((out / "samples").glob("*.wav"))
        assert [w.name for w in wavs] == ["iter_00.wav", "iter_01.wav",
                                          "iter_02.wav"]
        for w in wavs:
            harness.read_wav(w, 16000)
        # samples render with batchnorm's trained running statistics
        splits, _, _ = harness.setup(cfg)
        net = nn.load_checkpoint(out / "iter_02.ckpt").eval()
        with T.no_grad():
            want = models.forward_batch(net, splits.test[0]).data[0].reshape(-1)
        harness.write_wav(tmp_path / "want.wav", want, 16000)
        assert wavs[-1].read_bytes() == (tmp_path / "want.wav").read_bytes()

    def test_manifest_stamps_numpy_and_blas_outside_the_hash(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        harness.run_experiment(cfg)
        fields = dict(line.split(": ", 1) for line in
                      (tmp_path / "run" / "MANIFEST.txt").read_text().splitlines()
                      if ": " in line and not line.startswith(" "))
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert fields["numpy"] == np.__version__
        assert fields["blas"].split()[0] == blas["name"]
        if _OPENBLAS:
            assert fields["blas_threads"].isdigit()
        else:
            assert fields["blas_threads"] == "unknown"
        assert fields["config_hash"] == harness.config_hash(cfg)
        # the hash of a fixed config is the one it had before the stamps
        assert harness.config_hash(tiny_cfg(Path("/fixed"))) == (
            "bcd19711768c01bebb2b145c24bdb24131f8e9b70e61748c063bc366c3493ee7")

    def test_unloadable_blas_stamps_unknown_and_the_run_finishes(
            self, tmp_path, monkeypatch):
        # a mapped library replaced mid-run no longer loads: CDLL raises
        def unloadable(path):
            raise OSError(f"{path}: cannot open shared object file")
        monkeypatch.setattr(harness, "ctypes", SimpleNamespace(
            CDLL=unloadable, c_int=ctypes.c_int))
        harness.run_experiment(tiny_cfg(tmp_path))
        lines = (tmp_path / "run" / "MANIFEST.txt").read_text().splitlines()
        assert lines[0].startswith("status: complete")
        assert "blas_threads: unknown" in lines

    @pytest.mark.skipif(not _OPENBLAS, reason="numpy is not built on OpenBLAS")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_thread_stamp_follows_the_environment(self, threads):
        code = "from audiotrim import harness; print(harness._blas_threads())"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        # OpenBLAS caps its thread count at the CPUs the process may use
        assert out.strip() == str(min(threads, len(os.sched_getaffinity(0))))

    @pytest.mark.skipif(not _OPENBLAS, reason="numpy is not built on OpenBLAS")
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="fewer than 2 CPUs")
    def test_each_blas_thread_count_reproduces_its_own_wavenet_bytes(self, tmp_path):
        # WaveNet bytes may depend on the BLAS thread count; on one build,
        # each count gives the same bytes again and stamps itself
        cfg = tiny_cfg(tmp_path, model=models.ModelConfig(
            arch="wavenet", sample_rate=8000, n_stacks=1, blocks_per_stack=3,
            residual_channels=4, gate_channels=6, skip_channels=5,
            head_channels=7, n_classes=16),
            dataset=harness.DatasetConfig(n_items=10, sr=8000, duration=0.25),
            imp=pruning.ImpConfig(iterations=1, criterion="gradient", rewind_step=1))
        code = ("import sys; from audiotrim import harness; "
                "harness.run_experiment(harness.load_config(sys.argv[1]))")
        for threads in (1, 2):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                   "PYTHONPATH": str(Path(harness.__file__).parents[1])}
            runs = []
            for k in range(2):
                out = tmp_path / f"threads{threads}_run{k}"
                path = tmp_path / f"threads{threads}_run{k}.json"
                path.write_text(json.dumps(harness.config_to_dict(
                    replace(cfg, output_dir=str(out)))))
                subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                               check=True, capture_output=True, timeout=300)
                fields = dict(line.split(": ", 1) for line in
                              (out / "MANIFEST.txt").read_text().splitlines()
                              if ": " in line and not line.startswith(" "))
                assert fields["blas_threads"] == str(threads)
                runs.append({p.name: p.read_bytes() for p in
                             [out / "trace.csv", *sorted(out.glob("*.ckpt"))]})
            assert len(runs[0]) == 3 and runs[0] == runs[1], threads

    def test_trace_csv_columns_and_determinism(self, tmp_path):
        cfg = tiny_cfg(tmp_path, imp=pruning.ImpConfig(iterations=2, rewind_step=1))
        outs = []
        for _ in range(2):
            trace = harness.run_experiment(cfg)
            outs.append((tmp_path / "run" / "trace.csv").read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().split("\r\n")
        assert lines[0] == ",".join(harness.TRACE_COLUMNS)
        assert lines[1:] == [
            f"{r.iteration},{r.weights_remaining_frac:.10g},"
            f"{r.units_remaining_frac:.10g},{r.valid_loss:.10g},"
            f"{r.test_error_multiplier:.10g},{r.flops_per_second_audio:.10g},"
            f"{r.disk_bytes},{r.rw_accesses:.10g}" for r in trace.records] + [""]

    @pytest.mark.parametrize("model", [
        models.ModelConfig(arch="ddsp", sample_rate=8000, gru_units=4,
                           dense_units=4, n_partials=3, noise_bins=3,
                           frame_hop=100, spec_windows=(32, 64)),
        models.ModelConfig(arch="sing_ae", sample_rate=8000, conv_channels=6,
                           n_conv_layers=2, sing_kernel=5, spec_windows=(32, 64)),
        models.ModelConfig(arch="wavenet", sample_rate=8000, n_stacks=1,
                           blocks_per_stack=2, residual_channels=4,
                           gate_channels=6, skip_channels=5, head_channels=7,
                           n_classes=16),
    ], ids=["ddsp", "sing_ae", "wavenet"])
    def test_embed_reports_equal_the_analysis_of_each_checkpoint(self, tmp_path,
                                                                 model):
        # the reports are priced from the IMP records; analysing each
        # reloaded checkpoint again is their oracle
        cfg = tiny_cfg(tmp_path, model=model, dataset=harness.DatasetConfig(
            n_items=10, sr=8000, duration=0.25))
        traces = harness.run_paired(cfg)
        profiles = embed.load_platforms()
        for mode, trace in traces.items():
            out = tmp_path / "run" / mode
            assert len(trace.records) == 3, mode
            want = [[rec.iteration] + embed.report_row(
                        replace(rep, error_multiplier=rec.test_error_multiplier))
                    for rec in trace.records
                    for rep in embed.analyze(nn.load_checkpoint(
                        out / f"iter_{rec.iteration:02d}.ckpt"), profiles)]
            harness.write_csv(tmp_path / "want.csv",
                              ["iteration"] + embed.REPORT_COLUMNS, want)
            assert ((out / "embed_reports.csv").read_bytes()
                    == (tmp_path / "want.csv").read_bytes()), mode

    def test_identical_config_reproduces_all_csv_bytes(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        blobs = []
        for _ in range(2):
            harness.run_experiment(cfg)
            blobs.append({name: (tmp_path / "run" / name).read_bytes()
                          for name in ("trace.csv", "embed_reports.csv",
                                       "pareto.csv", "config.json",
                                       "iter_02.ckpt")})
        assert blobs[0] == blobs[1]

    def test_failure_leaves_incomplete_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = tiny_cfg(tmp_path, dataset=harness.DatasetConfig(
            kind="wav_dir", wav_dir=str(empty)))
        with pytest.raises(harness.WavFormatError):
            harness.run_experiment(cfg)
        manifest = (tmp_path / "run" / "MANIFEST.txt").read_text()
        assert manifest.startswith("status: incomplete")
        assert "WavFormatError" in manifest

    def test_mid_imp_failure_keeps_the_checkpoints_written_so_far(
            self, tmp_path, monkeypatch):
        factory = harness.adam_trainer

        def failing_factory(*args):
            train, calls = factory(*args), []

            def trainer(*a, **k):
                calls.append(None)
                # dense training, iteration 1's retraining, then iteration 2's
                if len(calls) == 3:
                    raise RuntimeError("trainer failed at iteration 2")
                return train(*a, **k)
            return trainer
        monkeypatch.setattr(harness, "adam_trainer", failing_factory)
        with pytest.raises(RuntimeError, match="iteration 2"):
            harness.run_experiment(tiny_cfg(tmp_path))
        out = tmp_path / "run"
        manifest = (out / "MANIFEST.txt").read_text()
        assert manifest.startswith("status: incomplete (RuntimeError")
        assert sorted(p.name for p in out.glob("*.ckpt")) == ["iter_00.ckpt",
                                                              "iter_01.ckpt"]
        listed = [line.split()[0] for line in manifest.splitlines()
                  if line.startswith("  ")]
        assert listed == ["config.json", "iter_00.ckpt", "iter_01.ckpt"]
        nn.load_checkpoint(out / "iter_01.ckpt")

    @pytest.mark.parametrize("arms", [False, True], ids=["experiment", "paired"])
    def test_missing_platforms_file_fails_before_training(self, tmp_path,
                                                          monkeypatch, arms):
        def untrainable(*args):
            def trainer(*a, **k):
                raise AssertionError("trained before the platforms file was read")
            return trainer
        monkeypatch.setattr(harness, "adam_trainer", untrainable)
        cfg = tiny_cfg(tmp_path, platforms=str(tmp_path / "absent.json"))
        with pytest.raises(FileNotFoundError, match="absent.json"):
            (harness.run_paired if arms else harness.run_experiment)(cfg)
        for out in ([tmp_path / "run" / m for m in ("trim", "mask")] if arms
                    else [tmp_path / "run"]):
            manifest = (out / "MANIFEST.txt").read_text()
            assert manifest.startswith("status: incomplete (FileNotFoundError")
            assert not list(out.glob("*.ckpt"))

    def test_dense_failure_leaves_incomplete_manifest_in_every_arm(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = tiny_cfg(tmp_path, dataset=harness.DatasetConfig(
            kind="wav_dir", wav_dir=str(empty)))
        with pytest.raises(harness.WavFormatError):
            harness.run_paired(cfg)
        for mode in ("trim", "mask"):
            manifest = (tmp_path / "run" / mode / "MANIFEST.txt").read_text()
            assert manifest.startswith("status: incomplete")
            assert "WavFormatError" in manifest

    def test_paired_run_aligns_both_modes(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        traces = harness.run_paired(cfg)
        assert set(traces) == {"trim", "mask"}
        rows = (tmp_path / "run" / "paired.csv").read_text().splitlines()
        assert rows[0].split(",") == [
            "iteration", "trim_weights_remaining_frac",
            "trim_error_multiplier", "mask_weights_remaining_frac",
            "mask_error_multiplier"]
        assert len(rows) == 1 + 3
        for sub in ("trim", "mask"):
            assert (tmp_path / "run" / sub / "trace.csv").exists()
        # trimming deletes whole units so its weight curve falls faster
        last = rows[-1].split(",")
        assert float(last[1]) < float(last[3])

    def test_paired_run_trains_the_dense_net_once(self, tmp_path, monkeypatch):
        calls = count_train_calls(monkeypatch)
        traces = harness.run_paired(tiny_cfg(tmp_path))
        assert [len(t.records) for t in traces.values()] == [3, 3]
        # the dense training records the rewind step; each iteration of
        # each arm retrains without one
        assert calls == [0, None, None, None, None]

    def test_paired_arms_match_plain_runs_byte_for_byte(self, tmp_path):
        cfg = tiny_cfg(tmp_path, emit_samples=True,
                       imp=pruning.ImpConfig(iterations=2, criterion="gradient",
                                             rewind_step=1))
        harness.run_paired(cfg)

        def artifacts(out):
            return {str(p.relative_to(out)): p.read_bytes()
                    for p in sorted(out.rglob("*"))
                    if p.is_file() and p.name not in ("MANIFEST.txt", "config.json")}

        for mode in ("trim", "mask"):
            arm = tmp_path / "run" / mode
            plain = tmp_path / f"plain_{mode}"
            harness.run_experiment(replace(harness.load_config(arm / "config.json"),
                                           output_dir=str(plain)))
            got, want = artifacts(arm), artifacts(plain)
            assert "iter_02.ckpt" in want and "samples/iter_02.wav" in want
            assert got == want, mode
