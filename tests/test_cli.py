"""Exit codes, artifact emission, and determinism of the command surface."""

import csv
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from audiotrim import cli, harness, models, nn, pruning
from audiotrim import criteria as cr
from audiotrim import tensor as T


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    doc = {
        "model": {"arch": "sing_ae", "conv_channels": 8, "n_conv_layers": 2,
                  "sing_kernel": 5, "spec_windows": [32, 64]},
        "dataset": {"n_items": 12, "duration": 0.25},
        "training": {"epochs": 2, "batch_size": 8},
        "imp": {"iterations": 2, "criterion": "magnitude"},
        "output_dir": str(d / "run"),
        "seed": 3,
        "emit_samples": False,
    }
    cfg = d / "config.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["imp", "--config", str(cfg)]) == 0
    return d


class TestExitCodes:
    def test_missing_config_is_usage_error_naming_path(self, tmp_path, capsys):
        rc = cli.main(["imp", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "absent.json" in capsys.readouterr().err

    def test_unknown_flag_prints_usage(self, workspace, capsys):
        rc = cli.main(["imp", "--config", str(workspace / "config.json"),
                       "--turbo"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--turbo" in err

    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        json.dumps({"model": {"arch": "sing_ae"}, "training": {"epochs": "3"}}),
        '{"model": {"arch": "sing_ae"',
    ], ids=["wrong-type", "unparsed"])
    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_malformed_config_is_usage_error(self, workspace, tmp_path, capsys,
                                             content, command):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        argv = {"train": ["train", "--config", str(bad)],
                "analyze": ["analyze", "--model",
                            str(workspace / "run" / "iter_02.ckpt"),
                            "--criterion", "gradient", "--config", str(bad)]}
        assert cli.main(argv[command]) == 1
        assert "bad.json" in capsys.readouterr().err

    def test_runtime_failure_returns_two(self, tmp_path, capsys):
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"not a checkpoint at all")
        rc = cli.main(["embed-check", "--model", str(junk)])
        assert rc == 2
        assert capsys.readouterr().err.strip()


class TestGenData:
    def test_writes_wavs_and_conditioning(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--out", str(tmp_path / "ds"), "--n", "10",
                       "--sr", "16000", "--seed", "4"])
        assert rc == 0
        files = sorted((tmp_path / "ds").glob("*.wav"))
        assert len(files) == 10
        assert (tmp_path / "ds" / "conditioning.json").exists()
        items = harness.load_wav_dir(tmp_path / "ds", 16000)
        assert all("f0" in it for it in items)

    def test_same_seed_same_bytes(self, tmp_path):
        for name in ("a", "b"):
            cli.main(["gen-data", "--out", str(tmp_path / name), "--n", "6",
                      "--seed", "9"])
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


class TestImp:
    def test_emits_trace_and_checkpoints(self, workspace):
        run = workspace / "run"
        assert (run / "trace.csv").exists()
        assert (run / "iter_02.ckpt").exists()
        assert (run / "MANIFEST.txt").read_text().startswith("status: complete")

    def test_same_config_seed_identical_trace(self, workspace, tmp_path):
        doc = json.loads((workspace / "config.json").read_text())
        traces = []
        for name in ("r1", "r2"):
            doc["output_dir"] = str(tmp_path / name)
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            assert cli.main(["imp", "--config", str(cfg), "--seed", "7"]) == 0
            traces.append((tmp_path / name / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_paired_flag(self, workspace, tmp_path):
        doc = json.loads((workspace / "config.json").read_text())
        doc["output_dir"] = str(tmp_path / "paired")
        doc["imp"]["iterations"] = 1
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["imp", "--config", str(cfg), "--paired"]) == 0
        assert (tmp_path / "paired" / "paired.csv").exists()
        assert (tmp_path / "paired" / "trim" / "trace.csv").exists()
        assert (tmp_path / "paired" / "mask" / "trace.csv").exists()

    @staticmethod
    def _config(workspace, tmp_path, **fields):
        doc = json.loads((workspace / "config.json").read_text())
        doc.update(output_dir=str(tmp_path / "run"), **fields)
        doc["imp"]["iterations"] = 1
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        return str(cfg)

    @pytest.mark.parametrize("flags", [[], ["--paired"]], ids=["imp", "paired"])
    def test_malformed_platforms_file_is_usage_error(self, workspace, tmp_path,
                                                     capsys, flags):
        path = tmp_path / "platforms.json"
        path.write_text('{"platforms": [')
        cfg = self._config(workspace, tmp_path, platforms=str(path))
        assert cli.main(["imp", "--config", cfg] + flags) == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--paired"]], ids=["imp", "paired"])
    def test_value_error_in_training_is_runtime_failure(self, workspace, tmp_path,
                                                        capsys, monkeypatch, flags):
        def fail(net, batch):
            raise ValueError("bad batch")

        monkeypatch.setattr(models, "compute_loss", fail)
        cfg = self._config(workspace, tmp_path)
        assert cli.main(["imp", "--config", cfg] + flags) == 2
        assert "ValueError: bad batch" in capsys.readouterr().err


class TestTrain:
    def test_saves_model_and_metrics(self, workspace, tmp_path):
        rc = cli.main(["train", "--config", str(workspace / "config.json"),
                       "--out", str(tmp_path / "dense")])
        assert rc == 0
        assert (tmp_path / "dense" / "model.ckpt").exists()
        metrics = json.loads((tmp_path / "dense" / "metrics.json").read_text())
        assert set(metrics) == {"valid", "test"}
        assert all(np.isfinite(v) for v in metrics.values())


class TestAnalyze:
    def test_magnitude_scores_csv(self, workspace, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        rc = cli.main(["analyze", "--model",
                       str(workspace / "run" / "iter_02.ckpt"),
                       "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "pool,unit,score"
        assert len(rows) > 1
        assert "weakest" in capsys.readouterr().out

    def test_out_csv_has_one_row_per_unit_equal_to_pool_scores(self, workspace,
                                                               tmp_path):
        ckpt = workspace / "run" / "iter_02.ckpt"
        out = tmp_path / "scores.csv"
        assert cli.main(["analyze", "--model", str(ckpt), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        # without --config, analyze scores with ImpConfig's defaults
        scores = cr.pool_scores(nn.load_checkpoint(ckpt), "magnitude",
                                pruning.ImpConfig().scaling)
        assert [(pid, int(u)) for pid, u, _ in rows] == [
            (pid, u) for pid, vec in scores.items() for u in range(len(vec))]
        got = np.array([float(s) for _, _, s in rows])
        want = np.concatenate(list(scores.values()))
        assert np.allclose(got, want, rtol=1e-9, atol=0)

    def test_data_driven_criterion_needs_config(self, workspace, capsys):
        rc = cli.main(["analyze", "--model",
                       str(workspace / "run" / "iter_02.ckpt"),
                       "--criterion", "gradient"])
        assert rc == 1
        assert "--config" in capsys.readouterr().err

    def test_gradient_scores_with_config(self, workspace, tmp_path):
        out = tmp_path / "grad.csv"
        rc = cli.main(["analyze", "--model",
                       str(workspace / "run" / "iter_02.ckpt"),
                       "--criterion", "gradient",
                       "--config", str(workspace / "config.json"),
                       "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) > 1


    def test_scores_with_the_config_scaling(self, workspace, tmp_path):
        ckpt = workspace / "run" / "iter_02.ckpt"
        doc = json.loads((workspace / "config.json").read_text())
        doc["imp"]["scaling"] = "fan_scaled"
        cfg = tmp_path / "fan.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "fan.csv"
        assert cli.main(["analyze", "--model", str(ckpt), "--config", str(cfg),
                         "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            got = np.array([float(s) for _, _, s in list(csv.reader(fh))[1:]])
        net = nn.load_checkpoint(ckpt)
        for scaling in cr.SCALINGS:
            want = np.concatenate(list(cr.pool_scores(
                net, "magnitude", scaling).values()))
            assert np.allclose(got, want, rtol=1e-9, atol=0) \
                == (scaling == "fan_scaled"), scaling

    def test_scores_sing_in_eval_mode(self, workspace, tmp_path, monkeypatch):
        # data-driven scores must see the trained running statistics, as
        # run_imp's do, and scoring must not update them
        ckpt = workspace / "run" / "iter_02.ckpt"
        loaded = []

        def spy(path):
            loaded.append(load(path))
            return loaded[-1]

        load = nn.load_checkpoint
        monkeypatch.setattr(nn, "load_checkpoint", spy)
        out = tmp_path / "grad.csv"
        assert cli.main(["analyze", "--model", str(ckpt),
                         "--criterion", "gradient",
                         "--config", str(workspace / "config.json"),
                         "--out", str(out)]) == 0
        monkeypatch.undo()

        ref = nn.load_checkpoint(ckpt).eval()
        assert ref.arch == "sing_ae"
        cfg = harness.load_config(workspace / "config.json")
        split = harness.split_dataset(harness._build_dataset(cfg), cfg.seed)
        want = cr.pool_scores(ref, "gradient", cfg.imp.scaling,
                              batches=[harness.collate([it]) for it in split.valid],
                              mi_cfg=cfg.imp.mi)
        with open(out, newline="") as fh:
            got = np.array([float(s) for _, _, s in list(csv.reader(fh))[1:]])
        assert np.allclose(got, np.concatenate(list(want.values())),
                           rtol=1e-9, atol=0)

        (used,) = loaded
        fresh = nn.load_checkpoint(ckpt)
        for name, layer in fresh.layers.items():
            for key, buf in layer.buffers.items():
                assert np.array_equal(used.layers[name].buffers[key], buf), \
                    (name, key)


class TestEmbedCheck:
    def test_lists_all_reference_platforms(self, workspace, capsys):
        rc = cli.main(["embed-check", "--model",
                       str(workspace / "run" / "iter_00.ckpt")])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("ATMega1280", "ATMega2560", "RPi 1B", "RPi 2B"):
            assert name in out

    @pytest.mark.parametrize("content", [
        '{"platforms": [{"name": "a", "cpu_hz": 1}]}', '{"platforms": [',
    ], ids=["missing-field", "unparsed"])
    def test_malformed_platforms_file_is_usage_error(self, workspace, tmp_path,
                                                     capsys, content):
        path = tmp_path / "platforms.json"
        path.write_text(content)
        rc = cli.main(["embed-check", "--model",
                       str(workspace / "run" / "iter_00.ckpt"),
                       "--platforms", str(path)])
        assert rc == 1
        assert str(path) in capsys.readouterr().err


class TestSynth:
    def test_renders_loadable_wav(self, workspace, tmp_path):
        out = tmp_path / "sample.wav"
        rc = cli.main(["synth", "--model",
                       str(workspace / "run" / "iter_02.ckpt"),
                       "--out", str(out)])
        assert rc == 0
        wave = harness.read_wav(out, 16000)
        assert len(wave) > 0
        assert np.all(np.isfinite(wave))

    def test_sing_renders_with_running_stats(self, workspace, tmp_path,
                                             monkeypatch):
        # batchnorm must use the trained running statistics, not the
        # rendered item's own, and rendering must not update them
        ckpt = workspace / "run" / "iter_02.ckpt"
        loaded = []

        def spy(path):
            loaded.append(load(path))
            return loaded[-1]

        load = nn.load_checkpoint
        monkeypatch.setattr(nn, "load_checkpoint", spy)
        out = tmp_path / "sample.wav"
        assert cli.main(["synth", "--model", str(ckpt), "--out", str(out),
                         "--seed", "5"]) == 0
        monkeypatch.undo()

        ref = nn.load_checkpoint(ckpt).eval()
        batch = harness.collate(harness.gen_synthetic_tones(
            1, 16000, 0.25, 5, frame_hop=harness._tone_hop(ref.arch,
                                                           ref.meta["config"])))
        with T.no_grad():
            want = models.forward_batch(ref, batch).data.reshape(-1)
        harness.write_wav(tmp_path / "want.wav", want, 16000)
        assert out.read_bytes() == (tmp_path / "want.wav").read_bytes()

        (used,) = loaded
        for name, layer in ref.layers.items():
            for key, buf in layer.buffers.items():
                assert np.array_equal(used.layers[name].buffers[key], buf), \
                    (name, key)


TINY_MODELS = {
    # synth draws 40 samples: --duration 0.005 at 8 kHz
    "wavenet": ({"arch": "wavenet", "sample_rate": 8000, "n_stacks": 1,
                 "blocks_per_stack": 2, "residual_channels": 3,
                 "gate_channels": 4, "skip_channels": 3, "head_channels": 4,
                 "n_classes": 16},
                8000, ["--duration", "0.005"], 40),
    # synth renders one 0.25 s tone: 40 frames of 100 samples
    "ddsp": ({"arch": "ddsp", "gru_units": 4, "dense_units": 4,
              "n_partials": 4, "noise_bins": 5, "frame_hop": 100,
              "spec_windows": [64, 128]},
             16000, [], 4000),
}


@pytest.mark.parametrize("arch", sorted(TINY_MODELS))
def test_train_then_synth(arch, tmp_path):
    model, sr, synth_flags, n_samples = TINY_MODELS[arch]
    doc = {"model": model,
           "dataset": {"n_items": 10, "sr": sr, "duration": 0.25},
           "training": {"epochs": 1, "batch_size": 8},
           "output_dir": str(tmp_path / "dense"), "seed": 2}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(cfg)]) == 0
    metrics = json.loads((tmp_path / "dense" / "metrics.json").read_text())
    assert all(np.isfinite(v) for v in metrics.values())
    waves = []
    for name in ("a.wav", "b.wav"):
        rc = cli.main(["synth", "--model", str(tmp_path / "dense" / "model.ckpt"),
                       "--out", str(tmp_path / name), "--seed", "1"]
                      + synth_flags)
        assert rc == 0
        waves.append((tmp_path / name).read_bytes())
    assert waves[0] == waves[1]
    wave = harness.read_wav(tmp_path / "a.wav", sr)
    assert len(wave) == n_samples
    assert np.all(np.isfinite(wave)) and np.all(np.abs(wave) <= 1)


class TestEntryPoint:
    def test_console_script_or_module_runs(self, tmp_path):
        if shutil.which("audiotrim"):
            argv = ["audiotrim"]
        else:
            argv = [sys.executable, "-m", "audiotrim.cli"]
        proc = subprocess.run(argv + ["gen-data", "--out",
                                      str(tmp_path / "ds"), "--n", "10"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert len(list((tmp_path / "ds").glob("*.wav"))) == 10
