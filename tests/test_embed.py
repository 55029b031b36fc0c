"""Cost-model tests: closed-form FLOPs vs an instrumented op counter,
memory-access accounting, disk measurement, feasibility verdicts, and
Pareto front extraction."""

import csv
import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiotrim import embed, harness, models, nn, pruning
from audiotrim import tensor as T


def sim_layer_ops(kind, n_in, n_out, k=1):
    """Count scalar operations by walking the layer's arithmetic one
    output scalar at a time, under the documented conventions."""
    ops = 0
    if kind == "linear":
        for _u in range(n_out):
            for _j in range(n_in):
                ops += 1  # multiply
            for _j in range(n_in - 1):
                ops += 1  # accumulate
            ops += 1      # bias add
    elif kind == "conv1d":
        for _u in range(n_out):
            for _j in range(n_in * k):
                ops += 1
            for _j in range(n_in * k - 1):
                ops += 1
            ops += 1
    elif kind == "batchnorm":
        for _u in range(n_in):
            ops += 4  # subtract mean, scale, gamma, beta
    elif kind == "gru":
        for _u in range(n_out):
            for _gate in range(3):
                for _j in range(n_in + n_out):
                    ops += 1  # multiply
                for _j in range(n_in + n_out - 2):
                    ops += 1  # accumulate within each matrix product
                ops += 1      # combine input and recurrent partials
                ops += 1      # bias add
            # elementwise: 2 sigmoids, tanh, reset product, one-minus-update,
            # two blend products, blend add, state write-back
            ops += 9
    else:
        raise AssertionError(kind)
    return ops


def sim_net_ops(net):
    total = 0
    for layer in net.layers.values():
        if layer.kind == "batchnorm":
            n_in = n_out = layer.params["gamma"].shape[0]
            k = 1
        else:
            w = layer.params["wz" if layer.kind == "gru" else "w"]
            n_out, n_in, *taps = w.shape
            k = math.prod(taps)
        total += sim_layer_ops(layer.kind, n_in, n_out, k)
    return total


def random_chain(rng):
    """A random mixed-kind layer chain (linear/conv/gru with batchnorms)."""
    layers = []
    prev_name = None
    width = int(rng.integers(1, 6))
    for i in range(int(rng.integers(1, 5))):
        kind = rng.choice(["linear", "conv1d", "gru"])
        n_out = int(rng.integers(1, 7))
        name = f"l{i}"
        if kind == "linear":
            layers.append(nn.make_linear(name, width, n_out, rng, in_source=prev_name))
        elif kind == "conv1d":
            kk = int(rng.integers(1, 5))
            layers.append(nn.make_conv(name, width, n_out, kk, rng, in_source=prev_name))
            if rng.random() < 0.4:
                layers.append(nn.make_batchnorm(f"b{i}", n_out, in_source=name))
        else:
            layers.append(nn.make_gru(name, width, n_out, rng, in_source=prev_name))
        prev_name, width = name, n_out
    return nn.Network("sequential", layers)


def tiny_arch_net(rng):
    arch = rng.choice(["wavenet", "sing_ae", "ddsp"])
    if arch == "wavenet":
        cfg = models.ModelConfig(
            arch="wavenet", sample_rate=4000, n_stacks=1,
            blocks_per_stack=int(rng.integers(1, 4)),
            residual_channels=int(rng.integers(2, 6)),
            gate_channels=int(rng.integers(2, 6)),
            skip_channels=int(rng.integers(2, 6)),
            head_channels=int(rng.integers(2, 6)), n_classes=8)
    elif arch == "sing_ae":
        cfg = models.ModelConfig(
            arch="sing_ae", sample_rate=4000,
            conv_channels=int(rng.integers(2, 8)),
            n_conv_layers=int(rng.integers(2, 5)),
            sing_kernel=int(rng.integers(1, 6)))
    else:
        cfg = models.ModelConfig(
            arch="ddsp", sample_rate=4000, frame_hop=int(rng.integers(8, 64)),
            gru_units=int(rng.integers(2, 8)),
            dense_units=int(rng.integers(2, 8)),
            n_partials=int(rng.integers(1, 8)),
            noise_bins=int(rng.integers(1, 8)))
    return models.build_model(cfg, seed=int(rng.integers(1000)))


class TestFlops:
    def test_linear_hand_count(self):
        rng = np.random.default_rng(0)
        assert embed.layer_flops(nn.make_linear("l", 3, 2, rng)) == 12

    def test_conv_hand_count(self):
        rng = np.random.default_rng(0)
        assert embed.layer_flops(nn.make_conv("c", 2, 4, 3, rng)) == 2 * 3 * 2 * 4

    def test_gru_hand_count(self):
        rng = np.random.default_rng(0)
        assert embed.layer_flops(nn.make_gru("g", 2, 3, rng)) == 6 * 3 * 5 + 9 * 3

    def test_batchnorm_hand_count(self):
        assert embed.layer_flops(nn.make_batchnorm("b", 5, in_source=None)) == 20

    def test_closed_form_matches_instrumented_counter(self):
        rng = np.random.default_rng(7)
        for i in range(50):
            net = random_chain(rng) if i % 2 else tiny_arch_net(rng)
            per_inv = sum(embed.layer_flops(l) for l in net.layers.values())
            assert per_inv == sim_net_ops(net), net.arch

    def test_rates_scale_per_invocation_counts(self):
        rng = np.random.default_rng(3)
        net = random_chain(rng)
        net.meta["config"] = {"sample_rate": 8000}
        per_inv = sim_net_ops(net)
        assert embed.count_flops(net) == 8000 * per_inv

    def test_ddsp_amortizes_by_frame_hop(self):
        cfg = models.ModelConfig(arch="ddsp", sample_rate=16000, frame_hop=200,
                                 gru_units=4, dense_units=4, n_partials=3,
                                 noise_bins=5)
        net = models.build_model(cfg, seed=0)
        per_inv = sum(embed.layer_flops(l) for l in net.layers.values())
        assert embed.count_flops(net) == pytest.approx(per_inv * 16000 / 200)

    def test_halving_hidden_units_quarters_interior_convs(self):
        cfg = models.ModelConfig(arch="sing_ae", conv_channels=8, n_conv_layers=4,
                                 sing_kernel=5)
        net = models.build_model(cfg, seed=0)
        plan = {pid: np.arange(4) for pid in net.pools}
        small = nn.apply_trim(net, plan)
        for name in ("conv1", "conv2"):
            dense = embed.layer_flops(net.layers[name])
            trimmed = embed.layer_flops(small.layers[name])
            assert trimmed < 0.5 * dense
            assert trimmed == dense // 4

    def test_trimming_never_increases_any_cost(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            net = tiny_arch_net(rng)
            plan = {}
            for pid, pool in net.pools.items():
                n = len(pool.kept)
                k = int(rng.integers(0, n))
                if k:
                    plan[pid] = rng.choice(n, size=k, replace=False)
            if not plan:
                continue
            small = nn.apply_trim(net, plan)
            assert embed.count_flops(small) <= embed.count_flops(net)
            assert embed.disk_size(small) <= embed.disk_size(net)
            assert embed.rw_memory(small) <= embed.rw_memory(net)
            assert embed.working_set_bytes(small) <= embed.working_set_bytes(net)

    def test_unknown_layer_kind_rejected(self):
        bogus = nn.Layer("p", "pooling", {})
        with pytest.raises(ValueError, match="unknown layer kind"):
            embed.layer_flops(bogus)

    def test_missing_sample_rate_rejected(self):
        net = random_chain(np.random.default_rng(0))
        with pytest.raises(ValueError, match="sample_rate"):
            embed.count_flops(net)


# elementwise FLOPs per unit and invocation, as the module docstring
# itemises them
ELEMENTWISE_OPS = {"linear": 0, "conv1d": 0, "gru": 9, "batchnorm": 4}

TINY_MODELS = {
    "wavenet": models.ModelConfig(
        arch="wavenet", sample_rate=8000, n_stacks=1, blocks_per_stack=3,
        residual_channels=4, gate_channels=5, skip_channels=3,
        head_channels=6, n_classes=8),
    "sing_ae": models.ModelConfig(arch="sing_ae", sample_rate=8000,
                                  conv_channels=5, n_conv_layers=3, sing_kernel=5),
    "ddsp": models.ModelConfig(arch="ddsp", sample_rate=8000, frame_hop=50,
                               gru_units=5, dense_units=4, n_partials=3,
                               noise_bins=3),
}


def counted_macs(monkeypatch, net, batch) -> int:
    """The multiply-accumulates one no_grad forward_batch runs through
    tensor.matmul and the causal conv."""
    macs = []
    matmul, conv = T.matmul, T.conv1d_dilated_causal

    def counting_matmul(a, b):
        assert b.ndim == 2
        macs.append(a.data.size * b.shape[1])  # (..., k) @ (k, n)
        return matmul(a, b)

    def counting_conv(x, w, dilation=1, bias=None):
        n_out, _, k = w.shape
        assert (k - 1) * dilation < x.shape[-1]  # every tap reaches the signal
        macs.append(x.data.size * n_out * k)  # (b, c, t) by (o, c, k)
        return conv(x, w, dilation, bias=bias)

    with monkeypatch.context() as m:
        m.setattr(T, "matmul", counting_matmul)
        m.setattr(T, "conv1d_dilated_causal", counting_conv)
        with T.no_grad():
            models.forward_batch(net, batch)
    assert macs
    return sum(macs)


def closed_form_flops(net, batch) -> int:
    """The closed form's matrix term over one forward_batch: each layer's
    embed.layer_flops less its elementwise ops, times the positions the
    net is invoked at."""
    x = models.arch_spec(net.arch).inputs(batch)
    # (batch, frames, features) for ddsp, (batch, 1, time) for the convs
    positions = x.shape[0] * (x.shape[1] if net.arch == "ddsp" else x.shape[2])
    matrix = sum(embed.layer_flops(layer) - ELEMENTWISE_OPS[layer.kind] * layer.n_units
                 for layer in net.layers.values())
    return matrix * positions


def tone_batch(cfg, seed=2):
    # 2000 samples at 8 kHz, far beyond the tiny nets' receptive fields
    return harness.collate(harness.gen_synthetic_tones(
        2, cfg.sample_rate, 0.25, seed=seed, frame_hop=cfg.frame_hop))


class TestCountedMacs:
    """The closed form's matrix term against the multiply-accumulates one
    forward pass runs through tensor.matmul and the causal conv."""

    @pytest.mark.parametrize("trim", [False, True])
    @pytest.mark.parametrize("arch", sorted(TINY_MODELS))
    def test_matrix_term_equals_counted_macs(self, monkeypatch, arch, trim):
        cfg = TINY_MODELS[arch]
        net = models.build_model(cfg, seed=1)
        if trim:
            net = nn.apply_trim(net, {pid: [0] for pid, p in net.pools.items()
                                      if len(p.kept) > 1})
        batch = tone_batch(cfg)
        assert (embed.FLOPS_PER_MAC * counted_macs(monkeypatch, net, batch)
                == closed_form_flops(net, batch))

    @pytest.mark.parametrize("arch", ["ddsp", "sing_ae"])
    def test_masked_arm_runs_dense_macs_and_trimmed_arm_its_closed_form(
            self, tmp_path, monkeypatch, arch):
        # the paper's argument against masking, in exact counts and no clock
        cfg = harness.ExperimentConfig(
            model=TINY_MODELS[arch],
            dataset=harness.DatasetConfig(sr=8000, n_items=12, duration=0.25),
            training=harness.TrainingConfig(epochs=1, batch_size=8),
            imp=pruning.ImpConfig(iterations=2, criterion="magnitude"),
            output_dir=str(tmp_path), seed=3)
        harness.run_paired(cfg)
        batch = tone_batch(cfg.model)
        dense = nn.load_checkpoint(tmp_path / "mask" / "iter_00.ckpt").eval()
        dense_macs = counted_macs(monkeypatch, dense, batch)
        trimmed = []
        for it in range(3):
            masked = nn.load_checkpoint(tmp_path / "mask" / f"iter_{it:02d}.ckpt").eval()
            assert counted_macs(monkeypatch, masked, batch) == dense_macs
            net = nn.load_checkpoint(tmp_path / "trim" / f"iter_{it:02d}.ckpt").eval()
            macs = counted_macs(monkeypatch, net, batch)
            assert embed.FLOPS_PER_MAC * macs == closed_form_flops(net, batch)
            trimmed.append(macs)
        assert trimmed[0] == dense_macs and trimmed[-1] < dense_macs

        def nonzero(n):
            return sum(np.count_nonzero(p.data) for p in n.parameters())
        assert nonzero(masked) < nonzero(dense)  # the mask arm did mask


class TestRwMemory:
    def test_linear_hand_count(self):
        rng = np.random.default_rng(0)
        # 6 weight reads + 2 bias reads + 3 input reads + 2 writes
        assert embed.layer_rw(nn.make_linear("l", 3, 2, rng)) == 13

    def test_doubling_units_follows_closed_form(self):
        rng = np.random.default_rng(0)
        for n_out in (2, 4, 8):
            got = embed.layer_rw(nn.make_linear("l", 3, n_out, rng))
            assert got == 3 * n_out + n_out + 3 + n_out

    def test_conv_gru_batchnorm_forms(self):
        rng = np.random.default_rng(0)
        assert embed.layer_rw(nn.make_conv("c", 2, 4, 3, rng)) == 3 * 2 * 4 + 4 + 3 * 2 + 4
        assert embed.layer_rw(nn.make_gru("g", 2, 3, rng)) == 3 * 3 * 5 + 9 + 2 + 6
        assert embed.layer_rw(nn.make_batchnorm("b", 5, in_source=None)) == 30

    def test_zero_layer_network(self):
        net = nn.Network("sequential", [])
        assert embed.rw_memory(net) == 0.0

    def test_autoregressive_accesses_per_sample(self):
        rng = np.random.default_rng(1)
        net = random_chain(rng)
        per_inv = sum(embed.layer_rw(l) for l in net.layers.values())
        assert embed.rw_memory(net) == pytest.approx(per_inv)

    def test_unknown_arch_has_no_invocation_rate(self):
        # an arch with no models.ARCHS record is not billed per sample
        rng = np.random.default_rng(0)
        net = nn.Network("mystery", [nn.make_linear("a", 2, 2, rng)])
        with pytest.raises(nn.StructureError, match="unknown arch 'mystery'"):
            embed.rw_memory(net)


class TestDisk:
    def test_equals_measured_file_length(self, tmp_path):
        net = tiny_arch_net(np.random.default_rng(5))
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(net, path)
        assert embed.disk_size(net) == os.path.getsize(path)

    def test_at_least_four_bytes_per_parameter(self):
        net = tiny_arch_net(np.random.default_rng(6))
        n_params = sum(p.data.size for p in net.parameters())
        assert embed.disk_size(net) >= 4 * n_params

    def test_trimmed_model_strictly_smaller(self):
        cfg = models.ModelConfig(arch="sing_ae", conv_channels=8, n_conv_layers=3,
                                 sing_kernel=5)
        net = models.build_model(cfg, seed=0)
        small = nn.apply_trim(net, {"conv0": np.array([0, 1])})
        assert embed.disk_size(small) < embed.disk_size(net)


class TestWorkingSet:
    def test_hand_formula_tiny_chain(self):
        rng = np.random.default_rng(0)
        net = nn.Network("custom", [
            nn.make_linear("a", 3, 4, rng),
            nn.make_linear("b", 4, 2, rng, in_source="a"),
        ])
        params = (3 * 4 + 4) + (4 * 2 + 2)
        peak = max(3 + 4, 4 + 2)
        assert embed.working_set_bytes(net) == 4 * (params + peak)

    def test_batchnorm_buffers_counted(self):
        net = nn.Network("custom", [nn.make_batchnorm("b", 5, in_source=None)])
        # gamma+beta params, running mean+var buffers, in/out activations
        assert embed.working_set_bytes(net) == 4 * (10 + 10 + 10)


class TestFeasibility:
    def test_shipped_profiles_reproduce_reference_table(self):
        rows = {p.name: p for p in embed.load_platforms()}
        expect = {
            "ATMega1280": (16e6, 160e3, 128e3, 8e3),
            "ATMega2560": (32e6, 320e3, 256e3, 16e3),
            "RPi 1B": (700e6, 41e6, 256e6, 512e6),
            "RPi 2B": (900e6, 53e6, 1e9, 1e9),
        }
        assert set(rows) == set(expect)
        for name, (hz, flops, drive, ram) in expect.items():
            p = rows[name]
            assert (p.cpu_hz, p.flops_per_sec, p.drive_bytes, p.ram_bytes) \
                == (hz, flops, drive, ram)

    def test_fast_small_model_fits_rpi(self):
        rpi = [p for p in embed.load_platforms() if p.name == "RPi 1B"][0]
        rep = embed.feasibility(40e6, int(1e6), 100.0, int(1e5), rpi)
        assert rep.realtime_ok and rep.embeddable_ok

    def test_too_hot_for_atmega(self):
        atmega = [p for p in embed.load_platforms() if p.name == "ATMega1280"][0]
        rep = embed.feasibility(200e3, 1000, 10.0, 1000, atmega)
        assert not rep.realtime_ok

    @given(
        flops=st.floats(1, 1e9), disk=st.integers(1, 10**9),
        ws=st.integers(1, 10**9), cap=st.floats(1, 1e9),
        drive=st.integers(1, 10**9), ram=st.integers(1, 10**9),
    )
    @settings(max_examples=200, deadline=None)
    def test_verdicts_are_the_inequalities(self, flops, disk, ws, cap, drive, ram):
        prof = embed.PlatformProfile("x", 1e6, cap, drive, ram)
        rep = embed.feasibility(flops, disk, 7.0, ws, prof)
        assert rep.realtime_ok == (flops <= cap)
        assert rep.embeddable_ok == (disk <= drive and ws <= ram)

    def test_nonpositive_profile_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            embed.PlatformProfile("x", 1e6, 0.0, 1, 1)

    def test_unknown_profile_keys_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"platforms": [{"name": "a", "cpu_hz": 1, '
                        '"flops_per_sec": 1, "drive_bytes": 1, "ram_bytes": 1, '
                        '"cores": 4}]}')
        with pytest.raises(ValueError, match="unknown keys"):
            embed.load_platforms(path)

    @pytest.mark.parametrize("entries", [
        '[1]',
        '[{"name": "a", "cpu_hz": 1, "flops_per_sec": 1, "drive_bytes": 1}]',
        '[{"name": "a", "cpu_hz": "fast", "flops_per_sec": 1, "drive_bytes": 1, '
        '"ram_bytes": 1}]',
        '[{"name": "a", "cpu_hz": 1, "flops_per_sec": 1, "drive_bytes": 1, '
        '"ram_bytes": true}]',
        '[{"name": "a", "cpu_hz": 1, "flops_per_sec": Infinity, "drive_bytes": 1, '
        '"ram_bytes": 1}]',
        '[{"name": "a", "cpu_hz": 1, "flops_per_sec": 1, "drive_bytes": NaN, '
        '"ram_bytes": 1}]',
        '[{"name": 3, "cpu_hz": 1, "flops_per_sec": 1, "drive_bytes": 1, '
        '"ram_bytes": 1}]',
        '[{"name": "a", "cpu_hz": 0, "flops_per_sec": 1, "drive_bytes": 1, '
        '"ram_bytes": 1}]',
    ], ids=["entry-not-object", "missing-field", "string-number", "boolean",
            "infinity", "nan", "name-not-string", "non-positive"])
    def test_malformed_profile_entry_names_file_and_entry(self, tmp_path, entries):
        path = tmp_path / "p.json"
        path.write_text(f'{{"platforms": {entries}}}')
        with pytest.raises(ValueError, match="platform entry 0 must hold") as err:
            embed.load_platforms(path)
        assert type(err.value) is ValueError
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("text", [
        '{"nope": []}', '{"platforms": {}}', '{"platforms": []}', '5',
        '{"platforms": [',
    ], ids=["no-platforms-key", "platforms-not-list", "empty", "top-level-number",
            "unparsed"])
    def test_malformed_profile_file_names_file(self, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            embed.load_platforms(path)
        assert type(err.value) is ValueError
        assert str(err.value).startswith(f"{path}: ")

    def test_analyze_emits_one_report_per_platform(self):
        net = tiny_arch_net(np.random.default_rng(8))
        reports = embed.analyze(net, embed.load_platforms())
        assert [r.platform for r in reports] == [p.name for p in embed.load_platforms()]
        text = embed.summarize(reports)
        assert all(r.platform in text for r in reports)

    def test_report_csv_roundtrip(self, tmp_path):
        # the cells embed_reports.csv holds after its iteration column
        net = tiny_arch_net(np.random.default_rng(9))
        reports = [dataclasses.replace(r, error_multiplier=1.25)
                   for r in embed.analyze(net, embed.load_platforms())]
        path = tmp_path / "r.csv"
        harness.write_csv(path, embed.REPORT_COLUMNS,
                          [embed.report_row(r) for r in reports])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == embed.REPORT_COLUMNS
        assert len(rows) == len(reports)
        for row, r in zip(rows, reports):
            assert row["platform"] == r.platform
            for col in ("flops_per_audio_second", "rw_accesses_per_sample",
                        "error_multiplier"):
                assert float(row[col]) == pytest.approx(getattr(r, col), rel=1e-9)
            for col in ("disk_bytes", "working_set_bytes"):
                assert int(row[col]) == getattr(r, col)
            for col in ("realtime_ok", "embeddable_ok"):
                assert bool(int(row[col])) == getattr(r, col)


def dominates(a, b):
    return a[0] <= b[0] and a[1] <= b[1] and a != b


class TestPareto:
    def test_reference_example(self):
        pts = [(1.0, 100), (1.2, 50), (1.1, 80), (1.3, 60)]
        assert embed.pareto_front(pts) == [(1.2, 50.0), (1.1, 80.0), (1.0, 100.0)]

    def test_single_point(self):
        assert embed.pareto_front([(2.0, 5.0)]) == [(2.0, 5.0)]

    def test_duplicates_keep_one_representative(self):
        assert embed.pareto_front([(1.0, 1.0), (1.0, 1.0)]) == [(1.0, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            embed.pareto_front([])

    @given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)),
                    min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_front_vs_brute_force(self, pts):
        front = embed.pareto_front(pts)
        costs = [c for _, c in front]
        assert costs == sorted(costs)
        for a in front:
            assert not any(dominates(b, a) for b in front)
        for p in set((float(e), float(c)) for e, c in pts):
            if p not in front:
                assert any(dominates(f, p) or f == p for f in front)
