"""Unit-importance scoring: hand oracles, invariance checks, ranking sanity."""

import numpy as np
import pytest

from audiotrim import criteria as cr
from audiotrim import mi as mi_mod
from audiotrim import models, nn
from audiotrim import tensor as T
from audiotrim.tensor import Tensor
from conftest import (batch_x, mask_units, nll_from_logits_batched, unused,
                      use_loss, wavenet_trunk_added)

SR = 16000


def sing_cfg():
    return models.ModelConfig(arch="sing_ae", conv_channels=6, n_conv_layers=3,
                              sing_kernel=5, spec_windows=(32, 64))


def wavenet_cfg():
    return models.ModelConfig(arch="wavenet", n_stacks=1, blocks_per_stack=3,
                              residual_channels=4, gate_channels=6,
                              skip_channels=5, head_channels=7, n_classes=16,
                              spec_windows=(32,))


def ddsp_cfg():
    return models.ModelConfig(arch="ddsp", sample_rate=4000, gru_units=8,
                              dense_units=8, n_partials=6, noise_bins=5,
                              frame_hop=32, spec_windows=(32, 64))


def tone_batch(rng, n=4, t=256):
    tt = np.arange(t) / SR
    waves = [rng.uniform(0.2, 0.9) * np.sin(2 * np.pi * rng.uniform(200, 2000) * tt)
             + 0.01 * rng.standard_normal(t) for _ in range(n)]
    return {"wave": np.asarray(waves, dtype=np.float32)}


def single_items(rng, n=12, t=256):
    return [tone_batch(rng, n=1, t=t) for _ in range(n)]


# test-only architecture: echoes its input and records it as unit streams,
# so tests can script exact activation patterns
def _probe_forward(net, x):
    nn.record("probe", x, unit_axis=-1)
    return x


models.ARCHS["probe"] = models.ArchSpec(
    build=unused("build"), forward=_probe_forward, inputs=batch_x,
    loss=unused("loss"), sample=unused("sample"))


def probe_net(n_units):
    rng = np.random.default_rng(0)
    return nn.Network("probe", [nn.make_linear("probe", n_units, n_units, rng)])


# one layer's raw scores, from the all-layer passes the criteria run
def score_gradient(layer, net, batches):
    return cr._gradient_raw(net, batches)[layer.name]


def score_activation(layer, net, batches):
    raw = cr._activation_raw(net, batches)
    if layer.name not in raw:
        raise ValueError(f"layer '{layer.name}' records no activations")
    return raw[layer.name]


def score_information(layer, net, items, mi_cfg=mi_mod.MiConfig()):
    raw = cr._information_raw(net, items, mi_cfg)
    if layer.name not in raw:
        raise ValueError(f"layer '{layer.name}' records no activations")
    return raw[layer.name]


def _sum_loss(layer_names):
    def fn(net, batch):
        x = Tensor(np.asarray(batch["x"], dtype=np.float32))
        for name in layer_names:
            x = nn.linear_forward(net.layers[name], x)
        return T.tsum(x)
    return fn


def _sgd_steps(net, batches, steps, lr=0.05, wd=0.0):
    for i in range(steps):
        net.zero_grad()
        models.compute_loss(net, batches[i % len(batches)]).backward()
        for p in net.parameters():
            if p.grad is not None:
                p.data -= lr * (p.grad + wd * p.data)
    net.zero_grad()


def _eval_loss(net, items):
    with T.no_grad():
        return float(np.mean([models.compute_loss(net, it).data for it in items]))


@pytest.fixture(scope="module")
def trained_sing():
    net = models.build_model(sing_cfg(), seed=0)
    rng = np.random.default_rng(55)
    _sgd_steps(net, [tone_batch(rng) for _ in range(3)], steps=45)
    net.eval()
    items = single_items(np.random.default_rng(77), n=12)
    return net, items


class TestMagnitude:
    def test_linear_hand_example(self):
        lin = nn.make_linear("l", 2, 2, np.random.default_rng(0))
        lin.params["w"].data[:] = [[1.0, -2.0], [3.0, 0.0]]
        assert np.array_equal(cr.score_magnitude(lin), [3.0, 3.0])

    def test_zero_layer(self):
        lin = nn.make_linear("l", 3, 4, np.random.default_rng(0))
        lin.params["w"].data[:] = 0.0
        assert np.array_equal(cr.score_magnitude(lin), np.zeros(4))

    def test_sign_flip_invariant(self):
        rng = np.random.default_rng(1)
        conv = nn.make_conv("c", 2, 3, 4, rng)
        before = cr.score_magnitude(conv)
        flip = rng.choice([-1.0, 1.0], size=conv.params["w"].data.shape)
        conv.params["w"].data *= flip.astype(np.float32)
        assert np.array_equal(cr.score_magnitude(conv), before)

    def test_conv_sums_all_taps(self):
        conv = nn.make_conv("c", 2, 3, 4, np.random.default_rng(2))
        w = conv.params["w"].data
        assert np.allclose(cr.score_magnitude(conv), np.abs(w).sum(axis=(1, 2)))

    def test_gru_counts_every_gate_matrix(self):
        gru = nn.make_gru("g", 3, 5, np.random.default_rng(3))
        expect = np.zeros(5)
        for pname in ("wz", "wr", "wh", "uz", "ur", "uh"):
            expect += np.abs(gru.params[pname].data.astype(np.float64)).sum(axis=1)
        assert np.allclose(cr.score_magnitude(gru), expect)

    def test_batchnorm_uses_gamma(self):
        bn = nn.make_batchnorm("b", 3, in_source="c")
        bn.params["gamma"].data[:] = [0.5, -2.0, 0.0]
        assert np.array_equal(cr.score_magnitude(bn), [0.5, 2.0, 0.0])


def normalization_scores(n, gamma=None):
    """Normalization scores of an n-channel batchnorm fed by a linear layer."""
    net = nn.Network("custom", [
        nn.make_linear("c", 2, n, np.random.default_rng(0)),
        nn.make_batchnorm("b", n, in_source="c")])
    if gamma is not None:
        net.layers["b"].params["gamma"].data[:] = gamma
    raw = cr._normalization_raw(net)
    assert set(raw) == {"b"}
    return raw["b"]


class TestNormalization:
    def test_hand_example(self):
        assert np.array_equal(normalization_scores(3, [0.5, -2.0, 0.0]), [0.5, 2.0, 0.0])

    def test_fresh_batchnorm_is_uniform(self):
        assert np.array_equal(normalization_scores(5), np.ones(5))

    def test_gamma_sign_irrelevant(self):
        gamma = np.array([1.5, 0.25, 2.0, 0.75])
        assert np.array_equal(normalization_scores(4, -gamma),
                              normalization_scores(4, gamma))

    def test_scores_exactly_the_batchnorm_layers(self):
        net = models.build_model(sing_cfg(), seed=0)
        bns = {n for n, layer in net.layers.items() if layer.kind == "batchnorm"}
        assert bns and set(cr._normalization_raw(net)) == bns
        for cfg in (wavenet_cfg(), ddsp_cfg()):
            assert cr._normalization_raw(models.build_model(cfg, seed=0)) == {}

    def test_scores_are_float64_abs_gamma(self):
        net = models.build_model(sing_cfg(), seed=0)
        rng = np.random.default_rng(4)
        for layer in net.layers.values():
            if layer.kind == "batchnorm":
                g = layer.params["gamma"].data
                g[:] = rng.standard_normal(g.shape).astype(g.dtype)
        for name, score in cr._normalization_raw(net).items():
            expect = np.abs(net.layers[name].params["gamma"].data.astype(np.float64))
            assert score.dtype == np.float64
            assert np.array_equal(score, expect)

    def test_pool_without_batchnorm_rejected(self):
        net = models.build_model(wavenet_cfg(), seed=0)
        with pytest.raises(ValueError, match="pool"):
            cr.pool_scores(net, "normalization", "none")


class TestGradient:
    def test_single_linear_hand_chain(self, monkeypatch):
        net = nn.Network("sequential", [nn.make_linear("lin", 2, 2,
                                                   np.random.default_rng(0))])
        use_loss(monkeypatch, net, _sum_loss(["lin"]))
        batch = {"x": [[1.0, 2.0]]}
        scores = score_gradient(net.layers["lin"], net, [batch])
        assert np.array_equal(scores, [3.0, 3.0])

    def test_dead_downstream_scores_zero(self, monkeypatch):
        rng = np.random.default_rng(4)
        net = nn.Network("sequential", [
            nn.make_linear("lin1", 2, 3, rng),
            nn.make_linear("lin2", 3, 2, rng, in_source="lin1"),
        ])
        net.layers["lin2"].params["w"].data[:] = 0.0
        use_loss(monkeypatch, net, _sum_loss(["lin1", "lin2"]))
        batch = {"x": [[1.0, 2.0]]}
        s1 = score_gradient(net.layers["lin1"], net, [batch])
        s2 = score_gradient(net.layers["lin2"], net, [batch])
        assert np.array_equal(s1, np.zeros(3))
        assert s2.min() > 0.0

    def test_duplicated_dataset_doubles_scores(self):
        net = models.build_model(sing_cfg(), seed=0)
        batch = tone_batch(np.random.default_rng(5))
        layer = net.layers["conv0"]
        once = score_gradient(layer, net, [batch])
        twice = score_gradient(layer, net, [batch, batch])
        assert np.array_equal(twice, 2.0 * once)

    def test_batch_order_irrelevant(self, trained_sing):
        net, items = trained_sing
        layer = net.layers["conv0"]
        fwd = score_gradient(layer, net, items[:2])
        rev = score_gradient(layer, net, items[1::-1])
        assert np.array_equal(fwd, rev)

    def test_weights_and_grads_left_untouched(self, trained_sing):
        net, items = trained_sing
        before = net.param_state()
        score_gradient(net.layers["conv0"], net, items[:2])
        after = net.param_state()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert all(p.grad is None for p in net.parameters())

    def test_empty_validation_rejected(self):
        net = models.build_model(sing_cfg(), seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            score_gradient(net.layers["conv0"], net, [])


class TestActivation:
    def test_constant_unit_hand_value(self):
        net = probe_net(3)
        x = np.zeros((1, 8, 3), dtype=np.float32)
        x[..., 1] = 0.5
        x[..., 2] = -0.25
        items = [{"x": x} for _ in range(3)]
        scores = score_activation(net.layers["probe"], net, items)
        assert np.array_equal(scores, [0.0, 3 * 8 * 0.5, 3 * 8 * 0.25])
        assert scores.argmin() == 0

    def test_masked_unit_scores_zero(self, trained_sing):
        net, items = trained_sing
        probe = mask_units(net, {"conv0": [2]}).eval()
        scores = score_activation(probe.layers["conv0"], probe, items)
        assert scores[2] == 0.0
        assert np.delete(scores, 2).min() > 0.0

    def test_dataset_order_irrelevant(self):
        net = probe_net(4)
        rng = np.random.default_rng(6)
        items = [{"x": rng.standard_normal((1, 16, 4)).astype(np.float32)}
                 for _ in range(5)]
        fwd = score_activation(net.layers["probe"], net, items)
        rev = score_activation(net.layers["probe"], net, items[::-1])
        assert np.allclose(fwd, rev, rtol=1e-6)

    def test_unrecorded_layer_rejected(self, trained_sing):
        net, items = trained_sing
        with pytest.raises(ValueError, match="records no activations"):
            score_activation(net.layers["bn0"], net, items)

    def test_empty_validation_rejected(self):
        net = probe_net(2)
        with pytest.raises(ValueError, match="nonempty"):
            score_activation(net.layers["probe"], net, [])


@pytest.fixture(scope="module")
def info_scores():
    # unit 0: fresh noise, independent of the wave
    # unit 1: the amplitude envelope that drives the wave's spectrum
    # unit 2: constant
    # unit 3: duplicate of unit 1
    rng = np.random.default_rng(7)
    t = 8192
    items = []
    for _ in range(80):
        nodes = rng.uniform(0.05, 1.0, size=9)
        env = np.interp(np.arange(t), np.linspace(0, t - 1, 9), nodes)
        wave = (env * rng.standard_normal(t) * 0.5).astype(np.float32)
        x = np.stack([rng.standard_normal(t), env, np.full(t, 0.3), env],
                     axis=-1).astype(np.float32)
        items.append({"wave": wave[None, :], "x": x[None]})
    net = probe_net(4)
    cfg = mi_mod.MiConfig(max_samples=10000)
    return score_information(net.layers["probe"], net, items, mi_cfg=cfg)


class TestInformation:
    def test_independent_unit_near_zero(self, info_scores):
        assert 0.0 <= info_scores[0] < 0.05

    def test_target_tracking_unit_dominates(self, info_scores):
        assert info_scores[1] > info_scores[0]
        assert info_scores[1] > 0.2
        assert info_scores.argmax() in (1, 3)

    def test_constant_unit_scores_zero(self, info_scores):
        assert info_scores[2] == 0.0

    def test_duplicated_units_agree(self, info_scores):
        assert abs(info_scores[3] - info_scores[1]) <= 0.02

    def test_degenerate_targets_rejected(self):
        net = probe_net(2)
        rng = np.random.default_rng(8)
        items = [{"wave": np.zeros((1, 512), dtype=np.float32),
                  "x": rng.standard_normal((1, 512, 2)).astype(np.float32)}
                 for _ in range(3)]
        with pytest.raises(ValueError, match="degenerate"):
            score_information(net.layers["probe"], net, items)

    def test_multi_sample_batches_rejected(self):
        net = probe_net(2)
        rng = np.random.default_rng(9)
        items = [{"wave": rng.standard_normal((2, 512)).astype(np.float32),
                  "x": rng.standard_normal((2, 512, 2)).astype(np.float32)}]
        with pytest.raises(ValueError, match="single-item"):
            score_information(net.layers["probe"], net, items)

    def test_empty_validation_rejected(self):
        net = probe_net(2)
        with pytest.raises(ValueError, match="nonempty"):
            score_information(net.layers["probe"], net, [])

    def test_one_estimator_call_per_pooled_layer_with_a_live_unit(self, monkeypatch):
        net = models.build_model(wavenet_cfg(), seed=0)
        for p in net.layers["out1"].params.values():
            p.data[...] = 0.0  # every out1 unit outputs a constant 0
        items = single_items(np.random.default_rng(4), n=10, t=1024)
        with T.no_grad(), nn.capture() as tape:
            models.forward_batch(net, items[0])
        assert "out1" in tape
        real, calls = mi_mod.estimate_mi, []

        def counted(z, *args):
            calls.append(z.shape[0])
            return real(z, *args)

        monkeypatch.setattr(mi_mod, "estimate_mi", counted)
        scores = cr.pool_scores(net, "information", "none", batches=items)
        assert len(calls) == len(tape) - 1
        assert np.all(scores[net.pool_of["out1"]] == 0.0)

    def test_sample_check_leaves_the_net_untouched(self):
        # a training-mode batchnorm net: the check's forward pass must not
        # move its running statistics
        net = models.build_model(models.ModelConfig(
            arch="sing_ae", conv_channels=4, n_conv_layers=2, sing_kernel=3), seed=0)
        items = single_items(np.random.default_rng(3), n=8, t=1024)
        before = nn.checkpoint_bytes(net)
        cr.check_information_samples(net, items)
        assert net.training
        assert nn.checkpoint_bytes(net) == before
        with pytest.raises(ValueError, match="need at least 100 samples, got 13"):
            cr.check_information_samples(net, items[:1])


class TestScaling:
    def test_layer_max_hand_example(self):
        net = nn.Network("custom", [nn.make_linear("a", 4, 3,
                                                   np.random.default_rng(0))])
        raw = {"a": np.array([2.0, 4.0, 8.0])}
        scaled = cr.scale_scores(raw, net, "layer_max")
        assert np.array_equal(scaled["a"], [0.25, 0.5, 1.0])

    def test_none_returns_untied_copy(self):
        net = nn.Network("custom", [nn.make_linear("a", 4, 3,
                                                   np.random.default_rng(0))])
        raw = {"a": np.array([2.0, 4.0, 8.0])}
        scaled = cr.scale_scores(raw, net, "none")
        assert np.array_equal(scaled["a"], raw["a"])
        scaled["a"][0] = 99.0
        assert raw["a"][0] == 2.0

    def test_layer_max_zero_guard(self):
        net = nn.Network("custom", [nn.make_linear("a", 4, 3,
                                                   np.random.default_rng(0))])
        scaled = cr.scale_scores({"a": np.zeros(3)}, net,
                                 "layer_max")
        assert np.array_equal(scaled["a"], np.zeros(3))

    def test_fan_scaled_per_kind(self):
        rng = np.random.default_rng(10)
        net = nn.Network("custom", [
            nn.make_linear("l", 4, 3, rng),
            nn.make_conv("c", 2, 3, 3, rng, in_source="l"),
            nn.make_batchnorm("b", 3, in_source="c"),
            nn.make_gru("g", 3, 5, rng, in_source="b"),
        ])
        raw = {name: np.array([1.0, 2.0, 4.0]) for name in ("l", "c", "b", "g")}
        scaled = cr.scale_scores(raw, net, "fan_scaled")
        assert np.allclose(scaled["l"], raw["l"] * np.sqrt(1 / 4))
        assert np.allclose(scaled["c"], raw["c"] * np.sqrt(1 / 6))
        assert np.array_equal(scaled["b"], raw["b"])
        assert np.allclose(scaled["g"], raw["g"] * np.sqrt(1 / 8))

    def test_fan_in_helper(self):
        rng = np.random.default_rng(11)
        assert cr.fan_in(nn.make_linear("l", 4, 3, rng)) == 4
        assert cr.fan_in(nn.make_conv("c", 2, 3, 3, rng)) == 6
        assert cr.fan_in(nn.make_gru("g", 3, 5, rng)) == 8
        assert cr.fan_in(nn.make_batchnorm("b", 3, in_source="c")) == 1

    @pytest.mark.parametrize("kind", ["none", "layer_max", "fan_scaled"])
    def test_ranking_preserved_within_layer(self, kind):
        net = nn.Network("custom", [nn.make_linear("a", 4, 6,
                                                   np.random.default_rng(0))])
        for seed in range(3):
            raw = {"a": np.random.default_rng(seed).uniform(0.1, 9.0, size=6)}
            scaled = cr.scale_scores(raw, net, kind)
            assert np.array_equal(np.argsort(raw["a"]), np.argsort(scaled["a"]))

    def test_unknown_scheme_rejected(self):
        net = models.build_model(sing_cfg(), seed=1)
        with pytest.raises(ValueError, match="scaling"):
            cr.pool_scores(net, "magnitude", "weird")


class TestPoolScores:
    def test_mean_over_pool_members(self):
        net = models.build_model(sing_cfg(), seed=1)
        scores = cr.pool_scores(net, "magnitude", "none")
        expect = 0.5 * (cr.score_magnitude(net.layers["conv0"])
                        + cr.score_magnitude(net.layers["bn0"]))
        assert np.allclose(scores["conv0"], expect)

    def test_gated_pair_pool_on_wavenet(self):
        net = models.build_model(wavenet_cfg(), seed=1)
        scores = cr.pool_scores(net, "magnitude", "none")
        expect = 0.5 * (cr.score_magnitude(net.layers["filter_0"])
                        + cr.score_magnitude(net.layers["gate_0"]))
        assert np.allclose(scores["filter_0"], expect)

    def test_protected_layers_have_no_pool(self):
        net = models.build_model(sing_cfg(), seed=1)
        scores = cr.pool_scores(net, "magnitude", "none")
        assert set(scores) == {"conv0", "conv1"}
        assert all(len(v) == 6 for v in scores.values())

    def test_normalization_pool_uses_gamma_only(self):
        net = models.build_model(sing_cfg(), seed=1)
        scores = cr.pool_scores(net, "normalization", "none")
        gamma = np.abs(net.layers["bn0"].params["gamma"].data.astype(np.float64))
        assert np.allclose(scores["conv0"], gamma)

    @pytest.mark.parametrize("criterion", ["activation", "information", "gradient"])
    def test_wavenet_scores_match_added_streams_bit_for_bit(self, criterion,
                                                            monkeypatch):
        # the skip streams the trunk records are the projections' own
        # outputs, as when each one was a node added into the stream
        net = models.build_model(wavenet_cfg(), seed=3)
        items = single_items(np.random.default_rng(5), n=10, t=1024)
        got = cr.pool_scores(net, criterion, "none", batches=items)
        monkeypatch.setattr(models, "_wavenet_trunk", wavenet_trunk_added)
        monkeypatch.setattr(models, "nll_from_logits", nll_from_logits_batched)
        want = cr.pool_scores(net, criterion, "none", batches=items)
        assert got.keys() == want.keys()
        for pid, score in got.items():
            assert np.array_equal(score, want[pid]), pid

    def test_activation_scores_on_trimmed_network(self, trained_sing):
        net, items = trained_sing
        small = nn.apply_trim(net, {"conv0": [1, 4]})
        scores = cr.pool_scores(small, "activation", "none", batches=items)
        assert len(scores["conv0"]) == 4
        assert len(scores["conv1"]) == 6

    def test_unknown_criterion_rejected(self):
        net = models.build_model(sing_cfg(), seed=1)
        with pytest.raises(ValueError, match="unknown criterion"):
            cr.pool_scores(net, "entropy", "none")


class TestRestriction:
    def _chain(self):
        rng = np.random.default_rng(12)
        return nn.Network("custom", [
            nn.make_conv("conv0", 2, 6, 3, rng),
            nn.make_batchnorm("bn0", 6, in_source="conv0"),
            nn.make_conv("conv1", 6, 5, 2, rng, in_source="conv0"),
            nn.make_conv("head", 5, 2, 1, rng, in_source="conv1"),
        ], trim_groups=[["conv0", "bn0"]], protected={"head"})

    def test_trimmed_pool_scores_restrict_exactly(self):
        net = self._chain()
        before = {name: cr.score_magnitude(layer)
                  for name, layer in net.layers.items()}
        small = nn.apply_trim(net, {"conv0": [1, 4]})
        kept = [0, 2, 3, 5]
        for member in ("conv0", "bn0"):
            after = cr.score_magnitude(small.layers[member])
            assert np.array_equal(after, before[member][kept])

    def test_singleton_pool_restricts_too(self):
        net = self._chain()
        before = cr.score_magnitude(net.layers["conv1"])
        small = nn.apply_trim(net, {"conv1": [0, 2]})
        after = cr.score_magnitude(small.layers["conv1"])
        assert np.array_equal(after, before[[1, 3, 4]])


def _bottom_vs_top_cells(net, items, criteria, **score_kw):
    """For each (criterion, pool): mask the lowest- and the highest-scored
    unit separately and return the loss margin high - low (>= 0 is a win)."""
    out = {}
    for crit in criteria:
        scores = cr.pool_scores(net, crit, "none", batches=items, **score_kw)
        for pid, s in scores.items():
            assert s.min() >= 0.0
            loss = {}
            for tag, unit in (("low", int(s.argmin())), ("high", int(s.argmax()))):
                probe = mask_units(net, {pid: [unit]}).eval()
                loss[tag] = _eval_loss(probe, items)
            out.setdefault(crit, []).append(loss["high"] - loss["low"])
    return out


def _pool_medians(hosts, crit):
    """Each pool's median bottom-vs-top margin over the hosts (seeds)."""
    cells = [_bottom_vs_top_cells(net, items, (crit,))[crit] for net, items in hosts]
    return list(np.median(cells, axis=0))


@pytest.fixture(scope="module")
def wavenet_hosts():
    # next-sample prediction on tones; 6 pools per model
    def make_items(rng, n, t=129):
        tt = np.arange(t) / 4000
        return [{"wave": (rng.uniform(0.3, 0.9)
                          * np.sin(2 * np.pi * rng.uniform(200, 900) * tt)
                          )[None].astype(np.float32)} for _ in range(n)]

    hosts = []
    for seed in (0, 1, 2, 3):
        cfg = models.ModelConfig(arch="wavenet", sample_rate=4000, n_stacks=1,
                                 blocks_per_stack=3, residual_channels=4,
                                 gate_channels=6, skip_channels=5, head_channels=7,
                                 n_classes=16, spec_windows=(32,))
        net = models.build_model(cfg, seed=seed)
        rng = np.random.default_rng(200 + seed)
        train = [{k: np.concatenate([it[k] for it in make_items(rng, 4)])
                  for k in ("wave",)} for _ in range(4)]
        _sgd_steps(net, train, steps=300, lr=0.05, wd=0.03)
        net.eval()
        hosts.append((net, make_items(np.random.default_rng(970 + seed), 12)))
    return hosts


@pytest.fixture(scope="module")
def sing_hosts():
    # reconstruction with light weight decay. Its budget (lr * wd * steps =
    # 0.9) cannot decay a gradient-free gamma below (1 - 0.0015)^600 ~ 0.41,
    # above most trained conv0 gammas, so |gamma| here says little about
    # need; normalization is ranked on decayed_sing_hosts instead. One
    # host's cells follow float rounding (a change of summation order in
    # the conv moved seed 1's magnitude margins from 0.33 and -0.03 to 0.43
    # and -0.28), so tests read each pool's median over twelve seeds
    hosts = []
    for seed in range(12):
        cfg = models.ModelConfig(arch="sing_ae", conv_channels=12, n_conv_layers=3,
                                 sing_kernel=5, spec_windows=(32, 64))
        net = models.build_model(cfg, seed=seed)
        rng = np.random.default_rng(100 + seed)
        _sgd_steps(net, [tone_batch(rng) for _ in range(6)], steps=600,
                   lr=0.05, wd=0.03)
        net.eval()
        hosts.append((net, single_items(np.random.default_rng(900 + seed),
                                        n=16, t=1024)))
    return hosts


@pytest.fixture(scope="module")
def decayed_sing_hosts():
    # sing_hosts with decay that dominates: lr * wd * steps = 9, so a gamma
    # the loss does not hold up ends near (1 - lr * wd)^steps ~ 1.2e-4 and
    # every larger |gamma| measures need (Network Slimming). lr 0.005 keeps
    # training out of the regime where one ulp of initial weight flips the
    # outcome
    lr, wd, steps = 0.005, 3.0, 600
    hosts = []
    for seed in (0, 1, 2, 3, 4):
        cfg = models.ModelConfig(arch="sing_ae", conv_channels=12, n_conv_layers=3,
                                 sing_kernel=5, spec_windows=(32, 64))
        net = models.build_model(cfg, seed=seed)
        rng = np.random.default_rng(100 + seed)
        _sgd_steps(net, [tone_batch(rng) for _ in range(6)], steps=steps,
                   lr=lr, wd=wd)
        net.eval()
        hosts.append((net, single_items(np.random.default_rng(900 + seed),
                                        n=16, t=1024)))
    # premise: every surviving gamma is held up by the loss, not left over
    # from an unfinished decay
    floor = (1.0 - lr * wd) ** steps
    for seed, (net, _) in enumerate(hosts):
        for name, layer in net.layers.items():
            if layer.kind == "batchnorm":
                smallest = float(np.abs(layer.params["gamma"].data).min())
                assert smallest > floor, (seed, name, smallest, floor)
    return hosts


class TestRankingSanity:
    """Masking a criterion's lowest-scored unit should cost no more
    validation loss than masking its highest-scored unit.

    Each criterion is checked where it has signal: gradient and activation
    on trained next-sample predictors and the autoencoder, normalization on
    autoencoders (the only batchnorm carrier) trained under decay that
    dominates. |gamma| ranks need only where weight decay has pushed down
    the gamma of units the loss does not hold up; under the light decay of
    sing_hosts an unneeded gamma would still sit near 0.41, above most
    trained ones, and its size says little. Magnitude rankings are
    noisier under batchnorm, so magnitude asserts a positive mean of the
    pools' median margins. The information criterion's ranking is
    validated against constructed dependencies instead (see
    TestInformation): on organically
    trained tiny models its bottom-vs-top outcome is near chance because
    rank-based dependence ignores unit scale.
    """

    def test_gradient_bottom_vs_top(self, wavenet_hosts, sing_hosts):
        margins = (_pool_medians(wavenet_hosts, "gradient")
                   + _pool_medians(sing_hosts, "gradient"))
        wins = np.mean([m >= -1e-9 for m in margins])
        assert wins >= 0.7, (wins, np.round(margins, 4))

    def test_activation_bottom_vs_top(self, wavenet_hosts):
        margins = []
        for net, items in wavenet_hosts:
            margins += _bottom_vs_top_cells(net, items, ("activation",))["activation"]
        wins = np.mean([m >= -1e-9 for m in margins])
        assert wins >= 0.7, (wins, np.round(margins, 4))

    def test_normalization_bottom_vs_top(self, decayed_sing_hosts):
        margins = []
        for net, items in decayed_sing_hosts:
            margins += _bottom_vs_top_cells(net, items,
                                            ("normalization",))["normalization"]
        wins = np.mean([m >= -1e-9 for m in margins])
        assert wins >= 0.7, (wins, np.round(margins, 4))

    def test_magnitude_mean_margin_positive(self, sing_hosts):
        margins = _pool_medians(sing_hosts, "magnitude")
        assert np.mean(margins) > 0.0, np.round(margins, 4)

