import collections
import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from audiotrim import embed, harness, models, nn, pruning
from audiotrim import tensor as T
from audiotrim.models import ModelConfig, MuLawCodec
from audiotrim.tensor import Tensor
from conftest import (ddsp_synthesize_dense, directional_gradcheck, gated_composed,
                      head_nll_composed, mask_units, nll_composed,
                      nll_from_logits_batched, no_training,
                      spectral_loss_composed, units_original, upsample_dense,
                      wavenet_trunk_added)


def tiny_wavenet_cfg(**kw) -> ModelConfig:
    base = dict(arch="wavenet", sample_rate=4000, n_stacks=1, blocks_per_stack=3,
                residual_channels=4, gate_channels=6, skip_channels=5,
                head_channels=7, n_classes=16, spec_windows=(32,))
    base.update(kw)
    return ModelConfig(**base)


def tiny_sing_cfg(**kw) -> ModelConfig:
    base = dict(arch="sing_ae", sample_rate=4000, conv_channels=6,
                n_conv_layers=3, sing_kernel=5, spec_windows=(32, 64))
    base.update(kw)
    return ModelConfig(**base)


def tiny_ddsp_cfg(**kw) -> ModelConfig:
    base = dict(arch="ddsp", sample_rate=4000, gru_units=8, dense_units=8,
                n_partials=6, noise_bins=5, frame_hop=32, spec_windows=(32, 64))
    base.update(kw)
    return ModelConfig(**base)


def ddsp_batch(cfg: ModelConfig, batch=2, frames=6, seed=0):
    rng = np.random.default_rng(seed)
    f0 = rng.uniform(80, 300, size=(batch, frames)).astype(np.float32)
    loud = rng.uniform(0.2, 0.9, size=(batch, frames)).astype(np.float32)
    wave = rng.uniform(-0.5, 0.5, size=(batch, frames * cfg.frame_hop)).astype(np.float32)
    return {"wave": wave, "f0": f0, "loud": loud}


class TestMuLaw:
    def test_encode_range_and_extremes(self):
        codec = MuLawCodec()
        idx = codec.encode(np.array([-1.0, -0.3, 0.0, 0.3, 1.0]))
        assert idx.min() >= 0 and idx.max() <= 255
        assert idx[0] == 0 and idx[-1] == 255

    def test_silence_roundtrip_is_tiny(self):
        codec = MuLawCodec()
        assert abs(codec.decode(codec.encode(np.zeros(4)))).max() < 1e-2

    def test_encode_monotonic(self):
        codec = MuLawCodec()
        x = np.linspace(-1, 1, 1001)
        idx = codec.encode(x)
        assert (np.diff(idx) >= 0).all()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0, width=32),
                    min_size=1, max_size=64))
    def test_companded_roundtrip_error_within_half_step(self, vals):
        # the quantiser works in the companded domain, so that is where
        # the error bound holds: half a step, well under 2/(mu+1)
        codec = MuLawCodec()
        x = np.array(vals, dtype=np.float32)
        back = codec.decode(codec.encode(x))
        err = np.abs(codec.compand(x) - codec.compand(back)).max()
        assert err <= 2.0 / (codec.mu + 1)

    def test_decode_stays_in_range(self):
        codec = MuLawCodec()
        wave = codec.decode(np.arange(256))
        assert np.abs(wave).max() <= 1.0
        assert (np.diff(wave) > 0).all()


def identity_head(c):
    """A 1x1 conv layer whose logits are its input, so the head node's NLL
    is the NLL of h itself."""
    head = nn.make_conv("out2", c, c, 1, np.random.default_rng(0))
    head.params["w"].data = np.eye(c, dtype=np.float32)[:, :, None]
    head.params["b"].data = np.zeros(c, dtype=np.float32)
    return head


def _graph_buffers(root):
    """The buffer behind every array a graph keeps: node data, and what
    each node's backward closes over, through tuples, lists, dicts and
    nested closures. Views count as the array they view."""
    found, seen, todo = {}, set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, Tensor):
            todo += [obj.data, obj._backward, *obj._parents]
        elif isinstance(obj, (tuple, list)):
            todo += obj
        elif isinstance(obj, dict):
            todo += obj.values()
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo += [c.cell_contents for c in obj.__closure__]
    return list(found.values())


def loss_and_grads(net, batch):
    """A fresh loss of net on batch and the gradient of every parameter."""
    net.zero_grad()
    loss = models.compute_loss(net, batch)
    loss.backward()
    return float(loss.data), {name: p.grad for name, p in net.named_parameters()}


def surviving(net, plan, layer_name, pname, arr):
    """arr, a parameter-shaped array of net's layer, without the entries
    of the units plan removes (plan as for nn.apply_trim)."""
    layer = net.layers[layer_name]
    own, src = net.pool_of.get(layer.name), net.pool_of.get(layer.in_source)
    for axis, role in enumerate(layer.spec.roles[pname]):
        pid = {"out": own, "self": own, "in": src}.get(role)
        if pid in plan:
            arr = np.delete(arr, plan[pid], axis=axis)
    return arr


class TestNll:
    """The class head and its NLL as one node; an identity head makes its
    input the logits."""

    def test_uniform_logits_give_log_classes(self):
        logits = Tensor(np.zeros((2, 16, 5), dtype=np.float32))
        targets = np.random.default_rng(0).integers(0, 16, size=(2, 5))
        loss = models.nll_from_logits(logits, identity_head(16), targets)
        assert float(loss.data) == pytest.approx(np.log(16.0), rel=1e-5)

    def test_matches_numpy_log_softmax(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((3, 8, 4)).astype(np.float32)
        targets = rng.integers(0, 8, size=(3, 4))
        loss = float(models.nll_from_logits(Tensor(raw), identity_head(8), targets).data)
        x = raw.astype(np.float64)
        logp = x - np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) \
            - x.max(axis=1, keepdims=True)
        ref = -logp[np.arange(3)[:, None], targets, np.arange(4)[None, :]].mean()
        assert loss == pytest.approx(ref, abs=1e-4)

    def test_confident_correct_prediction_drives_loss_down(self):
        logits = np.full((1, 4, 3), -10.0, dtype=np.float32)
        targets = np.array([[2, 2, 2]])
        logits[0, 2, :] = 10.0
        loss = models.nll_from_logits(Tensor(logits), identity_head(4), targets)
        assert float(loss.data) < 1e-3

    def test_gradient_matches_softmax_minus_onehot(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((2, 5, 3)).astype(np.float32)
        targets = rng.integers(0, 5, size=(2, 3))
        logits = Tensor(raw, requires_grad=True)
        models.nll_from_logits(logits, identity_head(5), targets).backward()
        p = np.exp(raw - raw.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(raw)
        onehot[np.arange(2)[:, None], targets, np.arange(3)[None, :]] = 1.0
        assert np.allclose(logits.grad, (p - onehot) / 6.0, atol=1e-4)

    @pytest.mark.parametrize("shape,scale", [((2, 5, 3), 1.0), ((3, 256, 40), 4.0)])
    def test_matches_composed_chain(self, shape, scale):
        # the head against its own conv node followed by the logits-NLL
        # node, and by the elementary-op chain; one class's weight row is
        # zeroed, as a mask would leave it
        b, c, t = shape
        rng = np.random.default_rng(3)
        raw = (scale * rng.standard_normal((b, 7, t))).astype(np.float32)
        targets = rng.integers(0, c, size=(b, t))
        head = nn.make_conv("out2", 7, c, 1, rng)
        head.params["w"].data[1] = 0.0
        out = {}
        for name, fn in (("node", models.nll_from_logits),
                         ("logits_node", head_nll_composed),
                         ("composed", lambda h, hd, tg: head_nll_composed(
                             h, hd, tg, nll=nll_composed))):
            h = Tensor(raw, requires_grad=True)
            for p in head.params.values():
                p.zero_grad()
            loss = fn(h, head, targets)
            loss.backward()
            out[name] = (float(loss.data), h.grad, head.params["w"].grad,
                         head.params["b"].grad)
        for ref in ("logits_node", "composed"):
            assert out["node"][0] == pytest.approx(out[ref][0], rel=1e-6)
            for what, got, want in zip(("h", "w", "b"), out["node"][1:], out[ref][1:]):
                assert np.allclose(got, want, rtol=1e-6, atol=1e-6), (ref, what)

    @pytest.mark.parametrize("wants", ["hwb", "h", "w", "b", "", "no_grad"])
    def test_matches_batched_head_bit_for_bit(self, wants):
        # one item at a time against the whole batch at once, for every
        # subset of inputs that want a gradient; a second backward doubles
        rng = np.random.default_rng(5)
        raw = (3.0 * rng.standard_normal((5, 7, 40))).astype(np.float32)
        targets = rng.integers(0, 32, size=(5, 40))
        head = nn.make_conv("out2", 7, 32, 1, rng)
        out = {}
        for fn in (models.nll_from_logits, nll_from_logits_batched):
            h = Tensor(raw, requires_grad="h" in wants)
            for name, p in head.params.items():
                p.requires_grad = name in wants
                p.zero_grad()
            leaves = (h, head.params["w"], head.params["b"])
            if wants == "no_grad":
                with T.no_grad():
                    loss = fn(h, head, targets)
                out[fn] = [loss.data]
                continue
            loss = fn(h, head, targets)
            if loss.requires_grad:
                loss.backward()
                once = [leaf.grad for leaf in leaves]
                loss.backward()
                out[fn] = [loss.data, *once, *(leaf.grad for leaf in leaves)]
            else:
                out[fn] = [loss.data, *(leaf.grad for leaf in leaves)]
        got, want = out[models.nll_from_logits], out[nll_from_logits_batched]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_is_one_node(self):
        h = Tensor(np.zeros((2, 4, 3), dtype=np.float32), requires_grad=True)
        head = identity_head(4)
        loss = models.nll_from_logits(h, head, np.zeros((2, 3), dtype=np.int64))
        assert loss._op == "nll"
        assert loss._parents == (h, head.params["w"], head.params["b"])

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((2, 6, 5)).astype(np.float32)
        head = nn.make_conv("out2", 6, 4, 1, rng)
        targets = rng.integers(0, 4, size=(2, 5))
        directional_gradcheck(lambda x: models.nll_from_logits(x, head, targets), x0, rng)

    def test_mismatched_targets_raise(self):
        logits = Tensor(np.zeros((2, 4, 3), dtype=np.float32))
        with pytest.raises(T.ShapeError, match="targets"):
            models.nll_from_logits(logits, identity_head(4),
                                   np.zeros((2, 4), dtype=np.int64))


class TestWavenet:
    def test_forward_shape(self):
        net = models.build_model(tiny_wavenet_cfg(), seed=0)
        x = np.random.default_rng(0).uniform(-1, 1, (2, 1, 20)).astype(np.float32)
        out = models.forward(net, Tensor(x))
        assert out.shape == (2, 16, 20)

    def test_receptive_field_matches_probe(self):
        cfg = tiny_wavenet_cfg()
        net = models.build_model(cfg, seed=1)
        rf = models.receptive_field(cfg)
        t = rf + 8
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (1, 1, t)).astype(np.float32)
        b = a.copy()
        p = 3
        b[0, 0, p] += 0.5
        with T.no_grad():
            diff = np.abs(models.forward(net, Tensor(a)).data
                          - models.forward(net, Tensor(b)).data)
        changed = np.flatnonzero(diff.sum(axis=(0, 1)) > 1e-7)
        assert changed.min() >= p
        assert changed.max() <= p + rf - 1
        assert changed.max() == p + rf - 1  # the furthest tap really reaches

    def test_trim_groups_cover_expected_pools(self):
        net = models.build_model(tiny_wavenet_cfg(), seed=0)
        assert set(net.pools) == {"in_conv", "filter_0", "filter_1", "filter_2",
                                  "skip_0", "out1"}
        assert units_original(net) == 4 + 3 * 6 + 5 + 7
        assert "out2" not in net.pool_of

    def test_trim_mask_equivalence(self):
        net = models.build_model(tiny_wavenet_cfg(), seed=4)
        plan = {"in_conv": np.array([1]), "filter_0": np.array([0, 3]),
                "filter_2": np.array([5]), "skip_0": np.array([2, 4]),
                "out1": np.array([6, 0])}
        trimmed = nn.apply_trim(net, plan)
        masked = mask_units(net, plan)
        wave = np.random.default_rng(5).uniform(-1, 1, (2, 25)).astype(np.float32)
        x = wave[:, None, :-1]
        with T.no_grad():
            yt = models.forward(trimmed, Tensor(x)).data
            ym = models.forward(masked, Tensor(x)).data
        assert yt.shape == ym.shape == (2, 16, 24)
        assert np.abs(yt - ym).max() <= 1e-6
        # the loss and the gradients of every surviving entry agree too
        lt, gt = loss_and_grads(trimmed, {"wave": wave})
        lm, gm = loss_and_grads(masked, {"wave": wave})
        assert abs(lt - lm) <= 1e-6
        for name, g in gt.items():
            layer, pname = name.split(".")
            kept = surviving(masked, plan, layer, pname, gm[name])
            assert kept.shape == g.shape, name
            assert np.abs(g - kept).max() <= 1e-6, name

    @pytest.mark.parametrize("variant", ["dense", "trimmed", "masked"])
    def test_fused_loss_matches_composed(self, variant, monkeypatch):
        # trimming out1 trims out2's input axis; masking filter_1 zeroes
        # a filter row and its gate row
        net = models.build_model(tiny_wavenet_cfg(), seed=9)
        if variant == "trimmed":
            net = nn.apply_trim(net, {"out1": np.array([1, 4]), "filter_1": np.array([2])})
        elif variant == "masked":
            net = mask_units(net, {"filter_1": np.array([0, 5])})
        batch = {"wave": np.random.default_rng(9).uniform(-0.9, 0.9, (3, 30))
                 .astype(np.float32)}
        fused = loss_and_grads(net, batch)
        monkeypatch.setattr(models, "_wavenet_trunk",
                            lambda net, x: wavenet_trunk_added(net, x, gated_composed))
        monkeypatch.setattr(models, "nll_from_logits", head_nll_composed)
        composed = loss_and_grads(net, batch)
        assert fused[0] == pytest.approx(composed[0], rel=1e-5)
        for name, g in fused[1].items():
            ref = composed[1][name]
            assert g.shape == ref.shape, name
            assert np.abs(g - ref).max() <= 1e-5 * np.abs(ref).max(), name

    @pytest.mark.parametrize("batch_size", [8, 3, 1])
    @pytest.mark.parametrize("variant", ["dense", "trimmed", "masked"])
    def test_matches_added_streams_and_batched_head_bit_for_bit(self, variant,
                                                                batch_size,
                                                                monkeypatch):
        # the trunk node against one node per conv, gated unit, add and
        # relu; trimming out1, the residual pool (named after in_conv) and
        # the skip pool trims the projections that add into each stream
        net = models.build_model(tiny_wavenet_cfg(), seed=12)
        plan = {"out1": np.array([1, 4]), "in_conv": np.array([0, 2]),
                "skip_0": np.array([3])}
        if variant == "trimmed":
            net = nn.apply_trim(net, plan)
        elif variant == "masked":
            net = mask_units(net, plan | {"filter_1": np.array([0, 5])})
        batch = {"wave": np.random.default_rng(12).uniform(-0.9, 0.9, (batch_size, 30))
                 .astype(np.float32)}
        runs = []
        for oracle in (False, True):
            if oracle:
                monkeypatch.setattr(models, "_wavenet_trunk", wavenet_trunk_added)
                monkeypatch.setattr(models, "nll_from_logits", nll_from_logits_batched)
            net.zero_grad()
            loss = models.compute_loss(net, batch)
            passes = []
            for _ in range(2):
                loss.backward()
                passes.append({name: p.grad.copy() for name, p in net.named_parameters()})
            with T.no_grad():
                logits = models.forward_batch(net, batch).data
            runs.append((float(loss.data), passes, logits))
        (loss, passes, logits), (ref_loss, ref_passes, ref_logits) = runs
        assert loss == ref_loss
        for grads, ref_grads in zip(passes, ref_passes):
            assert grads.keys() == ref_grads.keys()
            for name, g in grads.items():
                assert np.array_equal(g, ref_grads[name]), name
        assert np.array_equal(logits, ref_logits)

    def test_second_backward_doubles_grads(self):
        net = models.build_model(tiny_wavenet_cfg(), seed=10)
        batch = {"wave": np.random.default_rng(10).uniform(-0.9, 0.9, (2, 30))
                 .astype(np.float32)}
        loss = models.compute_loss(net, batch)
        loss.backward()
        once = {name: p.grad.copy() for name, p in net.named_parameters()}
        loss.backward()
        for name, p in net.named_parameters():
            assert np.array_equal(p.grad, 2 * once[name]), name

    def test_train_step_graph_holds_no_logits(self):
        # after the forward pass the graph keeps, of the (batch, channels,
        # time) arrays, per block the gated input r and the stacked tanh and
        # sigmoid halves, then relu(skip stream), the trunk's output and the
        # head's input gradient: no logits, no gated product, no skip sum
        # and no pre-relu output
        cfg = tiny_wavenet_cfg()
        net = models.build_model(cfg, seed=11)
        b, t, n_blocks = 2, 29, cfg.blocks_per_stack
        wave = np.random.default_rng(11).uniform(-0.9, 0.9, (b, t + 1)).astype(np.float32)
        loss = models.compute_loss(net, {"wave": wave})
        assert loss._op == "nll" and loss._parents[0]._op == "trunk"
        assert all(p._op == "leaf" for p in loss._parents[0]._parents)
        kept = collections.Counter(a.shape[1] for a in _graph_buffers(loss)
                                   if a.ndim == 3 and (a.shape[0], a.shape[2]) == (b, t))
        assert kept == {cfg.residual_channels: n_blocks,
                        2 * cfg.gate_channels: n_blocks,
                        cfg.skip_channels: 1, cfg.head_channels: 2}

    def test_loss_decreases_on_tiny_overfit(self):
        cfg = tiny_wavenet_cfg()
        net = models.build_model(cfg, seed=6)
        rng = np.random.default_rng(7)
        batch = {"wave": rng.uniform(-0.8, 0.8, (2, 40)).astype(np.float32)}
        before = float(models.compute_loss(net, batch).data)
        for _ in range(30):
            net.zero_grad()
            loss = models.compute_loss(net, batch)
            loss.backward()
            for p in net.parameters():
                p.data -= 0.05 * p.grad
        after = float(models.compute_loss(net, batch).data)
        assert after < before

    def test_generate_deterministic_and_bounded(self):
        net = models.build_model(tiny_wavenet_cfg(), seed=8)
        a = models.wavenet_generate(net, 12, seed=42)
        b = models.wavenet_generate(net, 12, seed=42)
        c = models.wavenet_generate(net, 12, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (12,) and np.abs(a).max() <= 1.0


class TestSing:
    def test_forward_bounded_and_shaped(self):
        net = models.build_model(tiny_sing_cfg(), seed=0)
        x = np.random.default_rng(0).uniform(-1, 1, (2, 1, 64)).astype(np.float32)
        out = models.forward(net, Tensor(x))
        assert out.shape == (2, 1, 64)
        assert np.abs(out.data).max() <= 1.0

    def test_trim_mask_equivalence_through_batchnorm(self):
        net = models.build_model(tiny_sing_cfg(), seed=1).eval()
        for i in range(2):
            bn = net.layers[f"bn{i}"]
            rng = np.random.default_rng(10 + i)
            bn.buffers["running_mean"] = rng.standard_normal(6).astype(np.float32)
            bn.buffers["running_var"] = (0.5 + rng.random(6)).astype(np.float32)
        plan = {"conv0": np.array([0, 2, 5]), "conv1": np.array([1, 4])}
        trimmed = nn.apply_trim(net, plan).eval()
        masked = mask_units(net, plan)
        masked.eval()
        x = np.random.default_rng(11).uniform(-1, 1, (2, 1, 48)).astype(np.float32)
        with T.no_grad():
            diff = np.abs(models.forward(trimmed, Tensor(x)).data
                          - models.forward(masked, Tensor(x)).data)
        assert diff.max() <= 1e-6

    def test_spectral_loss_zero_on_identical(self):
        cfg = tiny_sing_cfg()
        wave = np.random.default_rng(12).uniform(-1, 1, (2, 128)).astype(np.float32)
        spec = cfg.spectrogram()
        loss = models.multiscale_spectral_loss(
            Tensor(wave), T.stft_logmag(wave, spec), spec)
        assert float(loss.data) == 0.0

    def test_spectral_loss_positive_on_different(self):
        cfg = tiny_sing_cfg()
        rng = np.random.default_rng(13)
        a = rng.uniform(-1, 1, (1, 128)).astype(np.float32)
        b = rng.uniform(-1, 1, (1, 128)).astype(np.float32)
        spec = cfg.spectrogram()
        target = T.stft_logmag(b, spec)
        assert float(models.multiscale_spectral_loss(Tensor(a), target, spec).data) > 0.1


class TestSpectralLossNode:
    """multiscale_spectral_loss is one node; spectral_loss_composed, the
    stft_logmag_node nodes followed by sub, abs, mean and add nodes, must match
    it bit for bit in the loss and in every parameter gradient."""

    @staticmethod
    def _net(cfg, variant):
        net = models.build_model(cfg, seed=1)
        plan = {pid: [0] for pid, p in net.pools.items() if len(p.kept) > 1}
        if variant == "trimmed":
            net = nn.apply_trim(net, plan)
        elif variant == "masked":
            net = mask_units(net, plan)
        return net.train()

    @staticmethod
    def _run(net, batch):
        """The loss and every gradient after one backward() and after a
        second one, then the loss under no_grad."""
        loss = models.compute_loss(net, batch)
        loss.backward()
        once = [p.grad for p in net.parameters()]
        loss.backward()
        twice = [p.grad for p in net.parameters()]
        with T.no_grad():
            plain = models.compute_loss(net, batch)
        return [np.asarray(loss.data), *once, *twice, np.asarray(plain.data)]

    @pytest.mark.parametrize("batch_size", [16, 3, 1])
    @pytest.mark.parametrize("variant", ["dense", "trimmed", "masked"])
    @pytest.mark.parametrize("cfg_fn", [tiny_ddsp_cfg, tiny_sing_cfg])
    def test_matches_composed_chain_bit_for_bit(self, cfg_fn, variant, batch_size,
                                                monkeypatch):
        cfg = cfg_fn(spec_windows=(32, 64, 128))
        batch = ddsp_batch(cfg, batch=batch_size, frames=8)
        got = self._run(self._net(cfg, variant), batch)
        monkeypatch.setattr(models, "multiscale_spectral_loss", spectral_loss_composed)
        want = self._run(self._net(cfg, variant), batch)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_is_one_node_keeping_no_spectrum(self):
        cfg = tiny_ddsp_cfg(spec_windows=(32, 64, 128))
        wave = np.random.default_rng(14).uniform(-1, 1, (3, 256)).astype(np.float32)
        target = T.stft_logmag(wave[::-1], cfg.spectrogram())
        x = Tensor(wave, requires_grad=True)
        loss = models.multiscale_spectral_loss(x, target, cfg.spectrogram())
        assert loss._op == "spectral_loss" and loss._parents == (x,)
        cells = [c.cell_contents for c in loss._backward.__closure__]
        assert [c.shape for c in cells if isinstance(c, np.ndarray)] == [(3, 256)]

    def test_target_shape_mismatch(self):
        spec = tiny_ddsp_cfg().spectrogram()
        wave = np.zeros((2, 128), dtype=np.float32)
        target = T.stft_logmag(wave[:1], spec)
        with pytest.raises(T.ShapeError, match="window 32"):
            models.multiscale_spectral_loss(Tensor(wave), target, spec)

    def test_non_finite_log_power_names_the_node(self):
        spec = tiny_ddsp_cfg().spectrogram()
        wave = np.zeros((1, 128), dtype=np.float32)
        target = T.stft_logmag(wave, spec)
        wave[0, 40] = np.inf
        with np.errstate(all="ignore"), pytest.raises(T.NumericError,
                                                      match="spectral_loss"):
            models.multiscale_spectral_loss(Tensor(wave), target, spec)


class TestDdsp:
    def test_control_shapes_and_ranges(self):
        cfg = tiny_ddsp_cfg()
        net = models.build_model(cfg, seed=0)
        batch = ddsp_batch(cfg)
        feats = Tensor(models.ddsp_features(batch["f0"], batch["loud"]))
        ctrl = models.forward(net, feats)
        assert ctrl["amp"].shape == (2, 6, 1)
        assert ctrl["harm"].shape == (2, 6, cfg.n_partials)
        assert ctrl["noise"].shape == (2, 6, cfg.noise_bins)
        assert (ctrl["amp"].data > 0).all() and (ctrl["amp"].data < 1).all()
        assert np.allclose(ctrl["harm"].data.sum(axis=-1), 1.0, atol=1e-5)

    def test_synth_output_always_inside_unit_range(self):
        # even with controls saturated at their extremes the mix stays bounded
        cfg = tiny_ddsp_cfg()
        batch = ddsp_batch(cfg, seed=3)
        frames = batch["f0"].shape
        ones = np.ones(frames + (1,), dtype=np.float32)
        ctrl = {
            "amp": Tensor(ones),
            "harm": Tensor(np.full(frames + (cfg.n_partials,),
                                   1.0 / cfg.n_partials, dtype=np.float32)),
            "noise": Tensor(np.ones(frames + (cfg.noise_bins,), dtype=np.float32)),
        }
        meta = {"config": {"frame_hop": cfg.frame_hop, "sample_rate": cfg.sample_rate,
                           "n_partials": cfg.n_partials, "noise_bins": cfg.noise_bins,
                           "noise_seed": cfg.noise_seed}}
        wave = models.ddsp_synthesize(ctrl, batch["f0"], meta)
        assert wave.shape == (2, 6 * cfg.frame_hop)
        assert np.abs(wave.data).max() <= 1.0

    def test_partials_above_nyquist_are_silent(self):
        cfg = tiny_ddsp_cfg()
        frames = (1, 4)
        f0 = np.full(frames, cfg.sample_rate / 3.0, dtype=np.float32)
        harm = np.zeros(frames + (cfg.n_partials,), dtype=np.float32)
        harm[..., 3] = 1.0  # 4th partial sits far above Nyquist
        ctrl = {"amp": Tensor(np.ones(frames + (1,), dtype=np.float32)),
                "harm": Tensor(harm),
                "noise": Tensor(np.zeros(frames + (cfg.noise_bins,), dtype=np.float32))}
        meta = {"config": {"frame_hop": cfg.frame_hop, "sample_rate": cfg.sample_rate,
                           "n_partials": cfg.n_partials, "noise_bins": cfg.noise_bins,
                           "noise_seed": cfg.noise_seed}}
        wave = models.ddsp_synthesize(ctrl, f0, meta)
        assert np.abs(wave.data).max() == 0.0

    def test_fundamental_below_nyquist_is_audible(self):
        cfg = tiny_ddsp_cfg()
        batch = ddsp_batch(cfg, seed=4)
        net = models.build_model(cfg, seed=4)
        wave = models.ddsp_render(net, batch)
        assert float(np.abs(wave.data).max()) > 0.0

    def test_gradients_reach_every_parameter(self):
        cfg = tiny_ddsp_cfg()
        net = models.build_model(cfg, seed=5)
        batch = ddsp_batch(cfg, seed=5)
        loss = models.compute_loss(net, batch)
        loss.backward()
        for name, p in net.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_trim_mask_equivalence(self):
        cfg = tiny_ddsp_cfg()
        net = models.build_model(cfg, seed=6)
        plan = {"gru": np.array([0, 5]), "dense0": np.array([2]),
                "dense1": np.array([1, 7])}
        trimmed = nn.apply_trim(net, plan)
        masked = mask_units(net, plan)
        batch = ddsp_batch(cfg, seed=6)
        with T.no_grad():
            yt = models.ddsp_render(trimmed, batch).data
            ym = models.ddsp_render(masked, batch).data
        assert np.abs(yt - ym).max() <= 1e-6

    def test_noise_basis_is_cached_and_bounded(self, monkeypatch):
        # the render builds the basis once per shape and keeps one entry
        built = []
        basis = models.noise_band_basis

        def counted(*key):
            built.append(key)
            return basis(*key)
        monkeypatch.setattr(models, "noise_band_basis", counted)
        monkeypatch.setattr(models, "_NOISE_BASIS_CACHE", {})
        meta = {"config": {"frame_hop": 5, "noise_bins": 4, "noise_seed": 0,
                           "sample_rate": 8000, "n_partials": 3}}
        for frames in (20, 20, 12, 20, 12):
            rng = np.random.default_rng(frames)
            controls = {k: Tensor(rng.uniform(0, 1, (1, frames, n)))
                        for k, n in (("amp", 1), ("harm", 3), ("noise", 4))}
            with T.no_grad():
                models.ddsp_synthesize(controls, np.full((1, frames), 200.0), meta)
        assert built == [(100, 4, 0), (60, 4, 0)]
        assert list(models._NOISE_BASIS_CACHE) == built
        assert np.abs(basis(100, 4, seed=0)).max() <= 1.0 + 1e-6


class TestSynthesisHeads:
    """The frame_lerp heads of ddsp_synthesize against the dense render
    that upsamples every control through the (samples, frames) matrix."""

    @staticmethod
    def _controls(rng, batch, frames, partials, bands):
        # the ranges the net emits: sigmoid amp and noise, harm summing to one
        harm = rng.uniform(0.01, 1.0, size=(batch, frames, partials))
        return {"amp": rng.uniform(0.0, 1.0, size=(batch, frames, 1)),
                "harm": harm / harm.sum(axis=-1, keepdims=True),
                "noise": rng.uniform(0.0, 1.0, size=(batch, frames, bands))}

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 3), frames=st.integers(1, 6), hop=st.integers(1, 9),
           partials=st.integers(1, 4), bands=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    @example(batch=1, frames=1, hop=1, partials=1, bands=1, seed=0)
    def test_heads_match_the_dense_render(self, batch, frames, hop, partials,
                                          bands, seed):
        rng = np.random.default_rng(seed)
        meta = {"config": {"frame_hop": hop, "sample_rate": 4000,
                           "n_partials": partials, "noise_bins": bands,
                           "noise_seed": seed % 3}}
        f0 = rng.uniform(80, 800, size=(batch, frames)).astype(np.float32)
        bank = models.sine_bank(f0, meta["config"])
        arrays = self._controls(rng, batch, frames, partials, bands)
        c = rng.standard_normal((batch, frames * hop)).astype(np.float32)
        got = {}
        for name, fn in (("heads", models.ddsp_synthesize),
                         ("dense", ddsp_synthesize_dense)):
            ctrl = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
            wave = fn(ctrl, f0, meta, bank)
            T.tsum(T.mul(wave, Tensor(c))).backward()
            got[name] = wave.data, {k: t.grad for k, t in ctrl.items()}
        assert np.abs(got["heads"][0] - got["dense"][0]).max() <= 1e-6
        # a gradient entry sums up to 2*hop*K products of an upstream value
        # and a unit-range term; where they cancel (one frame of 9 samples
        # gave an amp gradient of 1.7e-4) the rounding of those products,
        # not the size of their sum, sets the error
        for k, want in got["dense"][1].items():
            err = np.abs(got["heads"][1][k] - want).max()
            assert err <= 1e-5 * max(np.abs(want).max(), np.abs(c).max()), k

    def test_each_head_is_one_node_reading_only_its_control(self):
        cfg = tiny_ddsp_cfg()
        net = models.build_model(cfg, seed=1)
        batch = ddsp_batch(cfg, seed=1)
        ctrl = models.forward_batch(net, batch)
        heads = []
        wave = models.ddsp_synthesize(ctrl, batch["f0"], net.meta)
        stack = [wave]
        while stack:
            node = stack.pop()
            if node._op == "frame_lerp":
                heads.append(node._parents)
            else:
                stack.extend(node._parents)
        assert sorted(heads, key=lambda p: p[0].shape[-1]) == [
            (ctrl["amp"],), (ctrl["noise"],), (ctrl["harm"],)]

    @pytest.mark.parametrize("batch,frames,hop", [(1, 1, 1), (3, 5, 7), (16, 40, 200)])
    def test_upsampled_f0_matches_the_dense_product(self, batch, frames, hop):
        rng = np.random.default_rng(frames)
        f0 = rng.uniform(80, 800, size=(batch, frames)).astype(np.float32)
        got = T.frame_lerp(Tensor(f0[..., None]), hop).data
        np.testing.assert_array_max_ulp(got, upsample_dense(f0, hop), maxulp=1)

    def test_sine_bank_matches_the_dense_bank(self):
        # the lerped f0 is within one ulp of the dense product, but the
        # float32 phase cumsum over 8000 samples carries such differences
        # into every later sample and the partial index multiplies them:
        # 1.9e-3 to 3.9e-3 apart over seeds 0-5, while either float32 bank
        # is 0.10 to 0.17 away from the bank computed in float64
        rng = np.random.default_rng(0)
        cfg = {"frame_hop": 200, "sample_rate": 16000, "n_partials": 12}
        f0 = rng.uniform(80, 800, size=(16, 40)).astype(np.float32)

        def bank(f0_up, k):
            phase = 2.0 * np.pi * np.cumsum(f0_up / 16000, axis=-1)
            return np.sin(phase[..., None] * k) * ((f0_up[..., None] * k) < 8000.0)
        dense = bank(upsample_dense(f0, 200), np.arange(1, 13, dtype=np.float32))
        exact = bank(upsample_dense(f0.astype(np.float64), 200), np.arange(1, 13))
        gap = np.abs(models.sine_bank(f0, cfg) - dense).max()
        assert gap <= 1e-2
        assert gap <= 0.1 * np.abs(dense - exact).max()


class TestBatchConstants:
    """The target log-spectrograms and the sine bank are built once per
    batch and kept in the batch itself."""

    @staticmethod
    def _loss_and_grads(net, batch):
        net.zero_grad()
        loss = models.compute_loss(net, batch)
        loss.backward()
        return loss.data, [p.grad for p in net.parameters()]

    @pytest.mark.parametrize("cfg_fn", [tiny_ddsp_cfg, tiny_sing_cfg])
    def test_cached_batch_gives_the_fresh_copy_loss_bit_for_bit(self, cfg_fn,
                                                                monkeypatch):
        cfg = cfg_fn()
        net = models.build_model(cfg, seed=8)
        batch = ddsp_batch(cfg, seed=8)
        builds = []
        for module, name in ((models, "sine_bank"), (T, "stft_logmag")):
            def spy(*args, fn=getattr(module, name)):
                builds.append(fn)
                return fn(*args)
            monkeypatch.setattr(module, name, spy)
        self._loss_and_grads(net, batch)
        n_built = len(builds)
        assert n_built == (2 if cfg.arch == "ddsp" else 1)
        cached = self._loss_and_grads(net, batch)
        assert len(builds) == n_built
        fresh = self._loss_and_grads(net, {k: v.copy() for k, v in batch.items()
                                           if k != "_constants"})
        assert cached[0].tobytes() == fresh[0].tobytes()
        for a, b in zip(cached[1], fresh[1]):
            assert np.array_equal(a, b)

    def test_render_with_the_cached_bank_equals_an_uncached_render(self):
        cfg = tiny_ddsp_cfg()
        net = models.build_model(cfg, seed=9)
        batch = ddsp_batch(cfg, seed=9)
        with T.no_grad():
            models.ddsp_render(net, batch)
            got = models.ddsp_render(net, batch).data
            want = models.ddsp_synthesize(models.forward_batch(net, batch),
                                          batch["f0"], net.meta).data
        assert np.array_equal(got, want)

    def test_constants_live_exactly_as_long_as_the_batch(self):
        cfg = tiny_ddsp_cfg()
        net = models.build_model(cfg, seed=10)
        batch = ddsp_batch(cfg, seed=10)
        models.compute_loss(net, batch).backward()
        store = batch["_constants"]
        arrays = [v for val in store.values()
                  for v in (val if isinstance(val, list) else [val])]
        refs = [weakref.ref(a) for a in arrays]
        del batch, store, arrays
        gc.collect()
        assert refs and all(r() is None for r in refs)


class TestUnitStreams:
    @pytest.mark.parametrize("cfg_fn", [tiny_wavenet_cfg, tiny_sing_cfg, tiny_ddsp_cfg])
    def test_one_pass_records_pooled_layers_and_covers_every_pool(self, cfg_fn):
        cfg = cfg_fn()
        net = models.build_model(cfg, seed=0)
        batch = ddsp_batch(cfg, batch=1, frames=8)
        with T.no_grad(), nn.capture() as tape:
            models.forward_batch(net, batch)
        assert set(tape) <= set(net.pool_of)
        assert {net.pool_of[name] for name in tape} == set(net.pools)
        for name, passes in tape.items():
            assert len(passes) == 1
            assert passes[0].shape[0] == net.layers[name].n_units


class TestBuildAndCheckpoint:
    @pytest.mark.parametrize("cfg_fn", [tiny_wavenet_cfg, tiny_sing_cfg, tiny_ddsp_cfg])
    def test_build_is_deterministic(self, cfg_fn):
        a = models.build_model(cfg_fn(), seed=7)
        b = models.build_model(cfg_fn(), seed=7)
        for (ka, va), (kb, vb) in zip(a.named_parameters(), b.named_parameters()):
            assert ka == kb and np.array_equal(va.data, vb.data)

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError, match="unknown arch"):
            models.build_model(ModelConfig(arch="mystery"))

    @pytest.mark.parametrize("cfg_fn", [tiny_wavenet_cfg, tiny_sing_cfg, tiny_ddsp_cfg])
    def test_loss_graph_holds_no_reference_cycle(self, cfg_fn):
        # a spent graph is freed by reference counting alone, so peak memory
        # does not depend on when the cyclic collector happens to run
        cfg = cfg_fn()
        net = models.build_model(cfg, seed=0)
        batch = ddsp_batch(cfg)
        gc.collect()
        gc.disable()
        try:
            loss = models.compute_loss(net, batch)
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("cfg_fn", [tiny_wavenet_cfg, tiny_sing_cfg, tiny_ddsp_cfg])
    def test_checkpoint_preserves_forward(self, cfg_fn, tmp_path):
        cfg = cfg_fn()
        net = models.build_model(cfg, seed=8).eval()
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(net, path)
        loaded = nn.load_checkpoint(path).eval()
        if cfg.arch == "ddsp":
            batch = ddsp_batch(cfg, seed=8)
            with T.no_grad():
                a = models.ddsp_render(net, batch).data
                b = models.ddsp_render(loaded, batch).data
        else:
            x = np.random.default_rng(9).uniform(-1, 1, (1, 1, 40)).astype(np.float32)
            with T.no_grad():
                a = models.forward(net, Tensor(x)).data
                b = models.forward(loaded, Tensor(x)).data
        assert np.array_equal(a, b)


# -- a fourth architecture, described by one record in this file ---------------

TOY_HOP = 4  # the toy runs once per 4-sample frame


def _build_toy(cfg: ModelConfig, rng) -> nn.Network:
    layers = [nn.make_linear("hidden", 1, 3, rng),
              nn.make_linear("out", 3, 1, rng, in_source="hidden")]
    return nn.Network("toy", layers, protected={"out"},
                      meta={"config": dataclasses.asdict(cfg)})


def _forward_toy(net, x):
    """x: (batch, time, 1); returns (batch, time, 1)."""
    h = T.tanh(nn.linear_forward(net.layers["hidden"], x))
    nn.record("hidden", h, -1)
    return nn.linear_forward(net.layers["out"], h)


def _toy_loss(net, batch):
    wave = np.asarray(batch["wave"], dtype=np.float32)
    d = T.sub(T.reshape(models.forward_batch(net, batch), wave.shape), Tensor(wave))
    return T.tmean(T.mul(d, d))


def _toy_sample(net, n_samples, seed, conditioning):
    noise = np.random.default_rng(seed).uniform(-1, 1, (1, n_samples, 1))
    with T.no_grad():
        return np.tanh(models.forward(net, Tensor(noise)).data.reshape(-1))


models.ARCHS["toy"] = models.ArchSpec(
    build=_build_toy, forward=_forward_toy, loss=_toy_loss, sample=_toy_sample,
    inputs=lambda batch: Tensor(np.asarray(batch["wave"], dtype=np.float32)[:, :, None]),
    frame_hop=lambda config: TOY_HOP)


class TestRegisteredArch:
    def toy_net(self):
        return models.build_model(ModelConfig(arch="toy", sample_rate=8000), seed=0)

    def splits(self):
        rng = np.random.default_rng(1)
        batches = [{"wave": rng.uniform(-0.5, 0.5, (1, 64)).astype(np.float32)}
                   for _ in range(4)]
        return pruning.Splits(train=batches[:2], valid=batches[2:3],
                              test=batches[3:])

    def test_forward_loss_and_cost_come_from_the_record(self):
        net = self.toy_net()
        batch = self.splits().valid[0]
        assert models.forward_batch(net, batch).shape == (1, 64, 1)
        loss = models.compute_loss(net, batch)
        loss.backward()
        assert np.isfinite(float(loss.data))
        assert net.layers["hidden"].params["w"].grad is not None
        per_inv = sum(embed.layer_flops(l) for l in net.layers.values())
        assert embed.count_flops(net) == 8000 / TOY_HOP * per_inv

    def test_trainerless_imp_and_sampling(self):
        net = self.toy_net()
        cfg = pruning.ImpConfig(mode="trim", iterations=1, criterion="activation")
        nets = []
        trace = pruning.run_imp(net, self.splits(), cfg, no_training,
                                on_record=lambda rec, n: nets.append(n.clone()))
        assert trace.aborted is None and len(trace.records) == 2 == len(nets)
        small = nets[1]
        assert small.units_remaining() < net.units_remaining()
        sample = models.arch_spec(small.arch).sample
        wave = sample(small, 16, 0, lambda: None)
        assert wave.shape == (16,) and np.all(np.abs(wave) <= 1)
        assert np.array_equal(wave, sample(small, 16, 0, lambda: None))

    def test_experiment_runs_end_to_end(self, tmp_path):
        cfg = harness.ExperimentConfig(
            model=ModelConfig(arch="toy", sample_rate=8000),
            dataset=harness.DatasetConfig(n_items=10, sr=8000),
            training=harness.TrainingConfig(epochs=1, batch_size=8),
            imp=pruning.ImpConfig(iterations=1), output_dir=str(tmp_path))
        harness.run_experiment(cfg)
        waves = sorted((tmp_path / "samples").glob("*.wav"))
        assert len(waves) == 2
        assert len(harness.read_wav(waves[0], 8000)) == 2000

    def test_unregistered_arch_names_what_is_missing(self):
        with pytest.raises(nn.StructureError, match="unknown arch 'mystery'"):
            models.build_model(ModelConfig(arch="mystery"))
        with pytest.raises(nn.StructureError, match="unknown arch 'mystery'"):
            models.forward_batch(nn.Network("mystery", []), {"x": np.zeros((1, 2))})
