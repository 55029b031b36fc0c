import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from audiotrim import embed, models, nn
from audiotrim import tensor as T
from audiotrim.tensor import Tensor
from conftest import (directional_gradcheck, gru_scan_composed, mask_units,
                      units_original, unused)


def conv_chain(seed=0) -> nn.Network:
    """conv(3->8) + bn + tanh, conv(8->6) + relu, conv(6->4) head."""
    rng = np.random.default_rng(seed)
    layers = [
        nn.make_conv("conv1", 3, 8, 3, rng),
        nn.make_batchnorm("bn1", 8, in_source="conv1"),
        nn.make_conv("conv2", 8, 6, 2, rng, dilation=2, in_source="conv1"),
        nn.make_conv("head", 6, 4, 1, rng, in_source="conv2"),
    ]
    rng2 = np.random.default_rng(seed + 1)
    layers[1].params["gamma"].data = rng2.standard_normal(8).astype(np.float32)
    layers[1].params["beta"].data = rng2.standard_normal(8).astype(np.float32)
    layers[1].buffers["running_var"] = (
        0.5 + rng2.random(8).astype(np.float32))
    layers[1].buffers["running_mean"] = rng2.standard_normal(8).astype(np.float32)
    return nn.Network(
        "sequential", layers,
        trim_groups=[["conv1", "bn1"]],
        protected={"head"},
        meta={"activations": {"bn1": "tanh", "conv2": "relu"}},
    )


def gru_probe(seed=0) -> nn.Network:
    rng = np.random.default_rng(seed)
    layers = [
        nn.make_gru("gru", 4, 6, rng),
        nn.make_linear("out", 6, 3, rng, in_source="gru"),
    ]
    for g in ("z", "r", "h"):
        layers[0].params["b" + g].data = 0.1 * rng.standard_normal(6).astype(np.float32)
    return nn.Network("gru_probe", layers, protected={"out"})


def _gru_probe_forward(net, x):
    h = nn.gru_scan(net.layers["gru"], x)
    return nn.linear_forward(net.layers["out"], h)


models.ARCHS["gru_probe"] = models.ArchSpec(
    build=unused("build"), forward=_gru_probe_forward, inputs=unused("inputs"),
    loss=unused("loss"), sample=unused("sample"))


class TestStructure:
    def test_pools_and_bn_grouping(self):
        net = conv_chain()
        assert set(net.pools) == {"conv1", "conv2"}
        assert net.pools["conv1"].members == ("conv1", "bn1")

    def test_bn_joins_producer_pool_without_explicit_group(self):
        rng = np.random.default_rng(0)
        layers = [
            nn.make_conv("c", 2, 4, 1, rng),
            nn.make_batchnorm("n", 4, in_source="c"),
        ]
        net = nn.Network("sequential", layers)
        assert net.pool_of["n"] == "c"

    def test_group_size_mismatch_raises(self):
        rng = np.random.default_rng(0)
        layers = [nn.make_linear("a", 2, 3, rng), nn.make_linear("b", 2, 4, rng)]
        with pytest.raises(nn.StructureError, match="unit counts"):
            nn.Network("sequential", layers, trim_groups=[["a", "b"]])

    def test_protected_layer_cannot_join_group(self):
        rng = np.random.default_rng(0)
        layers = [nn.make_linear("a", 2, 3, rng), nn.make_linear("b", 2, 3, rng)]
        with pytest.raises(nn.StructureError, match="protected"):
            nn.Network("sequential", layers, trim_groups=[["a", "b"]], protected={"b"})

    def test_unknown_in_source_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(nn.StructureError, match="unknown layer"):
            nn.Network("sequential", [nn.make_linear("a", 2, 3, rng, in_source="ghost")])

    def test_parameters_order_and_no_buffers(self):
        net = conv_chain()
        names = [n for n, _ in net.named_parameters()]
        assert names[:4] == ["conv1.w", "conv1.b", "bn1.gamma", "bn1.beta"]
        assert not any("running" in n for n in names)


class TestTrim:
    def test_trim_shrinks_shapes_and_counts(self):
        net = conv_chain()
        out = nn.apply_trim(net, {"conv1": np.array([0, 3, 7]), "conv2": np.array([2])})
        assert out.layers["conv1"].params["w"].shape == (5, 3, 3)
        assert out.layers["bn1"].params["gamma"].shape == (5,)
        assert out.layers["bn1"].buffers["running_mean"].shape == (5,)
        assert out.layers["conv2"].params["w"].shape == (5, 5, 2)
        assert out.layers["head"].params["w"].shape == (4, 5, 1)
        assert np.array_equal(out.pools["conv1"].kept, [1, 2, 4, 5, 6])
        assert out.units_remaining() == 10 and units_original(out) == 14

    def test_original_net_untouched(self):
        net = conv_chain()
        before = {k: v.data.copy() for k, v in net.named_parameters()}
        nn.apply_trim(net, {"conv1": np.array([1])})
        for k, v in net.named_parameters():
            assert np.array_equal(before[k], v.data)
        assert net.layers["conv1"].params["w"].shape == (8, 3, 3)

    def test_trim_all_units_raises_and_leaves_net_alone(self):
        net = conv_chain()
        with pytest.raises(nn.StructureError, match="at least one"):
            nn.apply_trim(net, {"conv2": np.arange(6)})
        assert net.layers["conv2"].params["w"].shape == (6, 8, 2)

    def test_bad_plan_keys_and_indices(self):
        net = conv_chain()
        with pytest.raises(nn.StructureError, match="unknown pool"):
            nn.apply_trim(net, {"head": np.array([0])})
        with pytest.raises(nn.StructureError, match="out of range"):
            nn.apply_trim(net, {"conv1": np.array([8])})
        with pytest.raises(nn.StructureError, match="repeat"):
            nn.apply_trim(net, {"conv1": np.array([1, 1])})

    def test_sequential_trims_compose(self):
        net = conv_chain()
        a = nn.apply_trim(net, {"conv1": np.array([0, 1])})
        b = nn.apply_trim(a, {"conv1": np.array([0])})  # removes original unit 2
        assert np.array_equal(b.pools["conv1"].kept, [3, 4, 5, 6, 7])

    def test_weight_counts_read_current_and_original_sizes(self):
        net = conv_chain()
        trimmed = nn.apply_trim(net, {"conv1": np.array([0, 5]), "conv2": np.array([3])})
        rem, orig = trimmed.weight_counts()
        assert orig == sum(p.data.size for p in net.parameters())
        assert rem == sum(p.data.size for p in trimmed.parameters())
        assert trimmed.units_remaining() == 11

    def test_restrict_param_recovers_trimmed_values(self):
        net = conv_chain()
        full = {k: v.data.copy() for k, v in net.named_parameters()}
        out = nn.apply_trim(net, {"conv1": np.array([2, 5]), "conv2": np.array([0])})
        for lname, layer in out.layers.items():
            for pname in layer.spec.params:
                got = nn.restrict_param(out, lname, pname, full[f"{lname}.{pname}"])
                assert np.array_equal(got, layer.params[pname].data)


class TestMaskTrimEquivalence:
    def _compare(self, net, plan, x, training=False):
        trimmed = nn.apply_trim(net, plan)
        masked = mask_units(net, plan)
        if training:
            trimmed.train()
            masked.train()
        else:
            trimmed.eval()
            masked.eval()
        yt = models.forward(trimmed, Tensor(x)).data
        ym = models.forward(masked, Tensor(x)).data
        assert yt.shape == ym.shape
        assert np.abs(yt - ym).max() <= 1e-6

    def test_conv_chain_eval(self):
        x = np.random.default_rng(5).standard_normal((2, 3, 12)).astype(np.float32)
        self._compare(conv_chain(), {"conv1": np.array([1, 6]), "conv2": np.array([0, 4])}, x)

    def test_conv_chain_training_mode(self):
        x = np.random.default_rng(6).standard_normal((4, 3, 10)).astype(np.float32)
        self._compare(conv_chain(), {"conv1": np.array([0, 2, 7])}, x, training=True)

    def test_gru_equivalence(self):
        x = np.random.default_rng(7).standard_normal((3, 9, 4)).astype(np.float32)
        self._compare(gru_probe(), {"gru": np.array([1, 4, 5])}, x)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n1=st.integers(min_value=0, max_value=7),
        n2=st.integers(min_value=0, max_value=5),
    )
    def test_any_plan_is_equivalent(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        plan = {
            "conv1": rng.choice(8, size=n1, replace=False),
            "conv2": rng.choice(6, size=n2, replace=False),
        }
        x = rng.standard_normal((2, 3, 8)).astype(np.float32)
        self._compare(conv_chain(seed % 100), plan, x)


class TestMasks:
    """The conftest oracle zeroes exactly the slices trimming deletes."""

    def test_reenforce_after_update_rezeroes_dead_entries(self):
        plan = {"conv1": np.array([1]), "conv2": np.array([2])}
        net = mask_units(conv_chain(), plan)
        for p in net.parameters():
            p.data += 1.0  # simulate an optimiser step breaking the zeros
        net = mask_units(net, plan)
        assert np.all(net.layers["conv1"].params["w"].data[1] == 0)
        assert net.layers["conv1"].params["b"].data[1] == 0
        assert net.layers["bn1"].params["gamma"].data[1] == 0
        assert net.layers["bn1"].buffers["running_var"][1] == 0
        assert np.all(net.layers["conv2"].params["w"].data[:, 1, :] == 0)
        assert np.all(net.layers["conv2"].params["w"].data[2] == 0)
        assert np.all(net.layers["head"].params["w"].data[:, 2, :] == 0)
        assert np.all(net.layers["conv1"].params["w"].data[0] == 1 +
                      conv_chain().layers["conv1"].params["w"].data[0])

    def test_gru_mask_zeroes_recurrent_columns(self):
        net = mask_units(gru_probe(), {"gru": np.array([2])})
        g = net.layers["gru"]
        for m in ("wz", "wr", "wh", "bz", "br", "bh"):
            assert np.all(g.params[m].data[2] == 0)
        for m in ("uz", "ur", "uh"):
            assert np.all(g.params[m].data[2] == 0)
            assert np.all(g.params[m].data[:, 2] == 0)
        assert np.all(net.layers["out"].params["w"].data[:, 2] == 0)
        assert np.count_nonzero(g.params["wz"].data == 0) == g.params["wz"].shape[1]


class TestForwardHelpers:
    def test_batchnorm_training_matches_numpy(self):
        net = conv_chain()
        layer = net.layers["bn1"]
        x = np.random.default_rng(8).standard_normal((4, 8, 6)).astype(np.float32)
        got = nn.batchnorm_forward(layer, Tensor(x), training=True).data
        mu = x.mean(axis=(0, 2), keepdims=True)
        var = x.var(axis=(0, 2), keepdims=True)
        gamma = layer.params["gamma"].data.reshape(1, -1, 1)
        beta = layer.params["beta"].data.reshape(1, -1, 1)
        ref = (x - mu) / np.sqrt(var + layer.eps) * gamma + beta
        assert np.allclose(got, ref, atol=1e-4)

    def test_batchnorm_running_stats_move_toward_batch(self):
        net = conv_chain()
        layer = net.layers["bn1"]
        rm0 = layer.buffers["running_mean"].copy()
        x = np.random.default_rng(9).standard_normal((4, 8, 6)).astype(np.float32) + 3.0
        nn.batchnorm_forward(layer, Tensor(x), training=True)
        mu = x.mean(axis=(0, 2))
        assert np.allclose(layer.buffers["running_mean"], 0.9 * rm0 + 0.1 * mu, atol=1e-4)

    def test_batchnorm_eval_uses_running_stats(self):
        net = conv_chain()
        layer = net.layers["bn1"]
        x = np.random.default_rng(10).standard_normal((2, 8, 4)).astype(np.float32)
        got = nn.batchnorm_forward(layer, Tensor(x), training=False).data
        rm = layer.buffers["running_mean"].reshape(1, -1, 1)
        rv = layer.buffers["running_var"].reshape(1, -1, 1)
        gamma = layer.params["gamma"].data.reshape(1, -1, 1)
        beta = layer.params["beta"].data.reshape(1, -1, 1)
        ref = (x - rm) / np.sqrt(rv + layer.eps) * gamma + beta
        assert np.allclose(got, ref, atol=1e-4)

    def test_gru_zero_weights_keep_state_zero(self):
        net = gru_probe()
        for p in net.layers["gru"].params.values():
            p.data[...] = 0.0
        x = np.random.default_rng(11).standard_normal((2, 7, 4)).astype(np.float32)
        h = nn.gru_scan(net.layers["gru"], Tensor(x))
        assert np.all(h.data == 0)

    def test_gru_grads_reach_all_parameters(self):
        net = gru_probe()
        x = np.random.default_rng(12).standard_normal((2, 5, 4)).astype(np.float32)
        out = models.forward(net, Tensor(x))
        T.tmean(T.mul(out, out)).backward()
        for name, p in net.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all()

    def test_unregistered_arch_raises(self):
        rng = np.random.default_rng(0)
        net = nn.Network("nope", [nn.make_linear("a", 2, 2, rng)])
        with pytest.raises(nn.StructureError, match="unknown arch 'nope'"):
            models.forward(net, Tensor(np.zeros((1, 2))))


class TestFusedGru:
    """gru_scan is one graph node; the composed gru_cell scan is its oracle."""

    @staticmethod
    def _outputs_and_grads(scan, layer, x0):
        for p in layer.params.values():
            p.zero_grad()
        x = Tensor(x0, requires_grad=True)
        out = scan(layer, x)
        weight = np.random.default_rng(1).standard_normal(out.shape)
        T.tsum(T.mul(out, Tensor(weight.astype(np.float32)))).backward()
        grads = {k: p.grad for k, p in layer.params.items()}
        grads["x"] = x.grad
        return out.data, grads

    @pytest.mark.parametrize("shape", [(3, 9, 4), (1, 1, 4), (2, 30, 4)])
    def test_matches_composed_cell_scan(self, shape):
        layer = gru_probe(shape[1]).layers["gru"]
        x0 = np.random.default_rng(shape[1]).standard_normal(shape).astype(np.float32)
        got, got_g = self._outputs_and_grads(nn.gru_scan, layer, x0)
        want, want_g = self._outputs_and_grads(gru_scan_composed, layer, x0)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        assert set(got_g) == set(want_g)
        for k, g in want_g.items():
            assert np.abs(got_g[k] - g).max() <= 1e-6 * np.abs(g).max(), k

    def test_gradcheck_input_and_recurrent_weights(self):
        rng = np.random.default_rng(13)
        layer = gru_probe(2).layers["gru"]
        x0 = rng.standard_normal((2, 6, 4)).astype(np.float32)
        directional_gradcheck(lambda x: T.tsum(nn.gru_scan(layer, x)), x0, rng)
        xt = Tensor(x0)
        for name in ("uz", "ur", "uh"):
            def build(u, name=name):
                layer.params[name] = u
                return T.tsum(T.tanh(nn.gru_scan(layer, xt)))
            directional_gradcheck(build, layer.params[name].data.copy(), rng)

    def test_one_node_whose_products_all_go_through_matmul(self, monkeypatch):
        layer = gru_probe().layers["gru"]
        b, t, n_in = 3, 7, 4
        macs = []
        matmul = T.matmul

        def counting(a, w):
            macs.append(a.data.size * w.shape[-1])  # (..., k) @ (k, n)
            return matmul(a, w)

        monkeypatch.setattr(T, "matmul", counting)
        x = Tensor(np.ones((b, t, n_in), dtype=np.float32))
        out = nn.gru_scan(layer, x)
        assert out._parents[1:] == tuple(layer.params[k] for k in layer.spec.params)
        flops = embed.layer_flops(layer) - 9 * layer.n_units
        assert embed.FLOPS_PER_MAC * sum(macs) == flops * b * t


class TestCheckpoints:
    def test_roundtrip_bytes_identical(self, tmp_path):
        net = nn.apply_trim(conv_chain(3), {"conv1": np.array([1, 2])})
        path = tmp_path / "net.ckpt"
        nn.save_checkpoint(net, path)
        loaded = nn.load_checkpoint(path)
        assert nn.checkpoint_bytes(loaded) == path.read_bytes()
        for (ka, va), (kb, vb) in zip(net.named_parameters(), loaded.named_parameters()):
            assert ka == kb and np.array_equal(va.data, vb.data)
        assert np.array_equal(loaded.pools["conv1"].kept, net.pools["conv1"].kept)
        assert loaded.pools["conv1"].orig == 8
        x = np.random.default_rng(1).standard_normal((2, 3, 8)).astype(np.float32)
        assert np.array_equal(models.forward(net.eval(), Tensor(x)).data,
                              models.forward(loaded.eval(), Tensor(x)).data)

    def test_corrupted_payload_rejected(self, tmp_path):
        net = conv_chain()
        path = tmp_path / "net.ckpt"
        nn.save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="crc"):
            nn.load_checkpoint(path)

    @staticmethod
    def _resealed(body: bytes) -> bytes:
        """body (a checkpoint minus its CRC) with a fresh, valid CRC."""
        return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")

    def test_old_version_rejected(self, tmp_path):
        body = bytearray(nn.checkpoint_bytes(conv_chain())[:-4])
        body[4:6] = (1).to_bytes(2, "little")
        path = tmp_path / "v1.ckpt"
        path.write_bytes(self._resealed(bytes(body)))
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            nn.load_checkpoint(path)

    def test_trailing_data_rejected(self, tmp_path):
        body = nn.checkpoint_bytes(conv_chain())[:-4]
        path = tmp_path / "long.ckpt"
        path.write_bytes(self._resealed(body + bytes(4)))
        with pytest.raises(ValueError, match="trailing or missing"):
            nn.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            nn.load_checkpoint(path)

    _SING = nn.checkpoint_bytes(models.build_model(models.ModelConfig(
        arch="sing_ae", conv_channels=4, n_conv_layers=2, sing_kernel=3,
        spec_windows=(32,)), seed=0))

    @pytest.mark.parametrize("old,new,match", [
        (b'"kind":"conv1d"', b'"kind":"conv2d"', "unknown layer kind 'conv2d'"),
        (b'"kept":[0,1,2,3]', b'"kept":[0,1,2,9]', "malformed"),  # id >= orig
        (b'"kept":[0,1,2,3]', b'"kept":[0,1,3,2]', "malformed"),  # out of order
        (b'"dilation":1', b'"dilation":0', "dilation"),
    ])
    def test_malformed_document_is_a_structure_error(self, tmp_path, old, new,
                                                     match):
        assert old in self._SING
        body = self._SING[:-4].replace(old, new, 1)
        path = tmp_path / "net.ckpt"
        path.write_bytes(self._resealed(body))
        with pytest.raises(nn.StructureError, match=match):
            nn.load_checkpoint(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_resealed_document_edits_load_or_raise_value_errors(self, tmp_path,
                                                                data):
        # one byte of the structure document changed, the CRC made valid;
        # printable bytes, so that most edits still parse as JSON
        doc_len = int.from_bytes(self._SING[6:10], "little")
        at = data.draw(st.integers(10, 10 + doc_len - 1))
        body = bytearray(self._SING[:-4])
        body[at] = data.draw(st.integers(32, 126).filter(lambda b: b != body[at]))
        path = tmp_path / "net.ckpt"
        path.write_bytes(self._resealed(bytes(body)))
        try:
            nn.load_checkpoint(path)
        except ValueError:
            pass
