"""Desk-scale generative audio models and their losses.

Three architectures, each built as a Network with full trim wiring and
described once, by its ArchSpec record in the ARCHS table below the
three families (builder, forward, inputs from a batch, loss, sampler,
frame hop):

* "wavenet": stacked gated dilated causal convolutions over mu-law
  classes, trained with teacher forcing and sampled autoregressively.
  Trim groups tie the residual stream, each block's filter/gate pair,
  and the skip stream.
* "sing_ae": a convolutional autoencoder (conv + batchnorm + tanh)
  reconstructing the waveform under a multiscale log-spectral loss.
* "ddsp": GRU + dense decoder emitting per-frame controls for a
  differentiable harmonic-plus-filtered-noise synthesiser.

build_model, forward, forward_batch and compute_loss dispatch through
that record; no other module knows an architecture. All waveforms live
in [-1, 1] at a fixed sample rate.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import fourier, nn
from . import tensor as T
from .nn import Network
from .tensor import SpectrogramConfig, Tensor


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    sample_rate: int = 16000
    # wavenet
    n_stacks: int = 2
    blocks_per_stack: int = 8
    residual_channels: int = 16
    gate_channels: int = 32
    skip_channels: int = 32
    head_channels: int = 32
    kernel_size: int = 2
    n_classes: int = 256
    # sing autoencoder
    conv_channels: int = 64
    n_conv_layers: int = 5
    sing_kernel: int = 9
    # ddsp
    gru_units: int = 64
    dense_units: int = 64
    n_partials: int = 32
    noise_bins: int = 65
    frame_hop: int = 200
    noise_seed: int = 0
    # spectral loss
    spec_windows: tuple[int, ...] = (32, 128, 256, 512, 1024)
    spec_hop_fraction: float = 0.25
    spec_epsilon: float = 5e-3

    def spectrogram(self) -> SpectrogramConfig:
        return SpectrogramConfig(tuple(self.spec_windows),
                                 self.spec_hop_fraction, self.spec_epsilon)


# -- mu-law ----------------------------------------------------------------


@dataclass(frozen=True)
class MuLawCodec:
    """Companding quantiser mapping [-1, 1] onto mu + 1 classes."""

    mu: int = 255

    def compand(self, x: np.ndarray) -> np.ndarray:
        x = np.clip(x, -1.0, 1.0)
        return np.sign(x) * np.log1p(self.mu * np.abs(x)) / np.log1p(self.mu)

    def expand(self, f: np.ndarray) -> np.ndarray:
        return np.sign(f) * ((1.0 + self.mu) ** np.abs(f) - 1.0) / self.mu

    def encode(self, wave: np.ndarray) -> np.ndarray:
        f = self.compand(np.asarray(wave))
        q = ((f + 1.0) * 0.5 * (self.mu + 1)).astype(np.int64)
        return np.minimum(q, self.mu)

    def decode(self, idx: np.ndarray) -> np.ndarray:
        f = (np.asarray(idx) + 0.5) / (self.mu + 1) * 2.0 - 1.0
        return self.expand(f).astype(np.float32)


# -- dispatch through the ARCHS table ------------------------------------------


@dataclass(frozen=True)
class ArchSpec:
    """Everything that sets one architecture apart. build(model_config,
    rng) makes a Network; forward(net, x) runs it; inputs(batch) is
    forward's argument from a batch dict; loss(net, batch) is the
    training objective; sample(net, n_samples, seed, conditioning)
    generates a waveform from the seed or renders the first item of the
    batch conditioning() builds; frame_hop(config) is the samples per
    invocation of a frame-rate model, and None marks a per-sample one."""
    build: Callable
    forward: Callable
    inputs: Callable
    loss: Callable
    sample: Callable
    frame_hop: Callable | None = None


def arch_spec(name: str) -> ArchSpec:
    """The ARCHS record of arch `name`."""
    try:
        return ARCHS[name]
    except KeyError:
        raise nn.StructureError(f"unknown arch '{name}'") from None


def build_model(cfg: ModelConfig, seed: int = 0) -> Network:
    return arch_spec(cfg.arch).build(cfg, np.random.default_rng(seed))


def forward(net: Network, x):
    """The arch's forward pass on its input x."""
    return arch_spec(net.arch).forward(net, x)


def forward_batch(net: Network, batch: dict):
    """The arch's forward pass on a batch dict (for scoring passes)."""
    return forward(net, arch_spec(net.arch).inputs(batch))


def compute_loss(net: Network, batch: dict) -> Tensor:
    """Training objective on one batch; batch["wave"] is (batch, time)."""
    return arch_spec(net.arch).loss(net, batch)


def _waves(batch: dict) -> np.ndarray:
    return np.asarray(batch["wave"], dtype=np.float32)


def _batch_constant(batch: dict, key, build):
    """build()'s value for this batch, computed on the first call only.

    The value is stored in the batch dict itself, so it lives exactly as
    long as the batch: a run's fixed batches pay for their constants once,
    and nothing outlives them. key must name everything build reads
    besides the batch.
    """
    store = batch.setdefault("_constants", {})
    if key not in store:
        store[key] = build()
    return store[key]


def _spectral_loss(render):
    """Multiscale spectral loss of render(net, batch) against the batch;
    the batch's own log-spectrograms are a per-batch constant."""
    def loss(net: Network, batch: dict) -> Tensor:
        spec = ModelConfig(**net.meta["config"]).spectrogram()
        target = _batch_constant(batch, ("stft_logmag", spec),
                                 lambda: T.stft_logmag(_waves(batch), spec))
        return multiscale_spectral_loss(render(net, batch), target, spec)
    return loss


def _render_first(render):
    """A sampler returning render(net, batch)'s first item, for the batch
    conditioning() builds."""
    def sample(net: Network, n_samples: int, seed: int, conditioning):
        with T.no_grad():
            return render(net, conditioning()).data[0]
    return sample


# -- wavenet -------------------------------------------------------------------


def wavenet_dilations(cfg: ModelConfig) -> list[int]:
    return [2 ** i for _ in range(cfg.n_stacks) for i in range(cfg.blocks_per_stack)]


def receptive_field(cfg: ModelConfig) -> int:
    return sum(d * (cfg.kernel_size - 1) for d in wavenet_dilations(cfg)) + cfg.kernel_size


def _build_wavenet(cfg: ModelConfig, rng) -> Network:
    dil = wavenet_dilations(cfg)
    layers = [nn.make_conv("in_conv", 1, cfg.residual_channels, cfg.kernel_size, rng)]
    res_group = ["in_conv"]
    skip_group = []
    groups = []
    for i, d in enumerate(dil):
        layers.append(nn.make_conv(f"filter_{i}", cfg.residual_channels,
                                   cfg.gate_channels, cfg.kernel_size, rng,
                                   dilation=d, in_source="in_conv"))
        layers.append(nn.make_conv(f"gate_{i}", cfg.residual_channels,
                                   cfg.gate_channels, cfg.kernel_size, rng,
                                   dilation=d, in_source="in_conv"))
        layers.append(nn.make_conv(f"skip_{i}", cfg.gate_channels,
                                   cfg.skip_channels, 1, rng, in_source=f"filter_{i}"))
        if i < len(dil) - 1:
            # the last block's residual output feeds nothing, so the
            # projection is never built
            layers.append(nn.make_conv(f"res_{i}", cfg.gate_channels,
                                       cfg.residual_channels, 1, rng,
                                       in_source=f"filter_{i}"))
            res_group.append(f"res_{i}")
        groups.append([f"filter_{i}", f"gate_{i}"])
        skip_group.append(f"skip_{i}")
    layers.append(nn.make_conv("out1", cfg.skip_channels, cfg.head_channels, 1, rng,
                               in_source=skip_group[0]))
    layers.append(nn.make_conv("out2", cfg.head_channels, cfg.n_classes, 1, rng,
                               in_source="out1"))
    groups.append(res_group)
    groups.append(skip_group)
    meta = {"config": asdict(cfg), "dilations": dil}
    return Network("wavenet", layers, trim_groups=groups,
                   protected={"out2"}, meta=meta)


def _wavenet_inputs(batch: dict) -> Tensor:
    # teacher forcing: each sample but the last predicts its successor
    return Tensor(_waves(batch)[:, None, :-1])


def _wavenet_trunk(net: Network, x: Tensor) -> Tensor:
    """x: (batch, 1, time) waveform; returns the class head's input, the
    (batch, head channels, time) output of out1's relu.

    One graph node. Its forward pass runs every conv through a grad-free
    conv1d_dilated_causal call: in_conv; per block the filter and gate
    stacked along the output axis, whose halves tanh and sigmoid
    overwrite, giving the gated product z = t * s; the skip and residual
    1x1 convs of z, each added in place into its stream; then out1. Both
    relus run in place. skip_i is recorded as its own output W z + b,
    before it joins the stream; res_i as the residual stream it updates.

    When the node records, it keeps per block only the gated input r and
    the halves t and s, then relu(skip stream) h1 and the output h (a relu
    passes flow where its output is positive). Backward walks the blocks
    in reverse with conv1d_grads and forms each z = t * s again. It keeps
    the expression order of one node per conv, gated unit, add and relu,
    so every gradient has the bits that graph gives.
    """
    layers = net.layers
    blocks = [(layers[f"filter_{i}"], layers[f"gate_{i}"], layers[f"skip_{i}"],
               layers.get(f"res_{i}")) for i in range(len(net.meta["dilations"]))]
    convs = ([layers["in_conv"]] + [c for blk in blocks for c in blk if c is not None]
             + [layers["out1"]])
    params = tuple(c.params[k] for c in convs for k in ("w", "b"))
    record = T.grad_enabled() and any(p.requires_grad for p in (x,) + params)
    weights = {c.name: c.params["w"].data for c in convs}
    saved = []
    with T.no_grad():
        r = nn.conv_forward(layers["in_conv"], x).data
        nn.record("in_conv", Tensor(r), -2)
        stream = None
        for filt, gate, skip, res in blocks:
            n = filt.n_units
            w = np.concatenate([filt.params["w"].data, gate.params["w"].data])
            b = np.concatenate([filt.params["b"].data, gate.params["b"].data])
            ts = T.conv1d_dilated_causal(Tensor(r), Tensor(w), filt.dilation,
                                         bias=Tensor(b)).data
            t, s = ts[..., :n, :], ts[..., n:, :]
            np.tanh(t, out=t)
            s[...] = T.sigmoid_array(s)
            if record:
                saved.append((r, ts, w))
            # the gated product is the pair's unit activation
            z = Tensor(t * s)
            nn.record(filt.name, z, -2)
            y = nn.conv_forward(skip, z).data
            nn.record(skip.name, Tensor(y), -2)
            stream = y if stream is None else np.add(stream, y, out=y)
            if res is not None:
                y = nn.conv_forward(res, z).data
                r = np.add(r, y, out=y)
                nn.record(res.name, Tensor(r), -2)
        h1 = np.maximum(stream, 0.0, out=stream)
        h = nn.conv_forward(layers["out1"], Tensor(h1)).data
        np.maximum(h, 0.0, out=h)
    nn.record("out1", Tensor(h), -2)

    def backward(g):
        grads = {}

        def conv_back(layer, flow, xd, want_x=True):
            w, b = layer.params["w"], layer.params["b"]
            gx, grads[w], grads[b] = T.conv1d_grads(
                flow, xd, weights[layer.name], layer.dilation, want_x,
                w.requires_grad, b.requires_grad)
            return gx

        flow_skip = conv_back(layers["out1"], g * (h > 0).astype(np.float32), h1)
        flow_skip *= (h1 > 0).astype(np.float32)
        flow_r = None
        for (filt, gate, skip, res), (r, ts, w) in zip(blocks[::-1], saved[::-1]):
            n = filt.n_units
            t, s = ts[..., :n, :], ts[..., n:, :]
            z = t * s
            gz = conv_back(skip, flow_skip, z)
            if res is not None:
                np.add(gz, conv_back(res, flow_r, z), out=gz)
            # the gated unit's flow dz*s*(1-t^2) and dz*t*s*(1-s), formed
            # in the expression order of its mul, tanh and sigmoid nodes,
            # with z's buffer as scratch
            d = np.empty(ts.shape, dtype=np.float32)
            np.multiply(t, t, out=z)
            np.subtract(1.0, z, out=z)
            np.multiply(gz * s, z, out=d[..., :n, :])
            np.subtract(1.0, s, out=z)
            np.multiply(s, z, out=z)
            np.multiply(gz, t, out=gz)
            np.multiply(gz, z, out=d[..., n:, :])
            del z, gz
            wf, bf, wg, bg = (c.params[k] for c in (filt, gate) for k in ("w", "b"))
            gr, gw, gb = T.conv1d_grads(d, r, w, filt.dilation, True,
                                        wf.requires_grad or wg.requires_grad,
                                        bf.requires_grad or bg.requires_grad)
            for p, q, full in ((wf, wg, gw), (bf, bg, gb)):
                grads[p], grads[q] = (None, None) if full is None else (full[:n], full[n:])
            flow_r = gr if res is None else np.add(flow_r, gr, out=gr)
        gx = conv_back(layers["in_conv"], flow_r, x.data, x.requires_grad)
        return (gx,) + tuple(grads[p] for p in params)
    return T._node(h, (x,) + params, "trunk", backward)


def _forward_wavenet(net: Network, x: Tensor) -> Tensor:
    """x: (batch, 1, time) waveform; returns (batch, classes, time) logits."""
    return nn.conv_forward(net.layers["out2"], _wavenet_trunk(net, x))


def _wavenet_loss(net: Network, batch: dict) -> Tensor:
    """The trunk, then the class head and its NLL as one node: the
    (batch, classes, time) logits are never a graph node."""
    codec = MuLawCodec(net.meta["config"]["n_classes"] - 1)
    targets = codec.encode(_waves(batch))[:, 1:]
    h = _wavenet_trunk(net, _wavenet_inputs(batch))
    return nll_from_logits(h, net.layers["out2"], targets)


def wavenet_generate(net: Network, n_samples: int, seed: int) -> np.ndarray:
    """Sample a waveform autoregressively; deterministic given the seed."""
    cfg = ModelConfig(**net.meta["config"])
    codec = MuLawCodec(cfg.n_classes - 1)
    rf = receptive_field(cfg)
    buf = np.zeros(rf, dtype=np.float32)
    rng = np.random.default_rng(seed)
    out = np.empty(n_samples, dtype=np.float32)
    with T.no_grad():
        for i in range(n_samples):
            logits = forward(net, Tensor(buf[None, None, :])).data[0, :, -1]
            p = np.exp((logits - logits.max()).astype(np.float64))
            p /= p.sum()
            idx = rng.choice(cfg.n_classes, p=p)
            x = codec.decode(np.array([idx]))[0]
            out[i] = x
            buf = np.roll(buf, -1)
            buf[-1] = x
    return out


# -- sing autoencoder ------------------------------------------------------------


def _build_sing(cfg: ModelConfig, rng) -> Network:
    if cfg.n_conv_layers < 2:
        raise ValueError("autoencoder needs at least two conv layers")
    layers = []
    groups = []
    prev = None
    for i in range(cfg.n_conv_layers - 1):
        n_in = 1 if i == 0 else cfg.conv_channels
        cname, bname = f"conv{i}", f"bn{i}"
        layers.append(nn.make_conv(cname, n_in, cfg.conv_channels,
                                   cfg.sing_kernel, rng, in_source=prev))
        layers.append(nn.make_batchnorm(bname, cfg.conv_channels, in_source=cname))
        groups.append([cname, bname])
        prev = cname
    layers.append(nn.make_conv("out", cfg.conv_channels, 1, cfg.sing_kernel,
                               rng, in_source=prev))
    meta = {"config": asdict(cfg)}
    return Network("sing_ae", layers, trim_groups=groups,
                   protected={"out"}, meta=meta)


def _forward_sing(net: Network, x: Tensor) -> Tensor:
    """x: (batch, 1, time); returns (batch, 1, time) in [-1, 1]."""
    n = net.meta["config"]["n_conv_layers"]
    for i in range(n - 1):
        x = nn.conv_forward(net.layers[f"conv{i}"], x)
        x = nn.batchnorm_forward(net.layers[f"bn{i}"], x, net.training)
        x = T.tanh(x)
        nn.record(f"conv{i}", x, -2)
    return T.tanh(nn.conv_forward(net.layers["out"], x))


def _sing_render(net: Network, batch: dict) -> Tensor:
    """(batch, time) reconstruction of the batch's waves."""
    return T.reshape(forward_batch(net, batch), _waves(batch).shape)


# -- harmonic-plus-noise synthesis -------------------------------------------


# the noise basis scaled by 1/bands, per (samples, bands, seed)
_NOISE_BASIS_CACHE: dict = {}


def noise_band_basis(n_samples: int, n_bands: int, seed: int) -> np.ndarray:
    """(n_samples, n_bands) bandpassed white noise, each band peak-normalised."""
    # the noise is drawn at the next power of two, which fixes the basis
    # that existing checkpoints were trained against
    n = 1
    while n < n_samples:
        n *= 2
    white = np.random.default_rng(seed).standard_normal(n).astype(np.float32)
    spec = fourier.fft(white)
    half = n // 2 + 1
    band_of = np.minimum(np.arange(half) * n_bands // half, n_bands - 1)
    basis = np.zeros((n_samples, n_bands), dtype=np.float32)
    for k in range(n_bands):
        band = fourier.ifft(np.where(band_of == k, spec, 0), n)[:n_samples]
        basis[:, k] = band / (np.abs(band).max() + 1e-9)
    return basis


def sine_bank(f0_frames: np.ndarray, cfg: dict) -> np.ndarray:
    """(batch, frames*hop, partials) sines of each partial's running phase,
    zeroed where the partial lies above Nyquist; cfg is a model config dict.

    It depends only on f0 and the config, not on any parameter.
    """
    hop, sr = cfg["frame_hop"], cfg["sample_rate"]
    f0 = np.asarray(f0_frames, dtype=np.float32)
    f0_up = T.frame_lerp(Tensor(f0[..., None]), hop).data
    phase = 2.0 * np.pi * np.cumsum(f0_up / sr, axis=-1)
    k = np.arange(1, cfg["n_partials"] + 1, dtype=np.float32)
    alias_mask = (f0_up[..., None] * k) < (sr / 2.0)
    return (np.sin(phase[..., None] * k) * alias_mask).astype(np.float32)


def ddsp_synthesize(controls: dict[str, Tensor], f0_frames: np.ndarray,
                    meta: dict, bank: np.ndarray | None = None) -> Tensor:
    """Render (batch, frames*hop) audio from per-frame controls.

    Harmonics above Nyquist are masked out; the normalised harmonic
    distribution, sigmoid noise magnitudes, and sigmoid amplitude bound
    the output inside [-1, 1] by construction.

    Only the controls carry gradients. Each head is one frame_lerp node,
    so no sample-rate copy of the controls is built: the harmonic head
    contracts the sine bank, the noise head the noise basis (cached per
    shape, already scaled by 1/bands), and the amplitude is a plain lerp.
    The sine bank depends on f0 alone; a caller that renders the same f0
    many times passes it in (see sine_bank) instead of paying for it on
    every call.
    """
    cfg = meta["config"]
    hop, n_bands = cfg["frame_hop"], cfg["noise_bins"]
    key = (np.shape(f0_frames)[1] * hop, n_bands, cfg["noise_seed"])
    if key not in _NOISE_BASIS_CACHE:
        _NOISE_BASIS_CACHE[key] = noise_band_basis(*key) * np.float32(1.0 / n_bands)
    if bank is None:
        bank = sine_bank(f0_frames, cfg)
    harmonic = T.frame_lerp(controls["harm"], hop, bank)
    noise = T.frame_lerp(controls["noise"], hop, _NOISE_BASIS_CACHE[key])
    mix = T.add(T.mul(harmonic, Tensor(0.8)), T.mul(noise, Tensor(0.2)))
    return T.mul(T.frame_lerp(controls["amp"], hop), mix)


def ddsp_features(f0_frames: np.ndarray, loud_frames: np.ndarray) -> np.ndarray:
    """Stack scaled f0 and loudness into the (batch, frames, 2) input."""
    return np.stack([np.asarray(f0_frames, dtype=np.float32) / 500.0,
                     np.asarray(loud_frames, dtype=np.float32)], axis=-1)


def ddsp_render(net: Network, batch: dict) -> Tensor:
    """The net's audio for a batch; the sine bank is a per-batch constant."""
    cfg = net.meta["config"]
    key = ("sine_bank", cfg["frame_hop"], cfg["sample_rate"], cfg["n_partials"])
    bank = _batch_constant(batch, key, lambda: sine_bank(batch["f0"], cfg))
    return ddsp_synthesize(forward_batch(net, batch), batch["f0"], net.meta, bank)


# -- ddsp ------------------------------------------------------------------------


def _build_ddsp(cfg: ModelConfig, rng) -> Network:
    layers = [
        nn.make_gru("gru", 2, cfg.gru_units, rng),
        nn.make_linear("dense0", cfg.gru_units, cfg.dense_units, rng, in_source="gru"),
        nn.make_linear("dense1", cfg.dense_units, cfg.dense_units, rng, in_source="dense0"),
        nn.make_linear("amp_head", cfg.dense_units, 1, rng, in_source="dense1"),
        nn.make_linear("harm_head", cfg.dense_units, cfg.n_partials, rng, in_source="dense1"),
        nn.make_linear("noise_head", cfg.dense_units, cfg.noise_bins, rng, in_source="dense1"),
    ]
    meta = {"config": asdict(cfg)}
    return Network("ddsp", layers, protected={"amp_head", "harm_head", "noise_head"},
                   meta=meta)


def _forward_ddsp(net: Network, feats: Tensor) -> dict[str, Tensor]:
    """feats: (batch, frames, 2) scaled f0 and loudness; returns controls."""
    h = nn.gru_scan(net.layers["gru"], feats)
    nn.record("gru", h, -1)
    h = T.relu(nn.linear_forward(net.layers["dense0"], h))
    nn.record("dense0", h, -1)
    h = T.relu(nn.linear_forward(net.layers["dense1"], h))
    nn.record("dense1", h, -1)
    amp = T.sigmoid(nn.linear_forward(net.layers["amp_head"], h))
    harm = T.sigmoid(nn.linear_forward(net.layers["harm_head"], h))
    # harmonic distribution sums to one so overall level lives in amp
    harm = T.div(harm, T.tsum(harm, axis=-1, keepdims=True))
    noise = T.sigmoid(nn.linear_forward(net.layers["noise_head"], h))
    return {"amp": amp, "harm": harm, "noise": noise}


# -- the architectures, by name -------------------------------------------------


ARCHS: dict[str, ArchSpec] = {
    "wavenet": ArchSpec(
        build=_build_wavenet, forward=_forward_wavenet, inputs=_wavenet_inputs,
        loss=_wavenet_loss,
        sample=lambda net, n_samples, seed, conditioning:
            wavenet_generate(net, n_samples, seed)),
    "sing_ae": ArchSpec(
        build=_build_sing, forward=_forward_sing,
        inputs=lambda batch: Tensor(_waves(batch)[:, None, :]),
        loss=_spectral_loss(_sing_render), sample=_render_first(_sing_render)),
    "ddsp": ArchSpec(
        build=_build_ddsp, forward=_forward_ddsp,
        inputs=lambda batch: Tensor(ddsp_features(batch["f0"], batch["loud"])),
        loss=_spectral_loss(ddsp_render), sample=_render_first(ddsp_render),
        frame_hop=lambda config: config["frame_hop"]),
}


# -- losses -------------------------------------------------------------------


def nll_from_logits(h: Tensor, head: nn.Layer, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of targets (batch, time) under the class
    logits of the conv layer head applied to h (batch, channels, time).

    One graph node, run one batch item at a time: each item's (classes,
    time) logits come from a grad-free conv1d_dilated_causal call into a
    buffer of their own, and the max-shifted log-sum-exp runs in place on
    it. When the node records, the forward pass also turns that buffer
    into (softmax - onehot) / (batch * time) and forms the item's input,
    weight and bias gradients from it (tensor.conv1d_grads). The weight
    gradients add in item order, and the bias gradient sums over items
    before time, as a batched conv1d_grads would. The node keeps only
    those gradients, never the logits, and its backward returns them
    times the incoming flow, so a second backward() adds them again.
    """
    w, bias = head.params["w"], head.params["b"]
    hd, wd, dilation = h.data, w.data, head.dilation
    b, _, t = hd.shape
    if targets.shape != (b, t):
        raise T.ShapeError(f"targets {targets.shape} do not match logits "
                           f"{(b, wd.shape[0], t)}")
    want_x, want_w, want_b = (T.grad_enabled() and p.requires_grad
                              for p in (h, w, bias))
    wt, bt, steps = Tensor(wd), Tensor(bias.data), np.arange(t)
    scale = np.float32(1.0 / (b * t))
    losses = np.empty((b, t), dtype=np.float32)
    gx = np.empty(hd.shape, dtype=np.float32) if want_x else None
    gw = gb = None
    for i in range(b):
        x = T.conv1d_dilated_causal(Tensor(hd[i]), wt, dilation, bias=bt).data
        at = (targets[i], steps)
        picked = x[at]
        shift = x.max(axis=0, keepdims=True)
        x -= shift
        np.exp(x, out=x)
        total = x.sum(axis=0, keepdims=True)
        np.subtract((np.log(total) + shift)[0], picked, out=losses[i])
        if not (want_x or want_w or want_b):
            continue
        x /= total
        x[at] -= 1.0
        x *= scale
        gxi, gwi, _ = T.conv1d_grads(x, hd[i], wd, dilation, want_x, want_w, False)
        if want_x:
            gx[i] = gxi
        if want_w:
            gw = gwi if gw is None else np.add(gw, gwi, out=gw)
        if want_b:
            gb = x if gb is None else np.add(gb, x, out=gb)
    if gb is not None:
        gb = gb.sum(axis=1)
    grads = (gx, gw, gb)
    def backward(g):
        return [None if grad is None else grad * g for grad in grads]
    return T._node(np.asarray(losses.mean()), (h, w, bias), "nll", backward)


def multiscale_spectral_loss(pred: Tensor, target: list[np.ndarray],
                             cfg: SpectrogramConfig) -> Tensor:
    """Sum over window sizes, in window order, of the mean |log-power
    difference| between pred (batch, time) and the target's
    tensor.stft_logmag.

    One graph node, run over the whole batch one window size at a time
    (tensor.spectra), in buffers rewritten in place: the log power turns
    into the difference and then its absolute value. When the node
    records, the forward pass also forms the window's signal gradient,
    sign / N / power * spectrum through tensor.spectrum_grad, and adds it
    to the earlier windows' in window order. The node keeps only that
    (batch, time) gradient, never a spectrum, and its backward returns it
    times the incoming flow, so a second backward() adds it again.
    """
    record = T.grad_enabled() and pred.requires_grad
    length = pred.shape[-1]
    total = grad = None
    for (window, hop, spec, power), q in zip(T.spectra(pred.data, cfg), target):
        d = np.log(power)
        T._check_finite(d, "spectral_loss")
        if q.shape != d.shape:
            raise T.ShapeError(f"target spectrogram {q.shape} does not match "
                               f"{d.shape} at window {window}")
        d -= q
        sign = np.sign(d) if record else None
        np.abs(d, out=d)
        term = d.mean(axis=tuple(range(d.ndim)))
        total = term if total is None else total + term
        if not record:
            continue
        # the flow a mean and an abs node would pass back, over the power
        sign *= np.float32(1.0) / np.float32(d.size)
        sign /= power
        spec *= sign
        g = T.spectrum_grad(spec, window, hop, length)
        grad = g if grad is None else np.add(grad, g, out=grad)
    return T._node(np.asarray(total), (pred,), "spectral_loss",
                   lambda g: (grad * g,))
