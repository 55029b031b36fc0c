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


def _trunk_layers(net: Network):
    """The trunk's blocks, each (filter, gate, skip, res or None), and its
    parameters, the weight and bias of each conv from in_conv to out1."""
    layers = net.layers
    blocks = [(layers[f"filter_{i}"], layers[f"gate_{i}"], layers[f"skip_{i}"],
               layers.get(f"res_{i}")) for i in range(len(net.meta["dilations"]))]
    convs = ([layers["in_conv"]] + [c for blk in blocks for c in blk if c is not None]
             + [layers["out1"]])
    return blocks, tuple(c.params[k] for c in convs for k in ("w", "b"))


def _trunk_forward(net: Network, xd: np.ndarray, save: bool, tape: bool = False):
    """The trunk's output h (the class head's input) for the waveform xd,
    (batch, 1, time) or one item's (1, time), and, with save, the state
    _trunk_backward reads (else None). With tape, it records each layer's
    output (nn.record); only _forward_wavenet asks for that, so a capture
    holds one array per layer per forward pass, never one per loss item.

    Every conv runs through a grad-free conv1d_dilated_causal call:
    in_conv; per block the filter and gate stacked along the output axis,
    whose halves tanh and sigmoid overwrite, giving the gated product
    z = t * s; the skip and residual 1x1 convs of z, each added in place
    into its stream; then out1. Both relus run in place. skip_i is
    recorded as its own output W z + b, before it joins the stream; res_i
    as the residual stream it updates. The state is per block only the
    gated input r and the halves t and s, then relu(skip stream) h1 and h.
    """
    layers = net.layers
    blocks, _ = _trunk_layers(net)
    tap = nn.record if tape else (lambda name, t, unit_axis: None)
    saved = []
    with T.no_grad():
        r = nn.conv_forward(layers["in_conv"], Tensor(xd)).data
        tap("in_conv", Tensor(r), -2)
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
            if save:
                saved.append((r, ts, w))
            # the gated product is the pair's unit activation
            z = Tensor(t * s)
            tap(filt.name, z, -2)
            y = nn.conv_forward(skip, z).data
            tap(skip.name, Tensor(y), -2)
            stream = y if stream is None else np.add(stream, y, out=y)
            if res is not None:
                y = nn.conv_forward(res, z).data
                r = np.add(r, y, out=y)
                tap(res.name, Tensor(r), -2)
        h1 = np.maximum(stream, 0.0, out=stream)
        h = nn.conv_forward(layers["out1"], Tensor(h1)).data
        np.maximum(h, 0.0, out=h)
    tap("out1", Tensor(h), -2)
    return h, ((xd, saved, h1, h) if save else None)


def _trunk_backward(net: Network, state, g: np.ndarray, grads: dict):
    """Each trunk parameter's gradient for the flow g at the output of the
    trunk _trunk_forward saved as state, added into grads through
    _accumulate; the waveform takes none. It walks the blocks in reverse
    with conv1d_grads and forms each z = t * s again, in the expression
    order of one node per conv, gated unit, add and relu, so every
    gradient has that graph's bits once a bias's flow is summed over time
    (a relu passes flow where its output is positive).
    """
    xd, saved, h1, h = state
    layers = net.layers
    blocks, _ = _trunk_layers(net)

    def conv_back(layer, flow, xin):
        # in_conv's input is the waveform, whose gradient is never formed
        gx, gw, _ = T.conv1d_grads(flow, xin, layer.params["w"].data,
                                   layer.dilation, xin is not xd, True, False)
        _accumulate(grads, layer.params["w"], gw)
        _accumulate(grads, layer.params["b"], flow)
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
        gr, gw, _ = T.conv1d_grads(d, r, w, filt.dilation, True, True, False)
        for layer, half in ((filt, slice(None, n)), (gate, slice(n, None))):
            _accumulate(grads, layer.params["w"], gw[half])
            _accumulate(grads, layer.params["b"], d[..., half, :])
        flow_r = gr if res is None else np.add(flow_r, gr, out=gr)
    conv_back(layers["in_conv"], flow_r, xd)


def _accumulate(grads: dict, p: Tensor, a: np.ndarray):
    """Add a into grads[p], a copy of the first a: a weight's gradient, or
    a bias's (channels, time) flow, summed over the batch first if a has
    one. Adding items in order gives the bits of one batched pass."""
    if p.ndim == 1 and a.ndim == 3:
        a = a.sum(axis=0)
    if p in grads:
        np.add(grads[p], a, out=grads[p])
    else:
        grads[p] = a.copy()


def _bias_sums(params, grads: dict) -> list:
    """grads in params order, each bias's flow summed over time."""
    return [grads[p] if p.ndim > 1 else grads[p].sum(axis=1) for p in params]


def _forward_wavenet(net: Network, x: Tensor) -> Tensor:
    """x: (batch, 1, time) waveform; returns (batch, classes, time) logits
    of _trunk_forward and the class head, recording no graph: with grads
    enabled, an x or a parameter that requires one raises GraphError."""
    if T.grad_enabled() and any(p.requires_grad for p in (x, *net.parameters())):
        raise T.GraphError("a WaveNet forward pass records no graph: run it "
                           "under no_grad, or differentiate compute_loss")
    h, _ = _trunk_forward(net, x.data, save=False, tape=True)
    return nn.conv_forward(net.layers["out2"], Tensor(h))


def _wavenet_loss(net: Network, batch: dict) -> Tensor:
    """Mean NLL of each sample's successor's mu-law class, as one graph
    node run one batch item at a time: the trunk's forward pass, the class
    head and its NLL (nll_from_logits) and, when the node records, the
    trunk's backward pass from the head's input gradient. The node keeps
    only parameter-shaped gradients, added over items as one pass over the
    whole batch adds them (see _accumulate), so they have its bits. Its
    backward returns them times the flow; a second backward() adds again."""
    codec = MuLawCodec(net.meta["config"]["n_classes"] - 1)
    targets = codec.encode(_waves(batch))[:, 1:]
    head = net.layers["out2"]
    params = _trunk_layers(net)[1] + (head.params["w"], head.params["b"])
    record = T.grad_enabled() and any(p.requires_grad for p in params)
    scale = np.float32(1.0 / targets.size) if record else None
    losses = np.empty(targets.shape, dtype=np.float32)
    grads = {}
    for i, x in enumerate(_wavenet_inputs(batch).data):
        h, state = _trunk_forward(net, x, record)
        losses[i], gh = nll_from_logits(h, head, targets[i], scale, grads)
        if record:
            _trunk_backward(net, state, gh, grads)
        del h, state, gh  # hold one item's arrays at a time
    grads = _bias_sums(params, grads) if record else None
    return T._node(np.asarray(losses.mean()), params, "wavenet_loss",
                   lambda g: [a * g for a in grads])


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

    It depends only on f0 and the config, not on any parameter. The bank
    is built in place in the buffer of the partials' phases, with no
    bank-sized temporary.
    """
    hop, sr = cfg["frame_hop"], cfg["sample_rate"]
    f0 = np.asarray(f0_frames, dtype=np.float32)
    f0_up = T.frame_lerp(Tensor(f0[..., None]), hop).data
    phase = 2.0 * np.pi * np.cumsum(f0_up / sr, axis=-1)
    k = np.arange(1, cfg["n_partials"] + 1, dtype=np.float32)
    alias_mask = (f0_up[..., None] * k) < (sr / 2.0)
    bank = phase[..., None] * k
    np.sin(bank, out=bank)
    return np.multiply(bank, alias_mask, out=bank)


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


def nll_from_logits(h: np.ndarray, head: nn.Layer, targets: np.ndarray,
                    scale: np.float32 | None = None, grads: dict | None = None):
    """Negative log-likelihood, per time step, of one batch item's targets
    (time,) under the class logits the conv layer head makes of its h
    (channels, time), and h's gradient (None without a scale).

    The (classes, time) logits come from a grad-free conv1d_dilated_causal
    call into a buffer of their own, and the max-shifted log-sum-exp runs
    in place on it. Given a scale (1 / (batch * time) for a batch mean),
    the buffer then turns into (softmax - onehot) * scale, the flow at the
    logits of that share of the mean, which gives h's gradient; the head's
    weight gradient and bias flow go into grads through _accumulate.
    """
    wd, dilation = head.params["w"].data, head.dilation
    x = T.conv1d_dilated_causal(Tensor(h), Tensor(wd), dilation,
                                bias=Tensor(head.params["b"].data)).data
    at = (targets, np.arange(h.shape[-1]))
    picked = x[at]
    shift = x.max(axis=0, keepdims=True)
    x -= shift
    np.exp(x, out=x)
    total = x.sum(axis=0, keepdims=True)
    losses = (np.log(total) + shift)[0] - picked
    if scale is None:
        return losses, None
    x /= total
    x[at] -= 1.0
    x *= scale
    gh, gw, _ = T.conv1d_grads(x, h, wd, dilation, True, True, False)
    _accumulate(grads, head.params["w"], gw)
    _accumulate(grads, head.params["b"], x)
    return losses, gh


def multiscale_spectral_loss(pred: Tensor, target: list[np.ndarray],
                             cfg: SpectrogramConfig) -> Tensor:
    """Sum over window sizes, in window order, of the mean |log-power
    difference| between pred (batch, time) and the target's
    tensor.stft_logmag.

    One graph node. Every target shape is checked before any spectrum is
    formed. Then, one window size at a time (tensor.spectra), it fills one
    (batch, frames, bins) buffer one batch item at a time: the item's
    spectrum (tensor.spectrum), its log power written into its rows, which
    turn into the difference and then its absolute value in place. The
    window's term is the whole buffer's mean. When the node records, each
    item's signal gradient, sign / N / power * spectrum through
    tensor.spectrum_grad, goes into its row of one (batch, time) gradient,
    and later windows add into that row, in window order. So a batch
    item's spectra are the only ones alive at a time, and every value has
    the bits of one pass over the whole batch. The node keeps only that
    gradient, never a spectrum, and its backward returns it times the
    incoming flow, so a second backward() adds it again.
    """
    if len(target) != len(cfg.window_sizes):
        raise T.ShapeError(f"{len(target)} target spectrograms for "
                           f"{len(cfg.window_sizes)} window sizes")
    record = T.grad_enabled() and pred.requires_grad
    length = pred.shape[-1]
    windows = list(zip(T.spectra(pred.data, cfg), target))
    for (window, _, frames), q in windows:
        shape = frames.shape[:-1] + (window // 2 + 1,)
        if q.shape != shape:
            raise T.ShapeError(f"target spectrogram {q.shape} does not match "
                               f"{shape} at window {window}")
    total = None
    grad = np.empty(pred.shape, dtype=np.float32) if record else None
    for k, ((window, hop, frames), q) in enumerate(windows):
        d = np.empty(q.shape, dtype=np.float32)
        # the flow a mean and an abs node would pass back, over the power
        scale = np.float32(1.0) / np.float32(d.size)
        for i in np.ndindex(frames.shape[:-2]):
            spec, power = T.spectrum(frames[i], cfg.floor_epsilon)
            di = d[i]
            np.log(power, out=di)
            T._check_finite(di, "spectral_loss")
            di -= q[i]
            sign = np.sign(di) if record else None
            np.abs(di, out=di)
            if record:
                sign *= scale
                sign /= power
                spec *= sign
                g = T.spectrum_grad(spec, window, hop, length)
                if k == 0:
                    grad[i] = g
                else:
                    grad[i] += g
            del spec, power, sign  # hold one item's spectra at a time
        term = d.mean(axis=tuple(range(d.ndim)))
        total = term if total is None else total + term
    return T._node(np.asarray(total), (pred,), "spectral_loss",
                   lambda g: (grad * g,))
