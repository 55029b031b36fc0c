"""Per-unit importance scores for structured pruning.

Five criteria, each producing one non-negative raw score per output
unit, where lower means safer to remove:

* magnitude: sum of |weight| over a unit's incoming connections;
* gradient: sum of |dL/dW| accumulated over a validation set;
* activation: sum of |unit output| over validation samples and frames;
* normalization: |gamma| of the batchnorm tied to the unit;
* information: estimated mutual information between the unit's output
  stream and log-spectral features of the target audio.

Raw scores are scaled per layer (none, layer_max, or fan_scaled) before
units from different layers are compared in global selection. Layers
tied into one trim pool are averaged into a single score per unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mi as mi_mod
from . import models, nn
from . import tensor as T
from .nn import Layer, Network
from .tensor import SpectrogramConfig, Tensor

CRITERIA = ("magnitude", "gradient", "activation", "normalization", "information")

# parameters that count as connection weights when summing magnitudes
_WEIGHT_PARAMS = {
    "linear": ("w",),
    "conv1d": ("w",),
    "gru": ("wz", "wr", "wh", "uz", "ur", "uh"),
    "batchnorm": ("gamma",),
}


@dataclass(frozen=True)
class ScalingScheme:
    kind: str = "none"

    def __post_init__(self):
        if self.kind not in ("none", "layer_max", "fan_scaled"):
            raise ValueError(
                f"scaling must be none, layer_max, or fan_scaled, got '{self.kind}'"
            )


def fan_in(layer: Layer) -> int:
    if layer.kind == "linear":
        return layer.params["w"].shape[1]
    if layer.kind == "conv1d":
        w = layer.params["w"]
        return w.shape[1] * w.shape[2]
    if layer.kind == "gru":
        return layer.params["wz"].shape[1] + layer.n_units
    return 1


# -- raw per-layer scores -----------------------------------------------------


def score_magnitude(layer: Layer) -> np.ndarray:
    """Sum of |weight| per unit over every incoming connection."""
    if layer.kind not in _WEIGHT_PARAMS:
        raise ValueError(f"layer '{layer.name}' has no scorable weights")
    total = np.zeros(layer.n_units, dtype=np.float64)
    for pname in _WEIGHT_PARAMS[layer.kind]:
        w = layer.params[pname].data
        total += np.abs(w).reshape(w.shape[0], -1).sum(axis=1)
    return total


def _magnitude_raw(net: Network) -> dict[str, np.ndarray]:
    return {name: score_magnitude(layer) for name, layer in net.layers.items()}


def _gradient_raw(net: Network, batches, loss_fn) -> dict[str, np.ndarray]:
    if not batches:
        raise ValueError("gradient scoring needs a nonempty validation set")
    acc = {name: np.zeros_like(p.data, dtype=np.float64)
           for name, p in net.named_parameters()}
    net.zero_grad()
    for batch in batches:
        loss_fn(net, batch).backward()
        for name, p in net.named_parameters():
            if p.grad is not None:
                acc[name] += np.abs(p.grad)
        net.zero_grad()
    raw = {}
    for lname, layer in net.layers.items():
        total = np.zeros(layer.n_units, dtype=np.float64)
        for pname in _WEIGHT_PARAMS[layer.kind]:
            g = acc[f"{lname}.{pname}"]
            total += g.reshape(g.shape[0], -1).sum(axis=1)
        raw[lname] = total
    return raw


def _activation_raw(net: Network, batches) -> dict[str, np.ndarray]:
    if not batches:
        raise ValueError("activation scoring needs a nonempty validation set")
    with T.no_grad(), nn.capture("sum") as tape:
        for batch in batches:
            models.forward_batch(net, batch)
    return {name: np.asarray(v, dtype=np.float64) for name, v in tape.data.items()}


def score_normalization(layer: Layer) -> np.ndarray:
    """|gamma| per channel, credited to the units feeding the batchnorm."""
    if layer.kind != "batchnorm":
        raise ValueError(f"layer '{layer.name}' is not a normalization layer")
    if layer.in_source is None:
        raise ValueError(f"normalization layer '{layer.name}' has no preceding layer")
    return np.abs(layer.params["gamma"].data.astype(np.float64))


def _normalization_raw(net: Network) -> dict[str, np.ndarray]:
    return {name: score_normalization(layer)
            for name, layer in net.layers.items() if layer.kind == "batchnorm"}


def target_features(wave: np.ndarray, window: int = 256,
                    max_bins: int = 8) -> np.ndarray:
    """Log-power spectral frames of a waveform, thinned to a few bins.

    Keeps the bins with the largest variance across frames: audio energy
    concentrates in few bins, so an even subset would mostly sample noise.
    """
    cfg = SpectrogramConfig(window_sizes=(window,))
    with T.no_grad():
        (spec,) = T.stft_logmag(Tensor(np.asarray(wave, dtype=np.float32).reshape(-1)),
                                cfg)
    arr = spec.data.astype(np.float64)
    if arr.shape[1] > max_bins:
        sel = np.sort(np.argsort(arr.var(axis=0))[-max_bins:])
        arr = arr[:, sel]
    return arr


def _align(series_len: int, target_len: int):
    n = min(series_len, target_len)
    zi = np.linspace(0, series_len - 1, n).astype(np.int64)
    yi = np.linspace(0, target_len - 1, n).astype(np.int64)
    return zi, yi


def _frame_means(stream: np.ndarray, n_frames: int) -> np.ndarray:
    """Average a (units, steps) stream into n_frames contiguous blocks,
    matching sample-rate activations to frame-rate target features."""
    edges = np.linspace(0, stream.shape[1], n_frames + 1).astype(np.int64)
    cs = np.concatenate([np.zeros((stream.shape[0], 1)), np.cumsum(stream, axis=1)],
                        axis=1)
    return (cs[:, edges[1:]] - cs[:, edges[:-1]]) / np.maximum(np.diff(edges), 1)


def _information_raw(net: Network, items, mi_cfg: mi_mod.MiConfig,
                     layer_names=None) -> dict[str, np.ndarray]:
    if not items:
        raise ValueError("information scoring needs a nonempty validation set")
    feats = []
    for item in items:
        wave = np.asarray(item["wave"], dtype=np.float32)
        if wave.ndim != 2 or wave.shape[0] != 1:
            raise ValueError("information scoring expects single-item batches")
        feats.append(target_features(wave[0]))
    if np.ptp(np.concatenate(feats, axis=0), axis=0).max() == 0:
        raise ValueError("degenerate targets: spectral features have zero variance")
    with T.no_grad(), nn.capture("full") as tape:
        for item in items:
            models.forward_batch(net, item)
    raw = {}
    for name, chunks in tape.data.items():
        if layer_names is not None and name not in layer_names:
            continue
        z_parts, y_parts = [], []
        lo = np.full(chunks[0].shape[0], np.inf)
        hi = np.full(chunks[0].shape[0], -np.inf)
        for chunk, yf in zip(chunks, feats):
            lo = np.minimum(lo, chunk.min(axis=1))
            hi = np.maximum(hi, chunk.max(axis=1))
            if chunk.shape[1] >= yf.shape[0]:
                z_parts.append(_frame_means(chunk, yf.shape[0]))
                y_parts.append(yf)
            else:
                zi, yi = _align(chunk.shape[1], yf.shape[0])
                z_parts.append(chunk[:, zi])
                y_parts.append(yf[yi])
        z_all = np.concatenate(z_parts, axis=1)
        y_all = np.concatenate(y_parts, axis=0)
        scores = np.zeros(z_all.shape[0], dtype=np.float64)
        for u in range(z_all.shape[0]):
            if hi[u] == lo[u]:
                continue  # constant output carries nothing; score stays 0
            scores[u] = mi_mod.estimate_mi(z_all[u], y_all, mi_cfg)
        raw[name] = scores
    return raw


# -- scaling and pooling ------------------------------------------------------


def scale_scores(raw: dict[str, np.ndarray], net: Network,
                 scheme: ScalingScheme) -> dict[str, np.ndarray]:
    scaled = {}
    for name, values in raw.items():
        if scheme.kind == "none":
            scaled[name] = values.copy()
        elif scheme.kind == "layer_max":
            top = values.max() if values.size else 0.0
            scaled[name] = values / top if top > 0 else np.zeros_like(values)
        else:
            scaled[name] = values * np.sqrt(1.0 / fan_in(net.layers[name]))
    return scaled


def _raw_scores(net: Network, criterion: str, batches, loss_fn, mi_cfg,
                info_scope=None) -> dict[str, np.ndarray]:
    if criterion == "magnitude":
        return _magnitude_raw(net)
    if criterion == "normalization":
        return _normalization_raw(net)
    if criterion == "gradient":
        return _gradient_raw(net, batches, loss_fn)
    if criterion == "activation":
        return _activation_raw(net, batches)
    if criterion == "information":
        return _information_raw(net, batches, mi_cfg or mi_mod.MiConfig(),
                                layer_names=info_scope)
    raise ValueError(f"unknown criterion '{criterion}', expected one of {CRITERIA}")


def pool_scores(net: Network, criterion: str, batches=None,
                scheme: ScalingScheme = ScalingScheme(),
                loss_fn=models.compute_loss,
                mi_cfg: mi_mod.MiConfig | None = None) -> dict[str, np.ndarray]:
    """One score vector per trim pool, averaged over scored members."""
    pooled = {m for pool in net.pools.values() for m in pool.members}
    raw = _raw_scores(net, criterion, batches, loss_fn, mi_cfg, info_scope=pooled)
    scaled = scale_scores(raw, net, scheme)
    out = {}
    for pid, pool in net.pools.items():
        member_scores = [scaled[m] for m in pool.members if m in scaled]
        if not member_scores:
            raise ValueError(
                f"criterion '{criterion}' scores no layer in pool '{pid}'"
            )
        score = np.mean(member_scores, axis=0)
        if len(score) != len(pool.kept):
            raise ValueError(
                f"pool '{pid}' expects {len(pool.kept)} scores, got {len(score)}"
            )
        out[pid] = score
    return out
