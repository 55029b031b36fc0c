"""Per-unit importance scores for structured pruning.

Five criteria, each producing one non-negative raw score per output
unit, where lower means safer to remove:

* magnitude: sum of |weight| over a unit's incoming connections;
* gradient: sum of |dL/dW| accumulated over a validation set;
* activation: sum of |unit output| over validation samples and frames;
* normalization: |gamma| of the batchnorm tied to the unit;
* information: estimated mutual information between the unit's output
  stream and log-spectral features of the target audio.

Raw scores are scaled per layer by one of SCALINGS before units from
different layers are compared in global selection: none keeps them,
layer_max divides by the layer's largest score, and fan_scaled
multiplies by 1/sqrt(fan-in). Layers tied into one trim pool are
averaged into a single score per unit.
"""

from __future__ import annotations

import numpy as np

from . import mi as mi_mod
from . import models, nn
from . import tensor as T
from .nn import Layer, Network
from .tensor import SpectrogramConfig

CRITERIA = ("magnitude", "gradient", "activation", "normalization", "information")
SCALINGS = ("none", "layer_max", "fan_scaled")

# information scoring's targets: log-power frames of this many samples,
# thinned to this many bins
_FEATURE_WINDOW = 256
_FEATURE_BINS = 8


def fan_in(layer: Layer) -> int:
    """Input scalars each unit reads: one for an elementwise kind."""
    return layer.reads if layer.spec.weights else 1


def _scored_params(layer: Layer) -> tuple[str, ...]:
    """What magnitude and gradient scores sum per unit: the connection
    weights, or an elementwise kind's first (scale) parameter."""
    spec = layer.spec
    return spec.weights or tuple(spec.params)[:1]


# -- raw per-layer scores -----------------------------------------------------


def score_magnitude(layer: Layer) -> np.ndarray:
    """Sum of |weight| per unit over every incoming connection."""
    total = np.zeros(layer.n_units, dtype=np.float64)
    for pname in _scored_params(layer):
        w = layer.params[pname].data
        total += np.abs(w).reshape(w.shape[0], -1).sum(axis=1)
    return total


def _magnitude_raw(net: Network) -> dict[str, np.ndarray]:
    return {name: score_magnitude(layer) for name, layer in net.layers.items()}


def _gradient_raw(net: Network, batches) -> dict[str, np.ndarray]:
    if not batches:
        raise ValueError("gradient scoring needs a nonempty validation set")
    acc = {name: np.zeros_like(p.data, dtype=np.float64)
           for name, p in net.named_parameters()}
    net.zero_grad()
    for batch in batches:
        models.compute_loss(net, batch).backward()
        for name, p in net.named_parameters():
            if p.grad is not None:
                acc[name] += np.abs(p.grad)
        net.zero_grad()
    raw = {}
    for lname, layer in net.layers.items():
        total = np.zeros(layer.n_units, dtype=np.float64)
        for pname in _scored_params(layer):
            g = acc[f"{lname}.{pname}"]
            total += g.reshape(g.shape[0], -1).sum(axis=1)
        raw[lname] = total
    return raw


def _activation_raw(net: Network, batches) -> dict[str, np.ndarray]:
    if not batches:
        raise ValueError("activation scoring needs a nonempty validation set")
    sums = {}
    with T.no_grad(), nn.capture() as tape:
        for batch in batches:
            models.forward_batch(net, batch)
            # reduce each pass as it lands, so the tape holds one pass
            for name, passes in tape.items():
                red = np.abs(passes.pop()).sum(axis=1)
                sums[name] = sums[name] + red if name in sums else red
    return {name: np.asarray(v, dtype=np.float64) for name, v in sums.items()}


def _normalization_raw(net: Network) -> dict[str, np.ndarray]:
    """|gamma| of each layer without connection weights (a batchnorm),
    credited to the units feeding it."""
    return {name: score_magnitude(layer)
            for name, layer in net.layers.items() if not layer.spec.weights}


def target_features(wave: np.ndarray) -> np.ndarray:
    """Log-power spectral frames of a waveform, thinned to a few bins.

    Keeps the bins with the largest variance across frames: audio energy
    concentrates in few bins, so an even subset would mostly sample noise.
    """
    (spec,) = T.stft_logmag(np.asarray(wave).reshape(-1),
                            SpectrogramConfig(window_sizes=(_FEATURE_WINDOW,)))
    arr = spec.astype(np.float64)
    if arr.shape[1] > _FEATURE_BINS:
        sel = np.sort(np.argsort(arr.var(axis=0))[-_FEATURE_BINS:])
        arr = arr[:, sel]
    return arr


def _aligned(chunk: np.ndarray, feats: np.ndarray):
    """One item's (units, n) stream and (n, bins) targets, where n is
    min(stream steps, feature frames): a longer stream is averaged into
    one contiguous block per frame (sample-rate activations against
    frame-rate features), a shorter one is matched to evenly spaced frames."""
    steps, frames = chunk.shape[1], len(feats)
    if steps < frames:
        return chunk, feats[np.linspace(0, frames - 1, steps).astype(np.int64)]
    edges = np.linspace(0, steps, frames + 1).astype(np.int64)
    cs = np.concatenate([np.zeros((chunk.shape[0], 1)), np.cumsum(chunk, axis=1)],
                        axis=1)
    return (cs[:, edges[1:]] - cs[:, edges[:-1]]) / np.maximum(np.diff(edges), 1), feats


def _targets(items) -> list[np.ndarray]:
    """Each validation item's target features, in item order."""
    if not items:
        raise ValueError("information scoring needs a nonempty validation set")
    feats = []
    for item in items:
        wave = np.asarray(item["wave"], dtype=np.float32)
        if wave.ndim != 2 or wave.shape[0] != 1:
            raise ValueError("information scoring expects single-item batches")
        feats.append(target_features(wave[0]))
    return feats


def _streams(net: Network, items) -> dict[str, list[np.ndarray]]:
    """Each recorded layer's (units, steps) output per item."""
    with T.no_grad(), nn.capture() as tape:
        for item in items:
            models.forward_batch(net, item)
    return tape


def check_information_samples(net: Network, items):
    """Raise the estimator's too-few-samples error before any training.
    Runs on an eval-mode clone, so `net` stays as it is."""
    feats = _targets(items)
    for name, chunks in _streams(net.clone().eval(), items).items():
        n = sum(_aligned(chunk, yf)[0].shape[1] for chunk, yf in zip(chunks, feats))
        if name in net.pool_of and n < mi_mod.MIN_SAMPLES:
            raise ValueError(f"need at least {mi_mod.MIN_SAMPLES} samples, got {n}")


def _information_raw(net: Network, items, mi_cfg: mi_mod.MiConfig) -> dict[str, np.ndarray]:
    """MI scores of every pooled layer's units."""
    feats = _targets(items)
    if np.ptp(np.concatenate(feats, axis=0), axis=0).max() == 0:
        raise ValueError("degenerate targets: spectral features have zero variance")
    raw = {}
    for name, chunks in _streams(net, items).items():
        if name not in net.pool_of:
            continue
        z_parts, y_parts = zip(*(_aligned(c, yf) for c, yf in zip(chunks, feats)))
        # a constant output carries nothing; its score stays 0
        live = np.ptp(np.concatenate(chunks, axis=1), axis=1) > 0
        scores = np.zeros(len(live), dtype=np.float64)
        if live.any():
            scores[live] = mi_mod.estimate_mi(np.concatenate(z_parts, axis=1)[live],
                                              np.concatenate(y_parts, axis=0), mi_cfg)
        raw[name] = scores
    return raw


# -- scaling and pooling ------------------------------------------------------


def scale_scores(raw: dict[str, np.ndarray], net: Network,
                 scaling: str) -> dict[str, np.ndarray]:
    if scaling not in SCALINGS:
        raise ValueError(f"scaling must be one of {SCALINGS}, got {scaling!r}")
    scaled = {}
    for name, values in raw.items():
        if scaling == "none":
            scaled[name] = values.copy()
        elif scaling == "layer_max":
            top = values.max() if values.size else 0.0
            scaled[name] = values / top if top > 0 else np.zeros_like(values)
        else:
            scaled[name] = values * np.sqrt(1.0 / fan_in(net.layers[name]))
    return scaled


def _raw_scores(net: Network, criterion: str, batches, mi_cfg) -> dict[str, np.ndarray]:
    if criterion == "magnitude":
        return _magnitude_raw(net)
    if criterion == "normalization":
        return _normalization_raw(net)
    if criterion == "gradient":
        return _gradient_raw(net, batches)
    if criterion == "activation":
        return _activation_raw(net, batches)
    if criterion == "information":
        return _information_raw(net, batches, mi_cfg or mi_mod.MiConfig())
    raise ValueError(f"unknown criterion '{criterion}', expected one of {CRITERIA}")


def pool_scores(net: Network, criterion: str, scaling: str, batches=None,
                mi_cfg: mi_mod.MiConfig | None = None) -> dict[str, np.ndarray]:
    """One score vector per trim pool, averaged over scored members."""
    raw = _raw_scores(net, criterion, batches, mi_cfg)
    scaled = scale_scores(raw, net, scaling)
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
