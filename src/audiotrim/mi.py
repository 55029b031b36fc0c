"""Mutual information between each unit's activations and target features.

The estimator is an ensemble of binned plug-in estimates: both variables
are rank-normalised (multi-dimensional targets are first reduced to
their leading principal direction), hashed into b x b buckets for each
resolution b, and the plug-in MI values are averaged. Seeded noise of
1% of the activations' standard deviation is added to them first so ties
(relu zeros, quantised outputs) do not collapse the ranking. Values are
in nats; an average below zero is reported as zero.

The estimator is biased upward at independence by roughly
(b-1)^2 / (2N) per resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NOISE_SIGMA_RELATIVE = 0.01
MIN_SAMPLES = 100


@dataclass(frozen=True)
class MiConfig:
    bin_counts: tuple[int, ...] = (8, 16, 32)
    max_samples: int = 2048

    def __post_init__(self):
        if not self.bin_counts:
            raise ValueError("bin_counts must not be empty")
        for b in self.bin_counts:
            if b < 2:
                raise ValueError(f"bin counts must be >= 2, got {b}")
        if self.max_samples < MIN_SAMPLES:
            raise ValueError(f"max_samples must be >= {MIN_SAMPLES}, got {self.max_samples}")


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    """Map values to (0, 1) by average rank; ties share their mean rank."""
    n = len(x)
    order = np.argsort(x, kind="stable")
    sx = x[order]
    starts = np.r_[0, np.flatnonzero(np.diff(sx)) + 1]
    ends = np.r_[starts[1:], n]
    avg = (starts + ends - 1) / 2.0
    ranks_sorted = np.repeat(avg, ends - starts)
    ranks = np.empty(n)
    ranks[order] = ranks_sorted
    return (ranks + 0.5) / n


def _principal_direction(y: np.ndarray) -> np.ndarray:
    centered = y - y.mean(axis=0)
    cov = centered.T @ centered / len(y)
    _, vecs = np.linalg.eigh(cov)
    return centered @ vecs[:, -1]


def _plugin_mi(zr: np.ndarray, yr: np.ndarray, bins: int) -> float:
    n = len(zr)
    zi = np.minimum((zr * bins).astype(np.int64), bins - 1)
    yi = np.minimum((yr * bins).astype(np.int64), bins - 1)
    counts = np.bincount(zi * bins + yi, minlength=bins * bins)
    p = counts.reshape(bins, bins).astype(np.float64) / n
    pz = p.sum(axis=1)
    py = p.sum(axis=0)
    nz = p > 0
    return float((p[nz] * np.log(p[nz] / np.outer(pz, py)[nz])).sum())


def _prepare(z, y, cfg: MiConfig):
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or len(y) != z.shape[-1]:
        raise ValueError(f"z has {z.shape[-1]} samples but y has shape {y.shape}")
    if not (np.isfinite(z).all() and np.isfinite(y).all()):
        raise ValueError("mi estimation needs finite inputs")
    if len(y) > cfg.max_samples:
        # evenly spaced, deterministic subsample
        idx = np.linspace(0, len(y) - 1, cfg.max_samples).astype(np.int64)
        z, y = z[..., idx], y[idx]
    if len(y) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {len(y)}")
    if (np.ptp(z, axis=-1) == 0).any():
        raise ValueError("z is constant; dependency undefined")
    if np.ptp(y, axis=0).max() == 0:
        raise ValueError("y is constant; dependency undefined")
    return z, y


def estimate_mi(z, y, cfg: MiConfig = MiConfig(), seed: int = 0) -> float | np.ndarray:
    """MI in nats between each row of activations z (..., N) and targets
    y (N,) or (N, d): a float for a 1-d z, else an array of z's leading
    shape. Every row gets the same noise draw, scaled to its own spread."""
    z, y = _prepare(z, y, cfg)
    y1 = y[:, 0] if y.shape[1] == 1 else _principal_direction(y)
    if np.ptp(y1) == 0:
        raise ValueError("y collapses to a constant principal direction")
    yr = _rank_normalize(y1)
    noise = np.random.default_rng(seed).standard_normal(len(y))
    rows = z.reshape(-1, len(y))
    est = np.empty(len(rows))
    for i, row in enumerate(rows):
        sigma = _NOISE_SIGMA_RELATIVE * row.std()
        zr = _rank_normalize(row + sigma * noise)
        est[i] = max(0.0, float(np.mean([_plugin_mi(zr, yr, b) for b in cfg.bin_counts])))
    return float(est[0]) if z.ndim == 1 else est.reshape(z.shape[:-1])
