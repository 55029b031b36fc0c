"""Radix-2 iterative FFT over the last axis.

Self-contained so spectral code has no dependency on numpy's FFT; lengths
are restricted to powers of two. Twiddle factors are computed in float64
and the butterflies run in complex64, which keeps relative error a few
orders of magnitude below the 1e-4 contract against a direct DFT.
"""

from __future__ import annotations

import numpy as np

_REV_CACHE: dict[int, np.ndarray] = {}
_TWIDDLE_CACHE: dict[int, list[np.ndarray]] = {}


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _bit_reversal(n: int) -> np.ndarray:
    perm = _REV_CACHE.get(n)
    if perm is None:
        levels = n.bit_length() - 1
        idx = np.arange(n)
        rev = np.zeros(n, dtype=np.int64)
        for i in range(levels):
            rev = (rev << 1) | ((idx >> i) & 1)
        perm = rev
        _REV_CACHE[n] = perm
    return perm


def _twiddles(n: int) -> list[np.ndarray]:
    tw = _TWIDDLE_CACHE.get(n)
    if tw is None:
        tw = []
        size = 2
        while size <= n:
            half = size // 2
            ang = -2.0j * np.pi * np.arange(half) / size
            tw.append(np.exp(ang).astype(np.complex64))
            size *= 2
        _TWIDDLE_CACHE[n] = tw
    return tw


def fft(x: np.ndarray) -> np.ndarray:
    """Forward DFT of the last axis. Length must be a power of two."""
    n = x.shape[-1]
    if not is_pow2(n):
        raise ValueError(f"fft length must be a power of two, got {n}")
    out = np.ascontiguousarray(x, dtype=np.complex64)[..., _bit_reversal(n)]
    if n == 1:
        return out
    lead = out.shape[:-1]
    for stage, tw in enumerate(_twiddles(n)):
        size = 2 << stage
        half = size // 2
        out = out.reshape(*lead, n // size, size)
        even = out[..., :half]
        odd = out[..., half:] * tw
        out = np.concatenate([even + odd, even - odd], axis=-1)
    return out.reshape(*lead, n)


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse DFT of the last axis (unitary 1/n convention)."""
    n = x.shape[-1]
    return np.conj(fft(np.conj(x))) / n
