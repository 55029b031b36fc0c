"""Real-input DFT of the last axis, on numpy's pocketfft.

The pair that spectral code calls: `fft` gives the one-sided spectrum of a
real signal, `ifft` takes one back to a real signal of a stated length.
Callers look both up through this module, so a profiler can wrap them in
one place. float32 input stays in complex64/float32.
"""

from __future__ import annotations

import numpy as np


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def fft(x: np.ndarray) -> np.ndarray:
    """One-sided DFT of the real last axis: n//2 + 1 bins, any length n."""
    return np.fft.rfft(x)


def ifft(spec: np.ndarray, n: int) -> np.ndarray:
    """Real signal of length n whose one-sided DFT is `spec` (1/n convention)."""
    return np.fft.irfft(spec, n)
