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


# numpy transforms float32 input in float64, through a float64 copy and a
# complex128 result that together take four times the complex64 output;
# fft hands numpy at most this many input values per call
_BLOCK = 1 << 16


def fft(x: np.ndarray) -> np.ndarray:
    """One-sided DFT of the real last axis: n//2 + 1 bins, any length n.

    Rows transform independently, so a large stack of rows goes to numpy
    a block of rows at a time: the same bits as one call, with numpy's
    float64 temporaries bounded at about 1 MB."""
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    step = max(1, _BLOCK // n)
    out = np.empty((len(rows), n // 2 + 1), dtype=np.result_type(x, np.complex64))
    for i in range(0, len(rows), step):
        out[i : i + step] = np.fft.rfft(rows[i : i + step])
    return out.reshape(x.shape[:-1] + (n // 2 + 1,))


def ifft(spec: np.ndarray, n: int) -> np.ndarray:
    """Real signal of length n whose one-sided DFT is `spec` (1/n convention)."""
    return np.fft.irfft(spec, n)
