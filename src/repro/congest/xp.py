"""Vectorized integer helpers for the batched tensor plane."""

from __future__ import annotations

import numpy as np


def int_bit_length(values):
    """Vectorized ``int.bit_length`` for non-negative int64 arrays.

    Uses the ``frexp`` exponent (``v = m * 2**e`` with ``0.5 <= m < 1``
    implies ``e == v.bit_length()``), which is exact for values below
    ``2**53`` -- far above any distance, round counter, or payload
    window the bundled protocols encode.  Zero maps to 0, matching
    ``(0).bit_length()``.
    """
    v = np.asarray(values)
    _mantissa, exponent = np.frexp(v.astype(np.float64))
    return np.where(v > 0, exponent, 0).astype(np.int64)
