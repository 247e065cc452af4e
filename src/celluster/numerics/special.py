"""The logistic function on float64 arrays.

It is the one formula shared by the dense adjacency decoder, the fused
reconstruction criterion and the likelihood's dropout head. It stays here
rather than using scipy.special.expit because it is faster on loss_rec's
row blocks and costs nothing to import.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Logistic function, elementwise; exp only ever sees -|x|, so it never
    overflows."""
    x = np.asarray(x, dtype=np.float64)
    # Worked in place and without a data-dependent select: on n x n blocks
    # fresh temporaries and np.where cost more than the exp itself.
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0, out=np.empty_like(x))  # 1 where x >= 0 (e <= 1), else e
    e += 1.0
    out /= e
    return out
