"""Elementwise numerical kernels.

The bosonic entropy function g, applied over arrays, dominates profile time
outside of LAPACK calls.  It takes a 1-D float64 array and returns a new one.
"""

import numpy as np


def entropy_g_arr(x):
    """g(x) = (x+1) log2(x+1) - x log2 x in bits, elementwise; entries <= 0 map to 0."""
    x = np.maximum(x, 0.0)
    xp1 = x + 1.0
    out = xp1 * np.log2(xp1)
    nz = x > 0.0
    out[nz] -= x[nz] * np.log2(x[nz])
    return out
