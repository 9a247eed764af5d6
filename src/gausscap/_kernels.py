"""Elementwise numerical kernels.

Two loops dominate profile time outside of LAPACK calls: the bosonic entropy
function applied over arrays, and the squared-Jacobi-polynomial series of the
spectral density.  Both take 1-D float64 arrays and return new 1-D float64
arrays.
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


def _jacobi_terms(x, a, b, nterms):
    """Yield P_0^{(a,b)}(x), ..., P_{nterms-1}^{(a,b)}(x) by the three-term recurrence.

    `x` may be a float or an array; P_0 is the float 1.0 either way.
    """
    if nterms < 1:
        return
    p_prev = 1.0
    yield p_prev
    if nterms == 1:
        return
    p_cur = 0.5 * ((a + b + 2.0) * x + (a - b))
    yield p_cur
    for n in range(2, nterms):
        c0 = 2.0 * n * (n + a + b) * (2.0 * n + a + b - 2.0)
        c1 = (2.0 * n + a + b - 1.0) * (2.0 * n + a + b) * (2.0 * n + a + b - 2.0)
        c2 = (2.0 * n + a + b - 1.0) * (a * a - b * b)
        c3 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + a + b)
        p_prev, p_cur = p_cur, ((c1 * x + c2) * p_cur - c3 * p_prev) / c0
        yield p_cur


def jacobi_sq_series(x, a, b, inv_h):
    """sum_k inv_h[k] * P_k^{(a,b)}(x)^2 over k < len(inv_h)."""
    acc = np.zeros(np.shape(x))
    for h, p in zip(inv_h, _jacobi_terms(x, a, b, len(inv_h))):
        acc = acc + h * p * p
    return acc
