"""Printed-precision checks against mpmath evaluations at 60 digits.

The density of the passive ensemble (ensembles.spectral_density) must agree
with the oracle in conftest.py within one unit of the 12th significant digit
of every value, the precision the CLI prints (below the normal double range,
within one unit of the 12th digit of the smallest normal double).

The grid, stated up front: N in {1, 2, 5, 16, 60, 200, 400}; K in
{ceil(N/2), N, 3N}; M in {ceil(N/2), 2N, 3N} with M >= K; lambda on 21
equally spaced points of [0, 1] for N <= 60, and on 5 for N >= 200.  Both
ends are on every grid.  (200, 200, 600) is the configuration whose
unnormalized Jacobi series used to overflow at lambda = 0 and 1.
"""

import numpy as np
import pytest

from gausscap.ensembles import EnsembleSpec, spectral_density


def _configs():
    for N in (1, 2, 5, 16, 60, 200, 400):
        half = -(-N // 2)
        for K in sorted({half, N, 3 * N}):
            for M in sorted({half, 2 * N, 3 * N}):
                if M >= K:
                    yield N, K, M


@pytest.mark.parametrize("N,K,M", list(_configs()))
def test_density_agrees_with_mpmath_to_12_digits(jacobi_oracle, N, K, M):
    m = min(K, N)
    a, b = max(K, N) - m, M - K
    lam = np.linspace(0.0, 1.0, 21 if N <= 60 else 5)
    got = spectral_density(EnsembleSpec(N=N, K=K, M=M)).pdf(lam)
    for x, p in zip(lam, got):
        jacobi_oracle.assert_agrees(p, jacobi_oracle.density(a, b, m, x), x)
