"""Shared fixtures: an mpmath oracle for the Jacobi-law eigenvalue density."""

import sys

import pytest

TINY = sys.float_info.min


class JacobiOracle:
    """The truncated-unitary density in mpmath at 60 digits.

    It sums lambda^a (1-lambda)^b P_k^{(a,b)}(1-2 lambda)^2 / (m h_k) over
    k < m, with the unnormalized Jacobi recurrence and the norms h_k from
    loggamma: a route independent of the package's orthonormal recurrence.
    (mpmath.jacobi itself fails to converge at a = b = 590.)
    """

    def __init__(self, mp):
        self.mp = mp

    def density(self, a, b, m, lam):
        mp = self.mp
        with mp.workdps(60):
            lam = mp.mpf(lam)
            x = 1 - 2 * lam
            polys = [mp.mpf(1), ((a + b + 2) * x + a - b) / 2]
            for n in range(2, m):
                s = 2 * n + a + b
                polys.append(
                    ((s - 1) * (s * (s - 2) * x + a * a - b * b) * polys[-1]
                     - 2 * (n + a - 1) * (n + b - 1) * s * polys[-2])
                    / (2 * n * (n + a + b) * (s - 2)))
            inv_h = [(2 * k + a + b + 1) * mp.exp(
                mp.loggamma(k + a + b + 1) + mp.loggamma(k + 1)
                - mp.loggamma(k + a + 1) - mp.loggamma(k + b + 1))
                for k in range(m)]
            series = mp.fsum(p * p * h for p, h in zip(polys, inv_h))
            return lam ** a * (1 - lam) ** b * series / m

    def unit_of_12th_digit(self, exact):
        """One unit of the 12th significant digit of exact.

        Below the smallest normal double, 2.2e-308, no double carries 12
        digits, so the unit there is that of 2.2e-308, 1e-319.
        """
        mp = self.mp
        return mp.mpf(10) ** (mp.floor(mp.log10(max(abs(exact), TINY))) - 11)

    def assert_agrees(self, got, exact, where=None):
        """got equals exact within one unit of its 12th significant digit."""
        assert abs(got - exact) <= self.unit_of_12th_digit(exact), (
            where, got, float(exact))


@pytest.fixture
def jacobi_oracle():
    return JacobiOracle(pytest.importorskip("mpmath"))
