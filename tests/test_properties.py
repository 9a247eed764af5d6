"""Property tests of the closed-form capacities and the ensemble density.

The capacities run through sweep-modes.  The paper's mode-number claim: at a
fixed power budget P, N identical modes carry a capacity that does not fall
as N grows.  Beside it, Holevo is at least the heterodyne and the homodyne
rate, water-filling is at least the uniform split, and every capacity does
not fall when P grows and does not rise when the thermal photons n or the
additive noise xi grow.  Examples come from hypothesis with
derandomize=True, so every run draws the same ones.

The grid, stated up front: lambda in [1e-12, 1], n in [0, 1], xi in
[0, 0.5], P in [1e-3, 1e3] and N = 1..24; every capacity test but the first
spreads its N modes over (lambda/2, lambda], and a larger P, n or xi stays
on the grid.

Tolerance: TOL(P) = 4e-9 max(P, 1) bits, for a row that should be the
larger one.  Only the Holevo water-fill is inexact: its bisection stops once
the spent power is within d = 1e-10 max(P, 1) of P, and the allocation is
then rescaled to spend exactly P.  By concavity the rescaled row loses at
most d times the larger of two rates per photon: the marginal rate at the
water level and the mean rate C/P.  On this grid both stay below that of a
noise-free lambda = 1 mode at P/N >= 1e-3/24 photons, log2(1 + N/P) + 1/ln2
< 16 bits per photon, so the loss is at most 1.6e-9 max(P, 1).  Printing 12
significant digits moves a value by at most 5e-13 of itself, under 1e-10
bits for the at most 170 bits here.  The float rounding of the sums is far
below both.

On block-form channels, R(C) of a complex K x N matrix C with K, N = 1..4,
singular values in [0, 1.5], n in [0, 1], xi in [0, 0.5] and P in [1e-3,
1e2], the diagonal path of _channel_capacity under the uniform split equals
the general formulas, and pure loss (n = xi = 0, singular values <= 1)
equals sum_k g(lambda_k P/N) (Giovannetti et al., Nat. Photon. 8, 796
(2014)), to TOL_BLOCK = 5e-9 bits.  Every path takes its numbers from a
backward-stable SVD, eigh or slogdet of a matrix M of dimension d <= 8, so
to first order each computed singular value, eigenvalue or log-determinant
argument is off by at most delta(M) = 10 d eps |M| (eps = 2.2e-16; 10 is a
generous constant for the backward error).
- General path: the largest M is the modulated output covariance,
  |M| <= 1.5^2 (P/N + 1/2) + 1.5 * 1.25 + 0.5 < 230, so delta < 4.1e-12.
  A block-form output covariance commutes with Omega, so its symplectic
  eigenvalues are its eigenvalues and move by at most delta too (Weyl).  g
  is concave with g(0) = 0, hence |g(x + delta) - g(x)| <= g(delta) <
  1.7e-10 bits, and Holevo sums at most 8 such terms: 1.4e-9.  het and hom
  take log-determinants of matrices >= I/2, whose at most 8 eigenvalues
  each move ln by at most 2 delta: under 1e-10 bits.
- Diagonal path: the SVD of H_s (|H_s| <= 1.5; it also absorbs the rounding
  of C itself) moves each lambda_k = s_k^2 by at most
  2 * 1.5 * 10 * 8 eps * 1.5 < 8e-14, so lambda_k P/N by at most 8e-12
  photons and each of at most 4 rates by g(8e-12) < 3.1e-10 (N_k moves by
  2e-13 at most, far less): 1.3e-9.
Together that is under 2.7e-9 bits.

The density of the passive ensemble (N, K, M), for N, K <= 300 and
K <= M <= K + 300, is finite and nonnegative on [0, 1] and has mass 1 to
1e-9.  Its integrand is a polynomial of degree N + M - 2 <= 898, so
order-450 Gauss-Legendre quadrature integrates it exactly up to rounding.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from gausscap.capacity import (
    _channel_capacity,
    het_hom_general,
    holevo_general,
    hom_general_aligned,
)
from gausscap.channels import NoiseParams, block_form_channel
from gausscap.cli import main
from gausscap.ensembles import EnsembleSpec, haar_unitary, spectral_density

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

METHODS = ["holevo", "het", "hom"]
ALLOCS = ["uniform", "waterfill"]
N_MAX = 24

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)

lams = st.floats(min_value=1e-12, max_value=1.0)
thermal = st.floats(min_value=0.0, max_value=1.0)
additive = st.floats(min_value=0.0, max_value=0.5)
powers = st.floats(min_value=1e-3, max_value=1e3)


def tol(P):
    return 4e-9 * max(P, 1.0)


def sweep(rule, n, xi, P):
    """{(N, method, alloc): bits} of one sweep-modes run over N = 1..24."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep-modes", "--N-range", "1..%d" % N_MAX,
                     "--lambdas-rule", rule, "--methods", ",".join(METHODS),
                     "--allocs", ",".join(ALLOCS), "--power", repr(P),
                     "--n", repr(n), "--xi", repr(xi)])
    assert code == 0
    rows = {}
    for line in out.getvalue().split("\n")[1:-1]:
        N, method, alloc, bits = line.split(",")
        rows[(int(N), method, alloc)] = float(bits)
    assert len(rows) == N_MAX * len(METHODS) * len(ALLOCS)
    return rows


@PROPERTY
@given(lam=lams, n=thermal, xi=additive, P=powers)
def test_capacity_does_not_fall_with_the_mode_count(lam, n, xi, P):
    rows = sweep(repr(lam), n, xi, P)
    for method in METHODS:
        for alloc in ALLOCS:
            bits = [rows[(N, method, alloc)] for N in range(1, N_MAX + 1)]
            for N, (fewer, more) in enumerate(zip(bits, bits[1:]), start=1):
                assert more >= fewer - tol(P), (method, alloc, N)


@PROPERTY
@given(lam=lams, n=thermal, xi=additive, P=powers)
def test_holevo_bounds_the_measured_rates_and_waterfill_the_uniform(lam, n,
                                                                    xi, P):
    # lambda_k = lam (N + k) / 2N: N distinct modes in (lam/2, lam]
    rows = sweep("%r*(N+k)/(2*N)" % lam, n, xi, P)
    for N in range(1, N_MAX + 1):
        for alloc in ALLOCS:
            holevo = rows[(N, "holevo", alloc)]
            assert holevo >= rows[(N, "het", alloc)] - tol(P), (N, alloc)
            assert holevo >= rows[(N, "hom", alloc)] - tol(P), (N, alloc)
        for method in METHODS:
            assert (rows[(N, method, "waterfill")]
                    >= rows[(N, method, "uniform")] - tol(P)), (N, method)


@PROPERTY
@given(lam=lams, n=thermal, xi=additive, P=powers,
       more=st.floats(min_value=1.0, max_value=10.0))
def test_capacity_does_not_fall_with_the_power(lam, n, xi, P, more):
    # a larger budget P2 = more * P, capped at the top of the grid
    P2 = min(more * P, 1e3)
    rule = "%r*(N+k)/(2*N)" % lam
    lower, upper = sweep(rule, n, xi, P), sweep(rule, n, xi, P2)
    for key, bits in lower.items():
        assert upper[key] >= bits - tol(P2), key


@PROPERTY
@given(lam=lams, n=thermal, xi=additive, P=powers,
       dn=st.floats(min_value=0.0, max_value=1.0),
       dxi=st.floats(min_value=0.0, max_value=0.5))
def test_capacity_does_not_rise_with_the_noise(lam, n, xi, P, dn, dxi):
    # more thermal photons (n + dn <= 1) and more additive noise
    # (xi + dxi <= 0.5), each with the other held
    rule = "%r*(N+k)/(2*N)" % lam
    base = sweep(rule, n, xi, P)
    for noisier in (sweep(rule, min(n + dn, 1.0), xi, P),
                    sweep(rule, n, min(xi + dxi, 0.5), P)):
        for key, bits in base.items():
            assert noisier[key] <= bits + tol(P), key


TOL_BLOCK = 5e-9


@st.composite
def block_channels(draw, max_singular=1.5, noisy=True):
    """(channel, N, s): block_form_channel of C = U[:, :m] diag(s) V[:m, :],
    U and V Haar unitaries of a drawn seed and m = min(K, N)."""
    K, N = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = min(K, N)
    s = draw(st.lists(st.floats(0.0, max_singular), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    C = (haar_unitary(K, rng)[:, :m] @ np.diag(s)
         @ haar_unitary(N, rng)[:m, :])
    noise = (NoiseParams(draw(thermal), draw(additive)) if noisy
             else NoiseParams(0.0, 0.0))
    return block_form_channel(C, noise), N, s


block_powers = st.floats(min_value=1e-3, max_value=1e2)


@PROPERTY
@given(channel=block_channels(), P=block_powers)
def test_diagonal_path_equals_the_general_formulas(channel, P):
    ch, N, _ = channel
    V = (P / N) * np.eye(2 * N)
    general = {"holevo": holevo_general(ch, V),
               "het": het_hom_general(ch, V, "het"),
               "hom": hom_general_aligned(ch, P)}
    for method, bits in general.items():
        res = _channel_capacity(ch, P, method, "uniform")
        assert res.allocation is not None   # it took the diagonal path
        assert abs(res.bits - bits) <= TOL_BLOCK, method


def _g(x):
    """g(x) = (x + 1) log2(x + 1) - x log2 x without cancellation."""
    return (math.log1p(x) + x * math.log1p(1.0 / x)) / math.log(2) if x else 0.0


@PROPERTY
@given(channel=block_channels(max_singular=1.0, noisy=False), P=block_powers)
def test_pure_loss_holevo_is_the_sum_of_g(channel, P):
    ch, N, s = channel
    want = math.fsum(_g(sk * sk * P / N) for sk in s)
    got = _channel_capacity(ch, P, "holevo", "uniform").bits
    assert abs(got - want) <= TOL_BLOCK


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(450)


@PROPERTY
@given(N=st.integers(1, 300), K=st.integers(1, 300), extra=st.integers(0, 300))
def test_density_is_a_probability_density(N, K, extra):
    density = spectral_density(EnsembleSpec(N=N, K=K, M=K + extra))
    lam = 0.5 * (_NODES + 1.0)
    pdf = density.pdf(np.concatenate([lam, [0.0, 1.0]]))
    assert np.isfinite(pdf).all() and (pdf >= 0).all()
    assert 0.5 * np.dot(_WEIGHTS, pdf[:-2]) == pytest.approx(1.0, abs=1e-9)
