"""Random weakly-active Gaussian channels via the Bogoliubov parametrization.

A general (N+M)-mode symplectic transform is parametrized by two unitaries
and a vector of squeezing parameters r:

    A = U_1 cosh(R) U_2,    B = U_1 sinh(R) U_2*   (elementwise conjugate),

which satisfy A A^dag - B B^dag = I and A B^T = B A^T.  In the q-then-p
quadrature ordering the transform reads

    H = [[Re(A+B), -Im(A-B)], [Im(A+B), Re(A-B)]].

Sampling U_1, U_2 from the Haar measure and r_i ~ Normal(0, sigma2) gives a
random symplectic transform that is a perturbation of a passive one for
small sigma2; the signal block plus its minimal thermal noise is the random
active channel.  Monte-Carlo capacity estimates use the same deterministic
per-sample RNG streams as the passive ensembles, and at sigma2 = 0 reduce to
the batched passive sampler.
"""

import math
from dataclasses import dataclass

import numpy as np

from .capacity import _capacity_table, _channel_capacity
from .channels import GaussianChannel, sigma_matrix
from .ensembles import (
    _base_seed,
    _phase_fixed_qr,
    _rekeyed_stream,
    passive_channel_sample,
    passive_transmissions,
    run_indexed,
)
from .errors import InsufficientEnvironment
from .phasespace import matrix_abs

__all__ = ["BogoliubovSample", "bogoliubov_sample", "bogoliubov_to_symplectic",
           "active_sample", "mc_capacity_active"]


@dataclass(frozen=True)
class BogoliubovSample:
    U1: np.ndarray
    U2: np.ndarray
    R: np.ndarray
    A: np.ndarray
    B: np.ndarray


def bogoliubov_sample(dim, sigma2, rng):
    """Draw (U_1, R, U_2) and assemble the Bogoliubov pair (A, B).

    One standard_normal call takes, in order, U_1's real and imaginary
    Gaussian parts, r and U_2's real and imaginary parts: the stream that
    haar_unitary, r, haar_unitary would draw one after another.  One stacked
    phase-fixed QR then gives both unitaries.
    """
    sq = dim * dim
    g = rng.standard_normal(4 * sq + dim)
    parts = np.stack([g[: 2 * sq], g[2 * sq + dim:]]).reshape(2, 2, dim, dim)
    u1, u2 = _phase_fixed_qr(parts[:, 0] + 1j * parts[:, 1])
    r = g[2 * sq: 2 * sq + dim] * math.sqrt(sigma2)
    a = (u1 * np.cosh(r)) @ u2
    b = (u1 * np.sinh(r)) @ np.conj(u2)
    return BogoliubovSample(U1=u1, U2=u2, R=r, A=a, B=b)


def _quadrature_blocks(apb, amb):
    # [[Re(A+B), -Im(A-B)], [Im(A+B), Re(A-B)]] for any rows and columns of
    # the pair, so the signal block needs no full transform.
    K, N = apb.shape
    H = np.empty((2 * K, 2 * N))
    H[:K, :N] = apb.real
    np.negative(amb.imag, out=H[:K, N:])
    H[K:, :N] = apb.imag
    H[K:, N:] = amb.real
    return H


def bogoliubov_to_symplectic(sample):
    """Symplectic phase-space matrix of a Bogoliubov pair (q's then p's)."""
    return _quadrature_blocks(sample.A + sample.B, sample.A - sample.B)


def _check_receivers(spec, allow_rect):
    if spec.K > spec.N and not allow_rect:
        raise InsufficientEnvironment(
            "active sampling requires K <= N (receiver modes are signal "
            "modes); pass allow_rect=True (--allow-rect-active on the command "
            "line) to truncate the enlarged transform"
        )


def active_sample(spec, rng, allow_rect=False):
    """One random channel from the active ensemble of `spec`.

    At sigma2 = 0 the parametrization collapses to a single Haar unitary, so
    the draw consumes exactly the same RNG stream as a passive sample and
    reproduces it bit for bit.  For sigma2 > 0 the signal block of the full
    Bogoliubov transform is extracted and dressed with the thermal-environment
    noise Y = (n + 1/2)|Sigma| + xi I, which reduces to the passive thermal
    construction as sigma2 -> 0 and is the minimal noise (1/2)|Sigma| + xi I
    at n = 0.

    For sigma2 > 0, receiver modes are signal modes, so K > N is refused
    unless `allow_rect` is set, in which case the first K output modes of the
    enlarged transform (signal and environment alike) are kept.
    """
    if spec.sigma2 == 0:
        return passive_channel_sample(spec, rng)
    _check_receivers(spec, allow_rect)
    N, K = spec.N, spec.K
    sample = bogoliubov_sample(N + spec.M, spec.sigma2, rng)
    A, B = sample.A[:K, :N], sample.B[:K, :N]
    H_s = _quadrature_blocks(A + B, A - B)
    Y = (spec.noise.n + 0.5) * matrix_abs(sigma_matrix(H_s))
    Y = Y + spec.noise.xi * np.eye(2 * K)
    return GaussianChannel(H_s, (Y + Y.T) / 2.0, spec.noise)


def mc_capacity_active(spec, P, method, samples, seed=None, threads=None,
                       allow_rect=False, dump_path=None):
    """Monte-Carlo capacity of the active ensemble: (mean, standard error).

    Every sample splits the power uniformly, P/N per signal mode.  At
    sigma2 = 0 the transmissions of all samples are drawn batched
    (ensembles.passive_transmissions), building no channel and using no
    `threads`; for sigma2 > 0 each sample is built by active_sample and
    evaluated by capacity._channel_capacity on `threads` workers.
    `dump_path` writes a per-sample CSV
    "sample_index,capacity_bits,max_singular_sq" for convergence diagnostics.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if method not in ("holevo", "het", "hom"):
        raise ValueError("method must be holevo, het or hom")
    if P < 0:
        raise ValueError("power must be nonnegative")
    if spec.sigma2 == 0:
        # receiver modes beyond N have lambda = 0 and carry exactly 0 bits,
        # so each sample's row holds its min(K, N) transmissions
        lams = passive_transmissions(spec, samples, seed)
        bits = _capacity_table(lams, lams.shape[1], spec.N, spec.noise.n,
                               spec.noise.xi, P, method, "uniform")[0]
        max_sq = lams[:, 0]
    else:
        _check_receivers(spec, allow_rect)
        base_seed = _base_seed(spec, seed)
        max_sq = None if dump_path is None else np.empty(samples)

        def eval_one(i):
            ch = active_sample(spec, _rekeyed_stream(base_seed, i), allow_rect)
            if max_sq is not None:
                max_sq[i] = np.linalg.norm(ch.H_s, 2) ** 2
            return _channel_capacity(ch, P, method, "uniform").bits

        bits = run_indexed(eval_one, samples, threads)
    if dump_path is not None:
        with open(dump_path, "w", newline="") as fh:
            fh.write("sample_index,capacity_bits,max_singular_sq\n")
            for i in range(samples):
                fh.write("%d,%.12g,%.12g\n" % (i, bits[i], max_sq[i]))
    mean = float(np.mean(bits))
    se = float(np.std(bits, ddof=1) / math.sqrt(samples))
    return mean, se
