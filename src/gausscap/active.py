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
per-sample RNG streams as the passive ensembles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .capacity import _channel_capacity
from .channels import GaussianChannel, quad_indices, sigma_matrix
from .ensembles import haar_unitary, passive_channel_sample, philox_stream, run_indexed
from .errors import InsufficientEnvironment, InvalidChannel
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
    """Draw (U_1, R, U_2) and assemble the Bogoliubov pair (A, B)."""
    u1 = haar_unitary(dim, rng)
    r = rng.standard_normal(dim) * math.sqrt(sigma2)
    u2 = haar_unitary(dim, rng)
    a = (u1 * np.cosh(r)) @ u2
    b = (u1 * np.sinh(r)) @ np.conj(u2)
    return BogoliubovSample(U1=u1, U2=u2, R=r, A=a, B=b)


def bogoliubov_to_symplectic(sample):
    """Symplectic phase-space matrix of a Bogoliubov pair (q's then p's)."""
    apb = sample.A + sample.B
    amb = sample.A - sample.B
    return np.block([[apb.real, -amb.imag], [apb.imag, amb.real]])


def active_sample(spec, rng, allow_rect=False):
    """One random channel from the active ensemble of `spec`.

    At sigma2 = 0 the parametrization collapses to a single Haar unitary, so
    the draw consumes exactly the same RNG stream as a passive sample and
    reproduces it bit for bit.  For sigma2 > 0 the signal block of the full
    Bogoliubov transform is extracted and dressed with the thermal-environment
    noise Y = (n + 1/2)|Sigma| + xi I, which reduces to the passive thermal
    construction as sigma2 -> 0 and is the minimal noise (1/2)|Sigma| + xi I
    at n = 0.

    Receiver modes are signal modes, so K > N is refused unless `allow_rect`
    is set, in which case the first K output modes of the enlarged transform
    (signal and environment alike) are kept.
    """
    N, K, M = spec.N, spec.K, spec.M
    if K > N and not allow_rect:
        raise InsufficientEnvironment(
            "active sampling requires K <= N (receiver modes are signal "
            "modes); pass allow_rect to truncate the enlarged transform"
        )
    if spec.sigma2 == 0:
        return passive_channel_sample(spec, rng)
    dim = N + M
    sample = bogoliubov_sample(dim, spec.sigma2, rng)
    H_tilde = bogoliubov_to_symplectic(sample)
    rows = quad_indices(np.arange(K), dim)
    cols = quad_indices(np.arange(N), dim)
    H_s = H_tilde[np.ix_(rows, cols)]
    Y = (spec.noise.n + 0.5) * matrix_abs(sigma_matrix(H_s))
    Y = Y + spec.noise.xi * np.eye(2 * K)
    return GaussianChannel(H_s, (Y + Y.T) / 2.0, spec.noise)


def mc_capacity_active(spec, P, method, samples, seed=None, threads=None,
                       waterfill=False, allow_rect=False, dump_path=None):
    """Monte-Carlo capacity of the active ensemble: (mean, standard error).

    Each sample is evaluated by capacity._channel_capacity with power split
    uniformly over the N signal modes.  `waterfill` turns on per-sample
    water-filling, which applies only to samples that reduce to the
    diagonal path (sigma2 = 0 draws); general-path samples always use the
    uniform protocol.  `dump_path` writes a per-sample CSV
    "sample_index,capacity_bits,max_singular_sq" for convergence diagnostics.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if method not in ("holevo", "het", "hom"):
        raise ValueError("method must be holevo, het or hom")
    base_seed = spec.seed if seed is None else seed
    alloc = "waterfill" if waterfill else "uniform"
    max_sq = None if dump_path is None else np.empty(samples)

    def eval_one(i):
        rng = philox_stream(base_seed, i)
        ch = active_sample(spec, rng, allow_rect)
        if max_sq is not None:
            max_sq[i] = np.linalg.norm(ch.H_s, 2) ** 2
        try:
            return _channel_capacity(ch, P, method, alloc).bits
        except InvalidChannel:
            # water-filling needs the diagonal path; fall back to uniform
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
