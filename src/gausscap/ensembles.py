"""Haar-random passive channels and their analytic spectral statistics.

Truncating a Haar-random (N+M)-dimensional unitary to its K x N corner block
A_1 gives a random passive channel H_s = R(A_1).  The eigenvalues of
A_1 A_1^dag follow a Jacobi ensemble whose one-point marginal has the closed
form

    p(lambda) = lambda^a (1-lambda)^b / m * sum_{k=0}^{m-1} P_k^{(a,b)}(1-2 lambda)^2 / h_k

with m = min(K, N), a = max(K, N) - min(K, N) and b = N + M - K - N (= M - K),
valid when b >= 0.  Expected capacities under uniform power allocation follow
by integrating the single-mode capacity against p(lambda).  Monte Carlo
estimates of the same quantity draw the transmissions straight from stacked
Haar corners, one counter-based RNG stream per sample, so results are
bit-identical for a given seed however the samples are batched.
"""

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ._kernels import _jacobi_terms, jacobi_sq_series
from .capacity import mode_rates, noise_photons
from .channels import NoiseParams, block_form_channel
from .errors import InsufficientEnvironment, UnphysicalOutput
from .phasespace import real_representation

__all__ = [
    "EnsembleSpec",
    "JacobiDensity",
    "haar_unitary",
    "passive_channel_sample",
    "jacobi_polynomial",
    "jacobi_norm_h",
    "spectral_density",
    "expected_capacity_passive",
    "mc_expected_capacity_passive",
    "passive_transmissions",
    "sample_lambda_spectrum",
]

# Bytes of Gaussian draws stacked per batched QR.  It bounds the working set
# whatever the sample count; results do not depend on it.
_CHUNK_BYTES = 4 << 20

_BLAS_LOCK = threading.Lock()
_blas_state = {"users": 0, "threads": None}


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of a random-channel ensemble.

    N transmitter (signal) modes, K receiver modes, M environment modes,
    thermal/additive noise, squeezing variance sigma2 (0 means passive) and
    the base RNG seed.
    """

    N: int
    K: int
    M: int
    noise: NoiseParams = field(default_factory=NoiseParams)
    sigma2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.N, self.K, self.M) < 1:
            raise ValueError("N, K, M must all be >= 1")
        if self.K > self.N + self.M:
            raise InsufficientEnvironment(
                "K = %d receiver modes cannot be cut out of an (N+M) = %d "
                "mode unitary" % (self.K, self.N + self.M)
            )
        if not math.isfinite(self.sigma2):
            raise ValueError("sigma2 must be finite")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")


def haar_unitary(dim, rng):
    """Draw a Haar-distributed unitary via QR with phase correction.

    QR-factor a complex standard-Gaussian matrix and absorb the phases of
    diag(R) into Q's columns, which makes the distribution exactly Haar.
    """
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return _phase_fixed_qr(z)


def _phase_fixed_qr(z):
    """Haar unitaries from complex standard Gaussians, one per trailing matrix.

    z is a (..., dim, dim) stack of matrices with independent real and
    imaginary standard-normal parts.  One stacked QR of z / sqrt(2) and a
    column phase fix Q diag(R_kk / |R_kk|) give each unitary exactly as a
    separate haar_unitary call would (Mezzadri, math-ph/0609050).
    """
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def passive_channel_sample(spec, rng):
    """One random passive channel: H_s = R(A_1) with A_1 a Haar-block corner."""
    u = haar_unitary(spec.N + spec.M, rng)
    return block_form_channel(u[: spec.K, : spec.N], spec.noise)


def jacobi_polynomial(k, a, b, x):
    """Jacobi polynomial P_k^{(a,b)}(x) by the three-term recurrence."""
    if k < 0:
        raise ValueError("polynomial degree must be >= 0")
    for p in _jacobi_terms(x, a, b, k + 1):
        pass
    return p


def jacobi_norm_h(k, a, b):
    """Normalization h_k^{(a,b)} = (k+a)!(k+b)! / [(2k+a+b+1)(k+a+b)!k!].

    Evaluated in log space (lgamma) so large degrees do not overflow.
    """
    log_h = (
        math.lgamma(k + a + 1)
        + math.lgamma(k + b + 1)
        - math.lgamma(k + a + b + 1)
        - math.lgamma(k + 1)
        - math.log(2 * k + a + b + 1)
    )
    return math.exp(log_h)


@dataclass(frozen=True)
class JacobiDensity:
    """Analytic eigenvalue density of a truncated-unitary ensemble on [0, 1]."""

    a: int
    b: int
    terms: int
    inv_h: np.ndarray

    def pdf(self, lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        series = jacobi_sq_series(1.0 - 2.0 * lam, float(self.a), float(self.b),
                                  self.inv_h)
        return np.power(lam, self.a) * np.power(1.0 - lam, self.b) * series / self.terms

    __call__ = pdf


def spectral_density(spec):
    """Analytic density of the transmission eigenvalues of a passive ensemble.

    Raises
    ------
    InsufficientEnvironment
        If b = N + M - K - N < 0, i.e. M < K: the truncated-unitary law
        needs at least as many environment as receiver modes.
    UnphysicalOutput
        If a normalization 1 / h_k is not a finite double, which happens
        when h_k underflows at large a + b.
    """
    m = min(spec.K, spec.N)
    a = max(spec.K, spec.N) - m
    b = spec.N + spec.M - m - max(spec.K, spec.N)
    if b < 0:
        raise InsufficientEnvironment(
            "spectral density requires b = N+M-min-max >= 0 (M >= K); "
            "got N=%d K=%d M=%d" % (spec.N, spec.K, spec.M)
        )
    norms = [jacobi_norm_h(k, a, b) for k in range(m)]
    if min(norms) == 0.0 or math.isinf(1.0 / min(norms)):
        raise UnphysicalOutput(
            "Jacobi normalization h_k underflows double precision for "
            "N=%d K=%d M=%d" % (spec.N, spec.K, spec.M))
    inv_h = np.array([1.0 / h for h in norms])
    return JacobiDensity(a=a, b=b, terms=m, inv_h=inv_h)


@lru_cache(maxsize=None)
def _gauss_legendre_01(order):
    t, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (t + 1.0), 0.5 * w


def expected_capacity_passive(spec, P, method, allocation="uniform"):
    """Ensemble-expected capacity of random passive channels, analytically.

    C = min(K, N) * integral_0^1 C_1(lambda; P/N, n, xi) p(lambda) d lambda,
    with C_1 the single-mode capacity of the chosen method at uniform power
    P/N.  The integral is evaluated by Gauss-Legendre quadrature with order
    escalation until two successive orders agree to 1e-8 relative.
    """
    if allocation != "uniform":
        raise ValueError("only uniform allocation is supported")
    if P < 0:
        raise ValueError("power must be nonnegative")
    density = spectral_density(spec)
    m = min(spec.K, spec.N)
    P_mode = P / spec.N
    n, xi = spec.noise.n, spec.noise.xi
    value = 0.0
    prev = None
    for order in (32, 64, 128, 256, 512, 1024, 2048):
        lam, w = _gauss_legendre_01(order)
        c1 = mode_rates(lam, P_mode, noise_photons(lam, n, xi), method)
        value = m * float(np.sum(w * c1 * density.pdf(lam)))
        if prev is not None and abs(value - prev) <= 1e-8 * max(abs(value), 1e-12):
            break
        prev = value
    return value


def philox_stream(seed, index):
    """Independent RNG stream for one Monte-Carlo sample.

    Philox is counter-based: keying it with (seed, sample_index) yields
    statistically independent streams whose draws do not depend on how
    samples are distributed over workers.
    """
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def resolve_threads(threads=None):
    """Worker count: explicit argument, else GAUSSCAP_THREADS, else 1."""
    if threads is None:
        threads = int(os.environ.get("GAUSSCAP_THREADS", "1"))
    return max(1, int(threads))


def run_indexed(eval_one, samples, threads=None):
    """Evaluate eval_one(i) for i in range(samples) into an array, in order.

    The output array is indexed by sample, so reductions over it (mean, std)
    are bit-identical no matter how many threads computed the entries.
    """
    threads = resolve_threads(threads)
    out = np.empty(samples)
    if threads == 1:
        for i in range(samples):
            out[i] = eval_one(i)
    else:
        # imported here: only threaded runs need it, and it pulls in logging
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i, value in enumerate(pool.map(eval_one, range(samples))):
                out[i] = value
    return out


def mc_expected_capacity_passive(spec, P, method, samples, seed=None, threads=None):
    """Monte-Carlo estimate of the expected passive-channel capacity.

    Draws the transmissions of each sample (passive_transmissions), applies
    the uniform allocation P/N on the min(K, N) signal-carrying modes, and
    returns (mean, standard error) in bits.  The seed defaults to spec.seed.
    This is the active-ensemble estimator at sigma2 = 0, which runs batched
    in the calling thread whatever `threads` says.
    """
    from .active import mc_capacity_active

    return mc_capacity_active(replace(spec, sigma2=0.0), P, method, samples,
                              seed, threads, allow_rect=True)


@lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    numpy wheels ship OpenBLAS in numpy.libs (Linux, Windows) or
    numpy/.dylibs (macOS); a numpy built against another BLAS gives None.
    """
    import ctypes
    import glob

    here = os.path.dirname(os.path.abspath(np.__file__))
    for path in (glob.glob(os.path.join(here + ".libs", "*openblas*"))
                 + glob.glob(os.path.join(here, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, "%s_get_num_threads%s" % (prefix, suffix), None)
            put = getattr(lib, "%s_set_num_threads%s" % (prefix, suffix), None)
            if get is not None and put is not None:
                get.restype, put.restype = ctypes.c_int, None
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore it.

    The passive sampler's batched LAPACK calls work matrix by matrix on
    (N+M) x N blocks; extra OpenBLAS threads make them slower, spin on the
    other cores, and round differently, so on one thread the transmissions
    do not depend on the core count.  Nested and concurrent blocks share one
    saved count, restored when the last of them ends.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    with _BLAS_LOCK:
        if _blas_state["users"] == 0:
            _blas_state["threads"] = get()
            put(1)
        _blas_state["users"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_state["users"] -= 1
            if _blas_state["users"] == 0:
                put(_blas_state["threads"])


def _haar_corner_chunks(spec, samples, seed):
    """K x N corner blocks A_1 of the Haar draws of samples 0..samples-1.

    Yields (start, corners) in sample order, with corners a stacked
    (chunk, K, N) complex array for samples start, start + 1, ...  Sample i
    takes the same (N+M) x (N+M) complex Gaussian from philox_stream(seed, i)
    as haar_unitary, real part then imaginary part.  A thin QR of its first N
    columns gives the first N columns of that unitary up to one phase per
    column, which changes neither the singular values of A_1 nor A_1 A_1^dag.
    """
    dim = spec.N + spec.M
    per_chunk = max(1, _CHUNK_BYTES // (16 * dim * dim))
    draws = np.empty((min(per_chunk, samples), 2, dim, dim))
    for start in range(0, samples, per_chunk):
        chunk = draws[: min(per_chunk, samples - start)]
        for j, g in enumerate(chunk):
            philox_stream(seed, start + j).standard_normal(out=g)
        z = chunk[:, 0, :, : spec.N] + 1j * chunk[:, 1, :, : spec.N]
        yield start, np.linalg.qr(z)[0][:, : spec.K, :]


def passive_transmissions(spec, samples, seed=None):
    """Transmissions lambda_k = svd(A_1)^2 of Monte-Carlo passive samples.

    Returns a (samples, min(K, N)) array whose row i, sorted descending, holds
    the transmissions of passive_channel_sample(spec, philox_stream(seed, i))
    without building the channel.  The seed defaults to spec.seed.
    """
    base_seed = spec.seed if seed is None else seed
    out = np.empty((samples, min(spec.K, spec.N)))
    with _one_blas_thread():
        for start, corners in _haar_corner_chunks(spec, samples, base_seed):
            singulars = np.linalg.svd(corners, compute_uv=False)
            out[start: start + len(corners)] = singulars ** 2
    return out


def sample_lambda_spectrum(spec, samples, seed=None, pair_tol=1e-8):
    """Empirical transmission eigenvalues from the real representation.

    For each sample, the spectrum of H_s H_s^T is doubly degenerate (each
    eigenvalue of A_1 A_1^dag appears twice).  Consecutive sorted eigenvalues
    are paired and averaged; a pair gap above `pair_tol` raises, as that
    would falsify the doubling.  Returns a flat array of
    samples * min(K, N) eigenvalues.
    """
    base_seed = spec.seed if seed is None else seed
    m = min(spec.K, spec.N)
    out = np.empty((samples, m))
    with _one_blas_thread():
        for start, corners in _haar_corner_chunks(spec, samples, base_seed):
            H = real_representation(corners)
            w = np.linalg.eigvalsh(H @ np.swapaxes(H, -1, -2))[:, ::-1]
            gaps = np.abs(w[:, 0::2] - w[:, 1::2])
            if gaps.max() > pair_tol:
                raise AssertionError(
                    "real-representation spectrum not doubly degenerate: gap %g"
                    % gaps.max()
                )
            out[start: start + len(corners)] = 0.5 * (w[:, 0::2] + w[:, 1::2])[:, :m]
    return out.ravel()
