"""Haar-random passive channels and their analytic spectral statistics.

Truncating a Haar-random (N+M)-dimensional unitary to its K x N corner block
A_1 gives a random passive channel H_s = R(A_1).  The eigenvalues of
A_1 A_1^dag follow a Jacobi ensemble whose one-point marginal has the closed
form

    p(lambda) = w(lambda) / m * sum_{k=0}^{m-1} p_k(lambda)^2,
    w(lambda) = lambda^a (1-lambda)^b,

with p_k the polynomials orthonormal under w on [0, 1], m = min(K, N),
a = max(K, N) - min(K, N) and b = N + M - K - N (= M - K), valid when b >= 0.
The terms sqrt(w) p_k come from the three-term recurrence of the orthonormal
Jacobi polynomials in x = 1 - 2 lambda, started at sqrt(w / B(a+1, b+1)), so
they stay of order sqrt(m p) where the polynomials and their norms alone
would overflow or underflow.  Expected capacities under uniform power
allocation follow by integrating the single-mode capacity against p(lambda).
Monte Carlo estimates of the same quantity draw the transmissions straight
from stacked Haar corners, one counter-based RNG stream per sample, so
results are bit-identical for a given seed however the samples are batched.
"""

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .capacity import mode_rates, noise_photons
from .channels import NoiseParams, block_form_channel
from .errors import InsufficientEnvironment

__all__ = [
    "EnsembleSpec",
    "JacobiDensity",
    "haar_unitary",
    "passive_channel_sample",
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

# Per-thread (Generator, state template) of _rekeyed_stream.
_streams = threading.local()


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


def _jacobi_recurrence(a, b, m):
    """(alpha, beta) of the orthonormal Jacobi recurrence in x = 1 - 2 lambda.

    The polynomials p_k orthonormal under (1-x)^a (1+x)^b on [-1, 1] satisfy
    x p_k = beta[k+1] p_{k+1} + alpha[k] p_k + beta[k] p_{k-1} for k < m - 1,
    with beta[0] = 0.  alpha and beta are the diagonal and off-diagonal of
    the Jacobi matrix: alpha_k and sqrt(beta_k) of the monic Jacobi
    recurrence (Gautschi, Orthogonal Polynomials: Computation and
    Approximation, 2004).
    """
    k = np.arange(m, dtype=float)
    s = 2.0 * k + a + b
    # alpha_0 = (b - a) / (a + b + 2); the max() only matters at a = b = 0,
    # where the numerator is 0 too
    alpha = (b - a) * (b + a) / np.maximum(s * (s + 2.0), 1.0)
    k, s = k[1:], s[1:]
    beta = np.zeros(m)
    beta[1:] = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b)
                       / (s * s * (s + 1.0) * (s - 1.0)))
    return alpha, beta


@dataclass(frozen=True)
class JacobiDensity:
    """Analytic eigenvalue density of a truncated-unitary ensemble on [0, 1]."""

    a: int
    b: int
    terms: int
    alpha: np.ndarray
    beta: np.ndarray

    def pdf(self, lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        a, b = self.a, self.b
        log_mu0 = (math.lgamma(a + 1) + math.lgamma(b + 1)
                   - math.lgamma(a + b + 2))
        # log w, with lambda^0 = 1 also at lambda = 0 (no 0 * -inf)
        log_w = np.zeros_like(lam)
        with np.errstate(divide="ignore"):
            if a:
                log_w += a * np.log(lam)
            if b:
                log_w += b * np.log1p(-lam)
        # r_k = sqrt(w) p_k from r_0 = sqrt(w / mu_0), mu_0 the mass of w
        r_prev, r = np.zeros_like(lam), np.exp(0.5 * (log_w - log_mu0))
        acc = r * r
        x = 1.0 - 2.0 * lam
        alpha, beta = self.alpha, self.beta
        for k in range(self.terms - 1):
            r_prev, r = r, ((x - alpha[k]) * r - beta[k] * r_prev) / beta[k + 1]
            acc += r * r
        return acc / self.terms


def spectral_density(spec):
    """Analytic density of the transmission eigenvalues of a passive ensemble.

    Raises
    ------
    InsufficientEnvironment
        If b = N + M - K - N < 0, i.e. M < K: the truncated-unitary law
        needs at least as many environment as receiver modes.
    """
    m = min(spec.K, spec.N)
    a = max(spec.K, spec.N) - m
    b = spec.N + spec.M - m - max(spec.K, spec.N)
    if b < 0:
        raise InsufficientEnvironment(
            "spectral density requires b = N+M-min-max >= 0 (M >= K); "
            "got N=%d K=%d M=%d" % (spec.N, spec.K, spec.M)
        )
    alpha, beta = _jacobi_recurrence(a, b, m)
    return JacobiDensity(a=a, b=b, terms=m, alpha=alpha, beta=beta)


@lru_cache(maxsize=None)
def _gauss_legendre_01(*orders):
    """Gauss-Legendre nodes and weights on [0, 1], one order after another."""
    rules = [np.polynomial.legendre.leggauss(order) for order in orders]
    t = np.concatenate([rule[0] for rule in rules])
    w = np.concatenate([rule[1] for rule in rules])
    return 0.5 * (t + 1.0), 0.5 * w


def _escalation(terms):
    """(w, c1, pdf) at each order of the Gauss-Legendre escalation.

    `terms(lam)` gives the integrand's two factors at the nodes.  Orders 32
    and 64, where nearly every integral stops, are evaluated in one call over
    their 96 stacked nodes and yielded as two slices; orders 128 to 2048
    follow one call each.
    """
    lam, w = _gauss_legendre_01(32, 64)
    c1, pdf = terms(lam)
    yield w[:32], c1[:32], pdf[:32]
    yield w[32:], c1[32:], pdf[32:]
    for order in (128, 256, 512, 1024, 2048):
        lam, w = _gauss_legendre_01(order)
        yield (w,) + terms(lam)


def expected_capacity_passive(spec, P, method):
    """Ensemble-expected capacity of random passive channels, analytically.

    C = min(K, N) * integral_0^1 C_1(lambda; P/N, n, xi) p(lambda) d lambda,
    with C_1 the single-mode capacity of the chosen method at uniform power
    P/N.  The integral is evaluated by Gauss-Legendre quadrature with order
    escalation until two successive orders agree to 1e-8 relative.
    """
    if P < 0:
        raise ValueError("power must be nonnegative")
    density = spectral_density(spec)
    m = min(spec.K, spec.N)
    P_mode = P / spec.N
    n, xi = spec.noise.n, spec.noise.xi

    def terms(lam):
        c1 = mode_rates(lam, P_mode, noise_photons(lam, n, xi), method)
        return c1, density.pdf(lam)

    value = 0.0
    prev = None
    for w, c1, pdf in _escalation(terms):
        value = m * float(np.sum(w * c1 * pdf))
        if prev is not None and abs(value - prev) <= 1e-8 * max(abs(value), 1e-12):
            break
        prev = value
    return value


def _base_seed(spec, seed):
    """`seed`, else spec.seed, checked to be a Philox key word: an int in [0, 2**64)."""
    base = spec.seed if seed is None else seed
    if not 0 <= base < 2 ** 64 or int(base) != base:
        raise ValueError("seed must be an integer in [0, 2**64), got %r" % (base,))
    return base


def philox_stream(seed, index):
    """Independent RNG stream for one Monte-Carlo sample.

    Philox is counter-based: keying it with (seed, sample_index) yields
    statistically independent streams whose draws do not depend on how
    samples are distributed over workers.
    """
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekeyed_stream(seed, index):
    """philox_stream(seed, index), made by re-keying this thread's Generator.

    Each thread keeps one Generator(Philox).  Setting its state to key
    [seed, index], counter 0 and an empty buffer starts exactly the stream of
    a new Philox(key=[seed, index]) at a fraction of the cost of building
    one.  The Generator is reused by the thread's next call, so draw from it
    before asking for another stream.
    """
    cached = getattr(_streams, "cached", None)
    if cached is None:
        gen = np.random.Generator(np.random.Philox(0))
        state = {"bit_generator": "Philox",
                 "state": {"counter": np.zeros(4, dtype=np.uint64),
                           "key": np.zeros(2, dtype=np.uint64)},
                 "buffer": np.zeros(4, dtype=np.uint64),
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        cached = _streams.cached = (gen, state)
    gen, state = cached
    key = state["state"]["key"]
    key[0], key[1] = seed, index
    gen.bit_generator.state = state
    return gen


def run_indexed(eval_one, samples, threads=None):
    """Evaluate eval_one(i) for i in range(samples) into an array, in order.

    The output array is indexed by sample, so reductions over it (mean, std)
    are bit-identical no matter how many threads computed the entries.  With
    T = min(threads or 1, samples) > 1, worker w evaluates the contiguous
    block samples*w//T <= i < samples*(w+1)//T: one task per worker, and
    never more workers than samples.
    """
    threads = min(threads or 1, samples)
    out = np.empty(samples)

    def run_block(lo, hi):
        for i in range(lo, hi):
            out[i] = eval_one(i)

    if threads <= 1:
        run_block(0, samples)
        return out
    # imported here: only threaded runs need it, and it pulls in logging
    from concurrent.futures import ThreadPoolExecutor

    bounds = [samples * w // threads for w in range(threads + 1)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        tasks = [pool.submit(run_block, bounds[w], bounds[w + 1])
                 for w in range(threads)]
    for task in tasks:
        task.result()
    return out


def mc_expected_capacity_passive(spec, P, method, samples, seed=None):
    """Monte-Carlo estimate of the expected passive-channel capacity.

    Draws the transmissions of each sample (passive_transmissions), applies
    the uniform allocation P/N on the min(K, N) signal-carrying modes, and
    returns (mean, standard error) in bits.  The seed defaults to spec.seed.
    This is the active-ensemble estimator at sigma2 = 0, which runs batched
    in the calling thread.
    """
    from .active import mc_capacity_active

    return mc_capacity_active(replace(spec, sigma2=0.0), P, method, samples, seed)


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
    base_seed = _base_seed(spec, seed)
    out = np.empty((samples, min(spec.K, spec.N)))
    with _one_blas_thread():
        for start, corners in _haar_corner_chunks(spec, samples, base_seed):
            singulars = np.linalg.svd(corners, compute_uv=False)
            out[start: start + len(corners)] = singulars ** 2
    return out


def sample_lambda_spectrum(spec, samples, seed=None):
    """passive_transmissions(spec, samples, seed) as one flat array of
    samples * min(K, N) eigenvalues of A_1 A_1^dag."""
    return passive_transmissions(spec, samples, seed).ravel()
