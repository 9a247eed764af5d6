"""Capacity formulas for Gaussian channels.

Holevo information with quantum water-filling, heterodyne/homodyne capacities
(per-mode and general multivariate), asymptotic limits, and the classical
Shannon water-filling baseline.  All results are in bits.

`params` arguments are sequences of per-singular-mode triples
(lambda_k, n, xi) as produced by decomposition.diagonal_channel_params; the
effective output noise photon number of such a mode is

    N_k = (lambda_k - 1)/2 + (n + 1/2)|1 - lambda_k| + xi .
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import entropy_g_arr
from .decomposition import _mixes_quadratures, diagonal_channel_params
from .errors import (
    InvalidChannel,
    NegativeEntropyArgument,
    NoFeasibleWaterlevel,
    NonThermalNoise,
    SingularNoise,
    UnphysicalOutput,
    ZeroNoiseClassical,
)
from .phasespace import symplectic_eigenvalues

__all__ = [
    "PowerAllocation",
    "CapacityResult",
    "noise_photons",
    "mode_rates",
    "holevo_diagonal",
    "holevo_general",
    "waterfill_holevo",
    "het_hom_per_mode",
    "waterfill_het_hom",
    "het_hom_general",
    "hom_general_aligned",
    "asymptotic_limits",
    "classical_capacity",
    "diagonal_capacity",
]

_LN2 = math.log(2.0)
_EPS = np.finfo(float).eps
_METHOD_NAMES = {"het": "heterodyne", "hom": "homodyne"}


@dataclass(frozen=True)
class PowerAllocation:
    """Mean photon numbers per singular mode, summing to at most `total`.

    The budget test is sum(per_mode) <= total + 1e-9 + 4 n eps |total|, with
    n modes and eps the double-precision machine epsilon.  Splitting the
    budget n ways (or rescaling an allocation onto it) and summing the parts
    in floating point rounds by at most about n eps of the total, whatever
    the summation order, so the relative term forgives that rounding with a
    margin of 4 and nothing more; 1e-9 photons is the absolute slack.
    """

    per_mode: np.ndarray
    total: float

    def __post_init__(self):
        if not math.isfinite(self.total):
            raise ValueError("power budget must be finite")
        p = np.asarray(self.per_mode, dtype=float)
        # written so that NaN fails each test; +inf fails the budget
        if p.size and not (p.min() >= 0):
            raise ValueError("allocations must be finite and nonnegative")
        slack = 1e-9 + 4.0 * p.size * _EPS * abs(self.total)
        if not (p.sum() <= self.total + slack):
            raise ValueError("allocation exceeds the power budget")
        object.__setattr__(self, "per_mode", p)


@dataclass(frozen=True)
class CapacityResult:
    bits: float
    method: str
    allocation: PowerAllocation
    waterlevel: Optional[float] = None


def uniform_allocation(n_modes, P, n_signal_modes=None):
    """P/N photons on each of the first min(n_modes, N) singular modes.

    `n_signal_modes` defaults to n_modes; pass the channel's input mode count
    when the params list carries extra zero-transmission output modes.
    """
    N = n_modes if n_signal_modes is None else n_signal_modes
    per_mode = np.zeros(n_modes)
    per_mode[: min(n_modes, N)] = P / N
    return PowerAllocation(per_mode, P)


def noise_photons(lams, n, xi):
    """Output noise photon number N_k of a single-mode thermal channel."""
    lams = np.asarray(lams, dtype=float)
    return (lams - 1.0) / 2.0 + (np.asarray(n) + 0.5) * np.abs(1.0 - lams) + xi


class _Modes:
    """One diagonal configuration as arrays: transmissions and noise.

    `ns` and `xis` are the thermal photons and additive noise, arrays like
    `lams` or scalars shared by every mode.  The noise photons N_k are
    computed and checked on first use and kept, so a caller that evaluates
    several methods and allocations of one configuration pays for them once.
    """

    __slots__ = ("lams", "ns", "xis", "_noise")

    def __init__(self, lams, ns, xis):
        self.lams, self.ns, self.xis = lams, ns, xis
        self._noise = None

    def noise(self):
        """N_k of every mode; NegativeEntropyArgument if one is below 0."""
        if self._noise is None:
            Nk = noise_photons(self.lams, self.ns, self.xis)
            if Nk.size and Nk.min() < -1e-12:
                raise NegativeEntropyArgument(
                    "noise photon number %g < 0; unphysical parameters"
                    % Nk.min())
            self._noise = Nk
        return self._noise


def _modes(params):
    """`params` as _Modes: (lambda_k, n, xi) triples, or _Modes as is."""
    if isinstance(params, _Modes):
        return params
    arr = np.asarray(params, dtype=float).reshape(-1, 3)
    return _Modes(arr[:, 0], arr[:, 1], arr[:, 2])


def _checked_noise(params):
    modes = _modes(params)
    return modes.lams, modes.noise()


def mode_rates(lams, P, Nk, method):
    """Per-mode rates in bits of single-mode channels, elementwise.

    With signal photons ns_k = lambda_k P_k and noise photons N_k:

        holevo: g(ns_k + N_k) - g(N_k)
        het:    log2(1 + ns_k / (N_k + 1))
        hom:    (1/2) log2(1 + 2 ns_k / (N_k + 1/2))

    (homodyne assumes the modulation power is concentrated in the measured
    quadrature).
    """
    ns = lams * P
    if method == "holevo":
        x_out = ns + Nk
        if x_out.size and x_out.min() < -1e-12:
            raise NegativeEntropyArgument("modulated output photon number < 0")
        return entropy_g_arr(x_out) - entropy_g_arr(Nk)
    if method == "het":
        return np.log2(1.0 + ns / (Nk + 1.0))
    if method == "hom":
        return 0.5 * np.log2(1.0 + 2.0 * ns / (Nk + 0.5))
    raise ValueError("method must be 'holevo', 'het' or 'hom'")


def _diagonal_bits(params, alloc, method):
    lams, Nk = _checked_noise(params)
    if alloc.per_mode.shape != lams.shape:
        raise ValueError("allocation length must match the number of modes")
    return float(np.add.reduce(mode_rates(lams, alloc.per_mode, Nk, method)))


def holevo_diagonal(params, alloc):
    """Holevo information of parallel single-mode channels, in bits.

    chi = sum_k g(lambda_k P_k + N_k) - g(N_k).
    """
    return _diagonal_bits(params, alloc, "holevo")


def holevo_general(ch, V_mod):
    """Holevo information of an arbitrary channel under Gaussian modulation.

    chi = sum_k g(nubar_k - 1/2) - g(nu_k - 1/2), with nubar_k the symplectic
    eigenvalues of the modulated output H(V_mod + I/2)H^T + Y and nu_k those
    of the unmodulated output H H^T/2 + Y.
    """
    H, Y = ch.H_s, ch.Y
    V_mod = np.asarray(V_mod, dtype=float)
    dim_in = 2 * ch.in_modes
    if V_mod.shape != (dim_in, dim_in):
        raise ValueError("modulation covariance must be 2N x 2N")
    vac = 0.5 * np.eye(dim_in)
    out_bare = H @ vac @ H.T + Y
    out_mod = H @ (V_mod + vac) @ H.T + Y
    nu = symplectic_eigenvalues((out_bare + out_bare.T) / 2.0)
    if nu.min() < 0.5 - 1e-8:
        raise UnphysicalOutput(
            "output symplectic eigenvalue %g below the vacuum floor" % nu.min()
        )
    nu_bar = symplectic_eigenvalues((out_mod + out_mod.T) / 2.0)
    return float(
        np.sum(entropy_g_arr(nu_bar - 0.5)) - np.sum(entropy_g_arr(nu - 0.5))
    )


def waterfill_holevo(params, P):
    """Optimal Holevo power allocation via quantum water-filling.

    Solves for mu > 1 in

        P = sum_k (1/lambda_k) { 1/(mu^{1/lambda_k} - 1) - N_k }+

    by bisection on w = ln mu (the left side is strictly decreasing in mu),
    then evaluates chi at that allocation.  Modes with lambda_k = 0 carry no
    power and no information.
    """
    if P < 0:
        raise NoFeasibleWaterlevel("power budget must be nonnegative")
    lams, Nk = _checked_noise(params)
    active = lams > 0
    if P == 0 or not active.any():
        alloc = PowerAllocation(np.zeros(lams.shape), float(P))
        mu = None
        if active.any():
            # threshold water level: the mu at which the best mode turns on
            with np.errstate(divide="ignore"):
                thresholds = (1.0 + 1.0 / Nk[active]) ** lams[active]
            mu = float(np.max(thresholds))
        return CapacityResult(0.0, "holevo", alloc, mu)

    la, Na = lams[active], Nk[active]

    # The water-filled output photon target of mode k is
    # x_k = 1/(mu^{1/lambda_k} - 1) at w = ln mu: expm1 keeps precision near
    # mu -> 1, and an overflow to inf maps x_k to 0, so one errstate covers
    # the whole search.  Each step computes the per-mode powers
    # {x_k - N_k}+ / lambda_k into one buffer, which holds the allocation of
    # the last w evaluated.
    buf = np.empty(la.shape)

    def power_at(w):
        np.divide(w, la, out=buf)
        np.expm1(buf, out=buf)
        np.divide(1.0, buf, out=buf)
        np.subtract(buf, Na, out=buf)
        np.maximum(buf, 0.0, out=buf)
        np.divide(buf, la, out=buf)
        return float(np.add.reduce(buf))

    with np.errstate(over="ignore"):
        w_lo, w_hi = 1e-12, 1.0
        while power_at(w_lo) < P:
            w_lo /= 2.0
            if w_lo < 1e-300:
                raise NoFeasibleWaterlevel("power budget too large to bracket")
        while power_at(w_hi) > P:
            w_hi *= 2.0
        target_tol = 1e-10 * max(P, 1.0)
        for _ in range(200):
            w_mid = 0.5 * (w_lo + w_hi)
            diff = power_at(w_mid) - P
            if abs(diff) <= target_tol:
                break
            if diff > 0:
                w_lo = w_mid
            else:
                w_hi = w_mid
        else:
            w_mid = w_lo   # spends >= P, so the rescale below spends P
            power_at(w_mid)
    per_mode = np.zeros(lams.shape)
    per_mode[active] = buf
    # absorb the bisection residual so the allocation spends exactly P
    total = per_mode.sum()
    if not math.isfinite(total):
        raise NoFeasibleWaterlevel(
            "water-filled allocation is not finite: %s" % total)
    if total > 0.0:
        per_mode *= P / total
    alloc = PowerAllocation(per_mode, float(P))
    bits = float(np.add.reduce(mode_rates(lams, per_mode, Nk, "holevo")))
    return CapacityResult(bits, "holevo", alloc, float(math.exp(w_mid)))


def het_hom_per_mode(params, alloc, kind):
    """Heterodyne or homodyne capacity of parallel single-mode channels.

    The sum over modes of the het or hom rate of mode_rates.
    """
    if kind not in _METHOD_NAMES:
        raise ValueError("kind must be 'het' or 'hom'")
    return _diagonal_bits(params, alloc, kind)


def _waterfill_floors(floors, P):
    # Exact classical water-filling: allocate P_k = {mu - f_k}+ with the
    # water level mu fixed by the budget.  Sort the floors, then for the m
    # cheapest modes mu = (P + sum of their floors)/m; the correct m is the
    # smallest one whose water level does not clear the next floor, or all
    # modes with a finite floor.
    floors = np.asarray(floors, dtype=float)
    order = np.argsort(floors)
    f = floors[order]
    finite = int(np.count_nonzero(np.isfinite(f)))
    if finite == 0:
        return np.zeros(floors.shape), None
    levels = (P + np.cumsum(f[:finite])) / np.arange(1, finite + 1)
    stops = np.flatnonzero(levels[:-1] <= f[1:finite])
    m = int(stops[0]) + 1 if stops.size else finite
    mu = levels[m - 1]
    alloc = np.zeros(floors.shape)
    alloc[order[:m]] = np.maximum(mu - f[:m], 0.0)
    return alloc, float(mu)


def waterfill_het_hom(params, P, kind):
    """Water-filled heterodyne/homodyne capacity.

    Both objectives are classical water-filling problems over per-mode noise
    floors: maximizing sum log2(1 + P_k/f_k) (times 1/2 for homodyne, which
    rescales the objective but not the argmax) gives P_k = {mu - f_k}+ with

        het: f_k = (N_k + 1) / lambda_k
        hom: f_k = (N_k + 1/2) / (2 lambda_k)
    """
    if kind not in _METHOD_NAMES:
        raise ValueError("kind must be 'het' or 'hom'")
    if P < 0:
        raise NoFeasibleWaterlevel("power budget must be nonnegative")
    lams, Nk = _checked_noise(params)
    with np.errstate(divide="ignore"):
        if kind == "het":
            floors = np.where(lams > 0, (Nk + 1.0) / lams, np.inf)
        else:
            floors = np.where(lams > 0, (Nk + 0.5) / (2.0 * lams), np.inf)
    per_mode, mu = _waterfill_floors(floors, float(P))
    alloc = PowerAllocation(per_mode, float(P))
    bits = float(np.add.reduce(mode_rates(lams, per_mode, Nk, kind)))
    return CapacityResult(bits, _METHOD_NAMES[kind], alloc, mu)


def _check_nonsingular(noise):
    """Raise SingularNoise unless cond(noise) = s_max / s_min <= 1e14.

    One values-only SVD, as np.linalg.cond takes; a 0/0 or x/0 ratio is
    NaN or inf and counts as singular.
    """
    s = np.linalg.svd(noise, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        if not s[0] / s[-1] <= 1e14:
            raise SingularNoise("measurement noise covariance is singular")


def het_hom_general(ch, V_mod, kind):
    """Multivariate-Gaussian mutual information for het/hom measurement.

    het: (1/2) log2 det[I + S (N + I/2)^{-1}] with S = H V_mod H^T and
    N = H H^T / 2 + Y (the extra I/2 is the heterodyne vacuum penalty).
    hom: same with S, N restricted to the q quadrature of each output mode
    (rows and columns 0..K-1) and no penalty.
    """
    if kind not in _METHOD_NAMES:
        raise ValueError("kind must be 'het' or 'hom'")
    H, Y = ch.H_s, ch.Y
    V_mod = np.asarray(V_mod, dtype=float)
    S = H @ V_mod @ H.T
    N = 0.5 * H @ H.T + Y
    if kind == "het":
        N = N + 0.5 * np.eye(N.shape[0])
    else:
        K = ch.out_modes
        S, N = S[:K, :K], N[:K, :K]
    _check_nonsingular(N)
    _, ld = np.linalg.slogdet(np.stack([N, N + S]))
    return 0.5 * (ld[1] - ld[0]) / _LN2


def hom_general_aligned(ch, P):
    """Homodyne capacity of a general channel measured along its normal modes.

    When the channel does not split into parallel single-mode blocks, a
    lab-frame q measurement mixes modes and quadratures and throws away rate;
    the modulated quadratures have to follow the normal modes of H_s instead.
    This takes the SVD H_s = U diag(s) V^T, measures one direction of each
    descending near-degenerate pair of output singular directions, and puts a
    modulation variance of 2P/N into each matching input direction (P/N
    photons per measured mode).  On block-form channels this reduces exactly
    to the per-mode homodyne formula under a uniform split.
    """
    if P < 0:
        raise ValueError("power must be nonnegative")
    H, Y = ch.H_s, ch.Y
    u, s, _ = np.linalg.svd(H)
    m = min(ch.out_modes, ch.in_modes)
    sel = u[:, 0:2 * m:2]
    noise = sel.T @ (0.5 * H @ H.T + Y) @ sel
    _check_nonsingular(noise)
    sig = np.diag((2.0 * P / ch.in_modes) * s[0:2 * m:2] ** 2)
    _, ld = np.linalg.slogdet(np.stack([noise, noise + sig]))
    return 0.5 * (ld[1] - ld[0]) / _LN2


def asymptotic_limits(P, kind):
    """Many-mode limits of the identity-channel capacities: het P/ln2, hom 2P/ln2."""
    if kind not in _METHOD_NAMES:
        raise ValueError("kind must be 'het' or 'hom'")
    if P < 0:
        raise ValueError("power must be nonnegative")
    return P / _LN2 if kind == "het" else 2.0 * P / _LN2


def classical_capacity(lambdas, xi, P):
    """Classical Shannon capacity of parallel channels with additive noise xi.

    Water-filling with floors xi/lambda_k:
    C = sum_k {log2(mu lambda_k / xi)}+ at the budget P = sum_k {mu - xi/lambda_k}+.
    """
    if xi <= 0:
        raise ZeroNoiseClassical("classical capacity diverges at xi <= 0")
    if P < 0:
        raise NoFeasibleWaterlevel("power budget must be nonnegative")
    lams = np.asarray(lambdas, dtype=float)
    with np.errstate(divide="ignore"):
        floors = np.where(lams > 0, xi / lams, np.inf)
    per_mode, mu = _waterfill_floors(floors, float(P))
    with np.errstate(invalid="ignore"):
        rates = np.log2(1.0 + np.where(per_mode > 0, per_mode / floors, 0.0))
    bits = float(np.sum(rates))
    return CapacityResult(bits, "classical", PowerAllocation(per_mode, float(P)), mu)


def diagonal_capacity(params, P, method, alloc, n_signal):
    """Capacity of parallel single-mode channels under the power budget P.

    `params` are (lambda_k, n, xi) triples, or a _Modes built from them
    once for several calls.  `method` is holevo, het, hom or
    classical; the classical Shannon capacity uses the additive noise xi of
    the first triple, log2(1 + lambda_k P_k / xi) per mode.  `alloc` is
    "uniform", P/N photons on each of the first N = `n_signal` modes, or
    "waterfill", the optimal split, whose water level is returned.
    """
    modes = _modes(params)
    lams = modes.lams
    if method == "classical":
        xi = np.ravel(modes.xis)[0]
        if xi <= 0:
            raise ZeroNoiseClassical("classical capacity requires xi > 0")
        if alloc == "waterfill":
            return classical_capacity(lams, xi, P)
        uniform = uniform_allocation(lams.size, P, n_signal)
        with np.errstate(divide="ignore"):
            rates = np.log2(1.0 + lams * uniform.per_mode / xi)
        return CapacityResult(float(np.sum(rates)), "classical", uniform)
    if alloc == "uniform":
        uniform = uniform_allocation(lams.size, P, n_signal)
        bits = _diagonal_bits(modes, uniform, method)
        return CapacityResult(bits, _METHOD_NAMES.get(method, method), uniform)
    if method == "holevo":
        return waterfill_holevo(modes, P)
    return waterfill_het_hom(modes, P, method)


def _channel_capacity(ch, P, method, alloc):
    """Capacity of one channel under the power budget P.

    Shared by the CLI and the Monte Carlo driver.  It stays private because
    the layer tracer of perfbench/ wraps every public function, and its
    self-test expects the capacity formulas as direct children of each
    Monte Carlo sample.

    A block-form channel with thermal noise splits into parallel single-mode
    channels and goes through diagonal_capacity, with P/N photons per input
    mode under the uniform split.  Any other channel is evaluated with the
    general formulas under uniform modulation, (P/N) I for holevo and het and
    along the normal modes of H_s for hom; its result has no per-mode
    allocation.  Water-filling and the classical capacity need the diagonal
    form, so on such a channel they raise InvalidChannel.  `alloc` None means
    water-filling where the channel allows it and the uniform split
    otherwise.
    """
    params = None
    if not _mixes_quadratures(ch.H_s):
        try:
            params = diagonal_channel_params(ch)
        except NonThermalNoise:
            pass
    if params is not None:
        return diagonal_capacity(params, P, method, alloc or "waterfill",
                                 ch.in_modes)
    if alloc not in (None, "uniform"):
        raise InvalidChannel(
            "channel is not diagonalizable; only --alloc uniform is "
            "supported for it")
    if method == "classical":
        raise InvalidChannel("classical capacity needs a diagonalizable channel")
    N = ch.in_modes
    if method == "hom":
        bits = hom_general_aligned(ch, P)
    elif method == "holevo":
        bits = holevo_general(ch, (P / N) * np.eye(2 * N))
    else:
        bits = het_hom_general(ch, (P / N) * np.eye(2 * N), method)
    return CapacityResult(bits, _METHOD_NAMES.get(method, method), None)
