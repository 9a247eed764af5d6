"""Capacity formulas for Gaussian channels.

Holevo information with quantum water-filling, heterodyne/homodyne capacities
(per-mode and general multivariate), asymptotic limits, and the classical
Shannon baseline.  All results are in bits.  Over parallel modes,
diagonal_capacity water-fills het, hom and classical as one problem.

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
    """Mean photon numbers per singular mode, summing to at most `total`
    (the budget test of _check_split)."""

    per_mode: np.ndarray
    total: float

    def __post_init__(self):
        p = np.asarray(self.per_mode, dtype=float)
        _check_split(p.reshape(1, -1), self.total, p.size, [(0, 1, p.size)])
        object.__setattr__(self, "per_mode", p)


@dataclass(frozen=True)
class CapacityResult:
    bits: float
    method: str
    allocation: PowerAllocation
    waterlevel: Optional[float] = None


def noise_photons(lams, n, xi):
    """Output noise photon number N_k of a single-mode thermal channel."""
    lams = np.asarray(lams, dtype=float)
    return (lams - 1.0) / 2.0 + (np.asarray(n) + 0.5) * np.abs(1.0 - lams) + xi


def _shannon_form(noise, method):
    """(s, d_k) of the rate s log2(1 + lambda_k P_k / d_k) of het, hom or
    classical, from the noise photons N_k (het, hom) or xi_k (classical)."""
    if method == "het":
        return 1.0, noise + 1.0
    if method == "hom":
        return 0.5, (noise + 0.5) / 2.0
    if method == "classical":
        return 1.0, noise
    raise ValueError("method must be 'holevo', 'het', 'hom' or 'classical'")


def mode_rates(lams, P, noise, method):
    """Per-mode rates in bits of single-mode channels, elementwise.

    With signal photons ns_k = lambda_k P_k, and `noise` the noise photons
    N_k (the additive noise xi_k for classical):

        holevo:    g(ns_k + N_k) - g(N_k)
        het:       log2(1 + ns_k / (N_k + 1))
        hom:       (1/2) log2(1 + ns_k / ((N_k + 1/2) / 2))
        classical: log2(1 + ns_k / xi_k)

    (homodyne assumes the modulation power is concentrated in the measured
    quadrature).
    """
    ns = lams * P
    if method == "holevo":
        x_out = ns + noise
        if x_out.size and x_out.min() < -1e-12:
            raise NegativeEntropyArgument("modulated output photon number < 0")
        return entropy_g_arr(x_out) - entropy_g_arr(noise)
    s, d = _shannon_form(noise, method)
    return s * np.log2(1.0 + ns / d)


# The engine below evaluates many diagonal configurations at once, as rows of
# a zero-padded (rows, modes) table.  Each row gets the bits it would get
# alone: every step is elementwise or along its row, and every row sum is
# np.add.reduce over that row's own modes.

def _runs(lengths):
    """(start, stop, length) of each run of consecutive rows of one length."""
    if lengths.min() == lengths.max():
        return [(0, len(lengths), lengths[0])]
    cuts = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1),
            len(lengths)]
    return [(a, b, lengths[a]) for a, b in zip(cuts, cuts[1:])]


def _row_sums(table, runs):
    """Each row of `table` summed over its own length, one call per run of
    _runs."""
    if len(runs) == 1:
        return np.add.reduce(table[:, :runs[0][2]], axis=1)
    sums = np.empty(len(table))
    for start, stop, length in runs:
        sums[start:stop] = np.add.reduce(table[start:stop, :length], axis=1)
    return sums


def _check_split(per_mode, total, lengths, runs):
    """Raise ValueError unless every row is a split of the budget `total`.

    A row of n modes (`runs` are the _runs of the row lengths) passes if its
    entries are finite, nonnegative and sum to at most total + 1e-9 +
    4 n eps |total|: splitting the budget n ways (or rescaling onto it) and
    summing the parts rounds by at most about n eps of the total, in any
    order, so the relative term forgives that rounding with a margin of 4;
    1e-9 photons is the absolute slack.
    """
    if not math.isfinite(total):
        raise ValueError("power budget must be finite")
    # written so that NaN fails each test; +inf fails the budget
    if per_mode.size and not (per_mode.min() >= 0):
        raise ValueError("allocations must be finite and nonnegative")
    slack = 1e-9 + 4.0 * lengths * _EPS * abs(total)
    if not (_row_sums(per_mode, runs) <= total + slack).all():
        raise ValueError("allocation exceeds the power budget")


def _mode_noise(lams, n, xi, method, padding):
    """mode_rates' noise argument over the table: the noise photons N_k (0
    on the padding), or for classical each mode's additive noise xi_k (no
    N_k computed; xi is given per row or per mode, so its padding holds a
    row's own value)."""
    if method == "classical":
        xi = np.broadcast_to(xi, lams.shape)
        if (xi <= 0).any():
            raise ZeroNoiseClassical("classical capacity requires xi > 0")
        return xi
    Nk = noise_photons(lams, n, xi)
    if padding is not None:
        Nk[padding] = 0.0
    low = Nk.min(axis=1, initial=0.0)
    if (low < -1e-12).any():
        raise NegativeEntropyArgument(
            "noise photon number %g < 0; unphysical parameters"
            % low[low < -1e-12][0])
    return Nk


def _waterfill_floors(floors, P):
    """Exact classical water-filling of each row of a table of floors f_k.

    P_k = {mu - f_k}+ with the water level mu fixed by the budget: for the
    m cheapest modes of a row mu = (P + sum of their floors)/m, and m is the
    smallest count whose level does not clear the next floor, or all finite
    floors.  mu - f_k cancels when f_k >> P_k, so the split is computed as
    (P + G - m g_k)/m over g_k = f_k - f_0, the floors above the lowest, and
    G = sum_{j<m} g_j: every active g_j is below mu - f_0 <= P, and one mode
    gets exactly P.  Returns the powers and each row's mu (NaN if none).
    """
    if not floors.size:
        return np.zeros(floors.shape), np.full(len(floors), np.nan)
    order = np.argsort(floors, axis=1)
    f = np.take_along_axis(floors, order, axis=1)
    finite = np.count_nonzero(np.isfinite(f), axis=1)
    j = np.arange(f.shape[1])
    levels = (P + np.cumsum(f, axis=1)) / (j + 1)
    beyond = np.concatenate([f[:, 1:], np.full((len(f), 1), np.inf)], axis=1)
    # the level of the last finite floor always stops, so m <= finite
    m = np.argmax((levels <= beyond) | (j >= finite[:, None] - 1), axis=1) + 1
    m[finite == 0] = 0
    rows = np.arange(len(f))
    mu = np.where(finite > 0, levels[rows, m - 1], np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = f - f[:, :1]
        G = np.cumsum(g, axis=1)[rows, m - 1]
        sorted_split = np.where(
            j < m[:, None],
            np.maximum((P + (G[:, None] - m[:, None] * g)) / m[:, None], 0.0),
            0.0)
    per_mode = np.empty(floors.shape)
    np.put_along_axis(per_mode, order, sorted_split, axis=1)
    return per_mode, mu


def _waterfill_holevo(lams, Nk, lengths, P):
    """Quantum water-filling of every row: the mu > 1 that solves

        P = sum_k (1/lambda_k) { 1/(mu^{1/lambda_k} - 1) - N_k }+

    by bisection on w = ln mu (the right side falls as mu grows).  All rows
    step together, each frozen where its own bisection stops: within
    1e-10 max(P, 1) of P, or after 200 steps at the low end of its bracket,
    which spends at least P.  Returns the powers, each row's mu (NaN with no
    mode of lambda_k > 0; at P = 0 the level where its best mode turns on)
    and a mask of the rows that carry power.
    """
    active = lams > 0
    counts = np.count_nonzero(active, axis=1)
    # each row's modes with lambda_k > 0 first, in their order, so that a
    # row's power is summed over exactly the modes that a lone row sums
    order = np.argsort(~active, axis=1, kind="stable")
    ahead = np.arange(lams.shape[1]) < counts[:, None]
    la = np.where(ahead, np.take_along_axis(lams, order, axis=1), 1.0)
    Na = np.where(ahead, np.take_along_axis(Nk, order, axis=1), 0.0)
    mu, per_mode = np.full(len(lams), np.nan), np.zeros(lams.shape)
    powered = (counts > 0) & (P > 0)
    if P == 0:   # the level where the best mode of each row turns on
        with np.errstate(divide="ignore"):
            on = np.where(ahead, (1.0 + 1.0 / Na) ** la, -np.inf).max(axis=1)
        mu[counts > 0] = on[counts > 0]
    if not powered.any():
        return per_mode, mu, powered
    la, Na, runs = la[powered], Na[powered], _runs(counts[powered])

    def spent(w):
        # powers {x_k - N_k}+ / lambda_k at the output photon targets
        # x_k = 1/(mu^{1/lambda_k} - 1), and their row sums; expm1 keeps
        # precision near mu -> 1, and an overflow to inf maps x_k to 0
        buf = np.maximum(1.0 / np.expm1(w[:, None] / la) - Na, 0.0) / la
        return buf, _row_sums(buf, runs)

    w_lo, w_hi = np.full(len(la), 1e-12), np.ones(len(la))
    target_tol = 1e-10 * max(P, 1.0)
    with np.errstate(over="ignore"):
        low = high = live = np.ones(len(la), dtype=bool)
        while low.any():
            low = low & (spent(w_lo)[1] < P)
            w_lo[low] /= 2.0
            if np.any(w_lo[low] < 1e-300):
                raise NoFeasibleWaterlevel("power budget too large to bracket")
        while high.any():
            high = high & (spent(w_hi)[1] > P)
            w_hi[high] *= 2.0
        w = np.empty(len(la))
        for _ in range(200):
            w_mid = 0.5 * (w_lo + w_hi)
            diff = spent(w_mid)[1] - P
            stops = live & (np.abs(diff) <= target_tol)
            if stops.any():
                w[stops], live = w_mid[stops], live & ~stops
                if not live.any():
                    break
            # a stopped row bisects on unseen: only w[live] is read later
            over = diff > 0
            w_lo = np.where(over, w_mid, w_lo)
            w_hi = np.where(over, w_hi, w_mid)
        else:
            w[live] = w_lo[live]   # 200 steps did not stop: w_lo spends >= P
        buf = spent(w)[0]
    filled = np.zeros(la.shape)
    np.put_along_axis(filled, order[powered], np.where(ahead[powered], buf, 0),
                      axis=1)
    # absorb the bisection residual so the allocation spends exactly P
    total = _row_sums(filled, _runs(lengths[powered]))
    if not np.isfinite(total).all():
        raise NoFeasibleWaterlevel("water-filled allocation is not finite: %s"
                                   % total[~np.isfinite(total)][0])
    filled[total > 0] *= (P / total[total > 0])[:, None]
    per_mode[powered] = filled
    mu[powered] = [math.exp(x) for x in w]
    return per_mode, mu, powered


def _capacity_table(lams, lengths, n_signal, n, xi, P, method, alloc):
    """Capacities of the rows of a zero-padded (rows, modes) table.

    Row i holds the transmissions lams[i, :lengths[i]]; `lengths` and
    `n_signal` are per row or shared, and `n` and `xi` broadcast to `lams`.
    `alloc` is "uniform" (P/N on each of the first N = n_signal[i] modes),
    "waterfill" (diagonal_capacity's optimal split) or a table of per-mode
    powers.  Returns each row's bits, its powers (0 on the padding) and, if
    water-filled, its water level (NaN if none).
    """
    # a shared count becomes one per row
    lengths, n_signal = (np.zeros(len(lams), dtype=int) + v
                         for v in (lengths, n_signal))
    width, runs = lams.shape[1], _runs(lengths)
    modes = np.arange(width)
    padding = None if lengths.min() == width else modes >= lengths[:, None]
    split = alloc if isinstance(alloc, str) else "given"
    mu = powered = None
    if split == "given":
        per_mode = alloc
    elif split == "uniform":
        per_mode = np.where(modes < np.minimum(lengths, n_signal)[:, None],
                            P / n_signal[:, None], 0.0)
        _check_split(per_mode, P, lengths, runs)
    elif P < 0:
        raise NoFeasibleWaterlevel("power budget must be nonnegative")
    noise = _mode_noise(lams, n, xi, method, padding)
    if split == "waterfill" and method == "holevo":
        per_mode, mu, powered = _waterfill_holevo(lams, noise, lengths, P)
    elif split == "waterfill":
        with np.errstate(divide="ignore"):
            floors = np.where(lams > 0,
                              _shannon_form(noise, method)[1] / lams, np.inf)
        per_mode, mu = _waterfill_floors(floors, float(P))
    if split == "waterfill":
        _check_split(per_mode, P, lengths, runs)
    bits = np.zeros(len(lams))
    if powered is None or powered.any():
        bits = _row_sums(mode_rates(lams, per_mode, noise, method), runs)
    if powered is not None:
        bits[~powered] = 0.0   # a Holevo row without power carries nothing
    return bits, per_mode, mu


def _split_bits(params, alloc, method):
    """Bits of (lambda_k, n, xi) triples under the PowerAllocation `alloc`."""
    lams, n, xi = np.asarray(params, dtype=float).reshape(-1, 3).T
    if alloc.per_mode.shape != lams.shape:
        raise ValueError("allocation length must match the number of modes")
    return float(_capacity_table(lams[None], lams.size, lams.size, n, xi,
                                 alloc.total, method,
                                 alloc.per_mode[None])[0][0])


def holevo_diagonal(params, alloc):
    """Holevo information of parallel single-mode channels, in bits.

    chi = sum_k g(lambda_k P_k + N_k) - g(N_k).
    """
    return _split_bits(params, alloc, "holevo")


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
    """Optimal Holevo power allocation via quantum water-filling
    (_waterfill_holevo), and chi at that allocation."""
    return diagonal_capacity(params, P, "holevo", "waterfill", None)


def het_hom_per_mode(params, alloc, kind):
    """Heterodyne or homodyne capacity of parallel single-mode channels:
    the sum over modes of the het or hom rate of mode_rates."""
    if kind not in _METHOD_NAMES:
        raise ValueError("kind must be 'het' or 'hom'")
    return _split_bits(params, alloc, kind)


def waterfill_het_hom(params, P, kind):
    """Water-filled heterodyne (`kind` het) or homodyne (hom) capacity."""
    if kind not in _METHOD_NAMES:
        raise ValueError("kind must be 'het' or 'hom'")
    return diagonal_capacity(params, P, kind, "waterfill", None)


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
    """Water-filled classical Shannon capacity of parallel channels with
    additive noise xi."""
    return diagonal_capacity([(lam, 0.0, xi) for lam in np.ravel(lambdas)], P,
                             "classical", "waterfill", None)


def diagonal_capacity(params, P, method, alloc, n_signal):
    """Capacity of parallel single-mode channels under the power budget P.

    `params` are (lambda_k, n, xi) triples.  `method` is holevo, het, hom or
    classical (the Shannon capacity with each mode's additive noise xi_k);
    the per-mode rates are those of mode_rates.  `alloc` is
    "uniform", P/N photons on each of the first N = `n_signal` modes, or
    "waterfill", the optimal split, whose water level is returned.

    Holevo water-fills quantum mechanically (_waterfill_holevo).  The other
    three rates are s log2(1 + lambda_k P_k / d_k); s only rescales the
    objective, so their optimal split is the classical water-fill
    P_k = {mu - f_k}+ over the floors f_k = d_k / lambda_k
    (_waterfill_floors):

        het:       f_k = (N_k + 1) / lambda_k
        hom:       f_k = ((N_k + 1/2) / 2) / lambda_k
        classical: f_k = xi_k / lambda_k

    A mode with lambda_k = 0 has an infinite floor and gets no power.  This
    is the one-row case of _capacity_table.
    """
    lams, n, xi = np.asarray(params, dtype=float).reshape(-1, 3).T
    bits, per_mode, mu = _capacity_table(
        lams[None], lams.size, lams.size if n_signal is None else n_signal,
        n, xi, P, method, alloc)
    mu = None if mu is None or math.isnan(mu[0]) else float(mu[0])
    return CapacityResult(float(bits[0]), _METHOD_NAMES.get(method, method),
                          PowerAllocation(per_mode[0], float(P)), mu)


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
