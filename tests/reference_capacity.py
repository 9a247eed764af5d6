"""The per-row capacity path of gausscap.capacity before the table engine.

A verbatim copy of uniform_allocation, _Modes, _modes, _checked_noise,
_rate_noise, _diagonal_bits, waterfill_holevo, _waterfill_floors,
diagonal_capacity and the Monte Carlo driver's _passive_bits as they
evaluated one configuration at a time, with module names qualified; only
the split of _waterfill_floors follows the engine's stable form.  The
tests compare the engine's rows with it bit for bit, on rows that share one
xi: _rate_noise takes the classical noise from the first mode, where the
engine takes each mode's own.
"""

import math

import numpy as np

from gausscap.capacity import (
    _METHOD_NAMES,
    CapacityResult,
    PowerAllocation,
    _shannon_form,
    mode_rates,
    noise_photons,
)
from gausscap.errors import (
    NegativeEntropyArgument,
    NoFeasibleWaterlevel,
    ZeroNoiseClassical,
)


def uniform_allocation(n_modes, P, n_signal_modes=None):
    """P/N photons on each of the first min(n_modes, N) singular modes.

    `n_signal_modes` defaults to n_modes; pass the channel's input mode count
    when the params list carries extra zero-transmission output modes.
    """
    N = n_modes if n_signal_modes is None else n_signal_modes
    per_mode = np.zeros(n_modes)
    per_mode[: min(n_modes, N)] = P / N
    return PowerAllocation(per_mode, P)


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


def _rate_noise(modes, method):
    """method's noise argument of mode_rates: the N_k of `modes`, or for
    classical the additive noise xi of its first mode (no N_k computed)."""
    if method != "classical":
        return modes.noise()
    xi = np.ravel(modes.xis)[0]
    if xi <= 0:
        raise ZeroNoiseClassical("classical capacity requires xi > 0")
    return xi


def _diagonal_bits(params, alloc, method):
    modes = _modes(params)
    if alloc.per_mode.shape != modes.lams.shape:
        raise ValueError("allocation length must match the number of modes")
    noise = _rate_noise(modes, method)
    return float(np.add.reduce(mode_rates(modes.lams, alloc.per_mode, noise,
                                          method)))


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


def _waterfill_floors(floors, P):
    # Exact classical water-filling: allocate P_k = {mu - f_k}+ with the
    # water level mu fixed by the budget.  Sort the floors, then for the m
    # cheapest modes mu = (P + sum of their floors)/m; the correct m is the
    # smallest one whose water level does not clear the next floor, or all
    # modes with a finite floor.  (Not verbatim: the split is the stable
    # (P + sum_{j<m} (f_j - f_k))/m of the engine, with g = f - f_0.)
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
    g = f[:m] - f[0]
    alloc = np.zeros(floors.shape)
    alloc[order[:m]] = np.maximum((P + (np.cumsum(g)[-1] - m * g)) / m, 0.0)
    return alloc, float(mu)


def diagonal_capacity(params, P, method, alloc, n_signal):
    """Capacity of parallel single-mode channels under the power budget P."""
    modes = _modes(params)
    if method == "holevo" and alloc != "uniform":
        return waterfill_holevo(modes, P)
    lams = modes.lams
    mu = None
    if alloc == "uniform":
        split = uniform_allocation(lams.size, P, n_signal)
    else:
        if P < 0:
            raise NoFeasibleWaterlevel("power budget must be nonnegative")
        d = _shannon_form(_rate_noise(modes, method), method)[1]
        with np.errstate(divide="ignore"):
            floors = np.where(lams > 0, d / lams, np.inf)
        per_mode, mu = _waterfill_floors(floors, float(P))
        split = PowerAllocation(per_mode, float(P))
    return CapacityResult(_diagonal_bits(modes, split, method),
                          _METHOD_NAMES.get(method, method), split, mu)


def _passive_bits(spec, lams, P, method):
    # Per-sample capacities of passive draws from their (samples, modes)
    # transmissions, under the uniform split P/N.  Receiver modes beyond N
    # have lambda = 0 and carry exactly 0 bits, so they are left out.
    Nk = noise_photons(lams, spec.noise.n, spec.noise.xi)
    return mode_rates(lams, P / spec.N, Nk, method).sum(axis=1)
