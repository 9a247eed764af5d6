"""Capacity engine tests: Holevo, heterodyne/homodyne, water-filling and the
classical baseline.  Expected values are frozen from closed forms evaluated
independently of the library (stdlib math / direct formulas)."""

import math

import numpy as np
import pytest

import reference_capacity as ref
from reference_capacity import uniform_allocation
from gausscap import capacity as cap
from gausscap.capacity import PowerAllocation
from gausscap.channels import GaussianChannel, NoiseParams, block_form_channel
from gausscap.cli import _rule_array
from gausscap.decomposition import diagonal_channel_params
from gausscap.ensembles import EnsembleSpec, passive_transmissions
from gausscap.errors import (
    NegativeEntropyArgument,
    NoFeasibleWaterlevel,
    SingularNoise,
    UnphysicalOutput,
    ZeroNoiseClassical,
)

G15 = 5.396641065872217        # 16 log2 16 - 15 log2 15
G7 = 4.348515545596772         # 8 log2 8 - 7 log2 7
LOG2_3 = 1.584962500721156


def alloc(values, total=None):
    values = np.asarray(values, dtype=float)
    return PowerAllocation(values, float(values.sum() if total is None else total))


def random_params(rng, modes=3):
    lams = rng.uniform(0.05, 1.0, size=modes)
    n = rng.uniform(0.0, 1.0)
    xi = rng.uniform(0.0, 0.5)
    return [(float(l), float(n), float(xi)) for l in lams]


def test_noise_photons():
    # (lambda-1)/2 + (n+1/2)|1-lambda| + xi
    got = cap.noise_photons(np.array([0.36]), 0.3, 0.1)
    assert got[0] == pytest.approx(0.292, abs=1e-12)
    assert cap.noise_photons(np.array([1.0]), 0.0, 0.0)[0] == 0.0


def uniform_split(modes, P, n_signal):
    """The uniform allocation of diagonal_capacity over identity modes."""
    return cap.diagonal_capacity([(1.0, 0.0, 0.0)] * modes, P, "het",
                                 "uniform", n_signal).allocation


def test_uniform_allocation():
    a = uniform_split(3, 9.0, 3)
    assert np.allclose(a.per_mode, [3.0, 3.0, 3.0])
    # receivers beyond the transmitter count carry no power
    b = uniform_split(3, 8.0, 2)
    assert np.allclose(b.per_mode, [4.0, 4.0, 0.0])


def test_power_allocation_validation():
    with pytest.raises(ValueError):
        PowerAllocation(np.array([-0.5, 1.0]), 1.0)
    with pytest.raises(ValueError):
        PowerAllocation(np.array([2.0, 2.0]), 1.0)


@pytest.mark.parametrize("P", [4e6, 1e9, 1e15])
def test_uniform_split_of_a_large_budget_is_accepted(P):
    # N copies of P/N sum to P plus a few ulps of P, which the budget test
    # must forgive however large P is
    for modes in range(1, 65):
        a = uniform_split(modes, P, modes)
        assert a.total == P


@pytest.mark.parametrize("P", [1.0, 4e6, 1e15])
def test_allocation_over_budget_beyond_rounding_is_refused(P):
    # 64 modes: the slack is 1e-9 + 256 eps P, below 1e-13 P + 1e-9
    per_mode = np.full(64, P / 64)
    PowerAllocation(per_mode, P)
    with pytest.raises(ValueError, match="exceeds the power budget"):
        PowerAllocation(per_mode * (1.0 + 1e-12) + 2e-9 / 64, P)


@pytest.mark.parametrize("per_mode, total", [
    ([0.5, np.nan], 1.0), ([np.inf, 0.0], 1.0), ([-np.inf, 0.5], 1.0),
    ([0.5, 0.5], np.nan), ([0.5, 0.5], np.inf), ([np.inf], np.inf),
], ids=["nan", "inf", "-inf", "nan-total", "inf-total", "inf-both"])
def test_power_allocation_rejects_non_finite(per_mode, total):
    with pytest.raises(ValueError):
        PowerAllocation(np.array(per_mode), total)


class TestHolevo:
    def test_pure_loss_closed_form(self):
        # chi of a pure-loss channel is g(lambda P): the g(N) terms cancel
        bits = cap.holevo_diagonal([(0.7, 0.0, 0.0)], alloc([10.0]))
        assert bits == pytest.approx(G7, abs=1e-12)

    def test_thermal_loss(self):
        bits = cap.holevo_diagonal([(0.36, 0.3, 0.1)], alloc([5.0]))
        assert bits == pytest.approx(1.8116004592354402, abs=1e-12)

    def test_dead_mode_contributes_nothing(self):
        params = [(0.5, 0.0, 0.0), (0.0, 0.0, 0.0)]
        one = cap.holevo_diagonal(params[:1], alloc([4.0]))
        both = cap.holevo_diagonal(params, alloc([4.0, 0.0]))
        assert both == pytest.approx(one, abs=1e-12)

    def test_malformed_params_raise(self):
        with pytest.raises(NegativeEntropyArgument):
            cap.holevo_diagonal([(0.5, -0.4, 0.0)], alloc([1.0]))

    def test_general_matches_diagonal_on_block_form(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            k = rng.integers(1, 5)
            n = rng.integers(1, 5)
            c = 0.6 * (rng.standard_normal((k, n))
                       + 1j * rng.standard_normal((k, n))) / np.sqrt(2 * n)
            ch = block_form_channel(c, NoiseParams(rng.uniform(0, 1),
                                                   rng.uniform(0, 0.3)))
            params = diagonal_channel_params(ch)
            P = float(rng.uniform(0.5, 20.0))
            a = uniform_allocation(len(params), P, n_signal_modes=n)
            diag = cap.holevo_diagonal(params, a)
            general = cap.holevo_general(ch, (P / n) * np.eye(2 * n))
            assert general == pytest.approx(diag, abs=1e-8)

    def test_general_rejects_unphysical_channel(self):
        ch = GaussianChannel(np.eye(2), -0.2 * np.eye(2), NoiseParams())
        with pytest.raises(UnphysicalOutput):
            cap.holevo_general(ch, np.zeros((2, 2)))


class TestQuantumWaterfilling:
    def test_single_mode_spends_everything(self):
        res = cap.waterfill_holevo([(1.0, 0.0, 0.0)], 15.0)
        assert res.bits == pytest.approx(G15, abs=1e-12)
        assert res.allocation.per_mode.sum() == pytest.approx(15.0, rel=1e-12)

    def test_symmetric_modes_split_evenly(self):
        res = cap.waterfill_holevo([(1.0, 0.0, 0.0)] * 2, 2.0)
        assert np.allclose(res.allocation.per_mode, [1.0, 1.0], atol=1e-9)
        assert res.bits == pytest.approx(4.0, abs=1e-9)

    def test_zero_power(self):
        res = cap.waterfill_holevo([(0.5, 0.2, 0.0)], 0.0)
        assert res.bits == 0.0
        assert res.waterlevel is not None and res.waterlevel > 1.0

    def test_negative_power_raises(self):
        with pytest.raises(NoFeasibleWaterlevel):
            cap.waterfill_holevo([(0.5, 0.0, 0.0)], -1.0)

    def test_dead_modes_get_no_power(self):
        res = cap.waterfill_holevo([(0.9, 0.0, 0.0), (0.0, 0.0, 0.0)], 3.0)
        assert res.allocation.per_mode[1] == 0.0
        assert res.allocation.per_mode[0] == pytest.approx(3.0, rel=1e-10)

    def test_waterlevel_consistency(self):
        # every powered mode sits exactly at the common water level:
        # lambda_k P_k + N_k = 1/(mu^{1/lambda_k} - 1)
        params = [(0.9, 0.1, 0.05), (0.5, 0.1, 0.05), (0.2, 0.1, 0.05)]
        res = cap.waterfill_holevo(params, 8.0)
        mu = res.waterlevel
        for (lam, n, xi), p in zip(params, res.allocation.per_mode):
            if p > 1e-9:
                nk = cap.noise_photons(np.array([lam]), n, xi)[0]
                level = 1.0 / (mu ** (1.0 / lam) - 1.0)
                assert lam * p + nk == pytest.approx(level, rel=1e-6)

    def test_budget_exact_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            params = random_params(rng)
            P = float(rng.uniform(0.1, 40.0))
            res = cap.waterfill_holevo(params, P)
            assert res.allocation.per_mode.sum() == pytest.approx(P, abs=1e-8)

    def test_beats_uniform(self):
        rng = np.random.default_rng(4321)
        for _ in range(30):
            params = random_params(rng)
            P = float(rng.uniform(0.5, 25.0))
            res = cap.waterfill_holevo(params, P)
            uni = cap.holevo_diagonal(params, uniform_allocation(3, P))
            assert res.bits >= uni - 1e-9

    @pytest.mark.parametrize("P", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("lam", [1e-70, 1e-100, 1e-300])
    def test_unconverged_single_mode_spends_the_budget(self, lam, P):
        # below about 4e-63 the 200 bisection steps cannot reach the water
        # level; one mode must still get all of P, as under the uniform split
        res = cap.waterfill_holevo([(lam, 0.0, 0.0)], P)
        uni = cap.holevo_diagonal([(lam, 0.0, 0.0)],
                                  uniform_allocation(1, P))
        assert res.bits > 0
        assert res.bits == pytest.approx(uni, rel=1e-15, abs=0)
        assert res.allocation.per_mode[0] == pytest.approx(P, rel=1e-15,
                                                           abs=0)

    @pytest.mark.parametrize("P", [0.3, 1.0, 7.0])
    def test_unconverged_modes_spend_the_budget(self, P):
        params = [(1e-100 * k, 0.0, 0.0) for k in (1, 2, 3)]
        res = cap.waterfill_holevo(params, P)
        uni = cap.holevo_diagonal(params, uniform_allocation(3, P))
        assert res.allocation.per_mode.sum() == pytest.approx(P, rel=1e-12)
        assert res.bits >= uni > 0


def _reference_waterfill_holevo(params, P):
    """Quantum water-filling with a numpy errstate and np.sum in every step.

    A copy of the bisection that predates its one-errstate form, returning
    (bits, per_mode, mu).
    """
    def photons(w, lams):
        with np.errstate(over="ignore"):
            return 1.0 / np.expm1(w / lams)

    lams, Nk = ref._checked_noise(params)
    active = lams > 0
    if P == 0 or not active.any():
        mu = None
        if active.any():
            with np.errstate(divide="ignore"):
                mu = float(np.max((1.0 + 1.0 / Nk[active]) ** lams[active]))
        return 0.0, np.zeros(lams.shape), mu
    la, Na = lams[active], Nk[active]

    def power_at(w):
        return float(np.sum(np.maximum(photons(w, la) - Na, 0.0) / la))

    w_lo, w_hi = 1e-12, 1.0
    while power_at(w_lo) < P:
        w_lo /= 2.0
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
        w_mid = 0.5 * (w_lo + w_hi)
    per_mode = np.zeros(lams.shape)
    per_mode[active] = np.maximum(photons(w_mid, la) - Na, 0.0) / la
    total = per_mode.sum()
    if total > 0.0:
        per_mode *= P / total
    bits = cap.holevo_diagonal(params, PowerAllocation(per_mode, float(P)))
    return bits, per_mode, float(math.exp(w_mid))


def test_waterfill_holevo_bit_identical_to_reference():
    rng = np.random.default_rng(20261018)
    budgets = {"zero": 0, "tiny": 0, "large": 0}
    for _ in range(2000):
        modes = int(rng.integers(1, 25))
        lams = rng.uniform(0.0, 1.0, size=modes)
        lams[rng.uniform(size=modes) < 0.1] = 0.0
        lams[rng.uniform(size=modes) < 0.1] += rng.uniform(0.0, 2.0)
        n = 0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.0, 1.0))
        xi = 0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.0, 0.5))
        u = rng.uniform()
        if u < 0.1:
            P = 0.0
        elif u < 0.25:
            P = float(10.0 ** rng.uniform(-9.0, -6.0))
        elif u < 0.4:
            P = float(10.0 ** rng.uniform(4.0, 6.0))
        else:
            P = float(10.0 ** rng.uniform(-3.0, 3.0))
        budgets["zero"] += P == 0
        budgets["tiny"] += 0 < P <= 1e-6
        budgets["large"] += P >= 1e4
        params = [(float(lam), n, xi) for lam in lams]
        res = cap.waterfill_holevo(params, P)
        bits, per_mode, mu = _reference_waterfill_holevo(params, P)
        assert res.bits == bits
        assert res.allocation.per_mode.tobytes() == per_mode.tobytes()
        assert res.waterlevel == mu
    assert min(budgets.values()) >= 100


def test_waterfill_holevo_refuses_an_overflowing_allocation():
    with np.errstate(all="ignore"):
        with pytest.raises(NoFeasibleWaterlevel):
            cap.waterfill_holevo([(1e308, 0.0, 0.0)], 5.0)


def _reference_waterfill_floors(floors, P):
    """Classical water-filling with a Python loop over the modes.

    The loop of _waterfill_floors before its water level came from one array
    of candidate levels, with the split of the stable form: P_k =
    (P + G - m g_k)/m over g_k = f_k - f_0 and G = sum_{j<m} g_j, summed in
    order, in place of mu - f_k.
    """
    floors = np.asarray(floors, dtype=float)
    order = np.argsort(floors)
    f = floors[order]
    finite = int(np.sum(np.isfinite(f)))
    if finite == 0:
        return np.zeros(floors.shape), None
    csum = np.cumsum(f[:finite])
    mu = f[0]
    for m in range(1, finite + 1):
        mu = (P + csum[m - 1]) / m
        if m == finite or mu <= f[m]:
            break
    G = 0.0
    for k in range(m):
        G += float(f[k] - f[0])
    alloc = np.zeros(floors.shape)
    for k in range(m):
        alloc[order[k]] = max((P + (G - m * float(f[k] - f[0]))) / m, 0.0)
    return alloc, float(mu)


def test_waterfill_floors_bit_identical_to_reference():
    rng = np.random.default_rng(20261019)
    seen = {"inf": 0, "all-inf": 0, "ties": 0, "zero": 0, "tiny": 0,
            "large": 0}
    for _ in range(3000):
        modes = int(rng.integers(1, 41))
        floors = 10.0 ** rng.uniform(-3.0, 3.0, size=modes)
        u = rng.uniform()
        if u < 0.2:
            # ties: a few distinct values, repeated
            floors = rng.choice(floors[:3], size=modes)
        elif u < 0.3:
            floors = rng.integers(1, 4, size=modes).astype(float)
        floors[rng.uniform(size=modes) < 0.15] = np.inf
        if rng.uniform() < 0.03:
            floors[:] = np.inf
        u = rng.uniform()
        if u < 0.1:
            P = 0.0
        elif u < 0.25:
            P = float(10.0 ** rng.uniform(-9.0, -6.0))
        elif u < 0.4:
            P = float(10.0 ** rng.uniform(4.0, 6.0))
        else:
            P = float(10.0 ** rng.uniform(-6.0, 4.0))
        finite = floors[np.isfinite(floors)]
        seen["inf"] += finite.size < modes
        seen["all-inf"] += finite.size == 0
        seen["ties"] += np.unique(finite).size < finite.size
        seen["zero"] += P == 0
        seen["tiny"] += 0 < P <= 1e-6
        seen["large"] += P >= 1e4
        got, mu = cap._waterfill_floors(floors[None], P)
        got, mu = got[0], None if np.isnan(mu[0]) else float(mu[0])
        want, want_mu = _reference_waterfill_floors(floors, P)
        assert got.tobytes() == want.tobytes()
        assert mu == want_mu and type(mu) is type(want_mu)
    assert min(seen.values()) >= 50, seen


def _reference_mode_rates(lams, P, Nk, method):
    """The het and hom branches of mode_rates before the classical rate
    joined it, verbatim."""
    ns = lams * P
    if method == "het":
        return np.log2(1.0 + ns / (Nk + 1.0))
    if method == "hom":
        return 0.5 * np.log2(1.0 + 2.0 * ns / (Nk + 0.5))
    raise ValueError("method must be 'holevo', 'het' or 'hom'")


def _reference_waterfill_het_hom(params, P, kind):
    """Verbatim copy of waterfill_het_hom before it delegated to
    diagonal_capacity, with module names qualified."""
    if kind not in cap._METHOD_NAMES:
        raise ValueError("kind must be 'het' or 'hom'")
    if P < 0:
        raise NoFeasibleWaterlevel("power budget must be nonnegative")
    lams, Nk = ref._checked_noise(params)
    with np.errstate(divide="ignore"):
        if kind == "het":
            floors = np.where(lams > 0, (Nk + 1.0) / lams, np.inf)
        else:
            floors = np.where(lams > 0, (Nk + 0.5) / (2.0 * lams), np.inf)
    per_mode, mu = ref._waterfill_floors(floors, float(P))
    alloc = PowerAllocation(per_mode, float(P))
    bits = float(np.add.reduce(_reference_mode_rates(lams, per_mode, Nk, kind)))
    return cap.CapacityResult(bits, cap._METHOD_NAMES[kind], alloc, mu)


def _reference_classical_capacity(lambdas, xi, P):
    """Verbatim copy of classical_capacity before it delegated to
    diagonal_capacity, with module names qualified."""
    if xi <= 0:
        raise ZeroNoiseClassical("classical capacity diverges at xi <= 0")
    if P < 0:
        raise NoFeasibleWaterlevel("power budget must be nonnegative")
    lams = np.asarray(lambdas, dtype=float)
    with np.errstate(divide="ignore"):
        floors = np.where(lams > 0, xi / lams, np.inf)
    per_mode, mu = ref._waterfill_floors(floors, float(P))
    with np.errstate(invalid="ignore"):
        rates = np.log2(1.0 + np.where(per_mode > 0, per_mode / floors, 0.0))
    bits = float(np.sum(rates))
    return cap.CapacityResult(bits, "classical", PowerAllocation(per_mode, float(P)), mu)


def classical_rate_bound(m, bits):
    """Bound on |C - C_ref| between the two forms of the classical rate.

    With x = lambda_k P_k / xi, the reference rounds u = P_k / fl(xi /
    lambda_k) and the engine v = fl(lambda_k P_k) / xi; two roundings each,
    of unit roundoff eps/2, so |u - v| <= 2 eps x to first order.  Rounding
    1 + u and 1 + v adds eps/2 (1 + x) each, so log2(1 + u) and log2(1 + v)
    differ by at most (2 eps x + eps (1 + x)) / ((1 + x) ln 2) <= 3 eps / ln
    2 per mode.  Each log2 is good to 1 ulp, eps r_k, on either side: 2 eps
    C over the modes.  Summing m positive rates rounds each side by at most
    (m/2) eps C.  In total |C - C_ref| <= eps (3 m / ln 2 + (m + 2) C), a
    relative bound of eps (m + 2 + 3 m / (C ln 2)).
    """
    return _EPS * (3.0 * m / math.log(2.0) + (m + 2) * bits)


_EPS = np.finfo(float).eps


def test_parallel_waterfills_match_the_reference():
    """het, hom and classical water-fills through diagonal_capacity against
    the verbatim copies above: het and hom bit for bit, classical with the
    same split and water level and bits within classical_rate_bound."""
    rng = np.random.default_rng(20261020)
    seen = {"dead": 0, "zero": 0, "tiny": 0, "large": 0}
    for _ in range(2000):
        modes = int(rng.integers(1, 25))
        lams = rng.uniform(0.0, 1.0, size=modes)
        lams[rng.uniform(size=modes) < 0.1] = 0.0
        lams[rng.uniform(size=modes) < 0.1] += rng.uniform(0.0, 2.0)
        n = 0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.0, 1.0))
        xi = 0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.0, 0.5))
        u = rng.uniform()
        if u < 0.1:
            P = 0.0
        elif u < 0.25:
            P = float(10.0 ** rng.uniform(-9.0, -6.0))
        elif u < 0.4:
            P = float(10.0 ** rng.uniform(4.0, 6.0))
        else:
            P = float(10.0 ** rng.uniform(-3.0, 3.0))
        seen["dead"] += bool((lams == 0).any())
        seen["zero"] += P == 0
        seen["tiny"] += 0 < P <= 1e-6
        seen["large"] += P >= 1e4
        params = [(float(lam), n, xi) for lam in lams]
        for kind in ("het", "hom"):
            got = cap.waterfill_het_hom(params, P, kind)
            want = _reference_waterfill_het_hom(params, P, kind)
            assert float.hex(got.bits) == float.hex(want.bits)
            assert (got.allocation.per_mode.tobytes()
                    == want.allocation.per_mode.tobytes())
            assert got.waterlevel == want.waterlevel
            assert got.method == want.method
        xi_c = xi if xi > 0 else float(rng.uniform(0.01, 1.0))
        got = cap.classical_capacity(lams, xi_c, P)
        want = _reference_classical_capacity(lams, xi_c, P)
        assert (got.allocation.per_mode.tobytes()
                == want.allocation.per_mode.tobytes())
        assert got.waterlevel == want.waterlevel
        assert abs(got.bits - want.bits) <= classical_rate_bound(modes,
                                                                 want.bits)
    assert min(seen.values()) >= 100, seen


def test_one_mode_classical_bits_follow_the_allocation():
    """With one mode, uniform and water-filled classical results are
    bit-equal: both put exactly P on the mode."""
    rng = np.random.default_rng(0)
    for _ in range(20000):
        lam = rng.uniform(1e-3, 1.5)
        P = 10.0 ** rng.uniform(-3.0, 4.0)
        xi = rng.uniform(0.01, 1.0)
        modes = [(lam, 0.0, xi)]
        uniform = cap.diagonal_capacity(modes, P, "classical", "uniform", 1)
        filled = cap.diagonal_capacity(modes, P, "classical", "waterfill", 1)
        assert filled.allocation.per_mode[0] == P
        assert float.hex(filled.bits) == float.hex(uniform.bits)


def test_classical_rate_uses_each_modes_own_xi():
    """The classical rate of mode k is log2(1 + lambda_k P_k / xi_k), so the
    order of the modes does not change the result.

    Only the summation order of the m rates changes with the order of the
    modes; the pairwise sum of m positive terms rounds by at most (m - 1)
    eps of the total either way, so the two results differ by at most
    2 m eps of it.  The split itself comes from the sorted floors and does
    not depend on the order at all.
    """
    two = [(0.5, 0.0, 0.1), (0.5, 0.0, 1.0)]
    want = math.log2(1.0 + 0.25 / 0.1) + math.log2(1.0 + 0.25 / 1.0)
    for params in (two, two[::-1]):
        got = cap.diagonal_capacity(params, 1.0, "classical", "uniform", 2)
        assert got.bits == pytest.approx(want, rel=4 * _EPS)
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(1, 9))
        params = list(zip(rng.uniform(0.0, 1.5, m).tolist(),
                          rng.uniform(0.0, 1.0, m).tolist(),
                          rng.uniform(0.01, 1.0, m).tolist()))
        perm = rng.permutation(m)
        P = float(10.0 ** rng.uniform(-3.0, 3.0))
        for alloc in ("uniform", "waterfill"):
            res = cap.diagonal_capacity(params, P, "classical", alloc, m)
            moved = cap.diagonal_capacity([params[i] for i in perm], P,
                                          "classical", alloc, m)
            assert (moved.allocation.per_mode.tobytes()
                    == res.allocation.per_mode[perm].tobytes())
            assert abs(moved.bits - res.bits) <= 2 * m * _EPS * res.bits
            rates = [math.log2(1.0 + lam * p / xi) for (lam, _, xi), p
                     in zip(params, res.allocation.per_mode)]
            assert res.bits == pytest.approx(math.fsum(rates), rel=1e-13)


class TestHetHom:
    def test_het_identity_mode(self):
        # log2(1 + lambda P / (N + 1)) with lambda=1, N=0, P=3
        bits = cap.het_hom_per_mode([(1.0, 0.0, 0.0)], alloc([3.0]), "het")
        assert bits == pytest.approx(2.0, abs=1e-12)

    def test_hom_identity_mode(self):
        # (1/2) log2(1 + 2 * 3 / 0.5) = (1/2) log2 13
        bits = cap.het_hom_per_mode([(1.0, 0.0, 0.0)], alloc([3.0]), "hom")
        assert bits == pytest.approx(0.5 * math.log2(13.0), abs=1e-12)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            cap.het_hom_per_mode([(1.0, 0.0, 0.0)], alloc([1.0]), "dyne")

    def test_waterfill_symmetric(self):
        res = cap.waterfill_het_hom([(1.0, 0.0, 0.0)] * 2, 2.0, "het")
        assert np.allclose(res.allocation.per_mode, [1.0, 1.0], atol=1e-12)
        assert res.bits == pytest.approx(2.0, abs=1e-12)

    def test_waterfill_skips_dead_mode(self):
        res = cap.waterfill_het_hom([(1.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
                                    2.0, "het")
        assert np.allclose(res.allocation.per_mode, [2.0, 0.0], atol=1e-12)
        assert res.bits == pytest.approx(LOG2_3, abs=1e-12)

    def test_waterfill_beats_uniform(self):
        rng = np.random.default_rng(2718)
        for kind in ("het", "hom"):
            for _ in range(20):
                params = random_params(rng)
                P = float(rng.uniform(0.5, 25.0))
                res = cap.waterfill_het_hom(params, P, kind)
                uni = cap.het_hom_per_mode(params, uniform_allocation(3, P),
                                           kind)
                assert res.bits >= uni - 1e-9


class TestGeneralForms:
    def test_het_reduces_to_per_mode(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = rng.integers(1, 4)
            c = 0.7 * (rng.standard_normal((n, n))
                       + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
            ch = block_form_channel(c, NoiseParams(rng.uniform(0, 0.8),
                                                   rng.uniform(0, 0.2)))
            params = diagonal_channel_params(ch)
            P = float(rng.uniform(1.0, 20.0))
            ref = cap.het_hom_per_mode(params, uniform_allocation(n, P),
                                       "het")
            got = cap.het_hom_general(ch, (P / n) * np.eye(2 * n), "het")
            assert got == pytest.approx(ref, abs=1e-9)

    def test_hom_reduces_to_per_mode_with_q_modulation(self):
        # single mode in canonical form: all modulation in q, measure q
        lam, n, xi, P = 0.36, 0.3, 0.1, 5.0
        ch = block_form_channel(np.array([[np.sqrt(lam)]]), NoiseParams(n, xi))
        ref = cap.het_hom_per_mode(diagonal_channel_params(ch), alloc([P]),
                                   "hom")
        got = cap.het_hom_general(ch, np.diag([2.0 * P, 0.0]), "hom")
        assert got == pytest.approx(ref, abs=1e-12)

    def test_zero_modulation_is_zero_bits(self):
        ch = block_form_channel(np.array([[np.sqrt(0.5)]]))
        assert cap.het_hom_general(ch, np.zeros((2, 2)), "het") == 0.0

    def test_singular_noise(self):
        dead = GaussianChannel(np.zeros((2, 2)), np.zeros((2, 2)),
                               NoiseParams())
        with pytest.raises(SingularNoise):
            cap.het_hom_general(dead, np.zeros((2, 2)), "hom")

    @pytest.mark.parametrize("kind", ["het", "hom"])
    @pytest.mark.parametrize("noise", [[0.0, 0.0, 0.0, 0.0],
                                       [1.0, 1e-15, 1.0, 1.0]],
                             ids=["zero", "cond-1e15"])
    def test_singular_noise_by_condition_number(self, kind, noise):
        # Y is chosen so that the measured noise, H H^T / 2 + Y plus I/2 for
        # het, is diag(noise)
        shift = 0.5 if kind == "het" else 0.0
        ch = GaussianChannel(np.zeros((4, 4)), np.diag(noise) - shift * np.eye(4),
                             NoiseParams())
        with pytest.raises(SingularNoise):
            cap.het_hom_general(ch, np.eye(4), kind)

    def test_well_conditioned_noise_is_not_singular(self):
        ch = GaussianChannel(np.zeros((4, 4)), np.diag([1.0, 1e-13, 1.0, 1.0]),
                             NoiseParams())
        assert cap.het_hom_general(ch, np.eye(4), "hom") == 0.0

    def test_aligned_hom_singular_noise(self):
        # zero noise: the measured 1 x 1 noise matrix is 0, a 0/0 ratio
        dead = GaussianChannel(np.zeros((2, 2)), np.zeros((2, 2)),
                               NoiseParams())
        with pytest.raises(SingularNoise):
            cap.hom_general_aligned(dead, 1.0)
        # H = diag(2, 1, 2, 1) measures one direction of each mode; with
        # H H^T / 2 + Y = diag(1, 1e-15, 1, 1e-15) the measured noise has
        # condition number 1e15 whichever direction that is
        H = np.diag([2.0, 1.0, 2.0, 1.0])
        Y = np.diag([1.0, 1e-15, 1.0, 1e-15]) - 0.5 * H @ H.T
        with pytest.raises(SingularNoise):
            cap.hom_general_aligned(GaussianChannel(H, Y, NoiseParams()), 1.0)

    def test_aligned_hom_matches_per_mode_on_block_form(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = rng.integers(1, 5)
            c = 0.8 * (rng.standard_normal((n, n))
                       + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
            ch = block_form_channel(c, NoiseParams(rng.uniform(0, 0.6),
                                                   rng.uniform(0, 0.2)))
            params = diagonal_channel_params(ch)
            P = float(rng.uniform(1.0, 20.0))
            ref = cap.het_hom_per_mode(params, uniform_allocation(n, P),
                                       "hom")
            got = cap.hom_general_aligned(ch, P)
            assert got == pytest.approx(ref, abs=1e-9)

    def test_aligned_hom_beats_misaligned_q_measurement(self):
        # rotate a two-mode channel so lab q-quadratures mix the normal modes
        rng = np.random.default_rng(60)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        c = u @ np.diag([0.9, 0.3])
        ch = block_form_channel(c, NoiseParams(0.1))
        P = 10.0
        v = np.diag([P, P, 0.0, 0.0])
        lab = cap.het_hom_general(ch, v, "hom")
        aligned = cap.hom_general_aligned(ch, P)
        assert aligned > lab


class TestAsymptotics:
    def test_limits(self):
        assert cap.asymptotic_limits(15.0, "het") == pytest.approx(
            21.64042561333445, abs=1e-12)
        assert cap.asymptotic_limits(15.0, "hom") == pytest.approx(
            43.2808512266689, abs=1e-12)
        with pytest.raises(ValueError):
            cap.asymptotic_limits(-1.0, "het")

    def test_het_finite_n_gap_bound(self):
        # N log2(1 + P/N) approaches P/ln2 from below with gap
        # P^2/(2 N ln2) + O(1/N^2); allow 10% slack on the leading term
        P = 15.0
        for N in (64, 256, 1024, 4096):
            params = [(1.0, 0.0, 0.0)] * N
            bits = cap.het_hom_per_mode(params, uniform_allocation(N, P),
                                        "het")
            gap = cap.asymptotic_limits(P, "het") - bits
            assert 0 < gap < 1.1 * P * P / (2 * N * math.log(2))

    def test_hom_gap_halves_when_modes_double(self):
        P = 15.0
        gaps = []
        for N in (512, 1024, 2048, 4096):
            params = [(1.0, 0.0, 0.0)] * N
            bits = cap.het_hom_per_mode(params, uniform_allocation(N, P),
                                        "hom")
            gaps.append(cap.asymptotic_limits(P, "hom") - bits)
        for wide, narrow in zip(gaps, gaps[1:]):
            assert narrow == pytest.approx(wide / 2, rel=0.05)

    def test_hom_4096_closed_form(self):
        # (N/2) log2(1 + 4P/N) evaluated exactly at N=4096, P=15
        params = [(1.0, 0.0, 0.0)] * 4096
        bits = cap.het_hom_per_mode(params, uniform_allocation(4096, 15.0),
                                    "hom")
        assert bits == pytest.approx(42.96691487582571, abs=1e-10)


class TestClassical:
    def test_single_mode(self):
        res = cap.classical_capacity([1.0], 1.0, 3.0)
        assert res.bits == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_split(self):
        res = cap.classical_capacity([1.0, 1.0], 1.0, 2.0)
        assert res.bits == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(res.allocation.per_mode, [1.0, 1.0], atol=1e-12)

    def test_weak_mode_starved(self):
        res = cap.classical_capacity([1.0, 0.01], 1.0, 0.5)
        assert res.allocation.per_mode[1] == 0.0
        assert res.allocation.per_mode[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_noise_rejected(self):
        with pytest.raises(ZeroNoiseClassical):
            cap.classical_capacity([1.0], 0.0, 1.0)


def test_holevo_dominates_measured_capacities():
    rng = np.random.default_rng(314159)
    for _ in range(200):
        params = random_params(rng)
        P = float(rng.uniform(0.2, 30.0))
        chi = cap.waterfill_holevo(params, P).bits
        het = cap.waterfill_het_hom(params, P, "het").bits
        hom = cap.waterfill_het_hom(params, P, "hom").bits
        assert chi >= het - 1e-9
        assert chi >= hom - 1e-9


# The table engine against the per-row path it replaced (reference_capacity):
# each row of a (rows, modes) table gets, bit for bit, the bits, split and
# water level that the row gets alone.

METHOD_ALLOCS = [(method, alloc) for method in ("holevo", "het", "hom",
                                                "classical")
                 for alloc in ("uniform", "waterfill")]


def _table(rows):
    """A zero-padded table of the 1-D rows and their lengths."""
    lengths = np.array([len(r) for r in rows])
    lams = np.zeros((len(rows), max(lengths)))
    for i, r in enumerate(rows):
        lams[i, :len(r)] = r
    return lams, lengths


def _assert_rows_match_reference(lams, lengths, n_signal, n, xi, P, method,
                                 alloc):
    bits, per_mode, mu = cap._capacity_table(lams, lengths, n_signal, n, xi,
                                             P, method, alloc)
    ns, xis = (np.broadcast_to(v, lams.shape) for v in (n, xi))
    for i, length in enumerate(lengths):
        params = list(zip(lams[i, :length], ns[i, :length], xis[i, :length]))
        want = ref.diagonal_capacity(params, P, method, alloc, n_signal[i])
        assert float.hex(float(bits[i])) == float.hex(want.bits)
        assert (per_mode[i, :length].tobytes()
                == want.allocation.per_mode.tobytes())
        assert not per_mode[i, length:].any()
        got_mu = None if mu is None or np.isnan(mu[i]) else float(mu[i])
        assert got_mu == want.waterlevel


@pytest.mark.parametrize("rule", ["0.2+0.7*k/N", "1-k/(2*N)", "0.9"])
@pytest.mark.parametrize("P, n, xi", [(7.5, 0.3, 0.1), (1e-6, 0.0, 0.1),
                                      (1e4, 0.0, 0.1), (15.0, 0.0, 0.1),
                                      (0.0, 0.3, 0.1)])
def test_engine_rows_on_the_golden_rules(rule, P, n, xi):
    Ns = np.arange(1, 25)
    lams, lengths = _table([_rule_array(rule, N) for N in Ns])
    for method, alloc in METHOD_ALLOCS:
        _assert_rows_match_reference(lams, lengths, Ns, n, xi, P, method,
                                     alloc)


def test_engine_rows_on_random_tables():
    """Rows of 1-24 modes with dead (lambda = 0) modes, lambda up to 3,
    per-row n and xi, and budgets P = 0, P <= 1e-6, P >= 1e4 and between;
    signal-mode counts below the row length pad it with unpowered modes, as
    the diagonal form of a channel with K > N receivers does."""
    rng = np.random.default_rng(20261021)
    seen = {"dead": 0, "signal<length": 0}
    budgets = {"zero": 0, "tiny": 0, "large": 0}
    for _ in range(60):
        rows = []
        for _ in range(int(rng.integers(1, 20))):
            lam = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 25)))
            lam[rng.uniform(size=lam.size) < 0.15] = 0.0
            lam[rng.uniform(size=lam.size) < 0.1] += rng.uniform(0.0, 2.0)
            rows.append(lam)
        lams, lengths = _table(rows)
        n_signal = np.where(rng.uniform(size=len(rows)) < 0.3,
                            rng.integers(1, lengths + 1), lengths)
        n = np.where(rng.uniform(size=(len(rows), 1)) < 0.2, 0.0,
                     rng.uniform(0.0, 1.0, size=(len(rows), 1)))
        xi = rng.uniform(0.01, 0.5, size=(len(rows), 1))
        u = rng.uniform()
        P = (0.0 if u < 0.1 else float(10.0 ** rng.uniform(-9.0, -6.0))
             if u < 0.25 else float(10.0 ** rng.uniform(4.0, 6.0))
             if u < 0.4 else float(10.0 ** rng.uniform(-3.0, 3.0)))
        seen["dead"] += bool((lams[np.arange(lams.shape[1])
                                   < lengths[:, None]] == 0).any())
        seen["signal<length"] += bool((n_signal < lengths).any())
        budgets["zero"] += P == 0
        budgets["tiny"] += 0 < P <= 1e-6
        budgets["large"] += P >= 1e4
        for method, alloc in METHOD_ALLOCS:
            _assert_rows_match_reference(lams, lengths, n_signal, n, xi, P,
                                         method, alloc)
    assert min(seen.values()) >= 30 and min(budgets.values()) >= 4, (
        seen, budgets)


@pytest.mark.parametrize("N,K,M", [(1, 1, 1), (2, 2, 2), (4, 2, 3),
                                   (2, 3, 3), (100, 100, 100)])
@pytest.mark.parametrize("method", ["holevo", "het", "hom"])
def test_engine_reduces_a_passive_table_as_the_monte_carlo_driver_did(
        N, K, M, method):
    spec = EnsembleSpec(N=N, K=K, M=M, noise=NoiseParams(0.3, 0.1), seed=5)
    lams = passive_transmissions(spec, 200 if N < 100 else 8)
    rows = np.full(len(lams), lams.shape[1])
    for P in (0.0, 1e-6, 6.0, 1e4):
        bits = cap._capacity_table(lams, rows, np.full(len(lams), N), 0.3,
                                   0.1, P, method, "uniform")[0]
        assert bits.tobytes() == ref._passive_bits(spec, lams, P,
                                                   method).tobytes()


def test_engine_raises_for_the_first_failing_row():
    lams = np.array([[0.5, 0.0], [0.5, 0.2], [0.4, 0.0]])
    lengths = np.array([1, 2, 2])
    n = np.array([[0.0], [-0.9], [-0.95]])
    with pytest.raises(NegativeEntropyArgument) as raised:
        cap._capacity_table(lams, lengths, lengths, n, 0.0, 1.0, "het",
                            "uniform")
    with pytest.raises(NegativeEntropyArgument) as alone:
        ref.diagonal_capacity([(0.5, -0.9, 0.0), (0.2, -0.9, 0.0)], 1.0,
                              "het", "uniform", 2)
    assert str(raised.value) == str(alone.value)
