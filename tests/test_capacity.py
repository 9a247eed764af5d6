"""Capacity engine tests: Holevo, heterodyne/homodyne, water-filling and the
classical baseline.  Expected values are frozen from closed forms evaluated
independently of the library (stdlib math / direct formulas)."""

import math

import numpy as np
import pytest

from gausscap import capacity as cap
from gausscap.capacity import PowerAllocation
from gausscap.channels import GaussianChannel, NoiseParams, block_form_channel
from gausscap.decomposition import diagonal_channel_params
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


def test_uniform_allocation():
    a = cap.uniform_allocation(3, 9.0)
    assert np.allclose(a.per_mode, [3.0, 3.0, 3.0])
    # receivers beyond the transmitter count carry no power
    b = cap.uniform_allocation(3, 8.0, n_signal_modes=2)
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
        a = cap.uniform_allocation(modes, P)
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
            a = cap.uniform_allocation(len(params), P, n_signal_modes=n)
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
            uni = cap.holevo_diagonal(params, cap.uniform_allocation(3, P))
            assert res.bits >= uni - 1e-9

    @pytest.mark.parametrize("P", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("lam", [1e-70, 1e-100, 1e-300])
    def test_unconverged_single_mode_spends_the_budget(self, lam, P):
        # below about 4e-63 the 200 bisection steps cannot reach the water
        # level; one mode must still get all of P, as under the uniform split
        res = cap.waterfill_holevo([(lam, 0.0, 0.0)], P)
        uni = cap.holevo_diagonal([(lam, 0.0, 0.0)],
                                  cap.uniform_allocation(1, P))
        assert res.bits > 0
        assert res.bits == pytest.approx(uni, rel=1e-15, abs=0)
        assert res.allocation.per_mode[0] == pytest.approx(P, rel=1e-15,
                                                           abs=0)

    @pytest.mark.parametrize("P", [0.3, 1.0, 7.0])
    def test_unconverged_modes_spend_the_budget(self, P):
        params = [(1e-100 * k, 0.0, 0.0) for k in (1, 2, 3)]
        res = cap.waterfill_holevo(params, P)
        uni = cap.holevo_diagonal(params, cap.uniform_allocation(3, P))
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

    lams, Nk = cap._checked_noise(params)
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

    A verbatim copy of _waterfill_floors before its water level came from
    one array of candidate levels.
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
    alloc = np.zeros(floors.shape)
    alloc[order[:m]] = np.maximum(mu - f[:m], 0.0)
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
        got, mu = cap._waterfill_floors(floors, P)
        want, want_mu = _reference_waterfill_floors(floors, P)
        assert got.tobytes() == want.tobytes()
        assert mu == want_mu and type(mu) is type(want_mu)
    assert min(seen.values()) >= 50, seen


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
                uni = cap.het_hom_per_mode(params, cap.uniform_allocation(3, P),
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
            ref = cap.het_hom_per_mode(params, cap.uniform_allocation(n, P),
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
            ref = cap.het_hom_per_mode(params, cap.uniform_allocation(n, P),
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
            bits = cap.het_hom_per_mode(params, cap.uniform_allocation(N, P),
                                        "het")
            gap = cap.asymptotic_limits(P, "het") - bits
            assert 0 < gap < 1.1 * P * P / (2 * N * math.log(2))

    def test_hom_gap_halves_when_modes_double(self):
        P = 15.0
        gaps = []
        for N in (512, 1024, 2048, 4096):
            params = [(1.0, 0.0, 0.0)] * N
            bits = cap.het_hom_per_mode(params, cap.uniform_allocation(N, P),
                                        "hom")
            gaps.append(cap.asymptotic_limits(P, "hom") - bits)
        for wide, narrow in zip(gaps, gaps[1:]):
            assert narrow == pytest.approx(wide / 2, rel=0.05)

    def test_hom_4096_closed_form(self):
        # (N/2) log2(1 + 4P/N) evaluated exactly at N=4096, P=15
        params = [(1.0, 0.0, 0.0)] * 4096
        bits = cap.het_hom_per_mode(params, cap.uniform_allocation(4096, 15.0),
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
