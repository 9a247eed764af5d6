"""Weakly-active random channels: Bogoliubov sampling, symplectic assembly
and the Monte-Carlo capacity estimator."""

import csv
import math

import numpy as np
import pytest
from reference_capacity import _passive_bits

from gausscap.active import (
    active_sample,
    bogoliubov_sample,
    bogoliubov_to_symplectic,
    mc_capacity_active,
)
from gausscap.capacity import diagonal_capacity
from gausscap.channels import NoiseParams, validate_channel
from gausscap.decomposition import diagonal_channel_params
from gausscap.ensembles import (
    EnsembleSpec,
    expected_capacity_passive,
    passive_channel_sample,
    passive_transmissions,
    philox_stream,
)
from gausscap.errors import InsufficientEnvironment
from gausscap.phasespace import is_symplectic


def spec_for(N, K, M, sigma2, seed=0, n=0.0, xi=0.0):
    return EnsembleSpec(N=N, K=K, M=M, noise=NoiseParams(n, xi),
                        sigma2=sigma2, seed=seed)


@pytest.mark.parametrize("sigma2", [0.01, 0.1])
def test_bogoliubov_identities(sigma2):
    for i in range(50):
        s = bogoliubov_sample(4, sigma2, philox_stream(21, i))
        assert np.max(np.abs(s.A @ s.A.conj().T
                             - s.B @ s.B.conj().T - np.eye(4))) < 1e-9
        assert np.max(np.abs(s.A @ s.B.T - s.B @ s.A.T)) < 1e-9


def test_zero_squeezing_collapses_to_unitary():
    s = bogoliubov_sample(3, 0.0, philox_stream(5, 0))
    assert np.max(np.abs(s.B)) == 0.0
    assert np.allclose(s.A @ s.A.conj().T, np.eye(3), atol=1e-12)
    assert np.array_equal(s.R, np.zeros(3))


def test_assembled_transform_is_symplectic():
    for i in range(20):
        s = bogoliubov_sample(3, 0.2, philox_stream(33, i))
        H = bogoliubov_to_symplectic(s)
        assert H.shape == (6, 6)
        assert is_symplectic(H, 1e-8)


def test_active_sample_matches_passive_at_zero_squeezing():
    s0 = spec_for(2, 2, 2, sigma2=0.0, seed=77)
    for i in range(10):
        a = active_sample(s0, philox_stream(77, i))
        p = passive_channel_sample(s0, philox_stream(77, i))
        assert np.max(np.abs(a.H_s - p.H_s)) < 1e-12
        assert np.max(np.abs(a.Y - p.Y)) < 1e-12


@pytest.mark.parametrize("sigma2", [0.01, 0.1])
def test_active_samples_are_valid_channels(sigma2):
    s = spec_for(2, 2, 2, sigma2=sigma2)
    for i in range(100):
        ch = active_sample(s, philox_stream(9, i))
        assert validate_channel(ch, tol=1e-8)


def test_active_gain_can_exceed_unity():
    # with squeezing in the loop some draws amplify: max singular value > 1
    s = spec_for(1, 1, 1, sigma2=0.04)
    tops = []
    for i in range(200):
        ch = active_sample(s, philox_stream(123, i))
        tops.append(np.linalg.svd(ch.H_s, compute_uv=False)[0] ** 2)
    assert max(tops) > 1.0


def test_passive_draws_need_no_rectangular_opt_in():
    # at sigma2 = 0 a sample is a Haar corner block, valid for any K <= N + M
    s = spec_for(2, 3, 3, sigma2=0.0, seed=2)
    for i in range(5):
        a = active_sample(s, philox_stream(2, i))
        p = passive_channel_sample(s, philox_stream(2, i))
        assert np.array_equal(a.H_s, p.H_s) and np.array_equal(a.Y, p.Y)
    assert (mc_capacity_active(s, 5.0, "holevo", 100)
            == mc_capacity_active(s, 5.0, "holevo", 100, allow_rect=True))
    with pytest.raises(InsufficientEnvironment):
        mc_capacity_active(spec_for(2, 3, 3, sigma2=0.05), 5.0, "holevo", 4)


def test_rectangular_extraction_is_opt_in():
    s = spec_for(1, 2, 2, sigma2=0.05)
    with pytest.raises(InsufficientEnvironment):
        active_sample(s, philox_stream(1, 0))
    ch = active_sample(s, philox_stream(1, 0), allow_rect=True)
    assert ch.H_s.shape == (4, 2)
    assert validate_channel(ch, tol=1e-8)


class TestMonteCarloActive:
    def test_zero_squeezing_equals_passive_path(self):
        from gausscap.ensembles import mc_expected_capacity_passive

        s = spec_for(2, 2, 2, sigma2=0.0, seed=3)
        act = mc_capacity_active(s, 10.0, "holevo", 300)
        pas = mc_expected_capacity_passive(s, 10.0, "holevo", 300)
        assert act[0] == pytest.approx(pas[0], abs=1e-12)

    def test_passive_limit_cross_check(self):
        s = spec_for(1, 1, 1, sigma2=0.0, seed=10)
        mean, se = mc_capacity_active(s, 15.0, "holevo", 3000)
        ana = expected_capacity_passive(s, 15.0, "holevo")
        assert abs(mean - ana) < 3 * se

    def test_small_sigma_continuity(self):
        near = spec_for(2, 2, 2, sigma2=1e-6, seed=6)
        zero = spec_for(2, 2, 2, sigma2=0.0, seed=6)
        m1, s1 = mc_capacity_active(near, 12.0, "het", 500)
        m0, s0 = mc_capacity_active(zero, 12.0, "het", 500)
        assert abs(m1 - m0) < 5 * (s1 ** 2 + s0 ** 2) ** 0.5

    def test_deterministic_across_threads(self):
        s = spec_for(2, 2, 2, sigma2=0.05, seed=8)
        one = mc_capacity_active(s, 10.0, "hom", 300, threads=1)
        four = mc_capacity_active(s, 10.0, "hom", 300, threads=4)
        assert one == four

    @pytest.mark.parametrize("N,K,M", [(2, 2, 2), (3, 2, 2), (4, 4, 4)])
    @pytest.mark.parametrize("method", ["holevo", "het", "hom"])
    def test_block_form_draws_take_the_diagonal_path(self, N, K, M, method):
        # At sigma2 = 1e-24 every draw is block-form with thermal noise, so
        # each sample must equal the diagonal capacity of its channel
        samples, seed, P = 200, 17, 6.0
        s = spec_for(N, K, M, sigma2=1e-24, seed=seed, n=0.3, xi=0.1)
        ref = np.array([
            diagonal_capacity(
                diagonal_channel_params(active_sample(s, philox_stream(seed, i))),
                P, method, "uniform", N).bits
            for i in range(samples)])
        got = mc_capacity_active(s, P, method, samples, threads=2)
        assert got == (float(np.mean(ref)),
                       float(np.std(ref, ddof=1) / math.sqrt(samples)))

    def test_sample_dump(self, tmp_path):
        path = tmp_path / "samples.csv"
        s = spec_for(1, 1, 1, sigma2=0.02, seed=4)
        mc_capacity_active(s, 5.0, "het", 50, dump_path=str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_index", "capacity_bits", "max_singular_sq"]
        assert len(rows) == 51
        assert [int(r[0]) for r in rows[1:]] == list(range(50))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            mc_capacity_active(spec_for(1, 1, 1, 0.0), 1.0, "het", 1)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            mc_capacity_active(spec_for(1, 1, 1, 0.0), 1.0, "shannon", 10)

    @pytest.mark.parametrize("sigma2", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_rejects_seed_outside_philox_key_range(self, sigma2, seed):
        with pytest.raises(ValueError):
            mc_capacity_active(spec_for(2, 2, 2, sigma2), 1.0, "het", 4, seed)
        with pytest.raises(ValueError):
            mc_capacity_active(spec_for(2, 2, 2, sigma2, seed=seed), 1.0,
                               "het", 4)


def _printed_close(text, value, tol):
    # a %.12g value is within half a unit of its 12th significant digit
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)
    return abs(float(text) - value) <= tol + half_unit


@pytest.mark.parametrize("N,K,M", [(1, 1, 1), (2, 2, 2), (2, 1, 2), (2, 3, 3),
                                   (3, 2, 2)])
def test_batched_passive_matches_per_sample_channels(N, K, M, tmp_path):
    # The reference is the per-sample path: build each channel, decompose
    # it, evaluate diagonal_capacity.  2,000 samples per configuration make
    # 10^4 over the five.
    samples, seed, P, tol = 2000, 23, 6.0, 1e-12
    spec = EnsembleSpec(N=N, K=K, M=M, noise=NoiseParams(0.3, 0.1), seed=seed)
    channels = [passive_channel_sample(spec, philox_stream(seed, i))
                for i in range(samples)]
    params = [diagonal_channel_params(ch) for ch in channels]
    lams = passive_transmissions(spec, samples)
    ref_lams = np.array([[p[0] for p in row[:min(K, N)]] for row in params])
    assert np.max(np.abs(lams - ref_lams)) <= tol
    for method in ("holevo", "het", "hom"):
        ref = [diagonal_capacity(p, P, method, "uniform", N).bits for p in params]
        bits = _passive_bits(spec, lams, P, method)
        assert np.max(np.abs(bits - ref)) <= tol

        path = tmp_path / ("%s.csv" % method)
        got = mc_capacity_active(spec, P, method, samples, allow_rect=True,
                                 dump_path=str(path))
        assert got == (float(np.mean(bits)),
                       float(np.std(bits, ddof=1) / math.sqrt(samples)))
        with open(path, newline="") as fh:
            dumped = list(csv.reader(fh))[1:]
        assert [int(row[0]) for row in dumped] == list(range(samples))
        for row, ref_bits, ch in zip(dumped, ref, channels):
            assert _printed_close(row[1], ref_bits, tol)
            assert _printed_close(row[2], np.linalg.norm(ch.H_s, 2) ** 2, tol)
