"""Random passive ensembles: Haar sampling, Jacobi spectral densities,
analytic expected capacities and the seeded Monte Carlo estimator."""

import numpy as np
import pytest

from gausscap import ensembles
from gausscap._kernels import jacobi_sq_series
from gausscap.channels import NoiseParams
from gausscap.ensembles import (
    EnsembleSpec,
    expected_capacity_passive,
    haar_unitary,
    jacobi_norm_h,
    jacobi_polynomial,
    mc_expected_capacity_passive,
    passive_channel_sample,
    passive_transmissions,
    philox_stream,
    sample_lambda_spectrum,
    spectral_density,
)
from gausscap.errors import InsufficientEnvironment

# closed form of the single-mode identity-ensemble heterodyne average:
# integral_0^1 log2(1 + 15 lambda) d lambda = (16 ln 16 - 15)/(15 ln 2)
HET_111_P15 = 2.823971625777703
# integral_0^1 g(15 lambda) d lambda by 400-point Gauss-Legendre quadrature
HOLEVO_111_P15 = 4.110306346036227


def spec_for(N, K, M, sigma2=0.0, seed=0, n=0.0, xi=0.0):
    return EnsembleSpec(N=N, K=K, M=M, noise=NoiseParams(n, xi),
                        sigma2=sigma2, seed=seed)


class TestHaar:
    def test_unitarity(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2, 5, 8):
            u = haar_unitary(dim, rng)
            assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)

    def test_deterministic_given_stream(self):
        a = haar_unitary(4, np.random.default_rng(7))
        b = haar_unitary(4, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_first_entry_moment(self):
        # E|u_00|^2 = 1/dim for Haar; loose Monte Carlo check
        rng = np.random.default_rng(17)
        vals = [abs(haar_unitary(3, rng)[0, 0]) ** 2 for _ in range(4000)]
        assert np.mean(vals) == pytest.approx(1.0 / 3.0, abs=0.02)


class TestJacobi:
    def test_low_orders(self):
        assert jacobi_polynomial(0, 2, 5, 0.3) == 1.0
        # P_1^{(a,b)}(x) = (a+1) + (a+b+2)(x-1)/2
        for a, b, x in [(0, 0, 0.4), (1, 0, -0.7), (2, 3, 0.1)]:
            expected = (a + 1) + (a + b + 2) * (x - 1) / 2
            assert jacobi_polynomial(1, a, b, x) == pytest.approx(
                expected, abs=1e-12)

    def test_frozen_values(self):
        # explicit binomial-sum evaluations
        assert jacobi_polynomial(2, 1, 0, 0.3) == pytest.approx(0.025,
                                                                abs=1e-12)
        assert jacobi_polynomial(1, 0, 1, -0.2) == pytest.approx(-0.8,
                                                                 abs=1e-12)
        assert jacobi_polynomial(3, 2, 1, 0.5) == pytest.approx(-0.0625,
                                                                abs=1e-12)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(0, 6))
            a = int(rng.integers(0, 4))
            b = int(rng.integers(0, 4))
            x = float(rng.uniform(-1, 1))
            lhs = jacobi_polynomial(n, a, b, -x)
            rhs = (-1) ** n * jacobi_polynomial(n, b, a, x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("a,b,terms", [(0.0, 0.0, 1), (1.0, 0.0, 2),
                                           (2.0, 3.0, 5), (0.0, 4.0, 7)])
    def test_squared_series_is_the_same_recurrence(self, a, b, terms):
        inv_h = np.array([1.0 / jacobi_norm_h(k, a, b) for k in range(terms)])
        x = np.linspace(-1.0, 1.0, 9)
        got = jacobi_sq_series(x, a, b, inv_h)
        for xj, gj in zip(x, got):
            ps = [jacobi_polynomial(k, a, b, float(xj)) for k in range(terms)]
            assert gj == sum(h * p * p for h, p in zip(inv_h, ps))

    @pytest.mark.parametrize("k,a,b,expected", [
        (0, 0, 0, 1.0),
        (1, 0, 0, 1.0 / 3.0),
        (0, 1, 0, 0.5),
        (1, 1, 0, 0.25),
        (2, 1, 2, 0.075),
    ])
    def test_norms(self, k, a, b, expected):
        # integral_0^1 lam^a (1-lam)^b P_k(1-2 lam)^2 d lam
        assert jacobi_norm_h(k, a, b) == pytest.approx(expected, rel=1e-12)


class TestSpectralDensity:
    def test_single_mode_full_env_is_uniform(self):
        dens = spectral_density(spec_for(1, 1, 1))
        lam = np.linspace(0.01, 0.99, 31)
        assert np.allclose(dens.pdf(lam), 1.0, atol=1e-12)

    @pytest.mark.parametrize("trip", [(1, 1, 1), (2, 2, 2), (2, 1, 2),
                                      (3, 2, 4)])
    def test_normalized(self, trip):
        dens = spectral_density(spec_for(*trip))
        x, w = np.polynomial.legendre.leggauss(300)
        lam = 0.5 * (x + 1.0)
        total = 0.5 * np.sum(w * dens.pdf(lam))
        assert total == pytest.approx(1.0, abs=1e-10)
        assert np.all(dens.pdf(lam) >= -1e-12)

    def test_insufficient_environment(self):
        with pytest.raises(InsufficientEnvironment):
            spectral_density(spec_for(1, 2, 1))


class TestExpectedCapacity:
    def test_het_single_mode_closed_form(self):
        got = expected_capacity_passive(spec_for(1, 1, 1), 15.0, "het")
        assert got == pytest.approx(HET_111_P15, abs=1e-9)

    def test_holevo_single_mode_quadrature(self):
        got = expected_capacity_passive(spec_for(1, 1, 1), 15.0, "holevo")
        assert got == pytest.approx(HOLEVO_111_P15, abs=1e-8)

    def test_zero_power(self):
        assert expected_capacity_passive(spec_for(2, 2, 2), 0.0, "het") == 0.0

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            expected_capacity_passive(spec_for(1, 1, 1), -1.0, "het")

    def test_hom_between_het_and_holevo_scale(self):
        # sanity on relative ordering of ensemble averages at high power
        s = spec_for(2, 2, 2)
        het = expected_capacity_passive(s, 15.0, "het")
        hom = expected_capacity_passive(s, 15.0, "hom")
        chi = expected_capacity_passive(s, 15.0, "holevo")
        assert chi > het
        assert chi > hom


class TestMonteCarlo:
    def test_matches_analytic(self):
        s = spec_for(2, 2, 2, seed=5)
        ana = expected_capacity_passive(s, 15.0, "het")
        mean, se = mc_expected_capacity_passive(s, 15.0, "het", 2000)
        assert abs(mean - ana) < 3 * se

    def test_more_receivers_than_signals(self):
        # K > N: the uniform split puts P/N on the min(K, N) carrying modes
        s = spec_for(2, 3, 3)
        ana = expected_capacity_passive(s, 4.0, "holevo")
        mean, se = mc_expected_capacity_passive(s, 4.0, "holevo", 2000)
        assert abs(mean - ana) < 5 * se

    def test_deterministic_replay(self):
        s = spec_for(2, 1, 2, seed=42)
        a = mc_expected_capacity_passive(s, 10.0, "holevo", 500)
        b = mc_expected_capacity_passive(s, 10.0, "holevo", 500)
        assert a == b

    def test_thread_count_does_not_change_result(self):
        s = spec_for(2, 2, 2, seed=9)
        one = mc_expected_capacity_passive(s, 12.0, "het", 400, threads=1)
        four = mc_expected_capacity_passive(s, 12.0, "het", 400, threads=4)
        assert one == four

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            mc_expected_capacity_passive(spec_for(1, 1, 1), 1.0, "het", 1)

    def test_chunking_does_not_change_results(self, monkeypatch):
        s = spec_for(2, 2, 2, seed=19, n=0.3, xi=0.1)
        whole = mc_expected_capacity_passive(s, 9.0, "holevo", 50)
        lams = passive_transmissions(s, 50)
        spectrum = sample_lambda_spectrum(s, 50)
        assert len(list(ensembles._haar_corner_chunks(s, 50, 19))) == 1
        # seven 4 x 4 complex draws per chunk: eight chunks, the last of one
        monkeypatch.setattr(ensembles, "_CHUNK_BYTES", 7 * 16 * 4 * 4)
        sizes = [len(c) for _, c in ensembles._haar_corner_chunks(s, 50, 19)]
        assert sizes == [7] * 7 + [1]
        assert mc_expected_capacity_passive(s, 9.0, "holevo", 50) == whole
        assert np.array_equal(passive_transmissions(s, 50), lams)
        assert np.array_equal(sample_lambda_spectrum(s, 50), spectrum)


class TestOneBlasThread:
    @pytest.fixture
    def blas(self):
        calls = ensembles._openblas_threads()
        if calls is None:
            pytest.skip("numpy does not ship its own OpenBLAS")
        return calls

    def test_sets_one_thread_and_restores(self, blas):
        get, put = blas
        before = get()
        with ensembles._one_blas_thread():
            assert get() == 1
            with ensembles._one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == before

    def test_transmissions_do_not_depend_on_blas_threads(self, blas):
        # at N = M = 100 a threaded OpenBLAS rounds the batched QR and SVD
        # differently from a single-threaded one
        get, put = blas
        before = get()
        s = spec_for(100, 100, 100, seed=3)
        try:
            put(1)
            one = passive_transmissions(s, 2)
            put(2)
            two = passive_transmissions(s, 2)
        finally:
            put(before)
        assert np.array_equal(one, two)


def test_philox_streams_are_keyed_by_index():
    a = philox_stream(3, 0).standard_normal(4)
    b = philox_stream(3, 1).standard_normal(4)
    c = philox_stream(3, 0).standard_normal(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_passive_sample_shapes_and_validity():
    from gausscap.channels import validate_channel

    s = spec_for(3, 2, 2, n=0.2, xi=0.1)
    for i in range(5):
        ch = passive_channel_sample(s, philox_stream(11, i))
        assert ch.H_s.shape == (4, 6)
        assert validate_channel(ch)


def test_sample_lambda_spectrum_range_and_pairing():
    vals = sample_lambda_spectrum(spec_for(2, 2, 3, seed=8), 200)
    assert vals.shape == (400,)
    assert np.all(vals >= -1e-12)
    assert np.all(vals <= 1 + 1e-12)


class TestEnsembleSpecValidation:
    def test_receiver_needs_room(self):
        with pytest.raises(InsufficientEnvironment):
            spec_for(1, 3, 1)

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            spec_for(0, 1, 1)

    def test_nonnegative_sigma2(self):
        with pytest.raises(ValueError):
            spec_for(1, 1, 1, sigma2=-0.1)

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -np.inf])
    def test_finite_sigma2(self, sigma2):
        with pytest.raises(ValueError):
            spec_for(1, 1, 1, sigma2=sigma2)
