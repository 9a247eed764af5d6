"""Random passive ensembles: Haar sampling, Jacobi spectral densities,
analytic expected capacities and the seeded Monte Carlo estimator."""

import concurrent.futures
import functools
import math
import threading

import numpy as np
import pytest

from gausscap import ensembles
from gausscap.capacity import mode_rates, noise_photons
from gausscap.channels import NoiseParams
from gausscap.ensembles import (
    EnsembleSpec,
    expected_capacity_passive,
    haar_unitary,
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


def jacobi_density(a, b, m):
    """The density of exponents a, b and m terms: (m, m+a, m+a+b) modes."""
    return spectral_density(spec_for(m, m + a, m + a + b))


class TestJacobi:
    """The orthonormal recurrence of the density against closed forms."""

    def test_low_orders(self):
        # m = 1: w / B(a+1, b+1); m = 2 adds w P_1(x)^2 / h_1, with
        # P_1 = (a+1) + (a+b+2)(x-1)/2 and h_1 = (a+1)!(b+1)!/((a+b+3)(a+b+1)!)
        lam = np.linspace(0.05, 0.95, 7)
        for a, b in [(0, 0), (1, 0), (0, 3), (2, 5), (7, 1)]:
            w = lam ** a * (1.0 - lam) ** b
            h0 = math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)
            h1 = (math.gamma(a + 2) * math.gamma(b + 2)
                  / ((a + b + 3) * math.gamma(a + b + 2)))
            p1 = (a + 1) - (a + b + 2) * lam
            np.testing.assert_allclose(jacobi_density(a, b, 1).pdf(lam),
                                       w / h0, rtol=1e-13)
            np.testing.assert_allclose(jacobi_density(a, b, 2).pdf(lam),
                                       w * (1 / h0 + p1 ** 2 / h1) / 2,
                                       rtol=1e-13)

    def test_frozen_values(self):
        # Legendre (a = b = 0): p = sum_k (2k+1) P_k(1 - 2 lambda)^2 / m
        assert jacobi_density(0, 0, 2).pdf([0.0, 0.25, 0.5]) == pytest.approx(
            [2.0, 0.875, 0.5], abs=1e-14)
        assert jacobi_density(0, 0, 3).pdf([0.0, 0.5, 1.0]) == pytest.approx(
            [3.0, 0.75, 3.0], abs=1e-14)
        # a = 0, b = 1, m = 1: 2 (1 - lambda)
        assert jacobi_density(0, 1, 1).pdf([0.25, 1.0]) == pytest.approx(
            [1.5, 0.0], abs=1e-15)

    @pytest.mark.parametrize("k,a,b,expected", [
        (0, 0, 0, 1.0),
        (1, 0, 0, 1.0 / 3.0),
        (0, 1, 0, 0.5),
        (1, 1, 0, 0.25),
        (2, 1, 2, 0.075),
    ])
    def test_norms(self, k, a, b, expected):
        # h_k = integral_0^1 lam^a (1-lam)^b P_k(1-2 lam)^2 d lam is
        # kappa_k^2 B(a+1, b+1) prod_{j<=k} beta_j^2, with kappa_k the leading
        # coefficient of P_k^{(a,b)}(x) and beta_j the recurrence off-diagonal
        _, beta = ensembles._jacobi_recurrence(a, b, k + 1)
        kappa = math.gamma(2 * k + a + b + 1) / (
            2 ** k * math.factorial(k) * math.gamma(k + a + b + 1))
        mu0 = math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)
        h = kappa ** 2 * mu0 * float(np.prod(beta[1:] ** 2))
        assert h == pytest.approx(expected, rel=1e-12)

    def test_reflection_symmetry(self):
        # p_{a,b}(lambda) = p_{b,a}(1 - lambda)
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            a = int(rng.integers(0, 5))
            b = int(rng.integers(0, 5))
            lam = rng.uniform(0, 1, 5)
            np.testing.assert_allclose(jacobi_density(a, b, m).pdf(lam),
                                       jacobi_density(b, a, m).pdf(1.0 - lam),
                                       rtol=1e-12)


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


@functools.lru_cache(maxsize=None)
def _reference_gauss_legendre_01(order):
    t, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (t + 1.0), 0.5 * w


def _reference_expected_capacity_passive(spec, P, method):
    """The analytic mean with one integrand evaluation per quadrature order.

    A verbatim copy of expected_capacity_passive, and of its node cache
    above, from before orders 32 and 64 shared one pass over their stacked
    nodes.
    """
    if P < 0:
        raise ValueError("power must be nonnegative")
    density = spectral_density(spec)
    m = min(spec.K, spec.N)
    P_mode = P / spec.N
    n, xi = spec.noise.n, spec.noise.xi
    value = 0.0
    prev = None
    for order in (32, 64, 128, 256, 512, 1024, 2048):
        lam, w = _reference_gauss_legendre_01(order)
        c1 = mode_rates(lam, P_mode, noise_photons(lam, n, xi), method)
        value = m * float(np.sum(w * c1 * density.pdf(lam)))
        if prev is not None and abs(value - prev) <= 1e-8 * max(abs(value), 1e-12):
            break
        prev = value
    return value


# (N, K, M) with K = N = M up to 24, the noise-free ones at N = 1, 4 and 12
# escalating to order 256, and configs with K != N != M on both sides
ANALYTIC_GRID = [(1, 1, 1), (2, 2, 2), (4, 4, 4), (12, 12, 12), (24, 24, 24),
                 (1, 3, 5), (3, 1, 2), (2, 3, 3), (5, 2, 9), (6, 4, 7),
                 (4, 7, 7), (9, 5, 6)]


@pytest.mark.parametrize("method", ["holevo", "het", "hom"])
def test_expected_capacity_bit_identical_to_reference(method):
    for N, K, M in ANALYTIC_GRID:
        for n, xi in [(0.0, 0.0), (0.3, 0.1), (0.0, 0.25), (1.0, 0.0)]:
            for P in [0.0, 1e-6, 0.37, 5.5, 15.0, 1e3, 1e6]:
                spec = spec_for(N, K, M, n=n, xi=xi)
                got = expected_capacity_passive(spec, P, method)
                want = _reference_expected_capacity_passive(spec, P, method)
                assert got.hex() == want.hex(), (N, K, M, n, xi, P)


def test_noise_free_grid_escalates_past_order_64(monkeypatch):
    # the reference above is compared beyond the stacked 32/64 pass too
    seen = []
    escalation = ensembles._escalation

    def counted(terms):
        for step in escalation(terms):
            seen.append(len(step[0]))
            yield step

    monkeypatch.setattr(ensembles, "_escalation", counted)
    for N in (1, 4, 12):
        seen.clear()
        expected_capacity_passive(spec_for(N, N, N), 5.5, "holevo")
        assert seen == [32, 64, 128, 256]


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

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            mc_expected_capacity_passive(spec_for(1, 1, 1), 1.0, "het", 1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, float("nan")])
    def test_seed_outside_philox_key_range(self, seed):
        # the seed keys Philox as an unsigned 64-bit word
        s = spec_for(2, 2, 2)
        with pytest.raises(ValueError):
            mc_expected_capacity_passive(s, 1.0, "het", 4, seed)
        with pytest.raises(ValueError):
            passive_transmissions(s, 4, seed)
        with pytest.raises(ValueError):
            sample_lambda_spectrum(s, 4, seed)
        with pytest.raises(ValueError):
            passive_transmissions(spec_for(2, 2, 2, seed=seed), 4)

    def test_largest_seed_is_accepted(self):
        lams = passive_transmissions(spec_for(2, 2, 2), 4, 2 ** 64 - 1)
        assert lams.shape == (4, 2)

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


def _draws(gen):
    # normals, then an odd count of 32-bit integers, which leaves half a
    # 64-bit word buffered for the next draw to consume
    return (gen.standard_normal(5),
            gen.integers(0, 2 ** 32, size=3, dtype=np.uint32))


def _same_draws(got, want):
    return all(np.array_equal(a, b) for a, b in zip(got, want))


class TestRekeyedStream:
    def test_equals_philox_stream(self):
        rng = np.random.default_rng(2024)
        top = 2 ** 64 - 1
        seeds = [0, top] + [int(x) for x in rng.integers(0, top, 48,
                                                         dtype=np.uint64)]
        indices = [0, 1, top] + list(range(2, 199))
        assert len(seeds) * len(indices) >= 10 ** 4
        for seed in seeds:
            for i in indices:
                got = _draws(ensembles._rekeyed_stream(seed, i))
                assert _same_draws(got, _draws(philox_stream(seed, i))), (seed, i)

    def test_threads_keep_their_own_stream(self):
        keys = [[(7, i) for i in range(300)], [(2 ** 64 - 1, i) for i in range(300)]]
        turn = threading.Barrier(2)
        got = [[], []]

        def work(w):
            for seed, i in keys[w]:
                gen = ensembles._rekeyed_stream(seed, i)
                # both threads re-key before either draws
                turn.wait(timeout=30)
                got[w].append(_draws(gen))

        workers = [threading.Thread(target=work, args=(w,)) for w in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in workers)
        for w in range(2):
            assert len(got[w]) == len(keys[w])
            for (seed, i), draws in zip(keys[w], got[w]):
                assert _same_draws(draws, _draws(philox_stream(seed, i)))


class _RecordingPool:
    """ThreadPoolExecutor stand-in that runs each task at submit, in order."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = 0
        _RecordingPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.tasks += 1
        done = concurrent.futures.Future()
        done.set_result(fn(*args))
        return done


class TestRunIndexed:
    def test_one_task_per_worker_and_no_more_workers_than_samples(
            self, monkeypatch):
        monkeypatch.setattr(_RecordingPool, "made", [])
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            _RecordingPool)
        live = threading.active_count()
        out = ensembles.run_indexed(lambda i: 10.0 * i, 4, threads=10_000)
        assert threading.active_count() == live
        assert [(p.max_workers, p.tasks) for p in _RecordingPool.made] == [(4, 4)]
        assert out.tolist() == [0.0, 10.0, 20.0, 30.0]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_each_index_once_whatever_the_pool(self, threads):
        lock = threading.Lock()
        for samples in range(1, 10):
            calls, workers = [], set()

            def eval_one(i):
                with lock:
                    calls.append(i)
                    workers.add(threading.get_ident())
                return math.sin(i + 0.5) / (i + 1)

            out = ensembles.run_indexed(eval_one, samples, threads)
            ref = np.array([math.sin(i + 0.5) / (i + 1) for i in range(samples)])
            assert np.array_equal(out, ref)
            assert sorted(calls) == list(range(samples))
            assert len(workers) <= min(threads, samples)


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
