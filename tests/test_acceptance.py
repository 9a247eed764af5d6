"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and then asserts, so the suite doubles as a human-readable report:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gausscap import active, capacity, channels, decomposition, ensembles
from gausscap.capacity import PowerAllocation
from gausscap.channels import NoiseParams, block_form_channel, validate_channel
from gausscap.ensembles import EnsembleSpec
from gausscap.phasespace import entropy_g, symplectic_form


def _check(label, ok):
    print("[%s] %s" % ("PASS" if ok else "FAIL", label))
    assert ok, label


def _alloc(values):
    values = np.asarray(values, dtype=float)
    return PowerAllocation(values, float(values.sum()))


def _uniform(n, P):
    return _alloc(np.full(n, P / n))


def _gauss_legendre_avg(f, lo, hi, points=16):
    x, w = np.polynomial.legendre.leggauss(points)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return float(np.sum(w * f(mid + half * x)) * half / (hi - lo))


def test_01_asymptotic_limits():
    # identity channel, uniform power, no added noise; large-N plateaux
    N, P = 4096, 15.0
    params = [(1.0, 0.0, 0.0)] * N
    capacity.het_hom_per_mode(params[:4], _uniform(4, P), "het")  # warm up
    capacity.het_hom_per_mode(params[:4], _uniform(4, P), "hom")
    t0 = time.perf_counter()
    het = capacity.het_hom_per_mode(params, _uniform(N, P), "het")
    hom = capacity.het_hom_per_mode(params, _uniform(N, P), "hom")
    elapsed = time.perf_counter() - t0
    dev_het = abs(het - 21.6404) / 21.6404
    dev_hom = abs(hom - 43.2809) / 43.2809
    _check("1. asymptotic limits at N=4096: het dev %.4f%%, hom dev %.4f%% "
           "(gate 0.5%%), runtime %.3fs" %
           (100 * dev_het, 100 * dev_hom, elapsed),
           dev_het < 5e-3 and dev_hom < 5e-3 and elapsed < 1.0)


def test_02_pure_loss_closed_form():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        lam = float(rng.uniform(0.01, 1.0))
        P = float(rng.uniform(0.1, 25.0))
        bits = capacity.holevo_diagonal([(lam, 0.0, 0.0)], _alloc([P]))
        worst = max(worst, abs(bits - entropy_g(lam * P)))
    elapsed = time.perf_counter() - t0
    _check("2. pure-loss Holevo equals g(lambda*P): worst |err| %.2e "
           "(gate 1e-10), runtime %.3fs" % (worst, elapsed),
           worst < 1e-10 and elapsed < 1.0)


def test_03_random_channel_analytic_vs_mc():
    P, samples, seed = 15.0, 10 ** 4, 7
    t0 = time.perf_counter()
    worst_pull = 0.0
    for N, K, M in [(1, 1, 1), (2, 2, 2), (2, 1, 2)]:
        spec = EnsembleSpec(N=N, K=K, M=M)
        for method in ("het", "holevo"):
            exact = ensembles.expected_capacity_passive(spec, P, method)
            mean, se = ensembles.mc_expected_capacity_passive(
                spec, P, method, samples, seed=seed)
            worst_pull = max(worst_pull, abs(mean - exact) / se)
    closed = (16.0 * math.log(16.0) - 15.0) / (15.0 * math.log(2.0))
    analytic_111 = ensembles.expected_capacity_passive(
        EnsembleSpec(N=1, K=1, M=1), P, "het")
    closed_err = abs(analytic_111 - closed)
    elapsed = time.perf_counter() - t0
    _check("3. ensemble analytic vs MC: worst pull %.2f SE (gate 3), "
           "single-mode het closed form |err| %.1e (gate 1e-6), "
           "runtime %.1fs (gate 120s)" % (worst_pull, closed_err, elapsed),
           worst_pull < 3.0 and closed_err < 1e-6 and elapsed < 120.0)


def test_04_spectral_density_law():
    # 10^5 samples put the expected L1 of a 50-bin histogram near 0.018, well
    # under the gate; at 10^4 the noise floor alone (about 0.056 for the
    # uniform single-mode law) would exceed it.
    samples, bins, seed = 10 ** 5, 50, 0
    edges = np.linspace(0.0, 1.0, bins + 1)
    worst_l1, worst_norm = 0.0, 0.0
    for N, K, M in [(1, 1, 1), (2, 2, 2), (2, 1, 2)]:
        spec = EnsembleSpec(N=N, K=K, M=M)
        density = ensembles.spectral_density(spec).pdf
        norm = sum(_gauss_legendre_avg(density, lo, hi, points=64) * (hi - lo)
                   for lo, hi in zip(edges[:-1], edges[1:]))
        worst_norm = max(worst_norm, abs(norm - 1.0))
        lams = ensembles.sample_lambda_spectrum(spec, samples, seed=seed)
        emp, _ = np.histogram(lams, bins=edges, density=True)
        target = np.array([_gauss_legendre_avg(density, lo, hi)
                           for lo, hi in zip(edges[:-1], edges[1:])])
        l1 = float(np.sum(np.abs(emp - target)) * (edges[1] - edges[0]))
        worst_l1 = max(worst_l1, l1)
    _check("4. eigenvalue density law: worst L1 %.4f (gate 0.05), "
           "worst |integral-1| %.1e (gate 1e-8)" % (worst_l1, worst_norm),
           worst_l1 < 0.05 and worst_norm < 1e-8)


def test_05_water_filling_optimality():
    rng = np.random.default_rng(2024)
    violations, worst_budget = 0, 0.0
    for _ in range(200):
        lams = rng.uniform(0.05, 1.0, size=3)
        n = float(rng.uniform(0.0, 1.0))
        xi = float(rng.uniform(0.0, 0.5))
        P = float(rng.uniform(0.5, 20.0))
        params = [(float(l), n, xi) for l in lams]
        best = capacity.waterfill_holevo(params, P)
        worst_budget = max(worst_budget, abs(best.allocation.per_mode.sum() - P))
        trials = rng.dirichlet(np.ones(3), size=1000) * P
        for row in trials:
            bits = capacity.holevo_diagonal(params, _alloc(row))
            if bits > best.bits + 1e-9:
                violations += 1
    _check("5. water-filling dominates 200x1000 random allocations: "
           "%d violations (gate 0), worst budget |err| %.1e (gate 1e-8)" %
           (violations, worst_budget),
           violations == 0 and worst_budget < 1e-8)


def test_06_structural_invariants():
    rng = np.random.default_rng(3)
    worst_rec = worst_orth = worst_pair = 0.0
    all_valid = True
    for _ in range(500):
        K = int(rng.integers(1, 4))
        N = int(rng.integers(1, 4))
        C = (rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N))) / 2.0
        ch = block_form_channel(C)
        dec = decomposition.block_svd(ch.H_s)
        rec = dec.U @ dec.rect_diagonal() @ dec.W.T
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - ch.H_s))))
        for mat in (dec.U, dec.W):
            d = mat.shape[0]
            omega = symplectic_form(d // 2)
            worst_orth = max(
                worst_orth,
                float(np.max(np.abs(mat.T @ mat - np.eye(d)))),
                float(np.max(np.abs(mat @ omega @ mat.T - omega))))
        s = np.linalg.svd(ch.H_s, compute_uv=False)
        worst_pair = max(worst_pair, float(np.max(np.abs(s[0::2] - s[1::2]))))
        all_valid = all_valid and validate_channel(ch, tol=1e-9)
    _check("6. block-form structure over 500 draws: reconstruction %.1e "
           "(gate 1e-9), orthogonal-symplectic %.1e (gate 1e-9), "
           "minimal-noise valid %s, pair gap %.1e (gate 1e-8)" %
           (worst_rec, worst_orth, all_valid, worst_pair),
           worst_rec <= 1e-9 and worst_orth <= 1e-9 and all_valid
           and worst_pair <= 1e-8)


def _graded_params(N, n, xi):
    return [(0.2 + 0.7 * k / N, n, xi) for k in range(1, N + 1)]


def _graded_capacity(method, N, n, xi, P):
    params = _graded_params(N, n, xi)
    if method == "holevo":
        return capacity.holevo_diagonal(params, _uniform(N, P))
    return capacity.het_hom_per_mode(params, _uniform(N, P), method)


def test_07_graded_loss_sweep():
    P = 15.0
    dominance = True
    for N in range(1, 31):
        chi = _graded_capacity("holevo", N, 0.0, 0.0, P)
        het = _graded_capacity("het", N, 0.0, 0.0, P)
        hom = _graded_capacity("hom", N, 0.0, 0.0, P)
        dominance = dominance and chi > het and chi > hom
        if N == 1:
            het_beats_hom_small = het > hom
        if N == 30:
            hom_beats_het_large = hom > het
    rel_steps = {}
    monotone = True
    for method in ("holevo", "het", "hom"):
        curve = [_graded_capacity(method, N, 1.0, 0.5, P)
                 for N in range(1, 31)]
        rel_steps[method] = (curve[29] - curve[24]) / curve[29]
        monotone = monotone and all(b > a for a, b in zip(curve, curve[1:]))
    flat = all(step < 0.02 for step in rel_steps.values())
    _check("7. graded-loss sweep: Holevo dominates at N=1..30 %s, het>hom "
           "at N=1 %s, hom>het at N=30 %s, noisy curves increase %s and "
           "flatten to rel step chi %.4f / het %.4f / hom %.4f (gate 0.02)" %
           (dominance, het_beats_hom_small, hom_beats_het_large, monotone,
            rel_steps["holevo"], rel_steps["het"], rel_steps["hom"]),
           dominance and het_beats_hom_small and hom_beats_het_large
           and monotone and flat)


def test_08_ensemble_trends_and_active_gain():
    P = 15.0
    # expected Holevo grows with mode count when the environment matches it
    curve = [ensembles.expected_capacity_passive(
        EnsembleSpec(N=N, K=N, M=N), P, "holevo") for N in range(1, 9)]
    increasing = all(b > a for a, b in zip(curve, curve[1:]))
    # a larger environment only adds loss
    small_env = ensembles.expected_capacity_passive(
        EnsembleSpec(N=4, K=4, M=4), P, "holevo")
    big_env = ensembles.expected_capacity_passive(
        EnsembleSpec(N=4, K=4, M=8), P, "holevo")
    env_drop = big_env < small_env

    # the passive limit of the active sampler is exact, not statistical
    spec0 = EnsembleSpec(N=2, K=2, M=2, sigma2=0.0)
    a_mean, _ = active.mc_capacity_active(spec0, P, "het", 300, seed=5)
    p_mean, _ = ensembles.mc_expected_capacity_passive(
        spec0, P, "het", 300, seed=5)
    matched = abs(a_mean - p_mean) < 1e-12

    # weak squeezing lifts both measured capacities above the passive mean
    pulls = {}
    for method in ("het", "hom"):
        spec = EnsembleSpec(N=4, K=4, M=4, sigma2=0.05)
        am, ase = active.mc_capacity_active(spec, P, method, 4000, seed=11)
        pm, pse = ensembles.mc_expected_capacity_passive(
            EnsembleSpec(N=4, K=4, M=4), P, method, 4000, seed=11)
        pulls[method] = (am - pm) / math.hypot(ase, pse)
    gains = pulls["het"] > 3.0 and pulls["hom"] > 3.0
    _check("8. ensemble trends: Holevo increasing N=1..8 %s, bigger "
           "environment drops capacity %s, sigma2=0 matches passive to "
           "1e-12 %s, active gain het %.1f SE / hom %.1f SE (gate 3)" %
           (increasing, env_drop, matched, pulls["het"], pulls["hom"]),
           increasing and env_drop and matched and gains)


def test_09_squeezing_transform_validity():
    worst_identity, all_valid = 0.0, True
    for sigma2 in (0.01, 0.1):
        rng = np.random.default_rng(int(sigma2 * 1000))
        spec = EnsembleSpec(N=2, K=2, M=2, sigma2=sigma2)
        for _ in range(1000):
            sample = active.bogoliubov_sample(4, sigma2, rng)
            res = sample.A @ sample.A.conj().T - sample.B @ sample.B.conj().T
            worst_identity = max(worst_identity,
                                 float(np.max(np.abs(res - np.eye(4)))))
            ch = active.active_sample(spec, rng)
            all_valid = all_valid and validate_channel(ch, tol=1e-8)
    _check("9. squeezing transforms: worst |AA*-BB*-I| %.1e (gate 1e-9), "
           "all sampled channels valid %s" % (worst_identity, all_valid),
           worst_identity < 1e-9 and all_valid)


def test_10_cli_determinism():
    base = [sys.executable, "-m", "gausscap", "random", "--N", "2", "--K",
            "2", "--M", "2", "--sigma2", "0.05", "--mode", "mc", "--samples",
            "300", "--seed", "7", "--power", "10", "--method", "het"]

    # the child imports the same gausscap as this process, with or without
    # PYTHONPATH set by the caller
    src = os.path.dirname(os.path.dirname(active.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(threads):
        out = subprocess.run(base + ["--threads", str(threads)],
                             capture_output=True, check=True, env=env)
        return out.stdout

    first, second, eight = run(1), run(1), run(8)
    _check("10. CLI MC output byte-identical: rerun %s, threads 1 vs 8 %s" %
           (first == second, first == eight),
           first == second and first == eight)
