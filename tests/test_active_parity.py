"""Bit-level parity of the fused weakly-active sample with the per-step recipe.

Each test compares the package against a test-local copy of the straight
recipe: two separate Haar draws around the squeezing draw, the full
2(N+M)-square symplectic transform cut down with quadrature indices, a fresh
symplectic form for Sigma, and one slogdet call per log-determinant.  Every
comparison is exact (np.array_equal or float.hex), over at least 10^4
samples per quantity.
"""

import math

import numpy as np
import pytest

from gausscap.active import active_sample, bogoliubov_sample, bogoliubov_to_symplectic
from gausscap.capacity import _LN2, het_hom_general, hom_general_aligned
from gausscap.channels import NoiseParams
from gausscap.ensembles import EnsembleSpec, haar_unitary, philox_stream
from gausscap.phasespace import matrix_abs, symplectic_form

_CONFIGS = [(4, 4, 4), (3, 2, 2), (2, 3, 3)]
_SIGMA2 = [0.01, 0.05, 0.2]
# 9 (config, sigma2) pairs x 1,112 samples = 10,008 samples
_PER_PAIR = 1112


def _ref_haar(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _ref_bogoliubov(dim, sigma2, rng):
    u1 = _ref_haar(dim, rng)
    r = rng.standard_normal(dim) * math.sqrt(sigma2)
    u2 = _ref_haar(dim, rng)
    return u1, u2, r, (u1 * np.cosh(r)) @ u2, (u1 * np.sinh(r)) @ np.conj(u2)


def _ref_omega(modes):
    eye, zero = np.eye(modes), np.zeros((modes, modes))
    return np.block([[zero, eye], [-eye, zero]])


def _ref_channel(spec, rng):
    # (H_s, Y) from the full transform, indexed by quadrature
    N, K, M = spec.N, spec.K, spec.M
    dim = N + M
    _, _, _, a, b = _ref_bogoliubov(dim, spec.sigma2, rng)
    apb, amb = a + b, a - b
    H_tilde = np.block([[apb.real, -amb.imag], [apb.imag, amb.real]])
    rows = np.concatenate([np.arange(K), np.arange(K) + dim])
    cols = np.concatenate([np.arange(N), np.arange(N) + dim])
    H_s = H_tilde[np.ix_(rows, cols)]
    sigma = _ref_omega(K) - H_s @ _ref_omega(N) @ H_s.T
    Y = (spec.noise.n + 0.5) * matrix_abs(sigma)
    Y = Y + spec.noise.xi * np.eye(2 * K)
    return H_s, (Y + Y.T) / 2.0


def _ref_hom_aligned(ch, P):
    H, Y = ch.H_s, ch.Y
    u, s, _ = np.linalg.svd(H)
    m = min(ch.out_modes, ch.in_modes)
    sel = u[:, 0:2 * m:2]
    noise = sel.T @ (0.5 * H @ H.T + Y) @ sel
    sig = np.diag((2.0 * P / ch.in_modes) * s[0:2 * m:2] ** 2)
    _, ld_noise = np.linalg.slogdet(noise)
    _, ld_total = np.linalg.slogdet(noise + sig)
    return 0.5 * (ld_total - ld_noise) / _LN2


def _ref_het_hom(ch, V_mod, kind):
    H, Y = ch.H_s, ch.Y
    S = H @ V_mod @ H.T
    N = 0.5 * H @ H.T + Y
    if kind == "het":
        N = N + 0.5 * np.eye(N.shape[0])
    else:
        quads = np.arange(ch.out_modes)
        S = S[np.ix_(quads, quads)]
        N = N[np.ix_(quads, quads)]
    _, ld_noise = np.linalg.slogdet(N)
    _, ld_total = np.linalg.slogdet(N + S)
    return 0.5 * (ld_total - ld_noise) / _LN2


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def _same_sample(s, ref):
    u1, u2, r, a, b = ref
    return all(_same(x, y) for x, y in
               ((s.U1, u1), (s.U2, u2), (s.R, r), (s.A, a), (s.B, b)))


def test_haar_unitary_matches_separate_recipe():
    for i in range(2000):
        dim = 1 + i % 9
        assert _same(haar_unitary(dim, philox_stream(3, i)),
                     _ref_haar(dim, philox_stream(3, i)))


def test_bogoliubov_sample_matches_on_philox_streams():
    for i in range(10_000):
        dim, sigma2 = 1 + i % 8, _SIGMA2[i % 3]
        new, old = philox_stream(17, i), philox_stream(17, i)
        assert _same_sample(bogoliubov_sample(dim, sigma2, new),
                            _ref_bogoliubov(dim, sigma2, old))
        # the fused draw leaves the stream where the three draws left it
        assert new.random() == old.random()


def test_bogoliubov_sample_matches_on_one_default_rng():
    new, old = np.random.default_rng(2024), np.random.default_rng(2024)
    for i in range(10_000):
        dim, sigma2 = 1 + i % 8, _SIGMA2[i % 3]
        assert _same_sample(bogoliubov_sample(dim, sigma2, new),
                            _ref_bogoliubov(dim, sigma2, old))
    assert new.random() == old.random()


def test_bogoliubov_to_symplectic_matches_block_assembly():
    for i in range(500):
        s = bogoliubov_sample(1 + i % 6, 0.1, philox_stream(8, i))
        apb, amb = s.A + s.B, s.A - s.B
        ref = np.block([[apb.real, -amb.imag], [apb.imag, amb.real]])
        assert _same(bogoliubov_to_symplectic(s), ref)


def test_symplectic_form_is_cached_and_read_only():
    for modes in (1, 3, 8, 64, 65):
        om = symplectic_form(modes)
        assert (om is symplectic_form(modes)) == (modes <= 64)
        assert _same(om, _ref_omega(modes))
        with pytest.raises(ValueError):
            om[0, 0] = 1.0


@pytest.mark.parametrize("sigma2", _SIGMA2)
@pytest.mark.parametrize("NKM", _CONFIGS)
def test_active_sample_and_kernels_match_bit_for_bit(NKM, sigma2):
    N, K, M = NKM
    spec = EnsembleSpec(N=N, K=K, M=M, noise=NoiseParams(0.3, 0.1),
                        sigma2=sigma2)
    P = 4.5
    V_mod = (P / N) * np.eye(2 * N)
    for i in range(_PER_PAIR):
        ch = active_sample(spec, philox_stream(31, i), allow_rect=True)
        H_s, Y = _ref_channel(spec, philox_stream(31, i))
        assert _same(ch.H_s, H_s) and _same(ch.Y, Y), i
        assert (float(hom_general_aligned(ch, P)).hex()
                == float(_ref_hom_aligned(ch, P)).hex()), i
        for kind in ("het", "hom"):
            assert (float(het_hom_general(ch, V_mod, kind)).hex()
                    == float(_ref_het_hom(ch, V_mod, kind)).hex()), (i, kind)
