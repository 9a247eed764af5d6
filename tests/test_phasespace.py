"""Tests for the phase-space primitives: symplectic form, real representation,
symplectic eigenvalues, matrix absolute value and the bosonic entropy g."""

import numpy as np
import pytest

from gausscap._kernels import entropy_g_arr
from gausscap.errors import NegativeArgument, NonPositiveDefinite, NotHermitian
from gausscap.phasespace import (
    DEFAULT_TOL,
    entropy_g,
    is_symplectic,
    matrix_abs,
    min_eig_hermitian,
    real_representation,
    symplectic_eigenvalues,
    symplectic_form,
)


def random_unitary(dim, rng):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_symplectic_form_structure():
    for modes in (1, 2, 5):
        om = symplectic_form(modes)
        assert om.shape == (2 * modes, 2 * modes)
        assert np.array_equal(om, -om.T)
        assert np.allclose(om @ om, -np.eye(2 * modes))


def test_real_representation_is_homomorphism():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = real_representation(a @ b)
        rhs = real_representation(a) @ real_representation(b)
        assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("K,N", [(2, 4), (3, 3), (4, 2)])
def test_real_representation_doubles_the_spectrum(K, N):
    """The spectrum of R(C) R(C)^T is that of C C^dag, each eigenvalue twice,
    for complex K x N matrices C with K < N, K = N and K > N."""
    rng = np.random.default_rng(10 * K + N)
    for _ in range(50):
        c = rng.standard_normal((K, N)) + 1j * rng.standard_normal((K, N))
        r = real_representation(c)
        got = np.linalg.eigvalsh(r @ r.T)
        want = np.repeat(np.linalg.eigvalsh(c @ c.conj().T), 2)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * want.max())


def test_real_representation_block_layout():
    c = np.array([[1.0 + 2.0j]])
    r = real_representation(c)
    assert np.allclose(r, [[1.0, -2.0], [2.0, 1.0]])


def test_unitary_maps_to_orthogonal_symplectic():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 4):
        u = random_unitary(dim, rng)
        r = real_representation(u)
        assert np.allclose(r @ r.T, np.eye(2 * dim), atol=1e-12)
        assert is_symplectic(r)


def test_is_symplectic_rejects_non_symplectic():
    assert is_symplectic(np.eye(4))
    assert not is_symplectic(2.0 * np.eye(4))
    # rectangular case: one output mode fed by a unit-norm combination of two
    r = real_representation(np.array([[0.6, 0.8]]))
    assert is_symplectic(r)
    assert not is_symplectic(real_representation(np.array([[0.6, 0.6]])))
    # odd dimensions are never symplectic
    assert not is_symplectic(np.eye(3))


@pytest.mark.parametrize("nbar", [0.0, 0.5, 3.2])
def test_symplectic_eigenvalues_thermal(nbar):
    v = (nbar + 0.5) * np.eye(2)
    nus = symplectic_eigenvalues(v)
    assert nus.shape == (1,)
    assert abs(nus[0] - (nbar + 0.5)) < 1e-12


def test_symplectic_eigenvalues_squeezed_vacuum():
    # squeezing does not change the symplectic spectrum of the vacuum
    r = 1.3
    v = 0.5 * np.diag([np.exp(2 * r), np.exp(-2 * r)])
    assert abs(symplectic_eigenvalues(v)[0] - 0.5) < 1e-12


def test_symplectic_eigenvalues_invariant_under_symplectic_congruence():
    rng = np.random.default_rng(23)
    u = random_unitary(3, rng)
    s = real_representation(u) @ np.diag([2.0, 1.0, 0.5, 0.5, 1.0, 2.0])
    v = np.diag([0.5, 0.7, 1.9, 0.5, 0.7, 1.9])
    before = np.sort(symplectic_eigenvalues(v))
    after = np.sort(symplectic_eigenvalues(s @ v @ s.T))
    assert np.allclose(before, after, atol=1e-10)


def test_symplectic_eigenvalues_requires_positive_definite():
    with pytest.raises(NonPositiveDefinite):
        symplectic_eigenvalues(np.diag([1.0, -0.1]))


def test_matrix_abs_diagonal_and_antisymmetric():
    assert np.allclose(matrix_abs(np.diag([-3.0, 2.0])), np.diag([3.0, 2.0]))
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    m = a - a.T
    # for antisymmetric M, |M| = sqrt(-M^2)
    w, q = np.linalg.eigh(-m @ m)
    expected = q @ np.diag(np.sqrt(np.clip(w, 0, None))) @ q.T
    assert np.allclose(matrix_abs(m), expected, atol=1e-10)


def test_min_eig_hermitian():
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert abs(min_eig_hermitian(h) - 1.0) < 1e-12
    with pytest.raises(NotHermitian):
        min_eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEntropyG:
    def test_zero(self):
        assert entropy_g(0.0) == 0.0

    def test_known_values(self):
        # (x+1) log2(x+1) - x log2 x at x = 1/2 and x = 15
        assert abs(entropy_g(0.5) - 1.3774437510817343) < 1e-14
        assert abs(entropy_g(15.0) - 5.396641065872217) < 1e-14

    def test_monotone_increasing(self):
        xs = np.linspace(0.0, 20.0, 50)
        ys = [entropy_g(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.5, 15.0, 3e7])
    def test_scalar_is_the_array_kernel(self, x):
        assert entropy_g(x) == entropy_g_arr(np.array([x]))[0]

    def test_negative_clamp_and_raise(self):
        assert entropy_g(-1e-13) == 0.0
        with pytest.raises(NegativeArgument):
            entropy_g(-1e-9)


def test_default_tolerances():
    assert DEFAULT_TOL.structural == 1e-10
    assert DEFAULT_TOL.validity == 1e-9
