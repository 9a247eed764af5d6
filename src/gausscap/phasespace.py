"""Symplectic phase-space linear algebra and the bosonic entropy function.

Conventions used throughout the package: quadratures of an R-mode system are
ordered (q_1, ..., q_R, p_1, ..., p_R), the vacuum variance is 1/2, and all
entropies and capacities are in bits.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import entropy_g_arr
from .errors import NegativeArgument, NonPositiveDefinite, NotHermitian

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "symplectic_form",
    "real_representation",
    "is_symplectic",
    "symplectic_eigenvalues",
    "matrix_abs",
    "min_eig_hermitian",
    "entropy_g",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances for structural and physicality checks.

    structural : symmetry / symplecticity / orthogonality checks
    spectral   : positivity of eigenvalue spectra
    validity   : quantum-channel validity (min eigenvalue of Y - (i/2)Sigma)
    block_form : block-structure detection of signal transforms
    thermal    : reconstruction test of thermal-form noise matrices
    """

    structural: float = 1e-10
    spectral: float = 1e-10
    validity: float = 1e-9
    block_form: float = 1e-9
    thermal: float = 1e-8


DEFAULT_TOL = Tolerances()


# Read-only symplectic forms by mode count.  Only small forms are kept: there
# building one costs more than the product it enters, and the cache stays
# under 3 MB whatever mode counts a process meets.
_OMEGA = {}
_OMEGA_CACHED_MODES = 64


def symplectic_form(modes):
    """Return the symplectic form Omega = [[0, I], [-I, 0]] for `modes` modes.

    The array is read-only, and shared between calls up to 64 modes; copy
    it to modify it.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    omega = _OMEGA.get(modes)
    if omega is None:
        eye = np.eye(modes)
        zero = np.zeros((modes, modes))
        omega = np.block([[zero, eye], [-eye, zero]])
        omega.flags.writeable = False
        if modes <= _OMEGA_CACHED_MODES:
            _OMEGA[modes] = omega
    return omega


def real_representation(C):
    """Real representation R(C) = [[Re C, -Im C], [Im C, Re C]] of a complex matrix.

    R is a homomorphism -- R(AB) = R(A) R(B) and R(A^dag) = R(A)^T -- so the
    real representation of a unitary is both orthogonal and symplectic.
    """
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    return np.block([[C.real, -C.imag], [C.imag, C.real]])


def is_symplectic(M, tol=DEFAULT_TOL.structural):
    """Whether M Omega_in M^T = Omega_out to max-abs tolerance `tol`.

    Works for rectangular 2R x 2C matrices via the generalized test; matrices
    with an odd number of rows or columns are never symplectic.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] % 2 or M.shape[1] % 2:
        return False
    rows, cols = M.shape[0] // 2, M.shape[1] // 2
    defect = M @ symplectic_form(cols) @ M.T - symplectic_form(rows)
    return bool(np.max(np.abs(defect)) <= tol)


def symplectic_eigenvalues(V):
    """Symplectic eigenvalues of a positive-definite covariance matrix.

    Computed as the singular values of V^{1/2} Omega V^{1/2}, which equal the
    moduli of the eigenvalues of i Omega V; they come in coincident pairs and
    are paired down to one value per mode.  This construction is invariant
    under symplectic congruence V -> S V S^T, unlike a naive SVD of Omega V.

    Returns
    -------
    ndarray of R values, sorted descending.  A physical state has every
    value >= 1/2.

    Raises
    ------
    NonPositiveDefinite
        If V has an eigenvalue <= 0.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1] or V.shape[0] % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    w, Q = np.linalg.eigh((V + V.T) / 2.0)
    if w[0] <= 0.0:
        raise NonPositiveDefinite(
            "covariance matrix has eigenvalue %g <= 0" % w[0]
        )
    root = (Q * np.sqrt(w)) @ Q.T
    modes = V.shape[0] // 2
    s = np.linalg.svd(root @ symplectic_form(modes) @ root, compute_uv=False)
    return 0.5 * (s[0::2] + s[1::2])


def matrix_abs(M):
    """Matrix absolute value |M| = sqrt(M^T M) of a real square matrix.

    Returned symmetric PSD; for antisymmetric M this equals sqrt(-M^2).
    """
    M = np.asarray(M, dtype=float)
    _, s, vt = np.linalg.svd(M)
    A = vt.T @ (s[:, None] * vt)
    return (A + A.T) / 2.0


def min_eig_hermitian(H, tol=1e-10):
    """Smallest eigenvalue of a Hermitian matrix.

    Raises NotHermitian if max|H - H^dag| exceeds `tol`.
    """
    H = np.asarray(H)
    if np.max(np.abs(H - H.conj().T)) > tol:
        raise NotHermitian("matrix deviates from Hermiticity beyond %g" % tol)
    return float(np.linalg.eigvalsh(H)[0])


def entropy_g(x):
    """Bosonic entropy g(x) = (x+1) log2(x+1) - x log2 x in bits, g(0) = 0.

    This is the von Neumann entropy of a thermal state with mean photon
    number x.  Arguments in [-1e-12, 0] are clamped to 0; anything below
    raises NegativeArgument.
    """
    if x < -1e-12:
        raise NegativeArgument("entropy argument %r < -1e-12" % (x,))
    return float(entropy_g_arr(np.array([x], dtype=float))[0])
