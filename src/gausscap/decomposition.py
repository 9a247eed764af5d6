"""Decomposition of block-form channels into parallel single-mode channels.

A block-form signal transform H_s = R(C) factorizes through the complex SVD
C = U_C D_C W_C^dag as H_s = R(U_C) R(D_C) R(W_C)^T, where the real factors
U = R(U_C) and W = R(W_C) are simultaneously orthogonal and symplectic, i.e.
implementable as passive Gaussian unitaries.  The squared singular values
lambda_k = d_k^2 are the transmissions (or gains) of the resulting
independent single-mode channels.
"""

from dataclasses import dataclass

import numpy as np

from .channels import thermal_noise
from .errors import NonThermalNoise, NotBlockForm
from .phasespace import DEFAULT_TOL, real_representation

__all__ = ["ModeDecomposition", "block_svd", "diagonal_channel_params"]


@dataclass(frozen=True)
class ModeDecomposition:
    """Orthogonal-symplectic factors U (2K x 2K), W (2N x 2N) and singular values."""

    U: np.ndarray
    W: np.ndarray
    singulars: np.ndarray

    @property
    def lambdas(self):
        """Per-mode transmissions/gains d_k^2, sorted descending."""
        return self.singulars**2

    def rect_diagonal(self):
        """The doubled rectangular diagonal D = R(D_C) with U D W^T = H_s."""
        K = self.U.shape[0] // 2
        N = self.W.shape[0] // 2
        D_C = np.zeros((K, N))
        m = len(self.singulars)
        D_C[:m, :m] = np.diag(self.singulars)
        return real_representation(D_C)


def block_svd(H_s, tol=DEFAULT_TOL.block_form):
    """Symplectic-compatible SVD of a block-form signal transform.

    Parameters
    ----------
    H_s : real 2K x 2N matrix of the block form [[A, -B], [B, A]].
    tol : max-abs tolerance for the block-symmetry test.

    Raises
    ------
    NotBlockForm
        If the block symmetry is violated beyond `tol`; the caller should
        fall back to the general capacity path.
    """
    H = np.asarray(H_s, dtype=float)
    if H.ndim != 2 or H.shape[0] % 2 or H.shape[1] % 2:
        raise NotBlockForm("signal transform must be 2K x 2N")
    K, N = H.shape[0] // 2, H.shape[1] // 2
    qq, qp = H[:K, :N], H[:K, N:]
    pq, pp = H[K:, :N], H[K:, N:]
    if max(np.max(np.abs(qq - pp)), np.max(np.abs(qp + pq))) > tol:
        raise NotBlockForm(
            "transform mixes quadratures beyond tolerance %g" % tol
        )
    C = (qq + pp) / 2.0 + 0.5j * (pq - qp)
    U_C, d, W_Ch = np.linalg.svd(C)
    return ModeDecomposition(
        U=real_representation(U_C),
        W=real_representation(W_Ch.conj().T),
        singulars=d,
    )


def diagonal_channel_params(ch, tol=DEFAULT_TOL.block_form,
                            thermal_tol=DEFAULT_TOL.thermal):
    """Per-singular-mode parameters (lambda_k, n, xi) of a thermal channel.

    Requires ch.H_s to be block-form and ch.Y to reconstruct from the thermal
    form (n + 1/2)|I - H_s H_s^T| + xi I within `thermal_tol`; otherwise the
    channel cannot be reduced to independent single-mode channels and the
    caller must use the general formulas.

    When K > N the receiver sees K - N extra modes with zero transmission;
    they are appended with lambda = 0.
    """
    dec = block_svd(ch.H_s, tol)
    n, xi = ch.noise.n, ch.noise.xi
    if np.max(np.abs(ch.Y - thermal_noise(ch.H_s, ch.noise))) > thermal_tol:
        raise NonThermalNoise(
            "noise matrix is not thermal for the recorded (n, xi)"
        )
    lams = list(dec.lambdas)
    lams.extend([0.0] * (ch.out_modes - ch.in_modes))
    return [(float(lam), float(n), float(xi)) for lam in lams]
