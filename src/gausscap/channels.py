"""Multimode Gaussian quantum channels.

A channel is the pair (H_s, Y) acting on covariance matrices as
V -> H_s V H_s^T + Y.  It is a valid quantum channel iff

    Y - (i/2) Sigma >= 0,   Sigma = Omega_out - H_s Omega_in H_s^T,

and the minimal noise saturating that bound is Y = (1/2)|Sigma|.  Block-form
transforms (real representations of a complex matrix C) model phase-insensitive
channels; for those, coupling to a uniform thermal environment with n photons
per mode plus classical additive noise xi gives the thermal noise matrix

    Y = (n + 1/2) |I - H_s H_s^T| + xi I.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidChannel
from .phasespace import (
    DEFAULT_TOL,
    is_symplectic,
    matrix_abs,
    min_eig_hermitian,
    real_representation,
    symplectic_form,
)

__all__ = [
    "NoiseParams",
    "GaussianChannel",
    "GlobalSymplectic",
    "quad_indices",
    "sigma_matrix",
    "minimal_noise",
    "thermal_noise",
    "block_form_channel",
    "channel_from_global",
    "validate_channel",
    "apply_channel",
    "channel_to_json",
    "channel_from_json",
]


@dataclass(frozen=True)
class NoiseParams:
    """Thermal environment occupation `n` and additive classical noise `xi`."""

    n: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.n) and math.isfinite(self.xi)):
            raise ValueError("noise parameters must be finite")
        if self.n < 0 or self.xi < 0:
            raise ValueError("noise parameters must be nonnegative")


@dataclass(frozen=True)
class GaussianChannel:
    """Signal transform H_s (2K x 2N), noise matrix Y (2K x 2K), noise params.

    The noise params record the thermal environment the channel was built
    from; they are bookkeeping for the diagonal capacity fast path, while Y is
    always the authoritative noise matrix.
    """

    H_s: np.ndarray
    Y: np.ndarray
    noise: NoiseParams = field(default_factory=NoiseParams)

    def __post_init__(self):
        H = np.asarray(self.H_s, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if H.ndim != 2 or H.shape[0] % 2 or H.shape[1] % 2:
            raise DimensionMismatch("H_s must be 2K x 2N")
        if Y.shape != (H.shape[0], H.shape[0]):
            raise DimensionMismatch("Y must be square of the output dimension")
        if np.max(np.abs(Y - Y.T)) > 1e-12:
            raise DimensionMismatch("Y must be symmetric to 1e-12")
        object.__setattr__(self, "H_s", H)
        object.__setattr__(self, "Y", Y)

    @property
    def in_modes(self):
        return self.H_s.shape[1] // 2

    @property
    def out_modes(self):
        return self.H_s.shape[0] // 2


@dataclass(frozen=True)
class GlobalSymplectic:
    """Joint symplectic transform over N signal + M environment modes.

    Quadratures are globally ordered (all q's, then all p's) with the signal
    modes first within each quadrature group.
    """

    H_tilde: np.ndarray
    signal_modes: int
    env_modes: int

    def __post_init__(self):
        H = np.asarray(self.H_tilde, dtype=float)
        dim = 2 * (self.signal_modes + self.env_modes)
        if H.shape != (dim, dim):
            raise DimensionMismatch(
                "global transform must be %d x %d" % (dim, dim)
            )
        if not is_symplectic(H, DEFAULT_TOL.validity):
            raise InvalidChannel("global transform is not symplectic to 1e-9")
        object.__setattr__(self, "H_tilde", H)


def quad_indices(modes, total_modes):
    """Quadrature indices (q's then p's) of the given modes.

    In the global ordering of `total_modes` modes, mode m owns row/column m
    (its q) and row/column total_modes + m (its p).
    """
    m = np.asarray(modes, dtype=int)
    return np.concatenate([m, m + total_modes])


def sigma_matrix(H_s):
    """Commutation defect Sigma = Omega_out - H_s Omega_in H_s^T."""
    H_s = np.asarray(H_s, dtype=float)
    out_modes = H_s.shape[0] // 2
    in_modes = H_s.shape[1] // 2
    return symplectic_form(out_modes) - H_s @ symplectic_form(in_modes) @ H_s.T


def minimal_noise(H_s):
    """Least noise matrix making H_s a valid channel: (1/2)|Sigma|.

    For block-form H_s this equals (1/2)|I - H_s H_s^T|; for symplectic H_s
    it vanishes.
    """
    return 0.5 * matrix_abs(sigma_matrix(H_s))


def thermal_noise(H_s, noise):
    """Thermal noise matrix Y = (n + 1/2)|I - H_s H_s^T| + xi I of a block-form H_s."""
    dim = H_s.shape[0]
    Y = (noise.n + 0.5) * matrix_abs(np.eye(dim) - H_s @ H_s.T)
    return Y + noise.xi * np.eye(dim)


def block_form_channel(C, noise=NoiseParams()):
    """Channel with H_s = R(C) and uniform thermal + additive noise.

    Parameters
    ----------
    C : complex K x N matrix (arbitrary singular values; gains above 1 give
        phase-insensitive amplifiers).
    noise : NoiseParams

    The noise matrix is Y = (n + 1/2)|I - H_s H_s^T| + xi I, which is the
    minimal noise for n = 0 and a valid channel for every n, xi >= 0: R(C)
    commutes with Omega, so Sigma = Omega D with D = I - H_s H_s^T, and each
    eigenvalue of Y - (i/2)Sigma is (n + 1/2)|d| -+ d/2 + xi >= 0, d in spec(D).
    """
    H_s = real_representation(C)
    Y = thermal_noise(H_s, noise)
    return GaussianChannel(H_s, (Y + Y.T) / 2.0, noise)


def _infer_uniform_thermal(env_state):
    # If the environment is c*I with c >= 1/2, record n = c - 1/2 so the
    # diagonal capacity fast path can recognize the resulting thermal noise.
    env_state = np.asarray(env_state, dtype=float)
    c = float(np.mean(np.diag(env_state)))
    if c >= 0.5 and np.max(np.abs(env_state - c * np.eye(env_state.shape[0]))) <= 1e-12:
        return NoiseParams(n=c - 0.5, xi=0.0)
    return NoiseParams()


def channel_from_global(G, env_state, receiver_modes):
    """Reduce a global symplectic + environment state to a signal channel.

    The receiver keeps the first `receiver_modes` signal output modes.  The
    environment block h_se of the global transform turns the environment
    covariance into the induced noise Y = h_se V_env h_se^T.
    """
    N, M = G.signal_modes, G.env_modes
    K = int(receiver_modes)
    if not 1 <= K <= N:
        raise DimensionMismatch("receiver_modes must be in 1..signal_modes")
    env_state = np.asarray(env_state, dtype=float)
    if env_state.shape != (2 * M, 2 * M):
        raise DimensionMismatch("environment state must be 2M x 2M")
    total = N + M
    rows = quad_indices(np.arange(K), total)
    sig_cols = quad_indices(np.arange(N), total)
    env_cols = quad_indices(np.arange(N, total), total)
    H_s = G.H_tilde[np.ix_(rows, sig_cols)]
    h_se = G.H_tilde[np.ix_(rows, env_cols)]
    Y = h_se @ env_state @ h_se.T
    return GaussianChannel(H_s, (Y + Y.T) / 2.0, _infer_uniform_thermal(env_state))


def validate_channel(ch, tol=DEFAULT_TOL.validity):
    """Whether Y - (i/2)Sigma >= -tol holds (the quantum validity bound)."""
    A = ch.Y.astype(complex) - 0.5j * sigma_matrix(ch.H_s)
    return min_eig_hermitian(A, tol=1e-8) >= -tol


def apply_channel(ch, V_in):
    """Output covariance H_s V_in H_s^T + Y."""
    V_in = np.asarray(V_in, dtype=float)
    if V_in.shape != (2 * ch.in_modes, 2 * ch.in_modes):
        raise DimensionMismatch("input covariance must be 2N x 2N")
    V_out = ch.H_s @ V_in @ ch.H_s.T + ch.Y
    return (V_out + V_out.T) / 2.0


def channel_to_json(ch):
    """Serialize a channel to the interchange JSON schema.

    Floats go through repr (shortest round-trip), so loading the string back
    reproduces the exact same doubles.
    """
    obj = {
        "n_in": ch.in_modes,
        "n_out": ch.out_modes,
        "H_s": ch.H_s.tolist(),
        "Y": ch.Y.tolist(),
        "n": ch.noise.n,
        "xi": ch.noise.xi,
    }
    return json.dumps(obj)


def channel_from_json(text):
    """Parse a channel from its JSON form (see channel_to_json)."""
    try:
        obj = json.loads(text)
        H_s = np.asarray(obj["H_s"], dtype=float)
        Y = np.asarray(obj["Y"], dtype=float)
        noise = NoiseParams(n=float(obj["n"]), xi=float(obj["xi"]))
        n_in = int(obj["n_in"])
        n_out = int(obj["n_out"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidChannel("malformed channel JSON: %s" % exc) from None
    if H_s.shape != (2 * n_out, 2 * n_in):
        raise DimensionMismatch("H_s shape does not match n_in/n_out")
    if not (np.isfinite(H_s).all() and np.isfinite(Y).all()):
        raise ValueError("channel matrices must be finite")
    return GaussianChannel(H_s, Y, noise)
