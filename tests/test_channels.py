"""Channel construction, validity and serialization tests."""

import json

import numpy as np
import pytest

from gausscap.channels import (
    GaussianChannel,
    GlobalSymplectic,
    NoiseParams,
    apply_channel,
    block_form_channel,
    channel_from_global,
    channel_from_json,
    channel_to_json,
    minimal_noise,
    quad_indices,
    sigma_matrix,
    validate_channel,
)
from gausscap.errors import DimensionMismatch, InvalidChannel
from gausscap.phasespace import real_representation


def loss_channel(eta, n=0.0, xi=0.0):
    return block_form_channel(np.array([[np.sqrt(eta)]]), NoiseParams(n, xi))


def test_noise_params_validation():
    NoiseParams(0.0, 0.0)
    NoiseParams(1.5, 0.25)
    with pytest.raises(ValueError):
        NoiseParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        NoiseParams(0.0, -1e-6)


@pytest.mark.parametrize("n, xi", [(np.nan, 0.0), (np.inf, 0.0),
                                   (0.0, np.nan), (0.0, np.inf)])
def test_noise_params_must_be_finite(n, xi):
    with pytest.raises(ValueError):
        NoiseParams(n, xi)


@pytest.mark.parametrize("key, value", [("H_s", np.nan), ("H_s", -np.inf),
                                        ("Y", np.inf), ("Y", np.nan)])
def test_json_rejects_non_finite_matrix_entries(key, value):
    obj = json.loads(channel_to_json(block_form_channel(np.array([[0.8]]))))
    obj[key][1][1] = value    # json writes these as NaN / Infinity
    with pytest.raises(ValueError):
        channel_from_json(json.dumps(obj))


def test_quad_indices():
    assert list(quad_indices(np.arange(2), 3)) == [0, 1, 3, 4]
    assert list(quad_indices([1], 4)) == [1, 5]


def test_balanced_loss_minimal_noise():
    # 50/50 loss: Sigma = (1/2) Omega, so the minimal noise is I/4
    ch = loss_channel(0.5)
    assert np.allclose(ch.Y, 0.25 * np.eye(2), atol=1e-12)
    assert np.allclose(minimal_noise(ch.H_s), 0.25 * np.eye(2), atol=1e-12)
    assert validate_channel(ch)


def test_identity_channel_is_noiseless():
    ch = block_form_channel(np.eye(2))
    assert np.allclose(ch.H_s, np.eye(4))
    assert np.allclose(ch.Y, np.zeros((4, 4)), atol=1e-15)
    assert np.allclose(sigma_matrix(ch.H_s), 0.0, atol=1e-15)
    assert validate_channel(ch)


@pytest.mark.parametrize("eta,n", [(0.36, 0.0), (0.36, 0.3), (0.8, 1.2)])
def test_thermal_loss_noise_matrix(eta, n):
    # Y = (n + 1/2)(1 - eta) I for a loss channel through a thermal bath
    ch = loss_channel(eta, n=n)
    assert np.allclose(ch.Y, (n + 0.5) * (1 - eta) * np.eye(2), atol=1e-12)
    assert validate_channel(ch)


def test_additive_noise_shifts_y():
    ch = loss_channel(0.5, xi=0.7)
    assert np.allclose(ch.Y, (0.25 + 0.7) * np.eye(2), atol=1e-12)


def test_block_form_channel_rejects_unphysical_noise():
    # a thermal construction can never be unphysical, but a hand-built Y can
    H = real_representation(np.array([[np.sqrt(0.5)]]))
    bad = GaussianChannel(H, np.zeros((2, 2)), NoiseParams())
    assert not validate_channel(bad)


def test_apply_channel_vacuum_through_loss():
    eta = 0.36
    ch = loss_channel(eta, n=0.3)
    v_out = apply_channel(ch, 0.5 * np.eye(2))
    expected = (eta * 0.5 + (0.3 + 0.5) * (1 - eta)) * np.eye(2)
    assert np.allclose(v_out, expected, atol=1e-12)


def beam_splitter_global(c):
    """Joint transform mixing one signal and one environment mode."""
    s = np.sqrt(1.0 - c * c)
    b = np.array([[c, s], [-s, c]])
    H = np.zeros((4, 4))
    H[:2, :2] = b
    H[2:, 2:] = b
    return GlobalSymplectic(H, signal_modes=1, env_modes=1)


def test_channel_from_global_matches_block_form():
    c = 0.6
    g = beam_splitter_global(c)
    n_env = 0.3
    v_env = (n_env + 0.5) * np.eye(2)
    ch = channel_from_global(g, v_env, receiver_modes=1)
    assert np.allclose(ch.H_s, c * np.eye(2), atol=1e-12)
    # induced noise: s^2 (n + 1/2) I with s^2 = 1 - c^2 = 0.64
    assert np.allclose(ch.Y, 0.64 * 0.8 * np.eye(2), atol=1e-12)
    assert ch.noise.n == pytest.approx(n_env, abs=1e-12)
    # and the direct thermal construction agrees
    direct = loss_channel(c * c, n=n_env)
    assert np.allclose(ch.H_s, direct.H_s, atol=1e-12)
    assert np.allclose(ch.Y, direct.Y, atol=1e-12)


def test_channel_from_global_receiver_bounds():
    g = beam_splitter_global(0.6)
    with pytest.raises(DimensionMismatch):
        channel_from_global(g, 0.5 * np.eye(2), receiver_modes=2)
    with pytest.raises(DimensionMismatch):
        channel_from_global(g, 0.5 * np.eye(4), receiver_modes=1)


def test_global_symplectic_rejects_non_symplectic():
    with pytest.raises(InvalidChannel):
        GlobalSymplectic(2.0 * np.eye(4), signal_modes=1, env_modes=1)
    with pytest.raises(DimensionMismatch):
        GlobalSymplectic(np.eye(4), signal_modes=2, env_modes=1)


def test_gaussian_channel_shape_validation():
    with pytest.raises(DimensionMismatch):
        GaussianChannel(np.eye(3), np.eye(3), NoiseParams())
    with pytest.raises(DimensionMismatch):
        GaussianChannel(np.eye(2), np.eye(4), NoiseParams())
    with pytest.raises(DimensionMismatch):
        GaussianChannel(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
                        NoiseParams())


def test_json_round_trip_is_bit_faithful():
    rng = np.random.default_rng(41)
    c = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    c *= 0.4
    ch = block_form_channel(c, NoiseParams(0.25, 0.1))
    back = channel_from_json(channel_to_json(ch))
    assert np.array_equal(back.H_s, ch.H_s)
    assert np.array_equal(back.Y, ch.Y)
    assert back.noise == ch.noise
    assert back.in_modes == 3 and back.out_modes == 2


def test_mode_counts():
    ch = block_form_channel(0.5 * np.ones((1, 2)) / np.sqrt(2))
    assert ch.in_modes == 2
    assert ch.out_modes == 1
    assert ch.H_s.shape == (2, 4)
    assert ch.Y.shape == (2, 2)
