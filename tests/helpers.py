"""Shared randomized-construction helpers for the test suite."""

import numpy as np

from photonbell import DisplacementSetting, SubspaceState


def random_state(rng: np.random.Generator, n_modes: int) -> SubspaceState:
    """Random mixed state on the 0/1-excitation sector of n_modes modes."""
    dim = n_modes + 1
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    return SubspaceState(n_modes, rho)


def random_settings(rng: np.random.Generator, n_modes: int, r_max: float = 1.5):
    """One random displacement setting per mode."""
    return [
        DisplacementSetting(rng.uniform(0.0, r_max), rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(n_modes)
    ]


def random_observable_matrices(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Random Hermitian 2x2 matrices with eigenvalues in [-1, 1], shape (*shape, 2, 2)."""
    eigs = rng.uniform(-1.0, 1.0, shape + (2,))
    raw = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    unitary, _ = np.linalg.qr(raw)
    mats = unitary @ (eigs[..., :, None] * unitary.conj().swapaxes(-1, -2))
    return 0.5 * (mats + mats.conj().swapaxes(-1, -2))


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Truncated Fock-basis coefficients of a coherent state."""
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    return amps * np.exp(-0.5 * abs(alpha) ** 2)
