"""Shared randomized-construction helpers for the test suite."""

import numpy as np

from photonbell import (
    ConsistencyError,
    DisplacementSetting,
    OptimizationSpec,
    SubspaceState,
    ThresholdResult,
    maximize_bell,
)


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


def bisect_threshold(
    n_parties: int,
    width: float,
    tolerance: float,
    restarts: int = 6,
    optimize_phases: bool = False,
) -> ThresholdResult:
    """Loss threshold by bisecting the efficiency over full Bell searches.

    Slow oracle for ``threshold_efficiency``: every probe re-runs
    ``maximize_bell``.  The Bell value is convex in the efficiency, so the
    predicate "optimized S > 1" is monotone as long as the inner search
    finds the optimum; a coarse grid checks that and raises
    ConsistencyError when a clear violation shrinks at higher efficiency.
    The result is the midpoint of the final bracket, so it lies within
    tolerance / 2 of the searched threshold.
    """
    slack = 1e-5  # restart jitter stays well below this

    def best_s(efficiency: float) -> float:
        spec = OptimizationSpec(
            n_parties=n_parties,
            width=width,
            efficiency=efficiency,
            optimize_phases=optimize_phases,
            restarts=restarts,
        )
        return maximize_bell(spec).best_s

    top = best_s(1.0)
    if top <= 1.0:
        return ThresholdResult(efficiency=1.0, violable=False)
    probes = (0.25, 0.5, 0.75)
    values = [best_s(p) for p in probes]
    sequence = values + [top]
    for earlier, later in zip(sequence, sequence[1:]):
        if earlier > 1.0 + slack and later < earlier - slack:
            raise ConsistencyError("optimized Bell value fell at higher efficiency")
    lo, hi = 0.0, 1.0
    for eta, s in zip(probes, values):
        if s > 1.0:
            hi = min(hi, eta)
        else:
            lo = max(lo, eta)
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if best_s(mid) > 1.0:
            hi = mid
        else:
            lo = mid
    return ThresholdResult(efficiency=0.5 * (lo + hi), violable=True)
