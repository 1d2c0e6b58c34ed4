"""Wrapped-Gaussian frame noise and exact phase averaging.

Parties that share no phase reference see their local-oscillator phases
drift between runs.  With party 1 as the reference, the N-1 relative
offsets Delta_l (party l+1 minus party 1) are modelled as independent
Gaussians of common width delta centred at phibar_l, wrapped onto
[0, 2*pi).

Correlators of displacement measurements depend on the offsets only
through the phases exp(i m . Delta) that the frame puts on the entries of
the state, with small integer frequency vectors m.  Averaging over the
frame noise then reduces to the Gaussian characteristic function

    E[exp(i m . Delta)] = exp(i m . phibar - |m|^2 delta^2 / 2),

which coincides with the wrapped distribution's Fourier coefficients for
integer m, so the analytic average is exact: it damps state entry (a, b)
by exp(-|m_ab|^2 delta^2 / 2) and turns it by its phase at the centers,
for the table of party 1's setting pair 0
(:func:`~photonbell.experiments.frame_averaged_table` and, for the
single-phase strategy, :func:`~photonbell.optimize.averaged_correlator_table`)
and of every pair at once
(:func:`~photonbell.experiments.best_pair_bell_value`).  The optimizer
damps the same way and moves the centers into the setting phases.  Scans
over many centers damp the cosine and sine rows of the symbolic tables
of :func:`~photonbell.experiments.pair_symbolic_tables`, one per pair,
by the same factor.
The tests keep Monte Carlo sampling of the offsets and quadrature of the
wrapped density as the independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock_core import TWO_PI, _real, _whole

__all__ = [
    "PhaseModel",
    "child_seed",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class PhaseModel:
    """Independent wrapped-Gaussian offsets for parties 2..N.

    Parameters
    ----------
    centers : sequence of float
        Mean offsets phibar_l, one real number per relative phase (length
        N-1, possibly empty for a single party).  Stored reduced to
        [0, 2*pi).
    width : float
        Common standard deviation delta >= 0 of the unwrapped Gaussians.
        Zero width means static, perfectly known offsets.
    """

    centers: tuple
    width: float

    def __post_init__(self):
        given = np.asarray(self.centers)
        if given.ndim != 1 or given.dtype.kind not in "iuf":
            raise ValueError("phase centers must be a sequence of real numbers")
        centers = tuple(float(c) % TWO_PI for c in given)
        if any(not np.isfinite(c) for c in centers):
            raise ValueError("phase centers must be finite")
        width = _real(self.width, "width")
        if not np.isfinite(width) or width < 0.0:
            raise ValueError("width must be finite and >= 0")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "width", width)

    @property
    def n_relative(self) -> int:
        return len(self.centers)


def _whole_seed(seed) -> int:
    """``seed`` as an int; ValueError unless it is a whole number in [0, 2^64)."""
    seed = _whole(seed, "seed", 0)
    if seed > _MASK64:
        raise ValueError("seed must be < 2**64")
    return seed


def child_seed(seed: int, index: int) -> int:
    """Derive a decorrelated 64-bit child seed for Monte Carlo shard ``index``.

    Splitmix-style mixing: advance the root seed by the 64-bit golden-ratio
    increment per shard, then apply the splitmix64 finalizer.  Deterministic
    and collision-free across shard indices for a fixed root seed.  The
    seed must be a whole number in [0, 2^64) and the index a whole number
    >= 0 (integral floats pass); ValueError otherwise.
    """
    seed = _whole_seed(seed)
    index = _whole(index, "index", 0)
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
