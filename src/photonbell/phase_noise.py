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
by exp(-|m_ab|^2 delta^2 / 2) and turns it by its phase at the centers
(:func:`~photonbell.experiments.frame_averaged_table`).  Scans over many
centers damp the cosine and sine rows of a
:class:`~photonbell.experiments.SymbolicCorrelatorTable` by the same
factor.  Monte Carlo sampling of the offsets (:func:`sample_offsets`) is
kept as the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock_core import TWO_PI

__all__ = [
    "PhaseModel",
    "child_seed",
    "sample_offsets",
    "wrapped_gaussian_pdf",
]

# Drop theta-series terms once q^{n^2} falls below this.
SERIES_TRUNCATION = 1e-16

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class PhaseModel:
    """Independent wrapped-Gaussian offsets for parties 2..N.

    Parameters
    ----------
    centers : sequence of float
        Mean offsets phibar_l, one per relative phase (length N-1, possibly
        empty for a single party).  Stored reduced to [0, 2*pi).
    width : float
        Common standard deviation delta >= 0 of the unwrapped Gaussians.
        Zero width means static, perfectly known offsets.
    """

    centers: tuple
    width: float

    def __post_init__(self):
        centers = tuple(float(c) % TWO_PI for c in self.centers)
        if any(not np.isfinite(c) for c in centers):
            raise ValueError("phase centers must be finite")
        if not np.isfinite(self.width) or self.width < 0.0:
            raise ValueError("width must be finite and >= 0")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "width", float(self.width))

    @property
    def n_relative(self) -> int:
        return len(self.centers)


def wrapped_gaussian_pdf(phi, center: float, width: float):
    """Density of a Gaussian of mean ``center`` and sd ``width`` wrapped to 2*pi.

    Two exact forms exist, and the one with fewer terms at this width is
    summed.  Wide noise uses the Fourier form

        pdf(phi) = (1/2pi) * [1 + 2 * sum_{n>=1} q^{n^2} cos(n (phi - center))]

    with q = exp(-width^2 / 2), truncated once q^{n^2} < SERIES_TRUNCATION,
    which takes about 8.6 / width terms.  Narrow noise uses the sum of
    Gaussians over the windings 2 pi k of x = phi - center reduced to
    [-pi, pi],

        pdf(phi) = sum_k exp(-(x + 2 pi k)^2 / (2 width^2)) / (width sqrt(2 pi)),

    over the |k| <= K whose omitted terms fall below SERIES_TRUNCATION of
    the peak, which takes 2K + 1 terms.  Zero width is rejected: the density
    degenerates to a delta spike, and callers handle that case by using the
    center directly.

    Parameters
    ----------
    phi : float or array_like
        Angles at which to evaluate (any real values; the density has
        period 2*pi).
    center, width : float
        Mean and standard deviation of the unwrapped Gaussian; width > 0.

    Returns
    -------
    float or ndarray
        Density values, nonnegative, integrating to 1 over one period.
    """
    if not np.isfinite(width) or width <= 0.0:
        raise ValueError("width must be > 0 (zero width has no density)")
    phi_arr = np.asarray(phi, dtype=float)
    reach = np.sqrt(-2.0 * np.log(SERIES_TRUNCATION))
    # Term counts as floats: either may be inf at extreme widths.
    n_max = np.floor(reach / width) + 1.0
    # Windings beyond K are at least 2 pi (K + 1) - pi from x.
    k_max = np.ceil((reach * width + np.pi) / TWO_PI) - 1.0
    x = phi_arr - center
    if 2.0 * k_max + 1.0 < n_max:
        x = x - TWO_PI * np.round(x / TWO_PI)
        shifts = TWO_PI * np.arange(-k_max, k_max + 1.0)
        peaks = np.exp(-0.5 * (np.add.outer(x, shifts) / width) ** 2)
        density = peaks.sum(axis=-1) / (width * np.sqrt(TWO_PI))
    else:
        n = np.arange(1.0, n_max + 1.0)
        weights = np.exp(-0.5 * (n * width) ** 2)
        series = 1.0 + 2.0 * (np.cos(np.multiply.outer(x, n)) @ weights)
        density = np.maximum(series / TWO_PI, 0.0)  # clip roundoff in far tails
    return float(density) if np.isscalar(phi) or phi_arr.ndim == 0 else density


def sample_offsets(model: PhaseModel, rng_seed: int, count: int) -> np.ndarray:
    """Draw ``count`` offset vectors from the model, deterministically.

    Returns an array of shape (count, n_relative) with each component drawn
    from a Gaussian of the model's center and width, reduced mod 2*pi.
    A zero-width model is rejected; callers use the centers directly in
    that degenerate case.
    """
    if model.width == 0.0:
        raise ValueError("zero-width model has no randomness to sample")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    draws = rng.normal(
        loc=model.centers, scale=model.width, size=(count, model.n_relative)
    )
    return draws % TWO_PI


def child_seed(seed: int, index: int) -> int:
    """Derive a decorrelated 64-bit child seed for Monte Carlo shard ``index``.

    Splitmix-style mixing: advance the root seed by the 64-bit golden-ratio
    increment per shard, then apply the splitmix64 finalizer.  Deterministic
    and collision-free across shard indices for a fixed root seed.
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    z = (int(seed) + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
