"""N-party full-correlation Bell functional and the two-qubit CHSH maximum.

For N parties with two settings each, the functional evaluated here is

    S = 2^{-N} * sum_r | sum_s (-1)^{r.s} xi(s) |

where xi(s) is the full correlator for the joint setting choice
s in {0, 1}^N and r.s is the bitwise dot product.  Local hidden-variable
models obey S <= 1; for N = 2 the functional is equivalent to CHSH with the
quantum maximum sqrt(2).  The inner sum is a Walsh-Hadamard transform of the
correlation table, so S costs O(N 2^N) (:func:`wwzb_value`); the O(4^N)
double sum is kept as a test oracle (:func:`wwzb_value_naive`).

Table index convention: bit k-1 of a table index holds party k's setting,
i.e. party 1 is the least significant bit.

For arbitrary two-qubit states, :func:`chsh_horodecki` returns the largest
CHSH value 2 * sqrt(u1 + u2) reachable with projective qubit measurements,
where u1, u2 are the two largest eigenvalues of T^T T built from the
correlation matrix T_ab = Tr[rho (sigma_a x sigma_b)].  This uses the
conventional CHSH normalization with local bound 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BellResult",
    "CorrelatorTable",
    "chsh_horodecki",
    "wwzb_value",
    "wwzb_value_naive",
]

# Correlators may overshoot +-1 by accumulated roundoff, never by physics.
TABLE_RANGE_TOL = 1e-9

# Largest N for which the quadratic-cost oracle is allowed to run.
NAIVE_PARTY_LIMIT = 10

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True, eq=False)
class CorrelatorTable:
    """Full-correlation table over the 2^N joint setting choices.

    values[s] is the correlator for joint setting s; bit k-1 of s selects
    party k's setting (party 1 least significant).
    """

    n_parties: int
    values: np.ndarray

    def __post_init__(self):
        if self.n_parties < 1:
            raise ValueError("n_parties must be >= 1")
        vals = np.array(self.values, dtype=float)
        if vals.shape != (2**self.n_parties,):
            raise ValueError(
                f"table for {self.n_parties} parties needs "
                f"{2 ** self.n_parties} entries, got shape {vals.shape}"
            )
        limit = 1.0 + TABLE_RANGE_TOL
        if not np.all((vals >= -limit) & (vals <= limit)):
            raise ValueError("correlators must lie in [-1, 1] up to roundoff")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class BellResult:
    """Bell value plus the transform coefficient that dominates it."""

    s_value: float
    dominant_r: int

    @property
    def violated(self) -> bool:
        return self.s_value > 1.0


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform (unnormalized) along the last axis.

    The butterflies run in place on one copy of the input, so the working
    set is that copy plus half of it.
    """
    a = np.array(values, dtype=float)
    size = a.shape[-1]
    h = 1
    while h < size:
        b = a.reshape(a.shape[:-1] + (size // (2 * h), 2, h))
        first = b[..., 0, :].copy()
        b[..., 0, :] += b[..., 1, :]
        np.subtract(first, b[..., 1, :], out=b[..., 1, :])
        h *= 2
    return a


def wwzb_value(table: CorrelatorTable) -> BellResult:
    """Bell value of a correlation table via the fast transform.

    Returns the value S = 2^{-N} sum_r |T(r)| together with the index r of
    the largest |T(r)| (lowest index on ties), which identifies the sign
    pattern contributing most of the violation.
    """
    transform = _walsh_hadamard(table.values)
    magnitudes = np.abs(transform)
    s_value = float(magnitudes.sum() / 2**table.n_parties)
    return BellResult(s_value=s_value, dominant_r=int(np.argmax(magnitudes)))


def wwzb_value_naive(table: CorrelatorTable) -> BellResult:
    """Same Bell value by the explicit O(4^N) double sum (test oracle)."""
    if table.n_parties > NAIVE_PARTY_LIMIT:
        raise ValueError(f"naive evaluation limited to N <= {NAIVE_PARTY_LIMIT}")
    size = 2**table.n_parties
    r, s = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    overlap = r & s
    parity = np.zeros_like(overlap)
    while overlap.any():  # popcount mod 2, bit by bit
        parity ^= overlap & 1
        overlap >>= 1
    kernel = 1.0 - 2.0 * parity
    transform = kernel @ table.values
    magnitudes = np.abs(transform)
    s_value = float(magnitudes.sum() / size)
    return BellResult(s_value=s_value, dominant_r=int(np.argmax(magnitudes)))


def chsh_horodecki(rho: np.ndarray) -> float:
    """Largest CHSH value of a two-qubit state over projective measurements.

    Parameters
    ----------
    rho : array_like
        4x4 density matrix in the product basis (|00>, |01>, |10>, |11>),
        Hermitian, unit trace and PSD within 1e-10.

    Returns
    -------
    float
        2 * sqrt(u1 + u2) with u1 >= u2 the two largest eigenvalues of
        T^T T, T_ab = Tr[rho (sigma_a x sigma_b)].  Values above 2 certify
        a CHSH violation; values at or below 2 mean no projective CHSH
        violation exists for this state.
    """
    mat = np.array(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError(f"two-qubit state must be 4x4, got {mat.shape}")
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise ValueError("state matrix is not Hermitian")
    if abs(np.trace(mat) - 1.0) > 1e-10:
        raise ValueError("state matrix must have unit trace")
    if np.linalg.eigvalsh(mat).min() < -1e-10:
        raise ValueError("state matrix is not positive semidefinite")

    t = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            value = np.trace(mat @ np.kron(_SIGMA[a], _SIGMA[b]))
            t[a, b] = value.real
    u = np.linalg.eigvalsh(t.T @ t)
    return float(2.0 * np.sqrt(u[-1] + u[-2]))
