"""N-party full-correlation Bell functional and the two-qubit CHSH maximum.

For N parties with two settings each, the functional evaluated here is

    S = 2^{-N} * sum_r | sum_s (-1)^{r.s} xi(s) |

where xi(s) is the full correlator for the joint setting choice
s in {0, 1}^N and r.s is the bitwise dot product.  Local hidden-variable
models obey S <= 1; for N = 2 the functional is equivalent to CHSH with the
quantum maximum sqrt(2).  The inner sum is a Walsh-Hadamard transform of the
correlation table, so S costs O(N 2^N) (:func:`wwzb_value`); the O(4^N)
double sum is kept as a test oracle (:func:`wwzb_value_naive`).

The transform is cache-blocked: the butterflies over the low half of the
index bits run on transposed blocks of ``WHT_BLOCK_ENTRIES`` entries, the
rest in place in chunks of that many pairs, so its working set is two
blocks beside the output.  It performs the same sums and differences in
the same order as the plain level-by-level loop and so returns the same
bits.

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

# A Bell value counts as a violation only above 1 + VIOLATION_ROUNDOFF.
# Sums of 2^N rounded terms can overshoot a classical value of exactly 1
# (one party at zero amplitudes, or the vacuum, for instance) by far less
# than this, and a threshold moves by about this much over the slope of S
# in eta.
VIOLATION_ROUNDOFF = 1e-9

# Largest N for which the quadratic-cost oracle is allowed to run.
NAIVE_PARTY_LIMIT = 10

# Entries of one transposed block of the Walsh-Hadamard transform and
# pairs of one in-place chunk: 512 KiB each, well inside a core's L2.
WHT_BLOCK_ENTRIES = 2**16

# Arrays this small are all per-call overhead; they skip the transposed
# phase.
WHT_SMALL_ENTRIES = 2**9

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
        # Two reductions and no temporaries; NaN propagates to both and fails.
        if not (-limit <= vals.min() and vals.max() <= limit):
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
        return self.s_value > 1.0 + VIOLATION_ROUNDOFF


def _butterflies(flat: np.ndarray, h: int, stop: int, temp: np.ndarray) -> None:
    """Butterfly levels of span h, 2h, ... below ``stop``, in place.

    ``flat`` is C-contiguous and 1-D; a level pairs entry i with i + h
    inside every aligned run of 2h entries and replaces (x, y) by
    (x + y, x - y).  Each level runs in chunks of at most ``len(temp)``
    pairs, so ``temp`` is the only extra memory.
    """
    chunk = len(temp)
    while h < stop:
        pairs = flat.reshape(-1, 2, h)
        if flat.size <= 2 * chunk:  # one call: small transforms are all overhead
            _butterfly(pairs[:, 0], pairs[:, 1], temp)
        else:
            rows, cols = max(1, chunk // h), min(h, chunk)
            for p in range(0, len(pairs), rows):
                for j in range(0, h, cols):
                    _butterfly(
                        pairs[p : p + rows, 0, j : j + cols],
                        pairs[p : p + rows, 1, j : j + cols],
                        temp,
                    )
        h *= 2


def _butterfly(first: np.ndarray, second: np.ndarray, temp: np.ndarray) -> None:
    """(first, second) <- (first + second, first - second), in place."""
    diff = np.subtract(first, second, out=temp[: first.size].reshape(first.shape))
    first += second
    second[...] = diff


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform (unnormalized) along the last axis.

    Returns a new float array; ``values`` is left unmodified.  The 2^n
    entries of a row are split into n index bits: a low half of
    k = ceil(n/2) bits and a high half.  Butterflies over a low bit pair
    entries only h < 2^k apart, so in place their contiguous runs are h
    entries long and numpy pays per run.  They run instead one block of
    about ``WHT_BLOCK_ENTRIES`` entries at a time: the block's rows of 2^k
    entries (every row of the batch axes too) are copied transposed into
    a contiguous scratch array, where a butterfly of span h moves runs
    of h times the block's row count, and written back transposed.  The
    high-bit levels then run in place, in chunks of
    ``WHT_BLOCK_ENTRIES`` pairs; their runs are at least 2^k long.
    Arrays of at most ``WHT_SMALL_ENTRIES`` entries skip the transposed
    phase (k = 0).  Extra memory is the output and two blocks.

    Every entry gets the same pairwise sums and differences in the same
    level order as the textbook in-place loop (``tests/helpers``), so the
    result equals it bit for bit on every input.
    """
    x = np.asarray(values, dtype=float)
    size = x.shape[-1]
    if x.size <= WHT_SMALL_ENTRIES:
        out = x.copy()
        _butterflies(out.reshape(-1), 1, size, np.empty(x.size // 2))
        return out
    low = 1 << (size.bit_length() // 2)
    out = np.empty(x.shape)
    block, temp = np.empty((2, min(x.size, max(low, WHT_BLOCK_ENTRIES))))
    src, dst = x.reshape(-1, low), out.reshape(-1, low)
    step = max(1, WHT_BLOCK_ENTRIES // low)
    for start in range(0, len(src), step):
        part = src[start : start + step]
        transposed = block[: part.size].reshape(low, len(part))
        np.copyto(transposed, part.T)
        _butterflies(transposed.reshape(-1), len(part), part.size, temp)
        np.copyto(dst[start : start + step], transposed.T)
    _butterflies(out.reshape(-1), low, size, temp)
    return out


def wwzb_value(table: CorrelatorTable) -> BellResult:
    """Bell value of a correlation table via the fast transform.

    Returns the value S = 2^{-N} sum_r |T(r)| together with the index r of
    the largest |T(r)| (lowest index on ties), which identifies the sign
    pattern contributing most of the violation.
    """
    magnitudes = _walsh_hadamard(table.values)
    np.abs(magnitudes, out=magnitudes)
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
