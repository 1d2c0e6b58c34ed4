"""N-party full-correlation Bell functional and the two-qubit CHSH maximum.

For N parties with two settings each, the functional evaluated here is

    S = 2^{-N} * sum_r | sum_s (-1)^{r.s} xi(s) |

where xi(s) is the full correlator for the joint setting choice
s in {0, 1}^N and r.s is the bitwise dot product.  Local hidden-variable
models obey S <= 1; for N = 2 the functional is equivalent to CHSH with the
quantum maximum sqrt(2).  The inner sum is a Walsh-Hadamard transform of the
correlation table, so S costs O(N 2^N) (:func:`wwzb_value`); the O(4^N)
double sum is kept as a test oracle (:func:`wwzb_value_naive`).

Most of the scheme's tables are exchangeable: party 1 is the reference,
and parties 2..N share their settings and their frame, so an entry
depends only on s_1 and on the weight of s_2..s_N.  Such a table's
transform depends only on r_1 and on the weight u of r_2..r_N, and
:func:`wwzb_value` sums its 2N classes, S = 2^{-N} sum_{r_1, u}
C(N-1, u) |T(r_1, u)|.  :class:`CorrelatorTable` checks the table entry
by entry, bit for bit, when it is built, in one pass of 2^12-row leaves
that stops at the first leaf that differs (3 ms at N = 22 against
about 230 ms for the transform, on one core of a 2-core 2.0 GHz Xeon);
the same pass lets its range check read the 2N distinct values alone.
:func:`wwzb_value` then runs the butterflies in count space, O(N^2)
operations that give the transform's own bits at each class's lowest
index, and does not read the table again.  Tables of N <= 2, and tables
that fail the check, take the transform.

The transform runs level by level in place over one copy of the table,
each level in chunks of ``WHT_BLOCK_ENTRIES`` pairs, so its extra memory
is one chunk beside the output.

Table index convention: bit k-1 of a table index holds party k's setting,
i.e. party 1 is the least significant bit.

For arbitrary two-qubit states, :func:`chsh_horodecki` returns the largest
CHSH value 2 * sqrt(u1 + u2) reachable with projective qubit measurements,
where u1, u2 are the two largest eigenvalues of T^T T built from the
correlation matrix T_ab = Tr[rho (sigma_a x sigma_b)].  This uses the
conventional CHSH normalization with local bound 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock_core import _weight_layout, _weight_leaves, _whole

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

# Pairs of one in-place chunk of a Walsh-Hadamard butterfly level: a
# 512 KiB scratch row, well inside a core's L2.
WHT_BLOCK_ENTRIES = 2**16

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True, eq=False)
class CorrelatorTable:
    """Full-correlation table over the 2^N joint setting choices.

    values[s] is the correlator for joint setting s; bit k-1 of s selects
    party k's setting (party 1 least significant).  Values must be real
    numbers (not strings, booleans or complex) in [-1, 1] up to roundoff.

    ``values`` is always a read-only float64 array.  An input that nothing
    can write to is kept as given: a 1-D, C-contiguous, native float64
    array that is not writeable, whose ``.base`` chain holds no writeable
    array and ends at an array that owns its memory.  The tables of
    :func:`~photonbell.fock_core.correlator_tables` are such arrays, so a
    2^N-entry table reaches :func:`wwzb_value` without a copy.  Every
    other input (lists, other dtypes or byte orders, strided or writeable
    arrays, read-only views of writeable memory, arrays over a foreign
    buffer) is copied.  The shape and range checks run on every input.

    A table of N >= 3 whose entry s depends only on s_1 and on the weight
    of s_2..s_N, bit for bit, has its 2N distinct values found here, in
    one pass over the table that stops at the first leaf that differs
    (``_weight_symmetric``).  They are kept, read-only, as ``_classes``
    (N, 2), entry [w, s_1] at the lowest index of its class, and the
    range check reads them alone: every entry is one of them.  Any other
    table, and every table of N <= 2, has ``_classes`` None and its
    range check reads every entry.  NaN, infinities and -0.0 count as
    their bits: a lone one breaks the symmetry, and a class of them
    fails the range check.

    The checks and the classes hold only while ``values`` stays as it
    was.  numpy lets ``setflags(write=True)`` switch writes back on for
    any array that owns its memory, so whoever holds ``values``, or the
    array at the end of its ``.base`` chain, can do so; a write after
    that voids both.
    """

    n_parties: int
    values: np.ndarray
    _classes: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n_parties", _whole(self.n_parties, "n_parties", 1))
        vals = np.asarray(self.values)
        if vals.dtype.kind not in "iuf":
            raise ValueError("correlators must be real numbers")
        if not _unwritable_float_row(vals):
            vals = np.array(vals, dtype=float)
            vals.setflags(write=False)
        if vals.shape != (2**self.n_parties,):
            raise ValueError(
                f"table for {self.n_parties} parties needs "
                f"{2 ** self.n_parties} entries, got shape {vals.shape}"
            )
        classes = None
        if self.n_parties >= 3:
            classes = vals[_class_layout(self.n_parties)[0]]
            if _weight_symmetric(vals, classes):
                classes.setflags(write=False)
            else:
                classes = None
        # Every entry is bit for bit one of the classes, if they were found.
        checked = vals if classes is None else classes
        limit = 1.0 + TABLE_RANGE_TOL
        # Two reductions and no temporaries; NaN propagates to both and fails.
        if not (-limit <= checked.min() and checked.max() <= limit):
            raise ValueError("correlators must lie in [-1, 1] up to roundoff")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_classes", classes)


def _unwritable_float_row(vals: np.ndarray) -> bool:
    """Whether ``vals`` is a 1-D, C-contiguous, native float64 array nothing can write to.

    Nothing can when neither ``vals`` nor any array in its ``.base``
    chain is writeable and the chain ends at an array that owns its
    memory; a chain that ends in another buffer (``np.frombuffer``, a
    memory map) may be written through that buffer.
    """
    if vals.ndim != 1 or vals.dtype != np.float64 or not vals.flags.c_contiguous:
        return False
    while isinstance(vals, np.ndarray):
        if vals.flags.writeable:
            return False
        if vals.base is None:
            return True
        vals = vals.base
    return False


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

    Returns a new float array; ``values`` is left unmodified.  The
    butterfly levels of span 1, 2, 4, ... run in place over one
    C-ordered copy, each in chunks of at most ``WHT_BLOCK_ENTRIES``
    pairs (:func:`_butterflies`), so the extra memory beside the output
    is one chunk.  Every entry gets the same pairwise sums and
    differences in the same level order as the textbook in-place loop
    (``tests/helpers``), so the result equals it bit for bit on every
    input.
    """
    out = np.array(values, dtype=float, order="C")
    temp = np.empty(min(out.size // 2, WHT_BLOCK_ENTRIES))
    _butterflies(out.reshape(-1), 1, out.shape[-1], temp)
    return out


@lru_cache(maxsize=32)
def _class_layout(n_parties: int):
    """Read-only (lowest, counts) of the 2N transform classes of N parties.

    Class (r_1, u) holds the C(N-1, u) indices r with party 1's bit r_1
    and u of the bits of parties 2..N set; ``lowest[u, r_1]`` is its
    lowest index r_1 + 2(2^u - 1), the one with parties 2..u+1 set, and
    ``counts[u]`` its size.  On a weight-symmetric table the same indices
    hold the 2N distinct entries.  Built once per N.
    """
    ones = np.arange(n_parties)
    lowest = 2 * ((1 << ones) - 1)[:, None] + np.arange(2)
    counts = np.array([math.comb(n_parties - 1, int(u)) for u in ones], dtype=float)
    lowest.setflags(write=False)
    counts.setflags(write=False)
    return lowest, counts


def _weight_symmetric(values: np.ndarray, distinct: np.ndarray) -> bool:
    """Whether ``values`` (2^N,) is the weight layout of ``distinct`` (N, 2), bit for bit.

    One pass over the table, a leaf of ``fock_core.WEIGHT_LEAF_ROWS`` rows
    at a time against the distinct leaf of its weight
    (:func:`~photonbell.fock_core._weight_layout`), comparing the entries'
    bit patterns; it stops at the first leaf that differs.  Extra memory
    is the distinct leaves and one leaf of flags.
    """
    _, order = _weight_layout(len(distinct))
    expected = _weight_leaves(distinct).view(np.int64)
    expected = expected.reshape(len(expected), -1)
    leaves = values.view(np.int64).reshape(len(order), -1)
    same = np.empty(leaves.shape[1], dtype=bool)
    for leaf, weight in zip(leaves, order.tolist()):
        if not np.equal(leaf, expected[weight], out=same).all():
            return False
    return True


def _class_transform(distinct: np.ndarray) -> np.ndarray:
    """Transform (..., N, 2) of weight-symmetric tables at the lowest index of each class.

    ``distinct[..., w, s_1]`` (..., N, 2) holds a table's entry of party
    1's setting s_1 and weight w; the leading axes are a batch of tables,
    each transformed with the arithmetic of a call with it alone.  The
    butterflies run in count space in the order of
    :func:`_walsh_hadamard`: party 1's bit first, then parties 2..N.
    After party k+1, ``level[r_1, j, m]`` is the partial transform at an
    index whose transformed bits are r_1 and j ones in the lowest places
    (parties 2..j+1), with m ones among the untransformed setting bits;
    every index of that kind holds the same bits, since the same sums and
    differences of equal entries formed it.  Party k+1's butterfly pairs
    m with m + 1: the sum keeps j, and the difference of j = k - 1 gives
    j = k.  So entry [u, r_1] equals, bit for bit, the full transform at
    r_1 + 2(2^u - 1), in O(N^2) operations.
    """
    batch, n = distinct.shape[:-2], distinct.shape[-2]
    even, odd = distinct[..., 0], distinct[..., 1]
    level = np.empty(batch + (2, 1, n))
    np.add(even, odd, out=level[..., 0, 0, :])
    np.subtract(even, odd, out=level[..., 1, 0, :])
    for k in range(1, n):
        first, second = level[..., :-1], level[..., 1:]
        level = np.empty(batch + (2, k + 1, n - k))
        np.add(first, second, out=level[..., :k, :])
        np.subtract(first[..., k - 1, :], second[..., k - 1, :], out=level[..., k, :])
    return level[..., 0].swapaxes(-1, -2)


def wwzb_value(table: CorrelatorTable) -> BellResult:
    """Bell value of a correlation table via the fast transform.

    Returns the value S = 2^{-N} sum_r |T(r)| together with an index r of
    the largest |T(r)|, which identifies the sign pattern contributing
    most of the violation.

    A table whose 2N weight classes :class:`CorrelatorTable` found when
    it was built (N >= 3, entry s a function of s_1 and of the weight of
    s_2..s_N, bit for bit; every exchangeable table of
    :func:`~photonbell.fock_core.correlator_tables` is one) takes the
    class route: T(r) then depends only on r_1 and the weight u of
    r_2..r_N, and the 2N class values come from a count-space butterfly
    that equals the full transform at each class's lowest index bit for
    bit (:func:`_class_transform`), so S = 2^{-N} sum_{r_1, u}
    C(N-1, u) |T(r_1, u)|, within a few ulps of the full sum.  It reads
    only those 2N values; nothing table-sized is read or allocated.
    ``r`` is then the lowest index of the class of largest |T| (the
    lowest such index on ties between classes).  Every other table, and
    every table of N <= 2, runs the full transform, and ``r`` is the
    lowest index of the largest |T(r)|.
    """
    n = table.n_parties
    if table._classes is not None:
        lowest, counts = _class_layout(n)
        magnitudes = np.abs(_class_transform(table._classes))
        s_value = float((magnitudes * counts[:, None]).sum() / 2**n)
        # lowest grows along (u, r_1), so argmax picks the lowest index
        dominant = lowest.flat[np.argmax(magnitudes)]
        return BellResult(s_value=s_value, dominant_r=int(dominant))
    magnitudes = _walsh_hadamard(table.values)
    np.abs(magnitudes, out=magnitudes)
    s_value = float(magnitudes.sum() / 2**n)
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
        finite, Hermitian, unit trace and PSD within 1e-10.

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
    if not np.isfinite(mat).all():
        raise ValueError("state matrix must be finite")
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
