"""States and click-detection observables for a single photon over N modes.

A single photon shared coherently between N spatial modes, together with the
vacuum admixture produced by loss, never leaves the (N+1)-dimensional
subspace spanned by the vacuum and the one-excitation states |e_k> (one
photon in mode k, vacuum elsewhere).  Density operators are stored as dense
(N+1) x (N+1) Hermitian matrices in the fixed basis order

    (vac, e_1, ..., e_N)

and every module in this package relies on that order.

Local measurements are small optical displacements followed by a
non-number-resolving detector, with outcome +1 for no click and -1 for a
click.  Restricted to the 0/1-photon sector of one mode, the observable
2|alpha><alpha| - 1 with alpha = r exp(i phi) becomes a 2x2 matrix, and
:func:`displacement_matrices` builds the matrices of any array of
settings.  Observables exist only as such arrays, shape (..., 2, 2).

N-party correlation functions <M_1 x ... x M_N> are evaluated by one numpy
kernel, :func:`correlator_batch`, over an array of observable matrices of
shape (..., N, 2, 2) against one state or a stack of states (..., N+1,
N+1).  It walks only the nonzero structure of the subspace: the one-hole
products (m_00 over every mode but one) come from prefix and suffix
cumulative products along the party axis, and the two-hole sum over mode
pairs j < k is an O(N)-step recurrence over k, vectorized over the batch
and the states, that is valid for any density matrix.  The kernel takes
its input rows-last, the entries m00, m01, m10 and m11 of every row as
one (4, N, B) array, and lays its arrays out the same way, so each step
runs over long contiguous runs of rows; it writes the terms it sums over
modes back in rows-first order, so every sum keeps the order, and every
correlator the bits, of a rows-first kernel.  Each route gathers these
entries straight from its setting pairs with one ``np.take`` per call
(per chunk for the 2^N-row walk), and :func:`correlator_batch`
transposes its matrices once.  The observable products are formed once
per chunk and shared by every state, and each state keeps the
arithmetic of a call with it alone.  The state-only factors are formed
once per stack, so a caller that contracts one stack at many batches
(an optimizer search) forms them once.  The batch is processed in
chunks of at most ``CORRELATOR_CHUNK_ELEMENTS`` matrices divided by the
number of states, so memory stays bounded for any batch size.
:func:`correlator_tables` is the 2^N-entry table builder behind
the optimizer's joint search, the one-frame state route and the
offset-symbolic tables, so the package has one correlator walk, and it
picks its route itself: when every state of the stack is exchangeable
in modes 2..N (decided once per stack, with the state-only factors) and
a point's parties 2..N hold one setting pair, an entry depends only on
party 1's setting and on how many of the others take setting 1, so 2N
kernel rows give the distinct values (:func:`_exchangeable_values`),
copied into the 2^N entries a leaf of 2^12 rows at a time
(:func:`_weight_layout`, the layout
:class:`~photonbell.wwzb.CorrelatorTable` checks such tables against);
every other point walks all 2^N rows.  The tests keep a dense
evaluation in the full 2^N mode-occupation space as its slow oracle,
and the rows-first kernel as its bit-for-bit oracle.

The optimizer's pinned search needs no kernel: for a real state,
exchangeable in modes 2..N and free of vacuum coherence (the
frame-averaged lossy W state), :func:`_exchangeable_closed_form` gives
the correlators of real symmetric settings in O(N) per row.

Validation happens where values enter: :class:`SubspaceState` checks the
state and :func:`check_observable_matrices` checks a batch of
observables, with closed-form 2x2 Hermiticity and eigenvalue bounds
(:func:`_check_observable_entries` on real entries).  The kernel itself
only checks that its results are real (``ConsistencyError`` otherwise),
over the whole batch; the closed form's are real by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConsistencyError",
    "SubspaceState",
    "check_observable_matrices",
    "correlator_batch",
    "correlator_tables",
    "displacement_matrices",
    "lossy_w_state",
    "w_state",
]

TWO_PI = 2.0 * np.pi

# Construction-time tolerances for state and observable validation.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
EIGENVALUE_TOL = 1e-10

# A correlator whose imaginary residue exceeds this indicates a bug or an
# unphysical input, not roundoff.
IMAG_RESIDUE_TOL = 1e-8

# The correlator kernel handles at most this many mode matrices (batch rows
# times N) per chunk; its working arrays are a small multiple of that, a few
# MiB, near the size of a core's L2 cache.  On a 2-core Xeon guest (2 MiB L2
# per core) the 2^18-row walk of 18 parties took 1.4 s in chunks of 2^16
# matrices and 0.8 s in these.
CORRELATOR_CHUNK_ELEMENTS = 2**14

# Rows of one leaf of the weight layout of exchangeable tables (2^12 rows
# of two entries, 64 KiB): the unit of the exchangeable route's gather and
# of the correlation table's symmetry check.
WEIGHT_LEAF_ROWS = 2**12


class ConsistencyError(RuntimeError):
    """A numerical self-check failed (a result that must be real was not)."""


def _whole(value, what: str, minimum: int) -> int:
    """``value`` as an int; ValueError unless it is a whole number >= minimum.

    Python and numpy integers and integral floats pass; booleans, 2.7,
    NaN, inf and anything not a number do not, where ``int`` would accept,
    truncate or fail on them.
    """
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a float; ValueError unless it is one real number.

    Python and numpy integers and floats pass, NaN and inf among them (the
    caller checks the range); booleans, complex numbers, strings, None and
    sequences do not, where numpy would raise TypeError or compare them.
    """
    if np.ndim(value) != 0 or np.asarray(value).dtype.kind not in "iuf":
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class SubspaceState:
    """Density operator on the vacuum-plus-one-photon subspace of N modes.

    Parameters
    ----------
    n_modes : int
        Number of modes N >= 1.
    matrix : array_like
        (N+1) x (N+1) density matrix in the basis (vac, e_1, ..., e_N).
        Must be finite, Hermitian, unit trace and positive semidefinite
        within the module tolerances.
    """

    n_modes: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_modes", _whole(self.n_modes, "n_modes", 1))
        dim = self.n_modes + 1
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"state matrix must have shape {(dim, dim)}, got {mat.shape}")
        mat.setflags(write=False)
        if not np.isfinite(mat).all():
            raise ValueError("state matrix must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise ValueError("state matrix is not Hermitian")
        trace = np.trace(mat)
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"state matrix trace is {trace}, expected 1")
        if np.linalg.eigvalsh(mat).min() < -PSD_TOL:
            raise ValueError("state matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", mat)


def _check_observable_entries(m00, m01, m11) -> None:
    """Raise ValueError unless real symmetric 2x2 matrices of these entries are observables.

    ``m00`` and ``m11`` are the diagonals and ``m01`` the off-diagonal
    entry (or its modulus).  The entries must be finite, and both
    eigenvalues must lie in [-1, 1] within ``EIGENVALUE_TOL``.  The
    eigenvalues are m +- g with m = (m00 + m11)/2 and g = sqrt(((m00 -
    m11)/2)^2 + m01^2), so both lie in [-1, 1] exactly when |m| + g <= 1.
    A non-finite entry makes |m| + g NaN or infinite, so it fails that
    bound as well, and finiteness is looked at only then, to name it.
    """
    mean = 0.5 * (m00 + m11)
    gap = np.hypot(0.5 * (m00 - m11), m01)
    radius = np.abs(mean) + gap
    if not radius.max(initial=0.0) <= 1.0 + EIGENVALUE_TOL:
        if not all(np.isfinite(entry).all() for entry in (m00, m01, m11)):
            raise ValueError("observable matrix must be finite")
        worst = np.unravel_index(np.argmax(radius), radius.shape)
        eigs = [float(mean[worst] - gap[worst]), float(mean[worst] + gap[worst])]
        raise ValueError(f"observable eigenvalues {eigs} outside [-1, 1]")


def check_observable_matrices(matrices) -> None:
    """Raise ValueError unless every 2x2 matrix in ``matrices`` is an observable.

    ``matrices`` has shape (..., 2, 2).  Each matrix must be finite and
    Hermitian within ``HERMITICITY_TOL`` and have both eigenvalues in
    [-1, 1] within ``EIGENVALUE_TOL``: the bound of
    :func:`_check_observable_entries` on the real diagonal and the
    modulus of the lower off-diagonal entry, read as ``eigvalsh`` reads
    them.
    """
    mats = np.asarray(matrices)
    if not np.isfinite(mats).all():
        raise ValueError("observable matrix must be finite")
    asymmetry = np.abs(mats - np.conj(np.swapaxes(mats, -1, -2)))
    if not asymmetry.max(initial=0.0) <= HERMITICITY_TOL:
        raise ValueError("observable matrix is not Hermitian")
    _check_observable_entries(mats[..., 0, 0].real, np.abs(mats[..., 1, 0]), mats[..., 1, 1].real)


def w_state(n_modes: int) -> SubspaceState:
    """Single photon in an equal coherent superposition over ``n_modes`` modes.

    The density matrix has 1/N in every entry of the one-excitation block
    and no vacuum component: the lossless :func:`lossy_w_state`.
    """
    return lossy_w_state(n_modes, 1.0)


def lossy_w_state(n_modes: int, efficiency: float) -> SubspaceState:
    """W state after symmetric loss: eta * W + (1 - eta) * vacuum.

    Parameters
    ----------
    n_modes : int
        Number of modes N >= 1.
    efficiency : float
        Per-mode transmission eta in [0, 1].  Equal loss in every arm keeps
        the state inside the subspace; the photon survives with probability
        eta and is otherwise replaced by vacuum.
    """
    n_modes = _whole(n_modes, "n_modes", 1)
    efficiency = _real(efficiency, "efficiency")
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    dim = n_modes + 1
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = 1.0 - efficiency
    mat[1:, 1:] = efficiency / n_modes
    return SubspaceState(n_modes, mat)


def _displacement_entries(amplitudes) -> tuple:
    """Real entries (m00, m01, m11) of displaced click observables at phase 0.

    For each amplitude r: m00 = 2 e^{-r^2} - 1, m01 = m10 = 2 e^{-r^2} r
    and m11 = 2 e^{-r^2} r^2 - 1, the matrix of
    :func:`displacement_matrices` with its phase factors left off, as
    three arrays of the amplitudes' shape.  The exponent squares |r|
    capped at 1e150, so it never overflows.  Not validated: see
    :func:`_check_observable_entries`.
    """
    r = np.asarray(amplitudes, dtype=float)
    capped = np.minimum(np.abs(r), 1e150)
    g = 2.0 * np.exp(-capped * capped)
    gr = g * r
    return g - 1.0, gr, gr * r - 1.0


def displacement_matrices(amplitudes, phases) -> np.ndarray:
    """Displaced click/no-click observable matrices, shape (..., 2, 2).

    Displacing by alpha = r exp(i phi) and asking "no click?" measures
    2|alpha><alpha| - 1.  Projected onto the span of |0> and |1> this is

        [[2 e^{-r^2} - 1,        2 e^{-r^2} r e^{-i phi}],
         [2 e^{-r^2} r e^{i phi},  2 e^{-r^2} r^2 - 1   ]]

    whose eigenvalues lie in [-1, 1]: the real entries of
    :func:`_displacement_entries` with the phase factors put back.
    ``amplitudes`` and ``phases`` broadcast against each other.  Beyond
    the exponent's cap e^{-r^2} is 0 either way, and a huge amplitude
    gives photon counting, diag(-1, -1).  The matrices are not
    validated: pass them to :func:`check_observable_matrices` (one call
    for the batch).
    """
    r = np.asarray(amplitudes, dtype=float)
    phi = np.asarray(phases, dtype=float)
    m00, m01, m11 = _displacement_entries(r)
    mats = np.empty(np.broadcast(r, phi).shape + (2, 2), dtype=complex)
    mats[..., 0, 0] = m00
    mats[..., 0, 1] = m01 * np.exp(-1j * phi)
    mats[..., 1, 0] = m01 * np.exp(1j * phi)
    mats[..., 1, 1] = m11
    return mats


class _StateTerms(NamedTuple):
    """State-only factors of the correlator kernel for a stack of S states.

    ``states`` is the stack (S, N+1, N+1); the others are its vacuum
    population (S, 1), its one-photon populations and vacuum-excitation
    coherences (S, N, 1) each, the two channels of excitation pairs
    (S, 2, N, N, 1), and whether every state is exchangeable in modes 2..N
    (:func:`_exchangeable`).  The trailing axes broadcast against the
    kernel's rows-last arrays.  Formed once per stack by
    :func:`_state_terms`, so a caller that contracts the same states many
    times forms them once.
    """

    states: np.ndarray
    vacuum: np.ndarray
    populations: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    weights: np.ndarray
    exchangeable: bool


@lru_cache(maxsize=32)
def _mode_generators(n_modes: int) -> np.ndarray:
    """Read-only basis orders (2, N+1) of the swap of modes 2, 3 and the cycle of modes 2..N.

    The two permutations generate every permutation of modes 2..N (each
    is the identity when N < 3).
    """
    rest = list(range(2, n_modes + 1))
    orders = np.array([[0, 1, *rest[1::-1], *rest[2:]], [0, 1, *rest[1:], *rest[:1]]])
    orders.setflags(write=False)
    return orders


def _exchangeable(states: np.ndarray) -> bool:
    """Whether every state of a stack (S, N+1, N+1) is exchangeable in modes 2..N.

    True when each state equals itself, entry for entry and bit for bit,
    under every permutation of modes 2..N; the two generators of
    :func:`_mode_generators` decide it in one comparison.
    """
    orders = _mode_generators(states.shape[-1] - 1)
    return bool((states[:, orders[:, :, None], orders[:, None, :]] == states[:, None]).all())


def _state_terms(states: np.ndarray) -> _StateTerms:
    """Kernel factors of a stack of states (S, N+1, N+1); nothing is validated."""
    excited = states[:, 1:, 1:]
    return _StateTerms(
        states,
        states[:, 0, 0, None],
        np.diagonal(states, axis1=1, axis2=2)[:, 1:, None],
        states[:, 0, 1:, None],
        states[:, 1:, 0, None],
        np.stack((excited, excited.swapaxes(1, 2)), axis=1)[..., None],
        _exchangeable(states),
    )


def _correlator_rows(terms: _StateTerms, entries: np.ndarray) -> np.ndarray:
    """Complex traces Tr[rho_i (M_1 x ... x M_N)], shape (S, B).

    ``terms`` holds a stack of S states (:func:`_state_terms`) and
    ``entries`` (4, N, B) the entries m_k(0, 0), m_k(0, 1), m_k(1, 0) and
    m_k(1, 1) of B rows of observables, rows last.  With m_k(a, b) =
    <a|M_k|b> the trace splits into the vacuum term, the one-photon
    populations, the vacuum-excitation coherences and the
    excitation-excitation coherences, each multiplied by the product of
    m_l(0, 0) over the remaining modes.  Products with one mode left out
    are prefix times suffix products.  For the pair terms (modes j < k
    left out) step k of a recurrence over the modes adds mode k as the
    opening mode j of every later pair and extends the open products by
    m_k(0, 0); after step k-1 the entry for k holds every pair that k
    closes.  Nothing is divided by the possibly tiny m_l(0, 0).  The
    observable products are formed once and shared by every state; each
    state's terms are formed and summed as if it were alone.

    The kernel runs rows-last: each entry is an (N, B) array, so the
    products and the N - 1 steps of the pair recurrence, on (S, 2, N, B),
    run over contiguous runs of B rows, where a rows-first layout has
    runs of N - k - 1.  An elementwise product, and a cumulative product along the
    mode axis, has the same bits in any layout (numpy's complex product is
    not commutative bit for bit, so each keeps its operand order).  A sum
    is not: numpy sums a contiguous run of eight or more terms pairwise.
    So the products that are summed over modes are written in rows-first
    order, (S, B, N) and (S, B, 2, N), before they are summed, and every
    correlator has the bits of the rows-first kernel.
    """
    n, rows = entries.shape[1:]
    count = len(terms.states)
    # m_k(0, 0), read at every step, is contiguous; a chunk of a longer
    # batch gets one contiguous copy of it, the others are read in place.
    m00 = np.ascontiguousarray(entries[0])
    m01, m10, m11 = entries[1:]
    pre = np.ones((n + 1, rows), dtype=complex)
    np.cumprod(m00, axis=0, out=pre[1:])
    suf = np.ones((n + 1, rows), dtype=complex)
    np.cumprod(m00[::-1], axis=0, out=suf[n - 1 :: -1])
    hole = pre[:n] * suf[1:]

    total = terms.vacuum * pre[n]
    one_photon = terms.populations * m11 + terms.upper * m10 + terms.lower * m01
    by_row = np.empty((count, rows, n), dtype=complex)
    np.multiply(one_photon.transpose(0, 2, 1), hole.T, out=by_row)
    total += by_row.sum(axis=2)

    # Channel 0 pairs <e_j|rho|e_k> with m01_j m10_k, channel 1 pairs
    # <e_k|rho|e_j> with m10_j m01_k.  pending[i, c, k] accumulates
    # sum_{j<k} weight_c(j, k) opened_c(j) prod_{j<l<k} m00_l for state i,
    # one entry per row.
    # The entries hold (m01, m10) at 1:3 and (m10, m01) at 2:0:-1.
    opened = entries[1:3] * pre[:n]
    closing = entries[2:0:-1] * suf[1:]
    # Freed before the recurrence, so that the kernel's peak memory is no
    # more than a rows-first kernel's.
    del pre, suf, hole, one_photon, by_row
    pending = np.zeros((count, 2, n, rows), dtype=complex)
    for k in range(n - 1):
        later = pending[:, :, k + 1 :]
        later *= m00[k]
        later += opened[:, k, None] * terms.weights[:, :, k, k + 1 :]
    by_row = np.empty((count, rows, 2, n), dtype=complex)
    np.multiply(pending.transpose(0, 3, 1, 2), closing.transpose(2, 0, 1), out=by_row)
    total += by_row.sum(axis=(2, 3))
    return total


def _chunk_rows(n_modes: int) -> int:
    """Batch rows per kernel chunk for N-mode observable rows."""
    return max(1, CORRELATOR_CHUNK_ELEMENTS // n_modes)


def _correlator_values(terms: _StateTerms, entries: np.ndarray) -> np.ndarray:
    """Real correlators (S, B) of rows-last observable entries (4, N, B) against prepared states.

    The kernel behind :func:`correlator_batch` without its input checks:
    rows are processed in chunks of ``CORRELATOR_CHUNK_ELEMENTS`` matrices
    divided by the number of states, and ConsistencyError is raised if the
    largest imaginary residue exceeds IMAG_RESIDUE_TOL.
    """
    count = len(terms.states)
    n, size = entries.shape[1:]
    values = np.empty((count, size), dtype=complex)
    step = max(1, _chunk_rows(n) // max(1, count))
    for start in range(0, size, step):
        values[:, start : start + step] = _correlator_rows(
            terms, entries[..., start : start + step]
        )
    residue = np.max(np.abs(values.imag), initial=0.0)
    if not residue <= IMAG_RESIDUE_TOL:
        raise ConsistencyError(f"correlator has imaginary residue {residue:.3e}")
    return values.real


def _kernel_inputs(rho, matrices):
    """``rho`` and ``matrices`` as complex arrays; ValueError on mismatched shapes."""
    rho = np.asarray(rho, dtype=complex)
    mats = np.asarray(matrices, dtype=complex)
    n = rho.shape[-1] - 1 if rho.ndim >= 2 else 0
    if n < 1 or rho.shape[-2] != n + 1:
        raise ValueError(f"state matrix must be square with N >= 1, got {rho.shape}")
    if mats.ndim < 3 or mats.shape[-3:] != (n, 2, 2):
        raise ValueError(
            f"state has {n} modes, observables have shape {mats.shape}; "
            f"expected (..., {n}, 2, 2)"
        )
    return rho, mats


def correlator_batch(rho, matrices) -> np.ndarray:
    """Correlators of a batch of observable rows against a stack of states.

    Parameters
    ----------
    rho : array_like
        (N+1) x (N+1) density matrix in the basis (vac, e_1, ..., e_N),
        normally ``SubspaceState.matrix``, or a stack of them of shape
        (..., N+1, N+1); it is not validated here.
    matrices : array_like
        Observable matrices of shape (..., N, 2, 2): each row of N 2x2
        matrices is one product M_1 x ... x M_N.  They are not validated
        here either (see :func:`check_observable_matrices`).

    Returns the real array of Tr[rho (M_1 x ... x M_N)], with the state
    axes of ``rho`` first and the batch axes of ``matrices`` after them.
    The matrices are transposed once into the kernel's rows-last entries
    (4, N, B).  Rows are processed in chunks of
    ``CORRELATOR_CHUNK_ELEMENTS`` matrices divided by the number of
    states, and the observable products of a chunk are shared by every
    state; each result depends only on its own
    state and row, so a stack gives every state the bits of a call with
    that state alone.  Raises ConsistencyError if the largest imaginary
    residue over the batch exceeds IMAG_RESIDUE_TOL (a non-Hermitian rho,
    for instance), ValueError on mismatched shapes.
    """
    rho, mats = _kernel_inputs(rho, matrices)
    n = mats.shape[-3]
    terms = _state_terms(rho.reshape(-1, n + 1, n + 1))
    entries = np.ascontiguousarray(mats.reshape(-1, n, 4).T)
    values = _correlator_values(terms, entries)
    return values.reshape(rho.shape[:-2] + mats.shape[:-3])


def _setting_weights(rest: int) -> np.ndarray:
    """Number of ones in each of the 2^rest setting choices of parties 2..N."""
    weights = np.zeros(1, dtype=np.uint8)
    for _ in range(rest):
        weights = np.concatenate((weights, weights + 1))
    return weights


@lru_cache(maxsize=32)
def _weight_layout(n_parties: int):
    """Read-only gather indices (rows, leaves) of the weight layout of N parties.

    A table whose entry s depends only on s_1 and on the weight of
    s_2..s_N (how many of parties 2..N take setting 1) is, in table order,
    2^(N-1) rows of two entries (s_1 = 0, s_1 = 1), one row per setting
    choice of parties 2..N.  The rows split into leaves of
    ``WEIGHT_LEAF_ROWS`` rows (one leaf when N <= 13): the low bits of a
    row's index place it in its leaf, the high bits pick the leaf.  Leaf
    L's high bits have weight ``leaves[L]``, and row j of a leaf whose high
    bits have weight h has weight ``rows[h, j]``.  So the distinct leaves
    are one gather of the 2N distinct values (:func:`_weight_leaves`), and
    the table is one gather of whole leaves.  Built once per N.
    """
    rest = n_parties - 1
    low = min(rest, WEIGHT_LEAF_ROWS.bit_length() - 1)
    rows = _setting_weights(low) + np.arange(rest - low + 1, dtype=np.intp)[:, None]
    leaves = _setting_weights(rest - low).astype(np.intp)
    rows.setflags(write=False)
    leaves.setflags(write=False)
    return rows, leaves


def _weight_leaves(values: np.ndarray) -> np.ndarray:
    """Distinct leaves (..., H, R, 2) of the weight layout of values (..., N, 2).

    ``values[..., w, s_1]`` is the entry of party 1's setting s_1 and
    weight w; leaf h holds the R rows of every leaf whose high bits have
    weight h (:func:`_weight_layout`).
    """
    rows, _ = _weight_layout(values.shape[-2])
    batch = np.ascontiguousarray(values.reshape((-1,) + values.shape[-2:]))
    leaves = np.empty((len(batch),) + rows.shape + (2,), dtype=values.dtype)
    # One np.take per leaf row, straight into the output.  np.take copies a
    # read-only index, so one take of every row would copy the whole cached
    # layout (320 KiB at N = 22) where this copies a row (32 KiB); in its
    # default "raise" mode it would also copy its output ("clip" never
    # clips, the rows are in range).  At N = 22 (2-core Xeon guest) this
    # takes 73 us, one take of every row 58 us, and the Ellipsis indexing
    # ``values[..., rows, :]``, which numpy runs through its slow subspace
    # path, 552 us.
    for h, row in enumerate(rows):
        np.take(batch, row, axis=1, out=leaves[:, h], mode="clip")
    return leaves.reshape(values.shape[:-2] + leaves.shape[1:])


@lru_cache(maxsize=32)
def _exchangeable_index(n_parties: int, pairs: int) -> np.ndarray:
    """Read-only gather index (4, N, 2N) of the exchangeable route of N parties.

    The source is one point's K = ``pairs`` setting pairs, flattened to
    8K complex entries: pair j, setting b and matrix entry e (m00, m01,
    m10, m11) at 8j + 4b + e.  Party 1 reads pair 0 and parties 2..N pair
    K-1.  Row 2w + s_1 gives party 1 setting s_1, parties 2..w+1 setting
    1 and the others setting 0, so ``index[e, k, 2w + s_1]`` is where
    party k+1's entry e of that row sits.  Built once per (N, K).
    """
    party = np.arange(n_parties)[:, None, None]
    ones = np.arange(n_parties)[:, None]
    first = np.arange(2)
    setting = np.where(party == 0, first, 2 * (pairs - 1) + (party <= ones))
    index = 4 * setting.reshape(n_parties, -1) + np.arange(4)[:, None, None]
    index.setflags(write=False)
    return index


def _exchangeable_values(terms: _StateTerms, pairs: np.ndarray) -> np.ndarray:
    """Distinct values (S, P, N, 2) of points whose parties 2..N share one setting pair.

    ``pairs`` (P, K, 2, 2, 2) holds each point's setting pairs, party 1's
    first and the pair parties 2..N share last (K = 1 when they are the
    same pair).  The states must be exchangeable in modes 2..N
    (``terms.exchangeable``); then a table entry depends only on s_1 and
    on how many of s_2..s_N are 1, and ``values[..., w, s_1]`` is the
    entry of weight w.  The 2N rows of every point are one kernel call,
    whose rows-last entries are one ``np.take`` of the points' setting
    pairs (transposed, points last) against the cached
    :func:`_exchangeable_index`.
    """
    points, k = pairs.shape[:2]
    n = terms.states.shape[-1] - 1
    source = np.ascontiguousarray(pairs.reshape(points, 8 * k).T)
    entries = np.take(source, _exchangeable_index(n, k), axis=0)
    distinct = _correlator_values(terms, entries.reshape(4, n, -1))
    # Rows run (w, s_1, point).
    return distinct.reshape(len(terms.states), n, 2, points).transpose(0, 3, 1, 2)


def _exchangeable_constants(states) -> np.ndarray:
    """The five distinct entries (S, 5) of a stack of states (S, N+1, N+1).

    Columns rho_00, rho_11, rho_22, rho_12 and rho_23: the vacuum, mode
    1's population, the population of a mode 2..N, the coherence of mode
    1 with one of them and that of two of them (0 where N has no such
    entry).  They hold every entry of a state that is real, symmetric,
    exchangeable in modes 2..N and free of vacuum-excitation coherence,
    bit for bit, as every frame-averaged lossy W state is; any other
    stack raises ConsistencyError.  Formed once per stack, for
    :func:`_exchangeable_closed_form`.
    """
    states = np.asarray(states)
    real = states.real
    if not (
        np.all(states.imag == 0.0)
        and np.array_equal(real, real.swapaxes(1, 2))
        and np.all(real[:, 0, 1:] == 0.0)
        and _exchangeable(states)
    ):
        raise ConsistencyError(
            "the closed form needs real symmetric states, exchangeable in modes 2..N, "
            "with no vacuum-excitation coherence"
        )
    rows, cols = np.array([(0, 0), (1, 1), (2, 2), (1, 2), (2, 3)]).T
    present = cols < states.shape[-1]
    constants = np.zeros((len(states), 5))
    constants[:, present] = real[:, rows[present], cols[present]]
    return constants


@lru_cache(maxsize=32)
def _closed_form_counts(n_parties: int) -> np.ndarray:
    """Read-only counts (5, N) u, m, u(u-1), 2um and m(m-1) for u = 0..N-1, m = N-1-u."""
    u = np.arange(n_parties, dtype=float)
    m = u[::-1]
    counts = np.stack((u, m, u * (u - 1.0), 2.0 * u * m, m * (m - 1.0)))
    counts.setflags(write=False)
    return counts


def _exchangeable_closed_form(constants: np.ndarray, n_parties: int, first, rest) -> np.ndarray:
    """Correlators (S, ..., N, A) of party 1 on each of A operators and parties 2..N on two.

    ``constants`` (S, 5) are the distinct entries of S states
    (:func:`_exchangeable_constants`).  ``first`` (3, ..., A) holds the
    real entries (m00, m01 = m10, m11) of party 1's A operators a_j for
    each row of the batch ``...``, and ``rest`` (3, ..., 2) those of the
    operators c = rest[..., 0] and b = rest[..., 1] of parties 2..N.
    Entry [i, ..., u, j] is Tr[rho_i (a_j x b^(x u) x c^(x m))], m =
    N-1-u: u of parties 2..N on b, the others on c.  Writing P(k, l) =
    b00^(u-k) c00^(m-l), with x^k = 0 for k < 0,

        E = a00 [rho_00 P(0, 0) + rho_22 (u b11 P(1, 0) + m c11 P(0, 1))
                 + rho_23 (u(u-1) b01^2 P(2, 0) + 2um b01 c01 P(1, 1)
                           + m(m-1) c01^2 P(0, 2))]
            + rho_11 a11 P(0, 0) + 2 rho_12 a01 (u b01 P(1, 0) + m c01 P(0, 1))

    the kernel's vacuum, population and coherence terms, with the
    products of m00 over the other modes written as powers (running
    products along u).  It costs O(N) per row, with no recurrence over
    modes and no 2^N-fold cancellation.  Every operation is elementwise,
    so a row's bits do not depend on its batch.
    """
    n = n_parties
    u, m, uu, um, mm = _closed_form_counts(n)
    batch = rest.shape[1:-1]
    # powers[..., s, 2 + k] = x^k for k = 0..N-1, x the m00 entry of
    # rest[..., s], after two zeros that stand for the negative powers.
    powers = np.zeros(batch + (2, n + 2))
    powers[..., 2] = 1.0
    powers[..., 3:] = rest[0][..., None]
    np.multiply.accumulate(powers[..., 2:], axis=-1, out=powers[..., 2:])
    c_powers, b_powers = powers[..., 0, :], powers[..., 1, :]
    b0, b1, b2 = b_powers[..., 2:], b_powers[..., 1:-1], b_powers[..., :-2]
    # c00^(m - l) runs down as u runs up.
    c0, c1, c2 = c_powers[..., n + 1 : 1 : -1], c_powers[..., n:0:-1], c_powers[..., n - 1 :: -1]
    c01, b01 = rest[1, ..., 0, None], rest[1, ..., 1, None]
    c11, b11 = rest[2, ..., 0, None], rest[2, ..., 1, None]
    plain = b0 * c0
    hole_b = u * b1 * c0
    hole_c = m * b0 * c1
    populations = b11 * hole_b + c11 * hole_c
    coherences = b01 * hole_b + c01 * hole_c
    pairs = (b01 * b01) * (uu * b2 * c0) + (b01 * c01) * (um * b1 * c1)
    pairs += (c01 * c01) * (mm * b0 * c2)
    rho00, rho11, rho22, rho12, rho23 = constants.T.reshape((5, -1) + (1,) * (len(batch) + 1))
    outer = rho00 * plain + rho22 * populations + rho23 * pairs
    values = first[0][..., None, :] * outer[..., None]
    values += first[2][..., None, :] * (rho11 * plain)[..., None]
    values += first[1][..., None, :] * ((2.0 * rho12) * coherences)[..., None]
    return values


def _weight_tables(distinct: np.ndarray) -> np.ndarray:
    """Read-only tables (S, P, 2^N) of distinct values (S, P, N, 2) in the weight layout.

    Entry (s_2..s_N, s_1) of a table is ``distinct[..., weight(s_2..s_N),
    s_1]``.  The distinct leaves are gathered first (:func:`_weight_leaves`)
    and the table is one gather of whole leaves (:func:`_weight_layout`),
    so no index array grows with the table.
    """
    count, points, n = distinct.shape[:3]
    leaves = _weight_leaves(distinct.reshape(count * points, n, 2))
    _, order = _weight_layout(n)
    # Gathered whole leaves along axis 1 are laid out in table order.
    tables = np.take(leaves, order, axis=1)
    tables.setflags(write=False)
    return tables.reshape(count, points, 2**n)


def _walked_values(terms: _StateTerms, pairs: np.ndarray) -> np.ndarray:
    """Tables (S, P, 2^N) of any setting pairs (P, N, 2, 2, 2), one row per entry.

    Entry s of table p uses party k's setting bit k-1 of s.  Rows are
    built for a chunk of table indices at a time, so memory stays bounded
    for any N: the chunk's rows-last entries are one ``np.take`` of the
    setting pairs (transposed, points last) against the chunk's index.
    The tables are read-only.
    """
    points, n = pairs.shape[:2]
    size = 2**n
    parties = np.arange(n)[:, None]
    # Row 8k + 4b + e of the source holds entry e of party k+1's setting b.
    source = np.ascontiguousarray(pairs.reshape(points, 8 * n).T)
    setting_zero = 8 * parties + np.arange(4)[:, None, None]
    count = len(terms.states)
    tables = np.empty((count, points, size))
    step = max(1, _chunk_rows(n) // max(1, points))
    for start in range(0, size, step):
        index = np.arange(start, min(start + step, size))
        entries = np.take(source, setting_zero + 4 * ((index >> parties) & 1), axis=0)
        values = _correlator_values(terms, entries.reshape(4, n, -1))
        # Rows run (table index, point).
        tables[..., start : start + step] = values.reshape(count, len(index), points).swapaxes(1, 2)
    tables.setflags(write=False)
    return tables


def _table_values(terms: _StateTerms, pairs: np.ndarray) -> np.ndarray:
    """Tables (S, P, 2^N) of setting pairs (P, N, 2, 2, 2) against prepared states.

    The table walk behind :func:`correlator_tables` without its input
    checks, and the one place that picks a route.  When the stack is
    exchangeable in modes 2..N, a point whose parties 2..N hold one
    setting pair takes the 2N-row route (:func:`_exchangeable_values`,
    spread by :func:`_weight_tables`);
    every other point walks all 2^N rows (:func:`_walked_values`), and so
    does every point below three parties, where 2N rows are all 2^N.
    Every route returns a new read-only array.
    """
    if pairs.shape[1] < 3 or not terms.exchangeable:
        return _walked_values(terms, pairs)
    shared = np.all(pairs[:, 2:] == pairs[:, 1:2], axis=(1, 2, 3, 4))
    if shared.all():
        return _weight_tables(_exchangeable_values(terms, pairs))
    tables = np.empty((len(terms.states), len(pairs), 2 ** pairs.shape[1]))
    if shared.any():
        tables[:, shared] = _weight_tables(_exchangeable_values(terms, pairs[shared]))
    tables[:, ~shared] = _walked_values(terms, pairs[~shared])
    tables.setflags(write=False)
    return tables


def correlator_tables(rho, pairs) -> np.ndarray:
    """Correlation tables (..., P, 2^N) of per-party setting pairs (P, N, 2, 2, 2).

    ``rho`` is one state or a stack of states (..., N+1, N+1), whose axes
    come first in the result.  Entry s of table p uses party k's setting
    bit k-1 of s.  When every state of the stack is exchangeable in modes
    2..N (equal to itself under their permutations, bit for bit), a point
    whose parties 2..N hold one setting pair costs 2N kernel rows; every
    other point walks all 2^N rows, built for a chunk of table indices at
    a time and contracted against every state at once.  The route is
    chosen per stack, so a state gets the bits of a call with it alone
    unless the stack mixes exchangeable and other states: then the
    exchangeable ones walk all 2^N rows too, which equal their 2N-row
    values to rounding.  The result is read-only, so that
    :class:`~photonbell.wwzb.CorrelatorTable` can take a table of it
    without a copy; copy it before writing to it.  Errors are those of
    :func:`correlator_batch`.
    """
    pairs = np.asarray(pairs, dtype=complex)
    rho, _ = _kernel_inputs(rho, pairs[:, :, 0])
    n = pairs.shape[1]
    tables = _table_values(_state_terms(rho.reshape(-1, n + 1, n + 1)), pairs)
    return tables.reshape(rho.shape[:-2] + tables.shape[1:])
