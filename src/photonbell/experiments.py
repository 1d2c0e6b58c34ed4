"""Measurement strategies and Bell values with unknown reference frames.

Every party measures displaced click/no-click observables on its mode of a
(possibly lossy) shared single photon.  Party k's setting list holds its
displacement choices; in a run, the phase of party k's displacement is
shifted by the unknown frame offset Delta_{k-1} (party 1 is the reference
and has no offset).  Correlators therefore become real trigonometric
sums in the offsets, built once per strategy (:func:`symbolic_correlators`).
Each coefficient row is the correlation table of one Hermitian component
of the state; the 1 + N(N-1) components are stacked as states, so the
package's one correlator kernel
(:func:`~photonbell.fock_core.correlator_tables`) builds every row in one
call per strategy.  A :class:`SymbolicCorrelatorTable` holds these as one
real array: the constant row, then a cosine and a sine row for each of
the N(N-1)/2 frequencies n of the half basis (one of each pair +-n), so
its entries are real by construction.  It evaluates its rows with one
row-times-matrix product, either at fixed offsets
(:meth:`~SymbolicCorrelatorTable.evaluate`, :func:`bell_value_static`)
or averaged over a wrapped-Gaussian offset model, which damps the rows of
n by exp(-width^2 |n|^2 / 2) and evaluates them at the centers
(:meth:`~SymbolicCorrelatorTable.averaged`, :func:`bell_value_averaged`).
The absolute values inside the Bell functional are applied after
averaging, matching an experiment that accumulates correlators across
runs before computing the Bell value.

To fight frame noise, party 1 may hold m pairs of settings that repeat the
same two amplitudes with pair phases stepped by 2*pi/m.  Each pair alone is
a complete two-setting-per-party Bell test, so the best pair may be chosen
after the data is taken (:func:`best_pair_bell_value`, one frame at a time).
Frame scans over many centers go through one batched route,
:func:`best_pair_values_over_centers`: the pair tables' rows stack, and
their damped Walsh-Hadamard transforms are each pair's transform as a
real cosine/sine polynomial in the centers.  Per chunk of centers, the
cosines and sines of the half basis and one real matrix product give
every pair's transform.  The complex route through exp(i C F^T) stays
in the tests as the oracle of the real one.  The distribution of Bell
values over uniformly random frame centers (:func:`violation_distribution`)
is one such scan; the per-center route stays as its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fock_core import (
    TWO_PI,
    DisplacementSetting,
    SettingVector,
    SubspaceState,
    check_observable_matrices,
    correlator_tables,
    displacement_matrices,
    lossy_w_state,
)
from .phase_noise import PhaseModel
from .wwzb import (
    VIOLATION_ROUNDOFF,
    BellResult,
    CorrelatorTable,
    _walsh_hadamard,
    wwzb_value,
)

__all__ = [
    "MeasurementStrategy",
    "SymbolicCorrelatorTable",
    "ViolationHistogram",
    "bell_value_averaged",
    "bell_value_static",
    "best_pair_bell_value",
    "best_pair_values_over_centers",
    "pair_setting_indices",
    "pair_symbolic_tables",
    "paired_strategy",
    "symbolic_correlators",
    "two_setting_strategy",
    "violation_distribution",
]

# Slack used when checking the stepped phases of paired settings.
PAIR_PHASE_TOL = 1e-9

# Transform entries (centers x pairs x 2^N) evaluated per chunk of a frame
# scan; a chunk holds max(1, budget // max(frequencies, pairs * 2^N)) centers.
FRAME_SCAN_CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True, eq=False)
class MeasurementStrategy:
    """Per-party displacement settings, optionally with paired structure.

    settings[k] is the tuple of party k+1's :class:`DisplacementSetting`
    choices.  When ``pair_count`` is m (not None), party 1's list must hold
    2m settings forming m pairs: pair j occupies slots (2j, 2j+1), every
    pair repeats the amplitudes of pair 0, and pair j's phases are those of
    pair 0 advanced by j * 2*pi / m.
    """

    settings: tuple
    pair_count: Optional[int] = None

    def __post_init__(self):
        settings = tuple(tuple(party) for party in self.settings)
        if not settings:
            raise ValueError("strategy needs at least one party")
        for party, choices in enumerate(settings):
            if not choices:
                raise ValueError(f"party {party + 1} has no settings")
            if any(not isinstance(s, DisplacementSetting) for s in choices):
                raise ValueError("settings must be DisplacementSetting instances")
        object.__setattr__(self, "settings", settings)
        if self.pair_count is not None:
            m = int(self.pair_count)
            if m < 1:
                raise ValueError("pair_count must be >= 1")
            object.__setattr__(self, "pair_count", m)
            self._check_pairs()

    def _check_pairs(self):
        m = self.pair_count
        first = self.settings[0]
        if len(first) != 2 * m:
            raise ValueError(
                f"party 1 needs {2 * m} settings for {m} pairs, has {len(first)}"
            )
        for j in range(m):
            step = j * TWO_PI / m
            for slot in range(2):
                base = first[slot]
                current = first[2 * j + slot]
                if abs(current.amplitude - base.amplitude) > 1e-12:
                    raise ValueError(
                        f"pair {j} slot {slot} amplitude differs from pair 0"
                    )
                diff = (current.phase - base.phase - step) % TWO_PI
                if min(diff, TWO_PI - diff) > PAIR_PHASE_TOL:
                    raise ValueError(
                        f"pair {j} slot {slot} phase is not stepped by 2*pi/m"
                    )

    @property
    def n_parties(self) -> int:
        return len(self.settings)


def two_setting_strategy(
    n_parties: int, r0: float, r1: float, phases: Optional[Sequence[float]] = None
) -> MeasurementStrategy:
    """Every party measures amplitudes (r0, r1) at a single local phase.

    ``phases`` gives one phase per party (default all zero); both settings
    of a party share its phase.  The amplitudes may be signed: a negative
    value flips that setting's displacement (phase advanced by pi), which
    costs no extra phase reference and is where the optimum sits for the
    states considered here.
    """
    if phases is None:
        phases = [0.0] * n_parties
    if len(phases) != n_parties:
        raise ValueError("need one phase per party")
    parties = tuple(
        (
            DisplacementSetting.from_signed(r0, phi),
            DisplacementSetting.from_signed(r1, phi),
        )
        for phi in phases
    )
    return MeasurementStrategy(parties)


def paired_strategy(
    n_parties: int,
    r0: float,
    r1: float,
    pair_count: int,
    phases: Optional[Sequence[float]] = None,
) -> MeasurementStrategy:
    """Like :func:`two_setting_strategy`, but party 1 holds m stepped pairs.

    Pair j repeats party 1's two (possibly signed) amplitudes with its
    phase advanced by j * 2*pi / pair_count, covering the circle so that
    some pair nearly cancels any frame offset.
    """
    if pair_count < 1:
        raise ValueError("pair_count must be >= 1")
    if phases is None:
        phases = [0.0] * n_parties
    if len(phases) != n_parties:
        raise ValueError("need one phase per party")
    first = tuple(
        DisplacementSetting.from_signed(r, phases[0] + j * TWO_PI / pair_count)
        for j in range(pair_count)
        for r in (r0, r1)
    )
    rest = tuple(
        (
            DisplacementSetting.from_signed(r0, phi),
            DisplacementSetting.from_signed(r1, phi),
        )
        for phi in phases[1:]
    )
    return MeasurementStrategy((first,) + rest, pair_count=pair_count)


def _offset_frequencies(n_parties: int) -> np.ndarray:
    """Offset frequency m_ab (N+1, N+1, N-1) of every state entry (a, b).

    Party 1 is the reference and party p >= 2 rotates its displacement
    phase with Delta_{p-1}, which conjugates the state by U(Delta) =
    diag(1, 1, exp(i Delta_1), ..., exp(i Delta_{N-1})) in the basis
    (vac, e_1, ..., e_N).  Entry (a, b) therefore carries exp(i m_ab .
    Delta) with m_ab = u_b - u_a, where u is zero for the vacuum and
    party 1 and the unit vector of slot p-1 for party p >= 2.
    """
    unit = np.zeros((n_parties + 1, n_parties - 1), dtype=int)
    unit[2:] = np.eye(n_parties - 1, dtype=int)
    return unit[None, :, :] - unit[:, None, :]


def _frame_damping(freqs, width: float) -> np.ndarray:
    """Gaussian frame damping exp(-width^2 |n|^2 / 2) of each frequency n.

    ``freqs`` holds frequency vectors along its last axis; the result has
    the remaining shape.  Squaring width * n rather than the width alone
    keeps zero frequencies at damping 1 for any finite width: a square
    that overflows to inf only damps its own nonzero entries to 0.
    """
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * np.sum((width * freqs) ** 2, axis=-1))


def _half_basis(n_parties: int) -> np.ndarray:
    """Offset frequencies (H, N-1) of N parties, one n of each pair +-n.

    The basis of N parties is 0, +-e_k and +-(e_j - e_k); each row here
    is the member of its pair whose first nonzero entry is positive, and
    the rows are sorted, so H = N(N-1)/2.
    """
    eye = np.eye(n_parties - 1, dtype=int)
    diffs = [a - b for j, a in enumerate(eye) for b in eye[j + 1 :]]
    rows = sorted(map(tuple, [*eye, *diffs]))
    return np.array(rows, dtype=int).reshape(len(rows), n_parties - 1)


@dataclass(frozen=True, eq=False)
class SymbolicCorrelatorTable:
    """Correlation table whose entries are real trigonometric polynomials.

    ``coeffs`` (1 + 2H, 2^N) holds the constant row a_0, then the cosine
    rows A_n, then the sine rows B_n, over the half basis n of
    :func:`_half_basis` (H = N(N-1)/2), so that entry s at offsets Delta
    is a_0[s] + sum_n A_n[s] cos(n . Delta) + B_n[s] sin(n . Delta).  The
    entries are real by construction.  Coefficients must be finite real
    numbers; the array is copied and stored read-only.
    """

    n_parties: int
    coeffs: np.ndarray

    def __post_init__(self):
        n = self.n_parties
        if n < 1:
            raise ValueError("n_parties must be >= 1")
        coeffs = np.array(self.coeffs)
        if np.iscomplexobj(coeffs):
            raise ValueError("coeffs must be real")
        coeffs = coeffs.astype(float)
        if coeffs.shape != (1 + n * (n - 1), 2**n):
            raise ValueError(f"coeffs must have shape ({1 + n * (n - 1)}, {2**n})")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def _damped_at(self, centers, width: float) -> CorrelatorTable:
        """Rows damped by the width and evaluated at the centers.

        The table is row @ coeffs with row = [1, q_n cos(n . c), q_n sin(n . c)]
        over the half basis, q_n = exp(-width^2 |n|^2 / 2).
        """
        half = _half_basis(self.n_parties)
        damping = _frame_damping(half, width)
        phases = half @ centers
        row = np.concatenate(([1.0], damping * np.cos(phases), damping * np.sin(phases)))
        return CorrelatorTable(self.n_parties, row @ self.coeffs)

    def evaluate(self, offsets) -> CorrelatorTable:
        """Numeric table at fixed offsets Delta (length N-1, finite)."""
        offsets = np.asarray(offsets, dtype=float)
        if offsets.shape != (self.n_parties - 1,):
            raise ValueError(
                f"offsets must have length {self.n_parties - 1}, got shape {offsets.shape}"
            )
        if not np.all(np.isfinite(offsets)):
            raise ValueError("offsets must be finite")
        return self._damped_at(offsets, 0.0)

    def averaged(self, model: PhaseModel) -> CorrelatorTable:
        """Numeric table with every entry averaged over the offset model.

        Exact: averaged over Gaussian offsets, cos(n . Delta) and
        sin(n . Delta) become exp(-width^2 |n|^2 / 2) times their values at
        the centers, since the wrapped and unwrapped Gaussians share their
        characteristic function at integer frequencies.
        """
        if model.n_relative != self.n_parties - 1:
            raise ValueError(
                f"a table of {self.n_parties} parties cannot be averaged "
                f"with a model of {model.n_relative} relative phases"
            )
        return self._damped_at(np.array(model.centers), model.width)


def _setting_pairs(strategy: MeasurementStrategy, index_sets) -> np.ndarray:
    """Setting matrices (P, N, 2, 2, 2) of the index sets.

    The matrices of the distinct settings used are built and validated as
    one array, so each setting is built and checked once.
    """
    n = strategy.n_parties
    counts = [len(party) for party in strategy.settings]
    for indices in index_sets:
        if len(indices) != n or any(len(pair) != 2 for pair in indices):
            raise ValueError("setting_indices needs one index pair per party")
        for bit in range(2):
            SettingVector(tuple(pair[bit] for pair in indices)).validate_for(counts)
    # Index the settings of all parties in one flat list, party by party.
    flat = [setting for party in strategy.settings for setting in party]
    first = np.cumsum([0] + counts[:-1])
    index = np.array(index_sets, dtype=int).reshape(len(index_sets), n, 2) + first[:, None]
    used, inverse = np.unique(index, return_inverse=True)
    chosen = [flat[i] for i in used]
    matrices = displacement_matrices([s.amplitude for s in chosen], [s.phase for s in chosen])
    check_observable_matrices(matrices)
    return matrices[inverse.reshape(index.shape)]


def _symbolic_tables(state: SubspaceState, strategy, index_sets) -> list:
    """Offset-symbolic tables of one strategy, one per set of setting indices.

    The state entry rho[a, b] carries the phase exp(i m . Delta) of its
    offset frequency m (:func:`_offset_frequencies`).  So a table entry is
    the correlator of the non-rotating part of rho plus, for each
    half-basis frequency n, the correlator of rho_n + rho_n^H times
    cos(n . Delta) and that of i (rho_n - rho_n^H) times sin(m . Delta).
    Here rho_n holds the entries above the diagonal whose m is n or -n;
    only one of the two occurs above the diagonal, so the sine row carries
    the sign of m against n, which a signed upper-triangle mask per
    frequency records.  Taking the components from the upper triangle
    fixes the rows of states that are Hermitian only to rounding.  The
    1 + N(N-1) components form one stack of states, and one
    :func:`~photonbell.fock_core.correlator_tables` call with every index
    set as a point writes every row of every table.
    """
    n = strategy.n_parties
    if state.n_modes != n:
        raise ValueError(
            f"state has {state.n_modes} modes but strategy has {n} parties"
        )
    pairs = _setting_pairs(strategy, index_sets)
    rho = state.matrix
    freqs = _offset_frequencies(n)
    half = _half_basis(n)[:, None, None]
    # signs[h, a, b] is +-1 where the entry (a, b) above the diagonal has m = +-n_h.
    match = np.all(freqs == half, axis=-1).astype(int) - np.all(freqs == -half, axis=-1)
    signs = np.triu(match)
    parts = np.where(signs != 0, rho, 0.0)
    adjoint = parts.conj().swapaxes(1, 2)
    steady = np.where(freqs.any(axis=-1), 0.0, rho)
    components = np.concatenate((steady[None], parts + adjoint, 1j * (parts - adjoint)))
    rows = correlator_tables(components, pairs)
    rows[1 + len(half) :] *= np.sign(signs.sum(axis=(1, 2), keepdims=True))
    return [SymbolicCorrelatorTable(n, rows[:, p]) for p in range(len(pairs))]


def symbolic_correlators(
    state: SubspaceState,
    strategy: MeasurementStrategy,
    setting_indices: Optional[Sequence[Sequence[int]]] = None,
) -> SymbolicCorrelatorTable:
    """Offset-symbolic correlation table for a two-setting Bell test.

    Parameters
    ----------
    state : SubspaceState
        Shared state, one mode per party.
    strategy : MeasurementStrategy
        Setting lists; each party contributes two of them to the table.
    setting_indices : optional
        For each party, the pair of indices used as table settings 0 and 1
        (default the party's first two settings).  Table index bit k-1
        selects party k's entry of that pair.
    """
    if setting_indices is None:
        setting_indices = [(0, 1)] * strategy.n_parties
    return _symbolic_tables(state, strategy, [setting_indices])[0]


def bell_value_static(
    state: SubspaceState,
    strategy: MeasurementStrategy,
    offsets,
    setting_indices=None,
) -> BellResult:
    """Bell value at fixed frame offsets (length N-1 vector, finite)."""
    table = symbolic_correlators(state, strategy, setting_indices)
    return wwzb_value(table.evaluate(offsets))


def bell_value_averaged(
    state: SubspaceState,
    strategy: MeasurementStrategy,
    model: PhaseModel,
    setting_indices=None,
) -> BellResult:
    """Bell value of the frame-averaged correlation table.

    Correlators are averaged first and the Bell functional's absolute
    values taken afterwards, so this is the value an experiment sees when
    correlators are estimated across many runs with drifting frames.
    """
    table = symbolic_correlators(state, strategy, setting_indices)
    return wwzb_value(table.averaged(model))


def pair_setting_indices(strategy: MeasurementStrategy, pair: int):
    """Setting-index pairs selecting party 1's pair ``pair`` for the table."""
    if strategy.pair_count is None:
        raise ValueError("strategy has no pair structure")
    if not 0 <= pair < strategy.pair_count:
        raise ValueError(f"pair must lie in [0, {strategy.pair_count})")
    return [(2 * pair, 2 * pair + 1)] + [(0, 1)] * (strategy.n_parties - 1)


def pair_symbolic_tables(state: SubspaceState, strategy: MeasurementStrategy):
    """One symbolic table per pair of party 1's settings, built in one batch."""
    if strategy.pair_count is None:
        raise ValueError("strategy has no pair structure")
    index_sets = [pair_setting_indices(strategy, j) for j in range(strategy.pair_count)]
    return _symbolic_tables(state, strategy, index_sets)


def best_pair_bell_value(
    state: SubspaceState,
    strategy: MeasurementStrategy,
    model: Optional[PhaseModel] = None,
    offsets=None,
):
    """Largest Bell value over party 1's setting pairs.

    Exactly one of ``model`` (averaged correlators) and ``offsets`` (fixed
    frame) must be given.  Each pair is a complete Bell test on its own, so
    reporting the best pair after the fact is legitimate.  Returns
    (BellResult, pair_index); ties go to the lowest pair index.
    """
    if (model is None) == (offsets is None):
        raise ValueError("give exactly one of model or offsets")
    tables = pair_symbolic_tables(state, strategy)
    best = None
    best_pair = 0
    for j, table in enumerate(tables):
        numeric = table.averaged(model) if model is not None else table.evaluate(offsets)
        result = wwzb_value(numeric)
        if best is None or result.s_value > best.s_value:
            best = result
            best_pair = j
    return best, best_pair


def _frame_scan_row_count(n_parties: int, pair_count: int) -> int:
    """Real rows of 2^N coefficients a frame scan of that many pairs holds.

    One row per constant, cosine and sine row of a table, 1 + N(N-1) of
    them, and pair; counting allocates nothing, so a caller can refuse an
    oversized scan before its tables are built.
    """
    return (1 + n_parties * (n_parties - 1)) * pair_count


def _frame_scan_coefficients(tables, width: float):
    """Half frequency basis and damped transformed rows of all pair tables.

    Returns (half, coeffs): the half basis (H, N-1) as floats, and the
    tables' rows stacked, the cosine and sine rows of n damped by
    exp(-width^2 |n|^2 / 2), and Walsh-Hadamard transformed, so that every
    pair's T(r) (column p * 2^N + r) is

        T(r; c) = [1, cos(c . half), sin(c . half)] @ coeffs.

    Tables with different party counts raise ValueError.
    """
    n = tables[0].n_parties
    if any(table.n_parties != n for table in tables):
        raise ValueError("pair tables must share one party count")
    half = _half_basis(n)
    damping = _frame_damping(half, width)
    coeffs = np.stack([table.coeffs for table in tables], axis=1)
    coeffs[1:] *= np.tile(damping, 2)[:, None, None]
    return half.astype(float), _walsh_hadamard(coeffs).reshape(len(coeffs), -1)


def best_pair_values_over_centers(tables, centers, width: float) -> np.ndarray:
    """Best-pair Bell values for a whole batch of frame centers at once.

    Vectorized equivalent of calling :func:`best_pair_bell_value` with a
    :class:`PhaseModel` built from each row of ``centers`` (shape
    (count, N-1), or one 1-D row) at the common ``width``.  Zero-centered
    noise damps each cosine and sine row of n by exp(-width^2 |n|^2 / 2),
    so the averaged tables, and by linearity their Walsh-Hadamard
    transforms T(r), are real trigonometric polynomials in the centers:
    T(r; c) = a_0 + sum_n A_n cos(n . c) + B_n sin(n . c) over the half
    basis, with the tables' rows transformed and damped
    (:func:`_frame_scan_coefficients`).  For each chunk of centers the
    cosines and sines of the half basis are computed once, and one real
    matrix product gives T(r) of every pair.  Each pair's Bell value is
    2^-N sum_r |T(r)|, and the best pair's value is returned.  Chunks hold
    at most ``FRAME_SCAN_CHUNK_ELEMENTS`` products, which bounds memory
    for any number of centers.  The complex route through exp(i C F^T)
    stays as the test oracle.

    ``tables`` is the output of :func:`pair_symbolic_tables`, or any
    tables of one party count.  Centers must be finite
    and ``width`` finite and >= 0 (ValueError otherwise).
    """
    if not tables:
        raise ValueError("need at least one pair table")
    if not np.isfinite(width) or width < 0.0:
        raise ValueError("width must be finite and >= 0")
    n = tables[0].n_parties
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.shape[-1] != n - 1:
        # An empty center vector is fine for a single party.
        if not (n == 1 and centers.size == 0):
            raise ValueError(f"centers must have trailing dimension {n - 1}")
        centers = centers.reshape(centers.shape[:-1] + (0,))
    if not np.all(np.isfinite(centers)):
        raise ValueError("frame centers must be finite")
    batch_shape = centers.shape[:-1]
    centers = centers.reshape(math.prod(batch_shape), n - 1)

    half, coeffs = _frame_scan_coefficients(tables, width)
    size = 2**n
    terms = len(half)
    chunk = max(1, FRAME_SCAN_CHUNK_ELEMENTS // max(coeffs.shape))
    # Centers run along the rows' last axis, so the cosines, sines and the
    # per-pair sums below all work on contiguous rows.
    basis = np.empty((1 + 2 * terms, min(chunk, len(centers))))
    basis[0] = 1.0
    best = np.empty(len(centers))
    for start in range(0, len(centers), chunk):
        phases = half @ centers[start : start + chunk].T
        count = phases.shape[1]
        rows = basis[:, :count]
        np.cos(phases, out=rows[1 : 1 + terms])
        np.sin(phases, out=rows[1 + terms :])
        transform = coeffs.T @ rows
        np.abs(transform, out=transform)
        # Rows p * 2^N .. (p + 1) * 2^N - 1 belong to pair p.
        sums = transform.reshape(len(tables), size, count).sum(axis=1)
        best[start : start + count] = sums.max(axis=0) / size
    return best.reshape(batch_shape)


@dataclass(frozen=True, eq=False)
class ViolationHistogram:
    """Histogram of best-pair Bell values over random frame centers."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_samples: int
    fraction_violating: float
    min_s: float
    max_s: float
    metadata: dict

    def __post_init__(self):
        edges = np.array(self.bin_edges, dtype=float)
        counts = np.array(self.counts, dtype=int)
        if edges.ndim != 1 or counts.shape != (edges.size - 1,):
            raise ValueError("counts must have one entry per bin")
        if counts.sum() != self.n_samples:
            raise ValueError("histogram counts must sum to n_samples")
        if not 0.0 <= self.fraction_violating <= 1.0:
            raise ValueError("fraction_violating must lie in [0, 1]")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    def to_json_dict(self) -> dict:
        return {
            "bin_edges": self.bin_edges.tolist(),
            "counts": self.counts.tolist(),
            "n_samples": int(self.n_samples),
            "fraction_violating": float(self.fraction_violating),
            "min_s": float(self.min_s),
            "max_s": float(self.max_s),
            "metadata": self.metadata,
        }


def violation_distribution(
    n_parties: int,
    amplitudes,
    width: float,
    efficiency: float,
    pair_count: int,
    n_samples: int,
    seed: int,
    n_bins: int = 60,
) -> ViolationHistogram:
    """Distribution of best-pair Bell values over uniform frame centers.

    Each sample draws the N-1 frame centers uniformly from [0, 2*pi),
    averages the correlators over a wrapped Gaussian of width ``width``
    around those centers, and records the best Bell value over party 1's
    ``pair_count`` stepped setting pairs.  ``amplitudes`` is the (r0, r1)
    pair every party uses, normally the optimizer's output for centered
    frames; pass the values actually used so they are recorded in the
    histogram metadata.  A sample violates when its value exceeds
    1 + VIOLATION_ROUNDOFF, so a classical value rounded above 1 does
    not count.

    The centers are drawn from ``seed`` alone, as one (n_samples, N-1)
    array, and all samples are evaluated in one batched frame scan
    (:func:`best_pair_values_over_centers`); the per-sample route through
    :meth:`SymbolicCorrelatorTable.averaged` gives the same values and is
    kept as the test oracle.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    r0, r1 = (float(a) for a in amplitudes)
    state = lossy_w_state(n_parties, efficiency)
    strategy = paired_strategy(n_parties, r0, r1, pair_count)
    tables = pair_symbolic_tables(state, strategy)

    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, TWO_PI, size=(n_samples, n_parties - 1))
    s_values = best_pair_values_over_centers(tables, centers, width)

    min_s = float(s_values.min())
    max_s = float(s_values.max())
    span = max_s - min_s
    edges = np.linspace(min_s, max_s if span > 0 else min_s + 1e-12, n_bins + 1)
    counts, edges = np.histogram(s_values, bins=edges)
    fraction = float(np.count_nonzero(s_values > 1.0 + VIOLATION_ROUNDOFF) / n_samples)
    metadata = {
        "n_parties": int(n_parties),
        "r0": r0,
        "r1": r1,
        "width": float(width),
        "efficiency": float(efficiency),
        "pair_count": int(pair_count),
        "n_samples": int(n_samples),
        "seed": int(seed),
    }
    return ViolationHistogram(
        bin_edges=edges,
        counts=counts,
        n_samples=n_samples,
        fraction_violating=fraction,
        min_s=min_s,
        max_s=max_s,
        metadata=metadata,
    )
