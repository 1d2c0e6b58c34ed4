"""Measurement strategies and Bell values with unknown reference frames.

Every party measures displaced click/no-click observables on its mode of a
(possibly lossy) shared single photon.  Party k's setting list holds its
displacement choices; in a run, the phase of party k's displacement is
shifted by the unknown frame offset Delta_{k-1} (party 1 is the reference
and has no offset).  Shifting those phases conjugates the state, so entry
(a, b) of rho picks up exp(i m_ab . Delta), m_ab its offset frequency
(:func:`_offset_frequencies`).

One frame is one state.  Averaged over offsets Delta = c + Gaussian noise
of width w, entry (a, b) becomes rho[a, b] exp(-w^2 |m_ab|^2 / 2)
exp(i m_ab . c), exactly, since the wrapped and unwrapped Gaussians share
their characteristic function at integer frequencies; width 0 is the
fixed frame c.  The averaged table is one call of the package's
correlator kernel (:func:`~photonbell.fock_core.correlator_tables`) on
that state against the strategy's own settings
(:func:`frame_averaged_table`, :func:`bell_value_averaged`,
:func:`~photonbell.optimize.averaged_correlator_table`).  The lossy W
state, damped and turned at equal centers, is unchanged by permutations
of modes 2..N, so when parties 2..N share their settings the kernel's
table walk fills the 2^N entries from 2N rows.  The absolute
values inside the Bell functional are applied after averaging, matching
an experiment that accumulates correlators across runs before computing
the Bell value.

Every strategy has the scheme's one shape (:class:`MeasurementStrategy`):
to fight frame noise, party 1 holds m pairs of settings that repeat the
same two amplitudes with pair phases stepped by 2*pi/m (m = 1 is the plain
two-setting test), and every other party holds two settings.  Each pair
alone is a complete two-setting-per-party Bell test, so the best pair may
be chosen after the data is taken (:func:`best_pair_bell_value`, every
pair of one frame in one kernel call); a single table builds pair 0's
alone.  The strategy builders take real scalar amplitudes and one real
phase per party, and refuse anything else with ValueError.

Many frames at fixed settings are what the offset-symbolic tables serve.
Correlators are real trigonometric sums in the offsets, built once per
strategy (:func:`pair_symbolic_tables`, one table per setting pair of
party 1): each coefficient row is the correlation table of one Hermitian
component of the state, and the 1 + N(N-1) components are stacked as
states in one kernel call.  The tables are one read-only real array
(pairs, 1 + N(N-1), 2^N): per table the constant row, then a cosine and
a sine row for each of the N(N-1)/2 frequencies n of the half basis (one
of each pair +-n), so its entries are real by construction.  The half
basis has one order (:func:`_half_basis`): the units e_k, then the
differences e_j - e_k by j, then k.  Frame scans over many centers go
through one batched route, :func:`best_pair_values_over_centers`: the
pair tables' rows line up, in the order the scan fills its cosine and
sine rows, and their damped Walsh-Hadamard transforms are
each pair's transform as a real cosine/sine polynomial in the centers.
Per block of centers, one tangent t = tan(c/2) per center gives its
cosine (1 - t^2)/(1 + t^2) and sine 2t/(1 + t^2), and angle subtraction
gives the e_j - e_k rows from them; per chunk of the block, one real
matrix product gives every pair's transform.  The distribution of
Bell values over uniformly random frame centers
(:func:`violation_distribution`) is one such scan.  The tests keep the
complex route through exp(i C F^T) as the oracle of the real one, and the
state route as its per-center oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .fock_core import (
    TWO_PI,
    SubspaceState,
    _real,
    _whole,
    check_observable_matrices,
    correlator_tables,
    displacement_matrices,
    lossy_w_state,
)
from .phase_noise import PhaseModel, _whole_seed
from .wwzb import (
    VIOLATION_ROUNDOFF,
    BellResult,
    CorrelatorTable,
    _walsh_hadamard,
    wwzb_value,
)

__all__ = [
    "MeasurementStrategy",
    "ViolationHistogram",
    "bell_value_averaged",
    "best_pair_bell_value",
    "best_pair_values_over_centers",
    "frame_averaged_table",
    "pair_symbolic_tables",
    "paired_strategy",
    "two_setting_strategy",
    "violation_distribution",
]

# Slack used when checking the stepped phases of paired settings.
PAIR_PHASE_TOL = 1e-9

# Transform entries (centers x pairs x 2^N) evaluated per chunk of a frame
# scan; a chunk holds max(1, budget // max(frequencies, pairs * 2^N)) centers.
# The cosine/sine rows are filled a block of whole chunks at a time, as many
# as keep the block's rows within the same budget.
FRAME_SCAN_CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True, eq=False)
class MeasurementStrategy:
    """Per-party displacement settings in the scheme's paired shape.

    settings[k] holds party k+1's choices as a read-only (count, 2) float
    array of (amplitude, phase) rows, amplitude r >= 0 and phase reduced
    to [0, 2*pi): the displacement alpha = r exp(i phase).  Every entry
    must be finite.  Party 1 holds 2m rows forming m = ``pair_count``
    pairs: pair j occupies rows (2j, 2j+1), every pair repeats the
    amplitudes of pair 0, and pair j's phases are those of pair 0
    advanced by j * 2*pi / m.  Every other party holds exactly two rows,
    its table settings 0 and 1.  Pair j with the other parties' rows is
    one complete two-setting Bell test; ValueError for any other shape.
    """

    settings: tuple
    pair_count: int = 1

    def __post_init__(self):
        parties = tuple(map(np.asarray, self.settings))
        if any(rows.dtype.kind not in "iuf" for rows in parties):
            raise ValueError("settings must be real numbers")
        if not parties:
            raise ValueError("strategy needs at least one party")
        # Every party's rows are checked and reduced as one array, up to the
        # first party whose shape is wrong: the parties before it are
        # judged first, as one party after another would be.
        shaped = next(
            (k for k, rows in enumerate(parties) if rows.ndim != 2 or rows.shape[1] != 2),
            len(parties),
        )
        rows = np.concatenate(parties[:shaped] or [np.empty((0, 2))], dtype=float)
        if not (np.isfinite(rows).all() and (rows[:, 0] >= 0.0).all()):
            raise ValueError("settings must be finite with amplitude >= 0")
        if shaped < len(parties):
            raise ValueError(f"party {shaped + 1} needs (amplitude, phase) rows")
        rows[:, 1] %= TWO_PI
        rows.setflags(write=False)
        ends = accumulate(len(party) for party in parties)
        settings = tuple(rows[end - len(party) : end] for party, end in zip(parties, ends))
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "pair_count", _whole(self.pair_count, "pair_count", 1))
        self._check_pairs()

    def _check_pairs(self):
        m = self.pair_count
        first = self.settings[0]
        if len(first) != 2 * m:
            raise ValueError(
                f"party 1 needs {2 * m} settings for {m} pairs, has {len(first)}"
            )
        for party, rows in enumerate(self.settings[1:], start=2):
            if len(rows) != 2:
                raise ValueError(f"party {party} needs 2 settings, has {len(rows)}")
        # pairs[j, slot] is the (amplitude, phase) row of pair j's slot.
        pairs = first.reshape(m, 2, 2)
        moved = np.abs(pairs[..., 0] - pairs[0, :, 0]) > 1e-12
        diff = (pairs[..., 1] - pairs[0, :, 1] - np.arange(m)[:, None] * TWO_PI / m) % TWO_PI
        bad = moved | (np.minimum(diff, TWO_PI - diff) > PAIR_PHASE_TOL)
        if bad.any():
            j, slot = np.argwhere(bad)[0]
            if moved[j, slot]:
                raise ValueError(f"pair {j} slot {slot} amplitude differs from pair 0")
            raise ValueError(f"pair {j} slot {slot} phase is not stepped by 2*pi/m")

    @property
    def n_parties(self) -> int:
        return len(self.settings)


def _signed_settings(r0: float, r1: float, phases: np.ndarray) -> np.ndarray:
    """Settings (K, 2, 2) of signed amplitudes (r0, r1) at each of K phases.

    Entry [k, slot] is the (amplitude, phase) row of amplitude slot at
    phases[k].  A negative amplitude is the same displacement pointed the
    opposite way in phase space, so the row holds |r| and the phase
    advanced by pi; :class:`MeasurementStrategy` reduces the phase and
    checks that the rows are finite.  ValueError unless both amplitudes
    are real scalars: strings, booleans, complex numbers and sequences are
    refused, where a float conversion would accept or misread them.
    """
    if any(np.ndim(r) or np.asarray(r).dtype.kind not in "iuf" for r in (r0, r1)):
        raise ValueError(f"amplitudes must be real scalars, got {r0!r} and {r1!r}")
    r = np.array([r0, r1], dtype=float)
    phi = phases[:, None] + np.where(r < 0.0, np.pi, 0.0)
    return np.stack(np.broadcast_arrays(np.abs(r), phi), axis=-1)


def two_setting_strategy(
    n_parties: int, r0: float, r1: float, phases: Optional[Sequence[float]] = None
) -> MeasurementStrategy:
    """Every party measures amplitudes (r0, r1) at a single local phase.

    ``phases`` gives one phase per party (default all zero); both settings
    of a party share its phase.  The amplitudes may be signed: a negative
    value flips that setting's displacement (phase advanced by pi), which
    costs no extra phase reference and is where the optimum sits for the
    states considered here.  This is the paired strategy of one pair.
    """
    return paired_strategy(n_parties, r0, r1, 1, phases)


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
    some pair nearly cancels any frame offset.  The amplitudes must be
    real scalars and ``phases`` a sequence of one real number per party
    (ValueError otherwise).
    """
    n_parties = _whole(n_parties, "n_parties", 1)
    pair_count = _whole(pair_count, "pair_count", 1)
    phases = np.zeros(n_parties) if phases is None else np.asarray(phases)
    if phases.dtype.kind not in "iuf" or phases.shape != (n_parties,):
        raise ValueError("need one real phase per party")
    steps = phases[0] + np.arange(pair_count) * TWO_PI / pair_count
    first = _signed_settings(r0, r1, steps).reshape(-1, 2)
    return MeasurementStrategy((first, *_signed_settings(r0, r1, phases[1:])), pair_count)


def _frame_units(n_parties: int, basis) -> np.ndarray:
    """Frame vectors u_a (len(basis), N-1) of the basis states a of (vac, e_1, ..., e_N).

    Party 1 is the reference and party p >= 2 rotates its displacement
    phase with Delta_{p-1}, which conjugates the state by U(Delta) =
    diag(1, 1, exp(i Delta_1), ..., exp(i Delta_{N-1})): u_a is zero for
    the vacuum and party 1 and the unit vector of slot p-1 for party p >= 2.
    """
    return (np.asarray(basis)[:, None] == np.arange(2, n_parties + 1)).astype(int)


def _offset_frequencies(n_parties: int) -> np.ndarray:
    """Offset frequency m_ab (N+1, N+1, N-1) of every state entry (a, b).

    Entry (a, b) carries exp(i m_ab . Delta) under the frame offsets
    Delta, with m_ab = u_b - u_a for the frame vectors u of
    :func:`_frame_units`.
    """
    unit = _frame_units(n_parties, np.arange(n_parties + 1))
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


@lru_cache(maxsize=32)
def _half_basis(n_parties: int) -> np.ndarray:
    """Read-only offset frequencies (H, N-1) of N parties, one n of each pair +-n.

    The basis of N parties is 0, +-e_k and +-(e_j - e_k); each row here
    is the member of its pair whose first nonzero entry is positive, so
    H = N(N-1)/2.  The rows come in the one order of every symbolic table
    and frame scan: the units e_0..e_{N-2}, then the differences e_j -
    e_k for j = 0..N-3 in turn, each with k = j+1..N-2, the order in
    which :func:`_fill_scan_rows` fills a block's rows.  Built once per N.
    """
    first, second = np.triu_indices(n_parties - 1, 1)
    eye = np.eye(n_parties - 1, dtype=int)
    half = np.concatenate((eye, eye[first] - eye[second]))
    half.setflags(write=False)
    return half


def _setting_pairs(strategy: MeasurementStrategy) -> np.ndarray:
    """Setting matrices (m, N, 2, 2, 2) of party 1's m setting pairs.

    Pair j holds party 1's rows (2j, 2j+1) and every other party's two
    rows.  The matrices of all rows are built in one call and validated
    as one array, so each setting is built and checked once.
    """
    rows = np.concatenate(strategy.settings)
    matrices = displacement_matrices(rows[:, 0], rows[:, 1])
    check_observable_matrices(matrices)
    m, n = strategy.pair_count, strategy.n_parties
    first = matrices[: 2 * m].reshape(m, 1, 2, 2, 2)
    rest = np.broadcast_to(matrices[2 * m :].reshape(1, n - 1, 2, 2, 2), (m, n - 1, 2, 2, 2))
    return np.concatenate((first, rest), axis=1)


def _check_parties(state: SubspaceState, strategy: MeasurementStrategy) -> None:
    if state.n_modes != strategy.n_parties:
        raise ValueError(
            f"state has {state.n_modes} modes but strategy has {strategy.n_parties} parties"
        )


def pair_symbolic_tables(state: SubspaceState, strategy: MeasurementStrategy) -> np.ndarray:
    """Offset-symbolic tables (m, 1 + N(N-1), 2^N), one per pair of party 1's settings.

    Table j holds the constant row a_0, then the cosine rows A_n, then the
    sine rows B_n, over the half basis n of :func:`_half_basis` (H =
    N(N-1)/2) in its order, units e_k first and then the differences
    e_j - e_k by j, then k: the order in which a frame scan fills its
    cosine and sine rows, so the scan reads the rows as they are.  Its
    entry s at offsets Delta is

        a_0[s] + sum_n A_n[s] cos(n . Delta) + B_n[s] sin(n . Delta),

    real by construction.  The array is read-only.  Its rows serve scans of
    many frames at fixed settings (:func:`best_pair_values_over_centers`);
    one frame is read through the state (:func:`frame_averaged_table`).

    The state entry rho[a, b] carries the phase exp(i m . Delta) of its
    offset frequency m (:func:`_offset_frequencies`).  So a table entry is
    the correlator of the non-rotating part of rho plus, for each
    half-basis frequency n, the correlator of rho_n + rho_n^H times
    cos(n . Delta) and that of i (rho_n - rho_n^H) times sin(n . Delta).
    Here rho_n holds the entries above the diagonal whose m is n or -n;
    only one of the two occurs above the diagonal, so the sine row carries
    the sign of m against n, which a signed upper-triangle mask per
    frequency records.  The sign lives in the sine component itself: the
    correlator is linear in the state and negation is exact, so its rows
    equal, bit for bit, the unsigned component's rows negated, and no
    table is written after it is built.  Taking the components from the
    upper triangle fixes the rows of states that are Hermitian only to
    rounding.  The 1 + N(N-1) components form one stack of states, and one
    :func:`~photonbell.fock_core.correlator_tables` call with every
    setting pair as a point writes every row of every table; the tables
    are its rows with the component and table axes swapped.
    """
    _check_parties(state, strategy)
    n = strategy.n_parties
    pairs = _setting_pairs(strategy)
    rho = state.matrix
    freqs = _offset_frequencies(n)
    half = _half_basis(n)[:, None, None]
    # signs[h, a, b] is +-1 where the entry (a, b) above the diagonal has m = +-n_h.
    match = np.all(freqs == half, axis=-1).astype(int) - np.all(freqs == -half, axis=-1)
    signs = np.triu(match)
    parts = np.where(signs != 0, rho, 0.0)
    adjoint = parts.conj().swapaxes(1, 2)
    steady = np.where(freqs.any(axis=-1), 0.0, rho)
    sine = 1j * (parts - adjoint) * np.sign(signs.sum(axis=(1, 2), keepdims=True))
    components = np.concatenate((steady[None], parts + adjoint, sine))
    return correlator_tables(components, pairs).swapaxes(0, 1)


def _frame_state(state: SubspaceState, strategy, model: PhaseModel) -> np.ndarray:
    """The state matrix of one frame model: rho damped and turned entry by entry.

    Entry (a, b) of rho is multiplied by exp(-w^2 |m_ab|^2 / 2) exp(i m_ab
    . c) for the model's width w and centers c.  Raises ValueError if the
    state, strategy and model disagree on the party count.
    """
    _check_parties(state, strategy)
    n = strategy.n_parties
    if model.n_relative != n - 1:
        raise ValueError(
            f"a strategy of {n} parties cannot be averaged "
            f"with a model of {model.n_relative} relative phases"
        )
    freqs = _offset_frequencies(n)
    rotation = np.exp(1j * (freqs @ np.array(model.centers)))
    return state.matrix * _frame_damping(freqs, model.width) * rotation


def _frame_averaged_tables(state: SubspaceState, strategy, model: PhaseModel) -> np.ndarray:
    """Frame-averaged tables (m, 2^N) of one strategy, one per pair of party 1's settings.

    The frame is one state (:func:`_frame_state`) against the strategy's
    own settings, with every setting pair as a point of one
    :func:`~photonbell.fock_core.correlator_tables` call.  Each table
    depends only on its own pair, so a batch gives the bits of building
    each table alone.  The tables are read-only rows of one array, so
    :class:`~photonbell.wwzb.CorrelatorTable` keeps each without a copy.
    """
    return correlator_tables(_frame_state(state, strategy, model), _setting_pairs(strategy))


def frame_averaged_table(
    state: SubspaceState, strategy: MeasurementStrategy, model: PhaseModel
) -> CorrelatorTable:
    """Correlation table of party 1's pair 0 averaged over the frame model.

    Offsets Delta = c + Gaussian noise of width w (``model``'s centers and
    width) shift party k >= 2's setting phases by Delta_{k-1}.  That
    conjugates the state, and averaging damps its entries, so the table is
    the plain correlator table of rho with entry (a, b) multiplied by
    exp(-w^2 |m_ab|^2 / 2) exp(i m_ab . c) (m_ab from
    :func:`_offset_frequencies`).  The average is exact, and width 0 gives
    the table at the fixed frame c.  Table index bit k-1 selects party
    k's setting 0 or 1, party 1's from pair 0 (rows 0 and 1); only that
    pair's table is built, and the other pairs' tables come from
    :func:`best_pair_bell_value`.  The table's values are read-only and
    are the kernel's own array, not a copy; copy them before writing to
    them.  Raises ValueError if the state, strategy and model disagree on
    the party count.
    """
    rho = _frame_state(state, strategy, model)
    (table,) = correlator_tables(rho, _setting_pairs(strategy)[:1])
    return CorrelatorTable(strategy.n_parties, table)


def bell_value_averaged(
    state: SubspaceState, strategy: MeasurementStrategy, model: PhaseModel
) -> BellResult:
    """Bell value of the frame-averaged correlation table of pair 0.

    Correlators are averaged first and the Bell functional's absolute
    values taken afterwards, so this is the value an experiment sees when
    correlators are estimated across many runs with drifting frames.  A
    zero-width model gives the Bell value at a fixed frame.
    """
    return wwzb_value(frame_averaged_table(state, strategy, model))


def best_pair_bell_value(
    state: SubspaceState,
    strategy: MeasurementStrategy,
    model: PhaseModel,
):
    """Largest Bell value over party 1's setting pairs in one frame model.

    Each pair is a complete Bell test on its own, so reporting the best
    pair after the fact is legitimate.  Every pair's frame-averaged table
    comes from one kernel call, with the bits of
    :func:`bell_value_averaged` for that pair; a fixed frame is a model of
    width 0.  Returns (BellResult, pair_index); ties go to the lowest pair
    index, so a strategy of one pair gives pair 0.
    """
    tables = _frame_averaged_tables(state, strategy, model)
    results = [wwzb_value(CorrelatorTable(strategy.n_parties, table)) for table in tables]
    best = max(range(len(results)), key=lambda j: results[j].s_value)
    return results[best], best


def _frame_scan_row_count(n_parties: int, pair_count: int) -> int:
    """Real rows of 2^N coefficients a frame scan of that many pairs holds.

    One row per constant, cosine and sine row of a table, 1 + N(N-1) of
    them, and pair; counting allocates nothing, so a caller can refuse an
    oversized scan before its tables are built.
    """
    return (1 + n_parties * (n_parties - 1)) * pair_count


def _frame_scan_coefficients(tables, n: int, width: float):
    """Damped transformed rows of all pair tables, in the tables' own row order.

    ``tables`` is a checked (P, 1 + N(N-1), 2^N) array of real numbers
    and ``n`` its N.  Returns a float copy of the tables with the row axis
    first, the cosine and sine rows of each frequency n damped by
    exp(-width^2 |n|^2 / 2), and Walsh-Hadamard transformed.  The rows
    keep the order of :func:`_half_basis` (units e_0..e_{N-2}, then the
    differences e_j - e_k by j, then k), in which
    :func:`_fill_scan_rows` fills a block of centers, so that every
    pair's T(r) (column p * 2^N + r) is

        T(r; c) = [1, cos c, cos(c_j - c_k), sin c, sin(c_j - c_k)] @ coeffs.

    A block of centers c then needs the cosines and sines of its N-1
    centers alone, each from one tangent (:func:`_fill_scan_rows`); the
    difference rows follow by angle subtraction.  Where numpy has a SIMD
    loop for float64 ``tan`` (numpy 2.4 on an AVX-512 x86-64 core has
    one), that tangent is within 0.53 ulp (26k arguments against mpmath)
    and costs less than the ``cos`` and ``sin`` pair, which numpy leaves
    to scalar libm.  The half-angle cosine and sine are within 2.2e-16 of
    the exact values on [0, 2*pi) and at +-1e3 and +-1e6 rad, against
    libm's 1.1e-16.  A host without that loop makes one libm ``tan`` call
    in place of a ``sin`` and a ``cos``; that case was not measured.
    """
    coeffs = tables.swapaxes(0, 1).astype(float, order="C")
    coeffs[1:] *= np.tile(_frame_damping(_half_basis(n), width), 2)[:, None, None]
    return _walsh_hadamard(coeffs).reshape(len(coeffs), -1)


def _fill_scan_rows(cos, sin, centers) -> None:
    """Write the cosine and sine rows (H, count) of a block of frame centers.

    ``centers`` is (count, N-1) and the rows follow the frequency order of
    :func:`_half_basis`, which is the symbolic tables' own row order.
    Each unit row takes one tangent t = tan(c/2) and one division: cos c
    = (1 - t^2)/(1 + t^2) and sin c = 2t/(1 + t^2).  Next to an odd
    multiple of pi, |t| grows to about 1e16 and the identities still
    give -1 and 2/t.  The e_j - e_k rows follow by angle subtraction, the
    rows of each j against rows j+1..N-2 at once from slices.  Every row
    entry depends on its own center alone, not on the block's other
    centers, so a block of chunks filled at once holds the bits of
    filling each chunk alone.
    """
    units = centers.shape[1]
    # The units' sine rows hold t and their cosine rows t^2 until the
    # half-angle identities overwrite them.
    t, t2 = sin[:units], cos[:units]
    np.multiply(centers.T, 0.5, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=t2)
    inverse = np.add(t2, 1.0)
    np.divide(1.0, inverse, out=inverse)
    np.subtract(1.0, t2, out=t2)
    t2 *= inverse
    t += t
    t *= inverse
    row = units
    for j in range(units - 1):
        k, d = slice(j + 1, units), slice(row, row + units - 1 - j)
        np.multiply(cos[j], cos[k], out=cos[d])
        cos[d] += sin[j] * sin[k]
        np.multiply(sin[j], cos[k], out=sin[d])
        sin[d] -= cos[j] * sin[k]
        row = d.stop


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
    (:func:`_frame_scan_coefficients`).  A center costs one tangent t =
    tan(c/2) per relative phase, its cosine (1 - t^2)/(1 + t^2) and sine
    2t/(1 + t^2) from one division, and the e_j - e_k rows by angle
    subtraction (cos(c_j - c_k) = cos c_j cos c_k + sin c_j sin c_k,
    sin(c_j - c_k) = sin c_j cos c_k - cos c_j sin c_k, the rows of each
    j at once from slices).  Each pair's Bell value is 2^-N sum_r |T(r)|,
    and the best pair's value is returned.  The cosines and sines are
    within 2.2e-16 of the exact values, against libm's 1.1e-16; the
    tangent is vectorized only where numpy has a SIMD loop for it (see
    :func:`_frame_scan_coefficients`).  The complex route through exp(i
    C F^T) stays as the test oracle.

    The centers are scanned in chunks of at most
    ``FRAME_SCAN_CHUNK_ELEMENTS`` transform entries (T(r) of every pair
    at every center of the chunk), and the cosine/sine rows are filled a
    block of whole chunks at a time, the block's rows holding at most as
    many numbers.  Each full chunk's matrix product goes into one
    transform buffer, reused with its per-pair sums, and the best pair's
    sum is written straight into the result, which is divided by 2^N
    once.  The last chunk of a longer batch, if partial, takes a product
    of its own width.  So beside the result the scan holds the rows of
    one block and the transform of one chunk, each at most a budget of
    floats (512 KiB at 2^16) unless a single center exceeds it, and a
    partial last chunk's product, for any number of centers.  Every
    product has the shape of the chunk-at-a-time loop it replaced, whose
    bits the values keep.  A center's cosine and sine rows keep their bits
    wherever it falls in the batch; the matrix product's may move by a
    few ulp with the chunk's width, as the BLAS picks its kernels by
    shape.

    ``tables`` is the output of :func:`pair_symbolic_tables`, or any
    real array (P, 1 + N(N-1), 2^N) of P >= 1 symbolic tables, N >= 1.
    Tables must be finite, centers finite real numbers (integers or
    floats) and ``width`` finite and >= 0 (ValueError otherwise).
    """
    try:
        tables = np.asarray(tables)
    except ValueError:  # ragged, such as tables of two party counts
        raise ValueError("pair tables must share one shape") from None
    if tables.dtype.kind not in "iuf":
        raise ValueError("pair tables must be real numbers")
    n = tables.shape[-1].bit_length() - 1 if tables.ndim == 3 else 0
    if n < 1 or not len(tables) or tables.shape[1:] != (1 + n * (n - 1), 2**n):
        raise ValueError(f"pair tables need shape (P >= 1, 1 + N(N-1), 2^N), not {tables.shape}")
    if not np.isfinite(tables).all():
        raise ValueError("pair tables must be finite")
    width = _real(width, "width")
    if not np.isfinite(width) or width < 0.0:
        raise ValueError("width must be finite and >= 0")
    centers = np.asarray(centers)
    if centers.dtype.kind not in "iuf":
        raise ValueError("frame centers must be real numbers")
    centers = np.atleast_2d(centers.astype(float, copy=False))
    if centers.shape[-1] != n - 1:
        # An empty center vector is fine for a single party.
        if not (n == 1 and centers.size == 0):
            raise ValueError(f"centers must have trailing dimension {n - 1}")
        centers = centers.reshape(centers.shape[:-1] + (0,))
    if not np.all(np.isfinite(centers)):
        raise ValueError("frame centers must be finite")
    batch_shape = centers.shape[:-1]
    centers = centers.reshape(math.prod(batch_shape), n - 1)

    coeffs = _frame_scan_coefficients(tables, n, width)
    size, terms = 2**n, n * (n - 1) // 2
    total = len(centers)
    chunk = max(1, FRAME_SCAN_CHUNK_ELEMENTS // max(coeffs.shape))
    # A block of whole chunks whose basis rows hold at most the chunk budget.
    block = chunk * max(1, FRAME_SCAN_CHUNK_ELEMENTS // (len(coeffs) * chunk))
    # Centers run along the rows' last axis, so the cosines, sines and the
    # per-pair sums below all work on contiguous rows.
    basis = np.empty((len(coeffs), min(block, total)))
    basis[0] = 1.0
    span = min(chunk, total)
    transform = np.empty((coeffs.shape[1], span))
    sums = np.empty((len(tables), span))
    best = np.empty(total)
    for first in range(0, total, block):
        filled = min(block, total - first)
        cos, sin = basis[1 : 1 + terms, :filled], basis[1 + terms :, :filled]
        _fill_scan_rows(cos, sin, centers[first : first + filled])
        for start in range(0, filled, chunk):
            rows = basis[:, start : min(start + chunk, filled)]
            count = rows.shape[1]
            if count == span:
                product = np.matmul(coeffs.T, rows, out=transform)
            else:
                # The last chunk of a longer batch is a product of its own width.
                product = coeffs.T @ rows
            np.abs(product, out=product)
            # Rows p * 2^N .. (p + 1) * 2^N - 1 of the product belong to pair p.
            pair_sums = np.add.reduce(
                product.reshape(len(tables), size, count), axis=1, out=sums[:, :count]
            )
            np.maximum.reduce(pair_sums, axis=0, out=best[first + start : first + start + count])
    best /= size
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
    histogram metadata.  Each must be one real number (ValueError naming
    ``r0`` or ``r1`` for a string, boolean or complex).  A sample
    violates when its value exceeds 1 + VIOLATION_ROUNDOFF, so a
    classical value rounded above 1 does not count.

    The centers are drawn from ``seed`` alone, as one (n_samples, N-1)
    array, and all samples are evaluated in one batched frame scan
    (:func:`best_pair_values_over_centers`); the per-sample route through
    the frame-averaged state (:func:`best_pair_bell_value`) gives the same
    values and is kept as the test oracle.
    """
    n_samples, n_bins = _whole(n_samples, "n_samples", 1), _whole(n_bins, "n_bins", 1)
    seed = _whole_seed(seed)
    r0, r1 = amplitudes
    r0, r1 = _real(r0, "r0"), _real(r1, "r1")
    state = lossy_w_state(n_parties, efficiency)
    strategy = paired_strategy(n_parties, r0, r1, pair_count)
    tables = pair_symbolic_tables(state, strategy)

    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, TWO_PI, size=(n_samples, state.n_modes - 1))
    s_values = best_pair_values_over_centers(tables, centers, width)

    min_s = float(s_values.min())
    max_s = float(s_values.max())
    span = max_s - min_s
    edges = np.linspace(min_s, max_s if span > 0 else min_s + 1e-12, n_bins + 1)
    counts, edges = np.histogram(s_values, bins=edges)
    fraction = float(np.count_nonzero(s_values > 1.0 + VIOLATION_ROUNDOFF) / n_samples)
    metadata = {
        "n_parties": state.n_modes,
        "r0": r0,
        "r1": r1,
        "width": float(width),
        "efficiency": float(efficiency),
        "pair_count": strategy.pair_count,
        "n_samples": n_samples,
        "seed": seed,
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
