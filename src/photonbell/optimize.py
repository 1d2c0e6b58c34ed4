"""Bell-value optimization, loss thresholds and certainty frontiers.

The optimization surface is the frame-averaged Bell value of the
single-phase strategy: party 1, the reference, measures two amplitudes
(r_1, r_1') and parties 2..N, whose frames are unknown, share one pair
(r, r'), each at a single local phase.  The unknown frame offsets carry
the phase freedom, and the free parameters are the amplitudes plus
(optionally) the N-1 offset centers.  The frame model is symmetric under
permutations of parties 2..N only, so this is its own reduction; the
default search also gives party 1 the shared pair, two amplitudes in
all.  Amplitudes are searched over signed values: a
negative amplitude flips that setting's displacement (a pi phase advance
on one setting only), which enlarges the reachable Bell values well beyond
the nonnegative quadrant at no extra parameter cost.  The search is a
derivative-free simplex descent restarted from a low-discrepancy set of
starting points inside the bounds.  The simplex is the package's own
bounded Nelder-Mead (Nelder & Mead, Comput. J. 7, 308 (1965)), which
reproduces SciPy's ``minimize(method="Nelder-Mead")`` step for step, so
the package needs no SciPy at run time.

The frame noise lives in the state.  Rotating party p's displacement
phase by Delta_{p-1} conjugates the state by U(Delta) = diag(1, 1,
exp(i Delta_1), ..., exp(i Delta_{N-1})), so with offsets Delta = c + d,
d independent zero-mean Gaussians of width w, the averaged correlator
E_Delta Tr[rho M(phi + Delta)] equals Tr[rho_w M(phi + c)] exactly: the
centers c shift the setting phases, and the frame-averaged state rho_w
is rho with entry (a, b) damped by exp(-w^2 |m_ab|^2 / 2), m_ab the
offset frequency of :func:`~photonbell.experiments._offset_frequencies`.
An averaged table is therefore a plain correlator table, with no
symbolic work inside the hot loop, and a polynomial in q = exp(-w^2/2)
whose coefficients come from the state (each entry of rho_w carries 1,
q or q^2).  The equivalence with the symbolic-average route is exact and
is enforced by tests.

A search prepares its score once (:func:`_bell_scores`,
:func:`_crossing_scores`).  The point-independent work happens then, in
:func:`_point_tables`: the lossy states are built, validated, dephased
and stacked once per (N, efficiencies, width).  A joint search forms
their kernel factors; each step builds every party's pair at phases (0,
c_1, ..., c_{N-1}) with :func:`~photonbell.fock_core.displacement_matrices`,
checks them with :func:`~photonbell.fock_core.check_observable_matrices`
and routes them through the package's one table walk (the one behind
:func:`~photonbell.fock_core.correlator_tables`, which takes the 2N-row
route for a point whose parties 2..N hold one pair).  The values of
every efficiency are one kernel call per route against the prepared
stack.  :func:`averaged_correlator_table` is the one-frame state route
of :mod:`~photonbell.experiments` for the single-phase strategy, with
the centers in the state.  Inputs from outside are checked at
:class:`OptimizationSpec` and, for one table, by the strategy, state
and frame model that :func:`averaged_correlator_table` builds.

:func:`maximize_bell` and :func:`threshold_efficiency` share one search
driver over a batched score: the start cloud is scored in one call, and
the restarts walk in lockstep.  Each walker is a generator that yields
every point its next step might need (the four candidate moves of an
iteration, or the vertices of a shrink), and the driver scores the
blocks of all live walkers in one call, or a lone walker's block as it
is.  A walker uses only the values SciPy's one-point loop would have
computed, and a row's score does not depend on its batch, so the results
and evaluation counts are SciPy's.

A pinned point is scored in closed form, with no table, no kernel row
and no complex matrix (:func:`_point_tables`).  The frame-averaged lossy
W state has five distinct entries, and one call of
:func:`~photonbell.fock_core._exchangeable_closed_form` on a point's
settings and their sums and differences gives its 2N distinct
correlators and its 2N transform classes T(r_1, u), O(N) per point.
Then S = 2^-N sum_{r_1, u} C(N-1, u) |T(r_1, u)| with no 2^N-fold
cancellation, within 4e-15 of exact rational arithmetic for N <= 24.  A
joint point's tables go through one batched Walsh-Hadamard transform.

The loss threshold needs no search over efficiencies.  Correlators are
affine in the efficiency eta, so at fixed search coordinates x the
Walsh-Hadamard coefficients are T(eta) = a + eta b, with a the transform
of the table at eta = 0 and a + b the one at eta = 1.  The Bell value
S(eta; x) = 2^-N sum_r |a_r + eta b_r| is therefore convex and piecewise
linear in eta, with breakpoints -a_r / b_r.  At eta = 0 the state is the
vacuum, a product state, so S(0; x) <= 1.  Together these make the
violating efficiencies an interval (eta*(x), 1], and eta*(x) follows
exactly by walking the sorted breakpoints.  The threshold is the minimum
of eta*(x) over x, found by the same simplex search that maximizes S.
A pinned point walks its 2N class breakpoints, each term weighted by
its count C(N-1, u).  Where even eta = 1 gives no violation, the score
is the plateau penalty 1 + (1 - S(1; x)) >= 1, which is finite and
gives the simplex a slope towards violating points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .experiments import (
    _frame_averaged_tables,
    _frame_damping,
    _offset_frequencies,
    best_pair_values_over_centers,
    pair_symbolic_tables,
    paired_strategy,
    two_setting_strategy,
)
from .fock_core import (
    TWO_PI,
    ConsistencyError,
    _check_observable_entries,
    _displacement_entries,
    _exchangeable_closed_form,
    _exchangeable_constants,
    _real,
    _state_terms,
    _table_values,
    _whole,
    check_observable_matrices,
    displacement_matrices,
    lossy_w_state,
)
from .phase_noise import PhaseModel
from .wwzb import (
    TABLE_RANGE_TOL,
    VIOLATION_ROUNDOFF,
    _class_layout,
    _walsh_hadamard,
)

__all__ = [
    "OptimizationSpec",
    "OptimumReport",
    "ThresholdResult",
    "averaged_correlator_table",
    "certainty_frontier",
    "maximize_bell",
    "threshold_efficiency",
]

AMPLITUDE_BOUNDS = (-3.0, 3.0)

# Simplex starts are drawn from |r| <= START_AMPLITUDE: coherence terms
# scale like r*exp(-r^2), so beyond this the surface is an S=1 plateau
# with no slope for a simplex to follow.  The walk itself may still leave
# the start region, up to AMPLITUDE_BOUNDS.
START_AMPLITUDE = 1.2

# Transmissions at which a threshold search tabulates every point: the
# correlators are affine in between.
_THRESHOLD_EFFICIENCIES = (0.0, 1.0)


@dataclass(frozen=True)
class OptimizationSpec:
    """Free parameters and stopping rules for :func:`maximize_bell`.

    By default the N-1 offset centers are pinned to zero and only the
    amplitudes are searched.  ``optimize_phases=True`` opts in to searching
    the centers jointly with the amplitudes.  The joint space holds every
    pinned point, but its walkers can stop below the pinned optimum (at
    N = 2 and width 1.25 every joint start lies on the S = 1 plateau, and
    it ends at S = 1 where the pinned search reaches 1.0901), and a joint
    walker started from the pinned optimum ends within rounding of it.
    The pinned search is also much cheaper for many parties.
    ``shared_amplitudes`` is the default search space, one signed
    amplitude pair for all parties.  Setting it False searches party 1's
    pair beside the pair parties 2..N share, four amplitudes (two for a
    single party), the reduction the frame model allows.  It starts one
    walker from the shared optimum, so it never ends below it.
    """

    n_parties: int
    width: float
    efficiency: float = 1.0
    optimize_phases: bool = False
    shared_amplitudes: bool = True
    restarts: int = 8
    tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("n_parties", "restarts"):
            object.__setattr__(self, name, _whole(getattr(self, name), name, 1))
        width, efficiency, tolerance = (
            _real(getattr(self, name), name) for name in ("width", "efficiency", "tolerance")
        )
        if not np.isfinite(width) or width < 0.0:
            raise ValueError("width must be finite and >= 0")
        if not 0.0 <= efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not (np.isfinite(tolerance) and tolerance > 0.0):
            raise ValueError("tolerance must be finite and > 0")


@dataclass(frozen=True)
class OptimumReport:
    """Best point found by :func:`maximize_bell`.

    ``r`` and ``r_prime`` are the signed shared amplitudes, or party 1's
    pair without shared amplitudes.  ``party_amplitudes`` then holds every
    party's pair, party 1's first and then N-1 copies of the pair parties
    2..N share; it is None in the shared mode.
    """

    best_s: float
    r: float
    r_prime: float
    phase_centers: tuple
    converged: bool
    evaluations: int
    party_amplitudes: tuple = None

    def to_json_dict(self) -> dict:
        out = {
            "best_s": float(self.best_s),
            "r": float(self.r),
            "r_prime": float(self.r_prime),
            "phase_centers": [float(c) for c in self.phase_centers],
            "converged": bool(self.converged),
            "evaluations": int(self.evaluations),
        }
        if self.party_amplitudes is not None:
            out["party_amplitudes"] = [
                [float(a), float(b)] for a, b in self.party_amplitudes
            ]
        return out


@dataclass(frozen=True)
class ThresholdResult:
    """Threshold efficiency; violable=False means not even eta=1 violates."""

    efficiency: float
    violable: bool


@lru_cache(maxsize=32)
def _lossy_rhos(n_parties: int, efficiencies: tuple, width: float) -> np.ndarray:
    """Read-only stack (E, N+1, N+1) of frame-averaged lossy W states.

    Zero-mean Gaussian frame noise of the given width damps entry (a, b)
    of each state by exp(-width^2 |m_ab|^2 / 2), m_ab its offset
    frequency; built once per (N, efficiencies, width).
    """
    freqs = _offset_frequencies(n_parties)
    damping = _frame_damping(freqs, width)
    rhos = np.stack([lossy_w_state(n_parties, eta).matrix for eta in efficiencies])
    rhos *= damping
    rhos.setflags(write=False)
    return rhos


def averaged_correlator_table(
    n_parties: int, r0: float, r1: float, centers, width: float, efficiency: float
) -> np.ndarray:
    """Frame-averaged correlation table of the single-phase strategy.

    The table of ``two_setting_strategy(n_parties, r0, r1)`` on the lossy
    W state, averaged entry-wise over independent Gaussian offsets with
    the given centers and width: the state route of
    :func:`~photonbell.experiments.frame_averaged_table`, returned as a
    plain read-only array, which :class:`~photonbell.wwzb.CorrelatorTable`
    keeps without a copy; copy it before writing to it.  ``r0`` and
    ``r1`` are signed scalar amplitudes shared by every party.  The lossy
    W state is exchangeable in modes 2..N, and so is its frame average
    when every center coincides; then only 2N distinct correlators are
    evaluated for the 2^N entries.

    Raises ValueError unless there is at least one party, one finite
    center per party 2..N, the amplitudes are finite real scalars, the
    width is finite and >= 0 and the efficiency lies in [0, 1].
    """
    strategy = two_setting_strategy(n_parties, r0, r1)
    state = lossy_w_state(n_parties, efficiency)
    return _frame_averaged_tables(state, strategy, PhaseModel(centers, width))[0]


def _setting_options(amplitudes: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Checked setting pairs (P, N, 2, 2, 2) of P points.

    ``amplitudes`` (P, N, 2) holds signed amplitudes as (point, party,
    setting) and ``centers`` (P, N-1) the frame centers.  Party p's
    settings are the displaced click observables of its two amplitudes at
    phase c_{p-1} (party 1 at phase 0), built and checked in one call.
    """
    phases = np.zeros(amplitudes.shape[:2])
    phases[:, 1:] = centers
    options = displacement_matrices(amplitudes, phases[..., None])
    check_observable_matrices(options)
    return options


def _amplitude_pairs(spec: OptimizationSpec, points: np.ndarray) -> np.ndarray:
    """Signed amplitude pairs (P, K, 2) of search points (P, dims), as (point, pair, setting).

    The amplitude coordinates hold the first settings, then the second:
    (r_1, r_rest, r_1', r_rest') gives K = 2, party 1's pair and the pair
    parties 2..N share; (r, r') gives K = 1, one pair for every party (the
    shared mode, and either mode of a single party).
    """
    n_amp, _ = _search_dims(spec)
    return points[:, :n_amp].reshape(len(points), 2, n_amp // 2).swapaxes(1, 2)


def _point_parameters(spec: OptimizationSpec, points: np.ndarray):
    """Signed amplitudes (P, N, 2) and centers (P, N-1) of search points (P, dims)."""
    n = spec.n_parties
    points = np.asarray(points, dtype=float)
    n_amp, _ = _search_dims(spec)
    pairs = _amplitude_pairs(spec, points)
    amplitudes = pairs[:, np.minimum(np.arange(n), pairs.shape[1] - 1)]
    centers = points[:, n_amp:] if spec.optimize_phases else np.zeros((len(points), n - 1))
    return amplitudes, centers


def _point_tables(spec: OptimizationSpec, efficiencies: tuple):
    """Value function of a search: points (P, dims) to their correlators and transform input.

    The stacked frame-averaged lossy states are formed once, here, with
    their kernel factors for a joint search or their five distinct
    entries for a pinned one
    (:func:`~photonbell.fock_core._exchangeable_constants`, which raises
    ConsistencyError unless the stack is real, exchangeable and free of
    vacuum coherence).  The function returns a pair: the correlators
    that the Bell score range-checks, and what :func:`_transform_terms`
    maps to the terms of S.

    A pinned step builds and checks the real entries of its points'
    pairs (:func:`_amplitude_pairs`), then makes one closed-form call on
    the pairs stacked with their sums and differences.  The settings,
    party 1 on M^(s_1)_1 and w of parties 2..N on M^1, give the distinct
    correlators (E, P, N, 2), entry [w, s_1], which hold every entry of
    the point's table.  Since T(r) = sum_s (-1)^(r.s) E(s) is the
    correlator of the operators M^0_k + (-1)^(r_k) M^1_k, party 1 on
    M^0_1 +- M^1_1, u of parties 2..N on M^0 - M^1 and the others on M^0
    + M^1 give the class values T(r_1, u) (E, P, N, 2), entry [u, r_1].
    A joint search builds every party's pair and leaves the route to the
    table walk, whose tables (E, P, 2^N) are both parts of the pair.
    Each value depends only on its own point: a batch gives the same
    values, bit for bit, as every point alone.
    """
    n = spec.n_parties
    etas = tuple(float(eta) for eta in efficiencies)
    rhos = _lossy_rhos(n, etas, float(spec.width))
    if not spec.optimize_phases:
        constants = _exchangeable_constants(rhos)

        def pinned(points):
            pairs = _amplitude_pairs(spec, points)
            # Group 0 holds each pair (M^0, M^1), group 1 (M^0 + M^1, M^0 - M^1).
            ops = np.empty((3, 2) + pairs.shape)
            ops[:, 0] = _displacement_entries(pairs)
            entries = ops[:, 0]
            _check_observable_entries(*entries)
            np.add(entries[..., 0], entries[..., 1], out=ops[:, 1, ..., 0])
            np.subtract(entries[..., 0], entries[..., 1], out=ops[:, 1, ..., 1])
            values = _exchangeable_closed_form(constants, n, ops[:, :, :, 0], ops[:, :, :, -1])
            return values[:, 0], values[:, 1]

        return pinned
    terms = _state_terms(rhos)

    def joint(points):
        tables = _table_values(terms, _setting_options(*_point_parameters(spec, points)))
        return tables, tables

    return joint


def _transform_terms(spec: OptimizationSpec):
    """Map from a search's transform input (:func:`_point_tables`) to the terms (E, P, M) of S.

    S(x) = sum_r |term_r| at each point, every term scaled by 2^-N.  A
    joint search's terms are the full transform of each 2^N-entry table.
    A pinned search's are its 2N class values T(r_1, u), each standing
    for the C(N-1, u) indices of its class: term 2u + r_1 is 2^-N
    C(N-1, u) T(r_1, u), and the sum of their magnitudes, taken as one
    flat row in (u, r_1) order, is the Bell value.
    """
    n = spec.n_parties
    if spec.optimize_phases:
        return lambda tables: _walsh_hadamard(tables) / 2**n
    _, counts = _class_layout(n)
    weights = counts[:, None] / 2**n

    def class_terms(classes):
        terms = classes * weights
        return terms.reshape(classes.shape[:-2] + (2 * n,))

    return class_terms


def _bell_scores(spec: OptimizationSpec):
    """Score of a search for :func:`maximize_bell`, prepared once.

    Returns ``score(points)``, the negated frame-averaged Bell value at
    every row of ``points``: the [-1, 1] range check of the correlators
    (a pinned point's 2N distinct values are every entry of its table),
    then the sum of the magnitudes of :func:`_transform_terms`.  A joint
    score sums one batched full transform and equals -wwzb_value of the
    point's table bit for bit where that takes its full route (N <= 2,
    and tables that are not weight-symmetric).  A pinned score sums the
    2N weighted closed-form class values; it lies within 4e-15 of exact
    rational arithmetic on the same setting entries for N <= 24, and
    agrees with the full 2^N sum to rounding.
    """
    values_at = _point_tables(spec, (spec.efficiency,))
    terms_of = _transform_terms(spec)

    def score(points):
        values, transformed = values_at(points)
        if not np.all(np.abs(values) <= 1.0 + TABLE_RANGE_TOL):
            raise ValueError("correlators must lie in [-1, 1] up to roundoff")
        (terms,) = terms_of(transformed)
        return -np.abs(terms).sum(axis=-1)

    return score


def _crossing_efficiency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest efficiency at which S(eta) = sum_r |a_r + eta b_r| violates, per row.

    ``a`` and ``b`` have shape (P, M) and are the terms of
    :func:`_transform_terms`: scaled by 2^-N and, for the 2N classes of a
    pinned search, weighted by each class's count C(N-1, u), so S(eta) is
    the Bell value of a table whose transform is a + eta b, and a class's
    breakpoint stands for every index of the class.  S is convex and
    piecewise linear, and the caller guarantees S(0) <= 1 +
    VIOLATION_ROUNDOFF.  Every sign change of a_r + eta b_r inside (0, 1)
    is a breakpoint; S at the sorted breakpoints follows from cumulative
    sums of the intercept and slope changes, and the crossing of
    1 + VIOLATION_ROUNDOFF is interpolated on its linear segment, which is
    exact.  Rows with S(1) at or below that level get the plateau penalty
    1 + (1 + VIOLATION_ROUNDOFF - S(1)) >= 1 instead.
    """
    level = 1.0 + VIOLATION_ROUNDOFF
    sign = np.where(a != 0.0, np.sign(a), np.sign(b))
    knots = np.divide(-a, b, out=np.ones_like(a), where=b != 0.0)
    flips = (knots > 0.0) & (knots < 1.0)
    knots[~flips] = 1.0
    order = np.argsort(knots, axis=-1, kind="stable")
    knots = np.take_along_axis(knots, order, axis=-1)
    # Passing a breakpoint flips that term's sign, which changes the
    # intercept and the slope of S by -2 sign_r a_r and -2 sign_r b_r.
    steps = np.take_along_axis(np.where(flips, -2.0 * sign, 0.0), order, axis=-1)

    def segments(c):
        start = (sign * c).sum(axis=-1, keepdims=True)
        changes = steps * np.take_along_axis(c, order, axis=-1)
        return np.cumsum(np.concatenate((start, changes), axis=-1), axis=-1)

    intercept, slope = segments(a), segments(b)
    # S at eta = 0, at every breakpoint (from the segment ending there) and at 1.
    ends = np.ones((len(a), 1))
    etas = np.concatenate((0.0 * ends, knots, ends), axis=-1)
    values = np.concatenate((intercept[:, :1], intercept + etas[:, 1:] * slope), -1)
    scores = 1.0 + level - values[:, -1]
    rows = np.flatnonzero(values[:, -1] > level)
    above = np.argmax(values[rows] > level, axis=-1)
    below = above - 1
    lo, hi = etas[rows, below], etas[rows, above]
    s_lo, s_hi = values[rows, below], values[rows, above]
    scores[rows] = lo + (level - s_lo) * (hi - lo) / (s_hi - s_lo)
    return scores


def _crossing_scores(spec: OptimizationSpec):
    """Score of a search for :func:`threshold_efficiency`, prepared once.

    Returns ``score(points)``, the crossing efficiency eta*(x) at every
    row of ``points``.  Points that do not violate even at eta = 1 score
    the plateau penalty (see :func:`_crossing_efficiency`).  The values
    at eta = 0 and eta = 1 come from one settings build and, against
    both frame-averaged states at once, one closed-form call for a
    pinned point or one kernel call per route for a joint one.  They
    become the terms of :func:`_transform_terms`: a pinned point walks
    its 2N weighted class breakpoints.  Raises ConsistencyError, naming
    the point, if the vacuum table violates: the vacuum is a product
    state and cannot.
    """
    n = spec.n_parties
    values_at = _point_tables(spec, _THRESHOLD_EFFICIENCIES)
    terms_of = _transform_terms(spec)

    def score(points):
        _, transformed = values_at(points)
        vacuum, lossless = terms_of(transformed)
        s_vacuum = np.abs(vacuum).sum(axis=-1)
        bad = np.flatnonzero(~(s_vacuum <= 1.0 + VIOLATION_ROUNDOFF))
        if bad.size:
            i = bad[0]
            raise ConsistencyError(
                f"vacuum Bell value {s_vacuum[i]!r} exceeds 1 for n_parties={n}, "
                f"width={spec.width!r}, search point {np.asarray(points)[i].tolist()}; "
                "a product state cannot violate"
            )
        return _crossing_efficiency(vacuum, lossless - vacuum)

    return score


def _first_primes(count: int) -> np.ndarray:
    """The ``count`` smallest primes, by trial division."""
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return np.array(primes, dtype=np.int64)


def _halton(n_points: int, dims: int) -> np.ndarray:
    """First ``n_points`` points (n_points, dims) of the unscrambled Halton sequence.

    Coordinate k of point i is the radical inverse of i in the k-th prime
    base: its base-b digits mirrored about the radix point.  The digits are
    accumulated least significant first, with the arithmetic of SciPy's
    ``qmc.Halton(d=dims, scramble=False).random(n_points)``, so the cloud
    equals SciPy's bit for bit.
    """
    bases = _first_primes(dims)
    index = np.repeat(np.arange(n_points, dtype=np.int64)[:, None], dims, axis=1)
    cloud = np.zeros((n_points, dims))
    scale = np.ones(dims)
    while index.any():
        scale /= bases
        cloud += scale * (index % bases)
        index //= bases
    return cloud


def _search_dims(spec: OptimizationSpec) -> tuple:
    """Numbers of amplitude and phase coordinates of a search.

    Coordinates are the signed amplitudes (2 shared, or 4 for party 1's
    pair and the pair of parties 2..N; 2 for a single party in either
    mode) followed by the N-1 centers when phases are searched.
    """
    n = spec.n_parties
    n_amp = 2 if spec.shared_amplitudes or n == 1 else 4
    n_phase = (n - 1) if spec.optimize_phases else 0
    return n_amp, n_phase


def _scan_points(spec: OptimizationSpec) -> int:
    """Points of the start cloud, which a search scores in one call."""
    return max(64, 24 * sum(_search_dims(spec)), spec.restarts)


def _scan_table_count(spec: OptimizationSpec, threshold: bool = False) -> int:
    """Number of 2^N-entry float tables a search's one-call cloud scan counts.

    The scan evaluates every start point at the spec's efficiency for
    :func:`maximize_bell` or, with ``threshold``, at both transmissions of
    the :func:`threshold_efficiency` search over the same coordinates.  A
    joint scan builds these tables.  A pinned scan builds none: it scores
    4N closed-form values per point.  The count caps it all the same, so
    that one table budget decides the party counts every search and
    command accepts (a pinned smax stops at N = 19), inside the N <= 24
    over which the closed form is tested against exact arithmetic.
    Counting allocates nothing, so a caller can refuse an oversized
    search before it starts.
    """
    efficiencies = len(_THRESHOLD_EFFICIENCIES) if threshold else 1
    return efficiencies * _scan_points(spec)


def _search_box(spec: OptimizationSpec):
    """Bounds (lower, upper) of the search coordinates and the start cloud.

    The low-discrepancy cloud fills the moderate-amplitude part of the
    box, |r| <= START_AMPLITUDE, which lies inside AMPLITUDE_BOUNDS.
    """
    n_amp, n_phase = _search_dims(spec)
    dims = n_amp + n_phase
    lower = np.array([AMPLITUDE_BOUNDS[0]] * n_amp + [0.0] * n_phase)
    upper = np.array([AMPLITUDE_BOUNDS[1]] * n_amp + [TWO_PI] * n_phase)
    start_lo = np.array([-START_AMPLITUDE] * n_amp + [0.0] * n_phase)
    start_hi = np.array([START_AMPLITUDE] * n_amp + [TWO_PI] * n_phase)
    cloud = _halton(_scan_points(spec), dims)
    return (lower, upper), start_lo + cloud * (start_hi - start_lo)


class _SimplexResult(NamedTuple):
    """End of one simplex descent: best vertex, its value, stop reason, points used."""

    x: np.ndarray
    fun: float
    success: bool
    nfev: int


def _sorted_simplex(sim: list, fsim: list):
    """Vertex and value lists ordered by value, with numpy's unstable default argsort."""
    order = np.argsort(fsim).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(x0, lower, upper, tolerance: float, max_evals: int):
    """Bounded Nelder-Mead descent from ``x0`` as a generator of score requests.

    Yields blocks of points (k, dims), is sent their k scores and returns
    a :class:`_SimplexResult`.  The steps, their arithmetic and the
    unstable sorts are those of SciPy's ``minimize(method="Nelder-Mead")``
    with these bounds, ``xatol = fatol = tolerance`` and ``maxiter =
    maxfev = max_evals``, so the result equals SciPy's bit for bit:
    coefficients 1, 2, 1/2 and 1/2; an initial simplex stepped by 5% of
    each nonzero coordinate (0.00025 from zero), reflected off the upper
    bounds and clipped; every move clipped into the box.  Every iteration
    scores at least one point, so the iteration cap never binds before the
    evaluation cap.

    Each iteration yields its four candidates (reflection, expansion,
    outside and inside contraction) as one block, and a shrink yields its
    moved vertices as one block; the walk then uses, and ``nfev`` counts,
    only the values SciPy would have computed.  The call that would be
    number ``max_evals + 1`` is not made: the rest of that iteration is
    abandoned, and a shrink cut off there keeps its moved vertex with the
    old value, as SciPy's call-limit exception leaves it.

    After the initial simplex the vertices and values are Python floats,
    since numpy calls on arrays of two to four coordinates cost more than
    the arithmetic.  Every operation keeps SciPy's order: the centroid
    adds the vertices one after another onto 0.0, as ``np.add.reduce``
    over the vertex axis does; a coordinate is clipped by np.clip's rule,
    including which zero it returns at a zero bound; the values are still
    ordered by ``np.argsort``, so that ties order as SciPy's do.
    """
    dims = len(x0)
    x0 = np.clip(x0, lower, upper)
    sim = np.empty((dims + 1, dims))
    sim[0] = x0
    for k in range(dims):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    values = yield sim
    nfev = min(dims + 1, max_evals)
    fsim = values[:nfev].tolist() + [np.inf] * (dims + 1 - nfev)
    # SciPy sorts twice here; with ties an unstable sort may permute again.
    sim, fsim = _sorted_simplex(*_sorted_simplex(sim.tolist(), fsim))
    bounds = list(zip(lower.tolist(), upper.tolist()))

    def clipped(point):
        return [lo if v <= lo else hi if v >= hi else v for v, (lo, hi) in zip(point, bounds)]

    while nfev < max_evals:
        best = sim[0]
        if all(
            abs(v - b) <= tolerance for vertex in sim[1:] for v, b in zip(vertex, best)
        ) and all(abs(fsim[0] - f) <= tolerance for f in fsim[1:]):
            break
        xbar = [0.0] * dims
        for vertex in sim[:-1]:
            xbar = [c + v for c, v in zip(xbar, vertex)]
        xbar = [c / dims for c in xbar]
        worst = sim[-1]
        candidates = [
            clipped([2 * c - w for c, w in zip(xbar, worst)]),  # reflection
            clipped([3 * c - 2 * w for c, w in zip(xbar, worst)]),  # expansion
            clipped([1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]),  # outside contraction
            clipped([0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]),  # inside contraction
        ]
        fxr, fxe, fxc, fxcc = (yield np.array(candidates)).tolist()
        nfev += 1
        if fsim[0] <= fxr < fsim[-2]:
            sim[-1], fsim[-1] = candidates[0], fxr
        elif nfev < max_evals:
            nfev += 1
            if fxr < fsim[0]:
                pick = 1 if fxe < fxr else 0
                sim[-1], fsim[-1] = candidates[pick], (fxr, fxe)[pick]
            elif fxr < fsim[-1] and fxc <= fxr:
                sim[-1], fsim[-1] = candidates[2], fxc
            elif not fxr < fsim[-1] and fxcc < fsim[-1]:  # SciPy's else branch
                sim[-1], fsim[-1] = candidates[3], fxcc
            else:
                moved = [
                    clipped([b + 0.5 * (v - b) for v, b in zip(vertex, best)]) for vertex in sim[1:]
                ]
                values = yield np.array(moved)
                scored = min(dims, max_evals - nfev)
                sim[1 : scored + 2] = moved[: scored + 1]
                fsim[1 : scored + 1] = values[:scored].tolist()
                nfev += scored
        sim, fsim = _sorted_simplex(sim, fsim)
    return _SimplexResult(np.array(sim[0]), np.min(fsim), nfev < max_evals, nfev)


def _lockstep(spec: OptimizationSpec, score, walkers) -> list:
    """Run simplex walkers side by side and return their results in order.

    Each step concatenates the pending block of every live walker and
    scores it in ``score(points)`` calls of at most :func:`_scan_points`
    rows, the size of the start-cloud scan, so no call evaluates more
    points than :func:`_scan_table_count` counts tables for.  A lone
    walker's block (at most dims + 1 rows, well under the scan) is scored
    as it is.  A row's score depends only on that row, so every walker
    sees the values it would get alone.
    """
    rows = _scan_points(spec)
    results = [None] * len(walkers)
    pending = {i: next(walker) for i, walker in enumerate(walkers)}
    while pending:
        blocks = list(pending.values())
        if len(blocks) == 1:
            parts = [score(blocks[0])]
        else:
            points = np.concatenate(blocks)
            values = np.concatenate(
                [score(points[i : i + rows]) for i in range(0, len(points), rows)]
            )
            parts = np.split(values, np.cumsum([len(block) for block in blocks[:-1]]))
        for i, block_values in zip(list(pending), parts):
            try:
                pending[i] = walkers[i].send(block_values)
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


def _search(spec: OptimizationSpec, score, _start=None):
    """Multistart simplex minimization of a prepared batched score over the search box.

    ``score(points)`` maps points of shape (P, dims) to P values, each
    depending only on its own row; it is prepared once per search
    (:func:`_bell_scores`, :func:`_crossing_scores`).  The start cloud is
    scored in one call, and a bounded Nelder-Mead walker
    (:func:`_nelder_mead`, capped at 400 evaluations per coordinate)
    starts from each of the ``spec.restarts`` best cloud points (stable
    order), and one more from ``_start`` when it is given.  The walkers
    run in lockstep, one score call per step for all of them (split into
    calls no larger than the scan), and each walks exactly as alone.
    Returns the best walker's :class:`_SimplexResult` (lowest restart
    index on ties) and the number of points the walks used, scan
    included; speculative rows a walk did not use are not counted.
    """
    (lower, upper), cloud = _search_box(spec)
    max_evals = 400 * len(lower)
    starts = cloud[np.argsort(score(cloud), kind="stable")[: spec.restarts]]
    if _start is not None:
        starts = np.concatenate((starts, [_start]))
    walkers = [_nelder_mead(x0, lower, upper, spec.tolerance, max_evals) for x0 in starts]
    results = _lockstep(spec, score, walkers)
    best = min(results, key=lambda result: result.fun)
    return best, len(cloud) + sum(result.nfev for result in results)


def maximize_bell(spec: OptimizationSpec) -> OptimumReport:
    """Maximize the frame-averaged Bell value over the strategy parameters.

    A low-discrepancy cloud over the moderate-amplitude start region is
    scored first, in one batched call, and a bounded Nelder-Mead simplex
    search is run from the ``spec.restarts`` best cloud points, keeping
    the best endpoint (lowest restart index on ties).  ``converged``
    reports whether the winning search terminated by its tolerance rather
    than by the iteration cap; ``evaluations`` counts objective calls
    including the scan.

    Without shared amplitudes the shared search of the same spec runs
    first, and its optimum, lifted to (r, r, r', r', centers), starts one
    more walker, so the result is never below the shared one.
    """
    start, evaluations = None, 0
    if not spec.shared_amplitudes:
        shared = replace(spec, shared_amplitudes=True)
        lifted, evaluations = _search(shared, _bell_scores(shared))
        n_amp, _ = _search_dims(spec)
        start = np.concatenate((np.repeat(lifted.x[:2], n_amp // 2), lifted.x[2:]))
    best, more = _search(spec, _bell_scores(spec), start)
    evaluations += more
    amplitudes, centers = _point_parameters(spec, best.x[None])
    pairs = tuple((float(a), float(b)) for a, b in amplitudes[0])
    return OptimumReport(
        best_s=float(-best.fun),
        r=pairs[0][0],
        r_prime=pairs[0][1],
        phase_centers=tuple(float(c) for c in centers[0]),
        converged=bool(best.success),
        evaluations=evaluations,
        party_amplitudes=None if spec.shared_amplitudes else pairs,
    )


def threshold_efficiency(
    n_parties: int,
    width: float,
    tolerance: float = 1e-4,
    restarts: int = 6,
) -> ThresholdResult:
    """Smallest transmission at which the optimized Bell value exceeds 1.

    Minimizes the crossing efficiency eta*(x) over the search coordinates
    and start cloud of a pinned-phase :func:`maximize_bell`.  At fixed x the
    Bell value is convex and piecewise linear in the efficiency (the
    correlators are affine in it) and at most 1 on the vacuum, so the
    violating efficiencies form an interval (eta*(x), 1] and eta*(x) is
    computed exactly from the breakpoints; the threshold is min_x eta*(x),
    the point at which the optimized Bell value first exceeds 1.  Points
    where even a lossless state gives no violation score the plateau
    penalty 1 + (1 - S(1; x)) >= 1, which leads the simplex towards
    violating points.  ``tolerance`` is the simplex's stopping tolerance,
    on the search coordinates and on eta.  When no point violates at
    eta = 1 the result carries violable=False and threshold 1.

    Raises ValueError unless the tolerance is finite and > 0 (and on the
    checks of :class:`OptimizationSpec`), and ConsistencyError if a vacuum
    table violates.
    """
    spec = OptimizationSpec(
        n_parties=n_parties, width=width, restarts=restarts, tolerance=tolerance
    )
    best, _ = _search(spec, _crossing_scores(spec))
    if best.fun < 1.0:
        return ThresholdResult(efficiency=float(best.fun), violable=True)
    return ThresholdResult(efficiency=1.0, violable=False)


def certainty_frontier(
    n_parties: int,
    efficiency: float,
    pair_counts,
    grid_density: int = 720,
    width_tolerance: float = 0.01,
    width_max: float = 2.0,
    restarts: int = 6,
):
    """Largest noise width with a violation certain for every frame center.

    For each pair count m, bisects the width at which the best-pair Bell
    value stays above 1 + VIOLATION_ROUNDOFF on a uniform grid of frame
    centers (``grid_density`` points per relative phase, at least 360).
    Amplitudes are re-optimized for centered frames at every probed
    width, matching a laboratory that knows its noise level but not the
    frame; each distinct width is searched once per call, and its
    amplitudes serve every pair count that probes it.  Returns a list of
    (m, width) pairs; width is NaN when not even zero width is certain,
    and capped at ``width_max``.  Restricted to n_parties <= 3 to keep
    the center grid tractable.  Pair counts must
    be integers >= 1, ``grid_density`` a whole number >= 360, and
    ``width_tolerance`` and ``width_max`` finite and > 0 (ValueError
    otherwise, before any search).
    """
    n_parties = _whole(n_parties, "n_parties", 1)
    pair_counts = [_whole(m, "pair count", 1) for m in pair_counts]
    _whole(grid_density, "grid_density", 360)
    if n_parties > 3:
        raise ValueError("center grid only tractable for n_parties <= 3")
    if not (np.isfinite(width_tolerance) and width_tolerance > 0.0):
        raise ValueError("width_tolerance must be finite and > 0")
    if not (np.isfinite(width_max) and width_max > 0.0):
        raise ValueError("width_max must be finite and > 0")

    axis = np.arange(grid_density) * TWO_PI / grid_density
    grids = np.meshgrid(*[axis] * (n_parties - 1), indexing="ij")
    # A single party has no relative phase: one empty center.
    centers = np.stack(grids, -1).reshape(-1, n_parties - 1) if grids else np.zeros((1, 0))
    state = lossy_w_state(n_parties, efficiency)

    # The amplitudes of each probed width, searched once for every pair count.
    amplitudes = {}

    def certain(width: float, pair_count: int) -> bool:
        if width not in amplitudes:
            report = maximize_bell(
                OptimizationSpec(
                    n_parties=n_parties,
                    width=width,
                    efficiency=efficiency,
                    restarts=restarts,
                )
            )
            amplitudes[width] = report.r, report.r_prime
        strategy = paired_strategy(n_parties, *amplitudes[width], pair_count)
        tables = pair_symbolic_tables(state, strategy)
        values = best_pair_values_over_centers(tables, centers, width)
        return bool(np.all(values > 1.0 + VIOLATION_ROUNDOFF))

    results = []
    for pair_count in pair_counts:
        if not certain(0.0, pair_count):
            results.append((pair_count, float("nan")))
            continue
        lo = 0.0
        hi = min(0.2, width_max)
        while certain(hi, pair_count):
            lo = hi
            hi *= 2.0
            if hi >= width_max:
                hi = width_max
                if certain(hi, pair_count):
                    lo = hi
                break
        if lo >= width_max:
            results.append((pair_count, float(width_max)))
            continue
        while hi - lo > width_tolerance:
            mid = 0.5 * (lo + hi)
            if certain(mid, pair_count):
                lo = mid
            else:
                hi = mid
        results.append((pair_count, float(lo)))
    return results
