"""Bell-value optimization, loss thresholds and certainty frontiers.

The optimization surface is the frame-averaged Bell value of the
shared-amplitude strategy: every party measures the same two amplitudes
(r, r') at a single local phase, the unknown frame offsets carry the phase
freedom, and the free parameters are the two amplitudes plus (optionally)
the N-1 offset centers.  Amplitudes are searched over signed values: a
negative amplitude flips that setting's displacement (a pi phase advance
on one setting only), which enlarges the reachable Bell values well beyond
the nonnegative quadrant at no extra parameter cost.  The search is a
derivative-free simplex descent restarted from a low-discrepancy set of
starting points inside the bounds.  SciPy's simplex loads on the first
search, so importing this module does not import SciPy.

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

The settings of every point, party and setting are built as one array
by :func:`~photonbell.fock_core.displacement_matrices`, at phases
(0, c_1, ..., c_{N-1}), and validated once per table build with the
closed-form Hermiticity and eigenvalue checks of
:func:`~photonbell.fock_core.check_observable_matrices`; the lossy states
are built, validated, dephased and stacked once per (N, efficiencies,
width).  The tables of every efficiency are then one call of the batched
kernel :func:`~photonbell.fock_core.correlator_batch` against that stack: 2N
rows when parties 2..N are exchangeable, otherwise all 2^N rows through
the package's one table builder
:func:`~photonbell.fock_core.correlator_tables`.  Inputs
from outside (amplitudes, centers, width, efficiency) are checked at
:func:`averaged_correlator_table` and :class:`OptimizationSpec`.

:func:`maximize_bell` and :func:`threshold_efficiency` share one search
driver over a batched score: the start cloud is scored in one call and the
simplex scores one point at a time, with values equal to the cloud's.  The
Bell scores of a batch come from one batched Walsh-Hadamard transform.

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
Where even eta = 1 gives no violation, the score is the plateau penalty
1 + (1 - S(1; x)) >= 1, which is finite and gives the simplex a slope
towards violating points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .experiments import (
    _frame_damping,
    _offset_frequencies,
    best_pair_values_over_centers,
    pair_symbolic_tables,
    paired_strategy,
)
from .fock_core import (
    TWO_PI,
    ConsistencyError,
    check_observable_matrices,
    correlator_batch,
    correlator_tables,
    displacement_matrices,
    lossy_w_state,
)
from .wwzb import TABLE_RANGE_TOL, VIOLATION_ROUNDOFF, _walsh_hadamard

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

    ``optimize_phases`` selects whether the N-1 offset centers are searched
    jointly with the amplitudes or pinned to zero (for the permutation-
    symmetric states used here both give the same optimum; the pinned mode
    is much cheaper for many parties).  ``shared_amplitudes`` is the normal,
    reduced search space (one signed amplitude pair for all parties);
    setting it False gives every party its own signed pair, a 2N-parameter
    spot check that the reduction loses nothing, supported for at most
    three parties.
    """

    n_parties: int
    width: float
    efficiency: float = 1.0
    optimize_phases: bool = True
    shared_amplitudes: bool = True
    restarts: int = 8
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.n_parties < 1:
            raise ValueError("n_parties must be >= 1")
        if not np.isfinite(self.width) or self.width < 0.0:
            raise ValueError("width must be finite and >= 0")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not self.shared_amplitudes and self.n_parties > 3:
            raise ValueError("per-party amplitudes supported for n_parties <= 3")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be finite and > 0")


@dataclass(frozen=True)
class OptimumReport:
    """Best point found by :func:`maximize_bell`.

    ``r`` and ``r_prime`` are the signed shared amplitudes (party 1's pair
    in the per-party mode, where ``party_amplitudes`` holds every party's
    pair; it is None in the shared mode).
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


def _setting_weights(rest: int) -> np.ndarray:
    """Number of ones in each of the 2^rest setting choices of parties 2..N."""
    weights = np.zeros(1, dtype=np.uint8)
    for _ in range(rest):
        weights = np.concatenate((weights, weights + 1))
    return weights


def _symmetric_tables(rho: np.ndarray, options: np.ndarray) -> np.ndarray:
    """Tables (..., P, 2^N) of points whose parties 2..N share one setting pair.

    Those parties are exchangeable, so xi(s) depends only on s_1 and on how
    many of s_2..s_N are 1: 2N correlators per point and state fill the
    2^N entries.  ``rho`` is one state or a stack, as for
    :func:`~photonbell.fock_core.correlator_tables`.
    """
    points, n = options.shape[:2]
    rest = n - 1
    ones = np.arange(rest + 1)
    # Row (s_1, ones): parties 2..ones+1 use setting 1, the others setting 0.
    pick = (np.arange(1, n) <= ones[:, None])[..., None, None]
    shared = options[:, -1, :, None, None]  # the pair parties 2..N share
    mats = np.empty((points, 2, rest + 1, n, 2, 2), dtype=complex)
    mats[:, :, :, 0] = options[:, 0, :, None]
    mats[:, :, :, 1:] = np.where(pick, shared[:, 1], shared[:, 0])[:, None]
    distinct = correlator_batch(rho, mats)
    # Entry (s_2..s_N, s_1) of a table is distinct[..., s_1, weight(s_2..s_N)].
    pairs = np.ascontiguousarray(distinct.swapaxes(-1, -2))
    return np.take(pairs, _setting_weights(rest), axis=-2).reshape(*pairs.shape[:-2], 2**n)


def _averaged_tables(
    n_parties: int,
    amplitudes: np.ndarray,
    centers: np.ndarray,
    width: float,
    efficiencies: tuple,
) -> np.ndarray:
    """Averaged tables (E, P, 2^N) of P points at each of E efficiencies.

    ``amplitudes`` (P, N, 2) holds already validated signed amplitudes as
    (point, party, setting) and ``centers`` (P, N-1) the frame centers.
    Party p's settings are the displaced click observables of its two
    amplitudes at phase c_{p-1} (party 1 at phase 0), built and checked
    once, and each route contracts them against the stacked
    frame-averaged lossy states of every efficiency in one kernel call.
    A point takes the exchangeable-party route when every party has the
    same amplitude pair and all centers coincide.  Each table depends only
    on its own point: a batch gives the same values, bit for bit, as
    scoring every point alone.
    """
    phases = np.zeros(amplitudes.shape[:2])
    phases[:, 1:] = centers
    options = displacement_matrices(amplitudes, phases[..., None])
    check_observable_matrices(options)
    symmetric = np.all(amplitudes == amplitudes[:, :1], axis=(1, 2)) & np.all(
        centers == centers[:, :1], axis=1
    )
    routes = ((symmetric, _symmetric_tables), (~symmetric, correlator_tables))
    etas = tuple(float(eta) for eta in efficiencies)
    rhos = _lossy_rhos(int(n_parties), etas, float(width))
    tables = np.empty((len(efficiencies), len(options), 2**n_parties))
    for mask, build in routes:
        if mask.any():
            tables[:, mask] = build(rhos, options[mask])
    return tables


def _per_party_amplitudes(n_parties: int, r0, r1):
    """Broadcast scalar-or-sequence amplitude arguments to per-party pairs."""
    pairs = []
    for name, value in (("r0", r0), ("r1", r1)):
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            arr = np.full(n_parties, float(arr))
        elif arr.shape != (n_parties,):
            raise ValueError(f"{name} must be a scalar or one value per party")
        pairs.append(arr)
    return pairs[0], pairs[1]


def averaged_correlator_table(
    n_parties: int,
    r0,
    r1,
    centers,
    width: float,
    efficiency: float,
) -> np.ndarray:
    """Frame-averaged correlation table of the single-phase strategy.

    Equals the symbolic table of ``two_setting_strategy(n_parties, r0, r1)``
    on the lossy state, averaged entry-wise over independent Gaussian
    offsets with the given centers and width.  ``r0`` and ``r1`` are signed
    amplitudes, either scalars (every party uses the same pair) or one
    value per party.  When the amplitudes are shared and every center
    coincides, parties 2..N are exchangeable and only 2 N distinct
    correlators are evaluated for the 2^N entries.

    Raises ValueError unless there is at least one party, one finite
    center per party 2..N, the amplitudes are finite, the width is finite
    and >= 0 and the efficiency lies in [0, 1].
    """
    if n_parties < 1:
        raise ValueError("n_parties must be >= 1")
    centers = np.asarray(centers, dtype=float)
    if centers.shape != (n_parties - 1,):
        raise ValueError("need one center per non-reference party")
    if not np.all(np.isfinite(centers)):
        raise ValueError("frame centers must be finite")
    if not np.isfinite(width) or width < 0.0:
        raise ValueError("width must be finite and >= 0")
    amplitudes = np.stack(_per_party_amplitudes(n_parties, r0, r1), axis=-1)
    if not np.all(np.isfinite(amplitudes)):
        raise ValueError("amplitudes must be finite")
    return _averaged_tables(
        n_parties, amplitudes[None], centers[None], width, (efficiency,)
    )[0, 0]


def _point_parameters(spec: OptimizationSpec, points: np.ndarray):
    """Signed amplitudes (P, N, 2) and centers (P, N-1) of search points (P, dims)."""
    n = spec.n_parties
    points = np.asarray(points, dtype=float)
    if spec.shared_amplitudes:
        n_amp = 2
        amplitudes = np.broadcast_to(points[:, None, :2], (len(points), n, 2))
    else:
        n_amp = 2 * n
        amplitudes = np.stack((points[:, :n], points[:, n:n_amp]), axis=-1)
    if spec.optimize_phases:
        centers = points[:, n_amp:]
    else:
        centers = np.zeros((len(points), n - 1))
    return amplitudes, centers


def _bell_scores(spec: OptimizationSpec, points: np.ndarray) -> np.ndarray:
    """Negated frame-averaged Bell value at every row of ``points``.

    One batched transform; each row's sum is formed as in ``wwzb_value``,
    so the scores equal -wwzb_value bit for bit.
    """
    amplitudes, centers = _point_parameters(spec, points)
    (tables,) = _averaged_tables(
        spec.n_parties, amplitudes, centers, spec.width, (spec.efficiency,)
    )
    if not np.all(np.abs(tables) <= 1.0 + TABLE_RANGE_TOL):
        raise ValueError("correlators must lie in [-1, 1] up to roundoff")
    return -np.abs(_walsh_hadamard(tables)).sum(axis=-1) / 2**spec.n_parties


def _crossing_efficiency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest efficiency at which S(eta) = sum_r |a_r + eta b_r| violates, per row.

    ``a`` and ``b`` have shape (P, M) and are already scaled by 2^-N, so
    S(eta) is the Bell value of a table whose transform is a + eta b.  S
    is convex and piecewise linear, and the caller guarantees S(0) <= 1 +
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


def _crossing_scores(spec: OptimizationSpec, points: np.ndarray) -> np.ndarray:
    """Crossing efficiency eta*(x) at every row of ``points``.

    Points that do not violate even at eta = 1 score the plateau penalty
    (see :func:`_crossing_efficiency`).  Tables at eta = 0 and eta = 1
    come from one settings build and one kernel call per route against
    both frame-averaged states, and go through one batched Walsh-Hadamard
    transform.  Raises ConsistencyError, naming the point,
    if the vacuum table violates: the vacuum is a product state and cannot.
    """
    n = spec.n_parties
    amplitudes, centers = _point_parameters(spec, points)
    tables = _averaged_tables(
        n, amplitudes, centers, spec.width, _THRESHOLD_EFFICIENCIES
    )
    vacuum, lossless = _walsh_hadamard(tables) / 2**n
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

    Coordinates are the signed amplitudes (2, or 2N per party) followed by
    the N-1 centers when phases are searched.
    """
    n = spec.n_parties
    n_amp = 2 if spec.shared_amplitudes else 2 * n
    n_phase = (n - 1) if spec.optimize_phases else 0
    return n_amp, n_phase


def _scan_points(spec: OptimizationSpec) -> int:
    """Points of the start cloud, which a search scores in one call."""
    return max(64, 24 * sum(_search_dims(spec)), spec.restarts)


def _scan_table_count(spec: OptimizationSpec, threshold: bool = False) -> int:
    """Number of 2^N-entry float tables a search's one-call cloud scan builds.

    The scan tabulates every start point at the spec's efficiency for
    :func:`maximize_bell` or, with ``threshold``, at both transmissions of
    the :func:`threshold_efficiency` search over the same coordinates.
    Counting allocates nothing, so a caller can refuse an oversized search
    before it starts.
    """
    efficiencies = len(_THRESHOLD_EFFICIENCIES) if threshold else 1
    return efficiencies * _scan_points(spec)


def _search_box(spec: OptimizationSpec):
    """Bounds of the search coordinates and the low-discrepancy start cloud.

    The cloud fills the moderate-amplitude part of the box, |r| <=
    START_AMPLITUDE, which lies inside AMPLITUDE_BOUNDS.
    """
    n_amp, n_phase = _search_dims(spec)
    dims = n_amp + n_phase
    bounds = [AMPLITUDE_BOUNDS] * n_amp + [(0.0, TWO_PI)] * n_phase
    start_lo = np.array([-START_AMPLITUDE] * n_amp + [0.0] * n_phase)
    start_hi = np.array([START_AMPLITUDE] * n_amp + [TWO_PI] * n_phase)
    cloud = _halton(_scan_points(spec), dims)
    return bounds, start_lo + cloud * (start_hi - start_lo)


def _search(spec: OptimizationSpec, score):
    """Multistart simplex minimization of a batched score over the search box.

    ``score(spec, points)`` maps points of shape (P, dims) to P values,
    each depending only on its own row.  The start cloud is scored in one
    call and a bounded Nelder-Mead simplex search is run from the
    ``spec.restarts`` best cloud points (stable order), scoring one point
    per call.  Returns the best scipy result (lowest restart index on ties)
    and the number of points scored, scan included.
    """
    # Imported here: scipy.optimize costs about 0.3 s to import, and most
    # commands never search.
    from scipy.optimize import minimize

    bounds, cloud = _search_box(spec)
    dims = len(bounds)
    starts = cloud[np.argsort(score(spec, cloud), kind="stable")[: spec.restarts]]

    best = None
    evaluations = len(cloud)
    for x0 in starts:
        result = minimize(
            lambda x: score(spec, x[None])[0],
            x0,
            method="Nelder-Mead",
            bounds=bounds,
            options={
                "xatol": spec.tolerance,
                "fatol": spec.tolerance,
                "maxiter": 400 * dims,
                "maxfev": 400 * dims,
            },
        )
        evaluations += result.nfev
        if best is None or result.fun < best.fun:
            best = result
    return best, evaluations


def maximize_bell(spec: OptimizationSpec) -> OptimumReport:
    """Maximize the frame-averaged Bell value over the strategy parameters.

    A low-discrepancy cloud over the moderate-amplitude start region is
    scored first, in one batched call, and a bounded Nelder-Mead simplex
    search is run from the ``spec.restarts`` best cloud points, keeping
    the best endpoint (lowest restart index on ties).  ``converged``
    reports whether the winning search terminated by its tolerance rather
    than by the iteration cap; ``evaluations`` counts objective calls
    including the scan.
    """
    best, evaluations = _search(spec, _bell_scores)
    amplitudes, centers = _point_parameters(spec, best.x[None])
    if spec.shared_amplitudes:
        party_amplitudes = None
        r, r_prime = (float(a) for a in amplitudes[0, 0])
    else:
        party_amplitudes = tuple((float(a), float(b)) for a, b in amplitudes[0])
        r, r_prime = party_amplitudes[0]
    return OptimumReport(
        best_s=float(-best.fun),
        r=r,
        r_prime=r_prime,
        phase_centers=tuple(float(c) for c in centers[0]),
        converged=bool(best.success),
        evaluations=evaluations,
        party_amplitudes=party_amplitudes,
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
        n_parties=n_parties,
        width=width,
        optimize_phases=False,
        restarts=restarts,
        tolerance=tolerance,
    )
    best, _ = _search(spec, _crossing_scores)
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
    frame.  Returns a list of (m, width) pairs; width is NaN when not even
    zero width is certain, and capped at ``width_max``.  Restricted to
    n_parties <= 3 to keep the center grid tractable.  Pair counts must
    be integers >= 1, and ``width_tolerance`` and ``width_max`` finite
    and > 0 (ValueError otherwise, before any search).
    """
    pair_counts = list(pair_counts)
    if not all(isinstance(m, (int, np.integer)) and m >= 1 for m in pair_counts):
        raise ValueError("pair counts must be integers >= 1")
    if grid_density < 360:
        raise ValueError("grid_density must be >= 360")
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

    def certain(width: float, pair_count: int) -> bool:
        report = maximize_bell(
            OptimizationSpec(
                n_parties=n_parties,
                width=width,
                efficiency=efficiency,
                optimize_phases=False,
                restarts=restarts,
            )
        )
        strategy = paired_strategy(n_parties, report.r, report.r_prime, pair_count)
        tables = pair_symbolic_tables(state, strategy)
        values = best_pair_values_over_centers(tables, centers, width)
        return bool(np.all(values > 1.0 + VIOLATION_ROUNDOFF))

    results = []
    for pair_count in pair_counts:
        if not certain(0.0, pair_count):
            results.append((pair_count, float("nan")))
            continue
        lo = 0.0
        hi = 0.2
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
