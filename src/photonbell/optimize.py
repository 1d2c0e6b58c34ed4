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
starting points inside the bounds.

The objective is evaluated through a closed-form shortcut: averaging over
independent Gaussian offsets factorizes onto each non-reference party's
off-diagonal matrix elements (E[exp(+-i Delta_l)] = exp(+-i c_l - w^2/2)),
so the averaged table equals a numeric correlator table with damped
observables, with no symbolic work inside the hot loop.  The equivalence
with the symbolic-average route is exact and is enforced by tests.

The damped 2x2 observables are built directly as arrays (every point,
party and setting at once) and validated once per table build with the
closed-form Hermiticity and eigenvalue checks of
:func:`~photonbell.fock_core.check_observable_matrices`; the lossy state is
built and validated once per (N, eta).  Each table is then one call of the
batched kernel :func:`~photonbell.fock_core.correlator_batch`: 2N rows when
parties 2..N are exchangeable, 2^N rows (in bounded chunks) otherwise.
Inputs from outside (amplitudes, centers, width, efficiency) are checked at
:func:`averaged_correlator_table` and :class:`OptimizationSpec`.

:func:`maximize_bell` and :func:`threshold_efficiency` share one search
driver over a batched score: the start cloud is scored in one call and the
simplex scores one point at a time, with values equal to the cloud's.

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
from itertools import product

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from .experiments import (
    best_pair_values_over_centers,
    pair_symbolic_tables,
    paired_strategy,
)
from .fock_core import (
    TWO_PI,
    ConsistencyError,
    _chunk_rows,
    check_observable_matrices,
    correlator_batch,
    lossy_w_state,
)
from .wwzb import CorrelatorTable, _walsh_hadamard, wwzb_value

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
# the start region, up to the amplitude bounds.
START_AMPLITUDE = 1.2

# A Bell value counts as a violation only above 1 + VIOLATION_ROUNDOFF.
# Sums of 2^N rounded terms can overshoot a classical value of exactly 1
# (one party at zero amplitudes, for instance) by far less than this,
# and a threshold moves by about this much over the slope of S in eta.
VIOLATION_ROUNDOFF = 1e-9


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
    amplitude_bounds: tuple = AMPLITUDE_BOUNDS
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
        lo, hi = self.amplitude_bounds
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("amplitude bounds must be finite with lo < hi")
        object.__setattr__(self, "amplitude_bounds", (float(lo), float(hi)))
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
def _lossy_rho(n_parties: int, efficiency: float) -> np.ndarray:
    """Read-only matrix of the lossy W state, validated once per (N, eta)."""
    return lossy_w_state(n_parties, efficiency).matrix


def _dressed_observables(amplitudes: np.ndarray, centers: np.ndarray, width: float):
    """Frame-averaged observables of every party, setting and point.

    ``amplitudes`` holds signed amplitudes, shape (P, N, 2) as (point,
    party, setting); ``centers`` has shape (P, N-1).  Returns matrices of
    shape (P, N, 2, 2, 2).  A signed amplitude r gives the displaced
    click observable with off-diagonal 2 e^{-r^2} r (a negative r is the
    pi-flipped setting).  Zero-mean Gaussian frame noise of the given width
    multiplies the off-diagonal entries of parties 2..N by exp(-width^2/2)
    and the center c rotates them by exp(+-i c); party 1 is the undamped
    reference.  Raises ValueError unless every matrix is Hermitian with
    spectrum inside [-1, 1].
    """
    n = amplitudes.shape[1]
    g = 2.0 * np.exp(-amplitudes * amplitudes)
    rotation = np.ones(centers.shape[:-1] + (n,), dtype=complex)
    rotation[..., 1:] = np.exp(-0.5 * width * width) * np.exp(1j * centers)
    lower = g * amplitudes * rotation[..., None]
    mats = np.empty(amplitudes.shape + (2, 2), dtype=complex)
    mats[..., 0, 0] = g - 1.0
    mats[..., 0, 1] = lower.conj()
    mats[..., 1, 0] = lower
    mats[..., 1, 1] = g * amplitudes * amplitudes - 1.0
    check_observable_matrices(mats)
    return mats


def _setting_weights(rest: int) -> np.ndarray:
    """Number of ones in each of the 2^rest setting choices of parties 2..N."""
    weights = np.zeros(1, dtype=np.uint8)
    for _ in range(rest):
        weights = np.concatenate((weights, weights + 1))
    return weights


def _symmetric_tables(rho: np.ndarray, options: np.ndarray) -> np.ndarray:
    """Tables of points whose parties 2..N share one dressed pair.

    Those parties are exchangeable, so xi(s) depends only on s_1 and on how
    many of s_2..s_N are 1: 2N correlators per point fill the 2^N entries.
    """
    points, n = options.shape[:2]
    rest = n - 1
    ones = np.arange(rest + 1)
    # Row (s_1, ones): parties 2..ones+1 use setting 1, the others setting 0.
    pick = (np.arange(1, n) <= ones[:, None])[..., None, None]
    dressed = options[:, -1, :, None, None]  # the pair parties 2..N share
    mats = np.empty((points, 2, rest + 1, n, 2, 2), dtype=complex)
    mats[:, :, :, 0] = options[:, 0, :, None]
    mats[:, :, :, 1:] = np.where(pick, dressed[:, 1], dressed[:, 0])[:, None]
    distinct = correlator_batch(rho, mats)
    weights = _setting_weights(rest)
    tables = np.empty((points, 2**rest, 2))
    for s1 in range(2):
        tables[:, :, s1] = distinct[:, s1, weights]
    return tables.reshape(points, 2**n)


def _general_tables(rho: np.ndarray, options: np.ndarray) -> np.ndarray:
    """Tables with every one of the 2^N entries evaluated.

    Observable rows are built for a chunk of table indices at a time, so
    memory stays bounded for any N.
    """
    points, n = options.shape[:2]
    size = 2**n
    parties = np.arange(n)
    tables = np.empty((points, size))
    step = max(1, _chunk_rows(n) // points)
    for start in range(0, size, step):
        index = np.arange(start, min(start + step, size))
        bits = (index[:, None] >> parties) & 1
        tables[:, start : start + step] = correlator_batch(rho, options[:, parties, bits])
    return tables


def _averaged_tables(
    n_parties: int,
    amplitudes: np.ndarray,
    centers: np.ndarray,
    width: float,
    efficiencies: tuple,
) -> np.ndarray:
    """Averaged tables (E, P, 2^N) of P points at each of E efficiencies.

    ``amplitudes`` (P, N, 2) and ``centers`` (P, N-1) hold already
    validated parameters, as for :func:`_dressed_observables`; the dressed
    observables are built once and contracted against every lossy state.
    A point takes the exchangeable-party route when every party has the
    same amplitude pair and all centers coincide.  Each table depends only
    on its own point: a batch gives the same values, bit for bit, as
    scoring every point alone.
    """
    options = _dressed_observables(amplitudes, centers, width)
    symmetric = np.all(amplitudes == amplitudes[:, :1], axis=(1, 2)) & np.all(
        centers == centers[:, :1], axis=1
    )
    routes = ((symmetric, _symmetric_tables), (~symmetric, _general_tables))
    tables = np.empty((len(efficiencies), len(options), 2**n_parties))
    for k, efficiency in enumerate(efficiencies):
        rho = _lossy_rho(int(n_parties), float(efficiency))
        for mask, build in routes:
            if mask.any():
                tables[k, mask] = build(rho, options[mask])
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

    Raises ValueError unless there is one finite center per party 2..N,
    the amplitudes are finite, the width is finite and >= 0 and the
    efficiency lies in [0, 1].
    """
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
    """Negated frame-averaged Bell value at every row of ``points``."""
    amplitudes, centers = _point_parameters(spec, points)
    (tables,) = _averaged_tables(
        spec.n_parties, amplitudes, centers, spec.width, (spec.efficiency,)
    )
    return np.array(
        [-wwzb_value(CorrelatorTable(spec.n_parties, table)).s_value for table in tables]
    )


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
    come from one dressed-observable build and go through one batched
    Walsh-Hadamard transform.  Raises ConsistencyError, naming the point,
    if the vacuum table violates: the vacuum is a product state and cannot.
    """
    n = spec.n_parties
    amplitudes, centers = _point_parameters(spec, points)
    tables = _averaged_tables(n, amplitudes, centers, spec.width, (0.0, 1.0))
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


def _search_box(spec: OptimizationSpec):
    """Bounds of the search coordinates and the low-discrepancy start cloud.

    Coordinates are the signed amplitudes (2, or 2N per party) followed by
    the N-1 centers when phases are searched.  The cloud fills the
    moderate-amplitude part of the box.
    """
    n = spec.n_parties
    n_amp = 2 if spec.shared_amplitudes else 2 * n
    n_phase = (n - 1) if spec.optimize_phases else 0
    dims = n_amp + n_phase
    lo, hi = spec.amplitude_bounds
    bounds = [(lo, hi)] * n_amp + [(0.0, TWO_PI)] * n_phase

    lower = np.array([b[0] for b in bounds])
    upper = np.array([b[1] for b in bounds])
    start_lo = lower.copy()
    start_hi = upper.copy()
    start_lo[:n_amp] = np.maximum(start_lo[:n_amp], -START_AMPLITUDE)
    start_hi[:n_amp] = np.minimum(start_hi[:n_amp], START_AMPLITUDE)
    empty = start_hi <= start_lo
    start_lo[empty] = lower[empty]
    start_hi[empty] = upper[empty]
    n_scan = max(64, 24 * dims, spec.restarts)
    cloud = qmc.Halton(d=dims, scramble=False).random(n_scan)
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
    optimize_phases: bool = False,
) -> ThresholdResult:
    """Smallest transmission at which the optimized Bell value exceeds 1.

    Minimizes the crossing efficiency eta*(x) over the same search
    coordinates and start cloud as :func:`maximize_bell`.  At fixed x the
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
        optimize_phases=optimize_phases,
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
    value stays above 1 on a uniform grid of frame centers (``grid_density``
    points per relative phase, at least 360).  Amplitudes are re-optimized
    for centered frames at every probed width, matching a laboratory that
    knows its noise level but not the frame.  Returns a list of
    (m, width) pairs; width is NaN when not even zero width is certain, and
    capped at ``width_max``.  Restricted to n_parties <= 3 to keep the
    center grid tractable.  ``width_tolerance`` and ``width_max`` must be
    finite and > 0 (ValueError otherwise).
    """
    if grid_density < 360:
        raise ValueError("grid_density must be >= 360")
    if n_parties > 3:
        raise ValueError("center grid only tractable for n_parties <= 3")
    if not (np.isfinite(width_tolerance) and width_tolerance > 0.0):
        raise ValueError("width_tolerance must be finite and > 0")
    if not (np.isfinite(width_max) and width_max > 0.0):
        raise ValueError("width_max must be finite and > 0")

    axis = np.arange(grid_density) * TWO_PI / grid_density
    centers = np.array(list(product(axis, repeat=n_parties - 1)))
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
        return bool(np.all(values > 1.0))

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
