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
:func:`averaged_correlator_table` and :class:`OptimizationSpec`; the start
cloud of :func:`maximize_bell` is scored in one batched table build.
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
from .wwzb import CorrelatorTable, wwzb_value

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

# Slack allowed before the coarse-grid monotonicity check calls a search
# failure: restarts leave residual jitter well below this.
MONOTONICITY_SLACK = 1e-5


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
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be > 0")


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
    efficiency: float,
) -> np.ndarray:
    """Averaged tables (P, 2^N) for P points of already validated parameters.

    ``amplitudes`` (P, N, 2) and ``centers`` (P, N-1) as for
    :func:`_dressed_observables`.  A point takes the exchangeable-party
    route when every party has the same amplitude pair and all centers
    coincide.  Each table depends only on its own point: a batch gives the
    same values, bit for bit, as scoring every point alone.
    """
    rho = _lossy_rho(int(n_parties), float(efficiency))
    options = _dressed_observables(amplitudes, centers, width)
    symmetric = np.all(amplitudes == amplitudes[:, :1], axis=(1, 2)) & np.all(
        centers == centers[:, :1], axis=1
    )
    tables = np.empty((len(options), 2**n_parties))
    for mask, build in ((symmetric, _symmetric_tables), (~symmetric, _general_tables)):
        if mask.any():
            tables[mask] = build(rho, options[mask])
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
        n_parties, amplitudes[None], centers[None], width, efficiency
    )[0]


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


def _objective(spec: OptimizationSpec, x) -> float:
    """Negated frame-averaged Bell value at one search point."""
    amplitudes, centers = _point_parameters(spec, np.asarray(x, dtype=float)[None])
    table = averaged_correlator_table(
        spec.n_parties,
        amplitudes[0, :, 0],
        amplitudes[0, :, 1],
        centers[0],
        spec.width,
        spec.efficiency,
    )
    return -wwzb_value(CorrelatorTable(spec.n_parties, table)).s_value


def _scan_scores(spec: OptimizationSpec, points: np.ndarray) -> np.ndarray:
    """:func:`_objective` at every row of ``points``, from one batched table build."""
    amplitudes, centers = _point_parameters(spec, points)
    tables = _averaged_tables(
        spec.n_parties, amplitudes, centers, spec.width, spec.efficiency
    )
    return np.array(
        [-wwzb_value(CorrelatorTable(spec.n_parties, table)).s_value for table in tables]
    )


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
    bounds, cloud = _search_box(spec)
    dims = len(bounds)
    scores = _scan_scores(spec, cloud)
    starts = cloud[np.argsort(scores, kind="stable")[: spec.restarts]]

    best = None
    evaluations = len(cloud)
    for x0 in starts:
        result = minimize(
            lambda x: _objective(spec, x),
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

    Bisects the efficiency, re-running the amplitude optimization at every
    probe.  Correlators are affine in the efficiency, so the optimized Bell
    value is convex in it and, once above 1, stays above: the bisection
    predicate is monotone.  A coarse grid guards against inner-search
    failures: a clear violation that shrinks at higher efficiency means the
    bracket cannot be trusted and raises ConsistencyError.  (Below the
    threshold the optimum hugs 1 from below and restart jitter carries no
    signal, so decreases there are ignored.)  When even a lossless state
    gives no violation the result carries violable=False and threshold 1.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be > 0")

    def best_s(efficiency: float) -> float:
        report = maximize_bell(
            OptimizationSpec(
                n_parties=n_parties,
                width=width,
                efficiency=efficiency,
                optimize_phases=optimize_phases,
                restarts=restarts,
            )
        )
        return report.best_s

    top = best_s(1.0)
    if top <= 1.0:
        return ThresholdResult(efficiency=1.0, violable=False)

    probes = (0.25, 0.5, 0.75)
    values = [best_s(p) for p in probes]
    sequence = values + [top]
    for earlier, later in zip(sequence, sequence[1:]):
        if earlier > 1.0 + MONOTONICITY_SLACK and later < earlier - MONOTONICITY_SLACK:
            raise ConsistencyError(
                "optimized Bell value decreased from a clear violation at "
                "higher efficiency; inner search is unreliable"
            )

    lo, hi = 0.0, 1.0
    for eta, s in zip(probes, values):
        if s > 1.0:
            hi = min(hi, eta)
        else:
            lo = max(lo, eta)
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if best_s(mid) > 1.0:
            hi = mid
        else:
            lo = mid
    return ThresholdResult(efficiency=0.5 * (lo + hi), violable=True)


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
    center grid tractable.
    """
    if grid_density < 360:
        raise ValueError("grid_density must be >= 360")
    if n_parties > 3:
        raise ValueError("center grid only tractable for n_parties <= 3")
    if width_tolerance <= 0.0:
        raise ValueError("width_tolerance must be > 0")

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
