"""Bell-value maximization, loss thresholds, and certainty frontiers."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    bisect_threshold,
    dressed_averaged_tables,
    exact_pinned_terms,
    full_transform_bell_value,
    per_call_averaged_tables,
    per_call_bell_scores,
    per_call_crossing_scores,
    per_party_search,
    random_state,
    sample_offsets,
    scipy_search,
    scipy_simplex,
    table_bell_scores,
    table_crossing_scores,
    table_values,
)

from photonbell import (
    ConsistencyError,
    CorrelatorTable,
    OptimizationSpec,
    OptimumReport,
    PhaseModel,
    SubspaceState,
    certainty_frontier,
    lossy_w_state,
    maximize_bell,
    threshold_efficiency,
    wwzb_value,
)
import photonbell.optimize as optimize
from photonbell.experiments import _offset_frequencies
import photonbell.fock_core as fock_core
import photonbell.wwzb as wwzb
from photonbell.fock_core import _state_terms, _table_values
from photonbell.optimize import (
    VIOLATION_ROUNDOFF,
    _bell_scores,
    _crossing_efficiency,
    _crossing_scores,
    _halton,
    _lockstep,
    _lossy_rhos,
    _nelder_mead,
    _point_parameters,
    _scan_points,
    _scan_table_count,
    _search,
    _search_box,
    _search_dims,
    _setting_options,
)
from photonbell.wwzb import _walsh_hadamard

TWO_PI = 2.0 * np.pi

# Spacing of doubles in [1, 2), where Bell values lie.
ULP = np.spacing(1.0)

PINNED = dict(optimize_phases=False)
JOINT = dict(optimize_phases=True)


def prepared_tables(n, width, efficiencies, amplitudes, centers):
    """Tables (E, P, 2^N) as a search's table function makes them, from parameters.

    The prepared stack of frame-averaged lossy states against every
    party's checked settings, routed by the one table walk.
    """
    terms = _state_terms(_lossy_rhos(n, tuple(efficiencies), float(width)))
    return _table_values(terms, _setting_options(amplitudes, centers))


def test_spec_validation():
    with pytest.raises(ValueError):
        OptimizationSpec(0, 0.0)
    with pytest.raises(ValueError):
        OptimizationSpec(2, -0.1)
    with pytest.raises(ValueError):
        OptimizationSpec(2, 0.0, efficiency=1.2)
    with pytest.raises(ValueError):
        OptimizationSpec(2, 0.0, restarts=0)
    for tolerance in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            OptimizationSpec(2, 0.0, tolerance=tolerance)


def test_two_party_noiseless_maximum():
    # all three search modes must land on the same optimum, well above the
    # nonnegative-amplitude value (~1.217) and below the CHSH quantum bound
    pinned = maximize_bell(OptimizationSpec(2, 0.0, optimize_phases=False))
    joint = maximize_bell(OptimizationSpec(2, 0.0, optimize_phases=True))
    per_party = maximize_bell(
        OptimizationSpec(2, 0.0, optimize_phases=False, shared_amplitudes=False)
    )
    for report in (pinned, joint, per_party):
        assert abs(report.best_s - 1.3442) < 1e-3
        assert report.best_s <= np.sqrt(2.0) + 1e-9
        assert report.converged
        assert report.evaluations > 0
    # optimal signed pair has small/large split with opposite signs
    assert 0.1 < abs(pinned.r) < 0.25
    assert 0.45 < abs(pinned.r_prime) < 0.7
    assert np.sign(pinned.r) != np.sign(pinned.r_prime)
    # joint phase search keeps the center at the symmetric point
    gap = joint.phase_centers[0] % TWO_PI
    assert min(gap, TWO_PI - gap) < 1e-2
    assert pinned.party_amplitudes is None
    assert per_party.party_amplitudes is not None
    assert per_party.r == per_party.party_amplitudes[0][0]
    assert per_party.r_prime == per_party.party_amplitudes[0][1]


@pytest.mark.parametrize(
    "spec",
    [
        OptimizationSpec(2, 0.2, efficiency=0.95, optimize_phases=False),
        OptimizationSpec(9, 0.15, efficiency=0.9, optimize_phases=False),
        OptimizationSpec(3, 0.25, efficiency=0.93, optimize_phases=True),
        OptimizationSpec(3, 0.1, optimize_phases=True, shared_amplitudes=False),
        OptimizationSpec(1, 0.3, optimize_phases=False),
    ],
)
def test_batched_scan_equals_one_point_objective(spec):
    # the start order is a stable argsort of these scores and the simplex
    # walkers score their points in shared batches, so the batched scores
    # must equal the one-point scores bit for bit; the joint cloud's first
    # point has equal centers and takes the exchangeable route.  A joint
    # score sums all 2^N magnitudes, so it equals the full-transform Bell
    # value bit for bit.  A pinned score sums its 2N weighted closed-form
    # class values and agrees with the full transform and wwzb_value to
    # rounding: at most 3.3e-16 (1.5 ulp) from the full transform at N = 2
    # and 8.9e-16 at N = 9 on these clouds
    _, cloud = _search_box(spec)
    bell, crossing = _bell_scores(spec), _crossing_scores(spec)
    scores = bell(cloud)
    crossings = crossing(cloud)
    assert scores.shape == crossings.shape == (len(cloud),)
    amplitudes, centers = _point_parameters(spec, cloud)
    for i, x in enumerate(cloud):
        assert scores[i] == bell(x[None])[0]
        assert crossings[i] == crossing(x[None])[0]
        points = slice(i, i + 1)
        efficiencies = (spec.efficiency,)
        (table,) = per_call_averaged_tables(
            spec.n_parties, amplitudes[points], centers[points], spec.width, efficiencies
        )[0]
        correlators = CorrelatorTable(spec.n_parties, table)
        full = full_transform_bell_value(correlators).s_value
        if spec.optimize_phases:
            assert scores[i] == -full
        else:
            assert abs(scores[i] + full) <= (2 if spec.n_parties <= 2 else 5) * ULP
        assert abs(scores[i] + wwzb_value(correlators).s_value) <= 1e-15


def test_default_search_pins_the_centers():
    # the default spec is the pinned search, bit for bit, and violates at
    # N=2 and width 1.25, where the joint search stalls on the S = 1 plateau
    spec = OptimizationSpec(2, 1.25)
    assert not spec.optimize_phases
    report = maximize_bell(spec)
    assert report == maximize_bell(OptimizationSpec(2, 1.25, **PINNED))
    assert report.best_s == pytest.approx(1.09012158181, abs=1e-11)
    assert report.phase_centers == (0.0,)


@pytest.mark.parametrize("n, width", [(2, 1.25), (4, 0.75), (5, 0.0), (5, 0.6)])
def test_joint_search_never_ends_above_the_default_search(n, width):
    # the opt-in joint search, plain and with one more walker started from
    # the default (pinned) optimum with every center 0, ends at most
    # rounding above the default search: the centers hold nothing the
    # pinned space lacks.  About 2 s for the four points.
    pinned = maximize_bell(OptimizationSpec(n, width, restarts=6))
    spec = OptimizationSpec(n, width, restarts=6, **JOINT)
    joint = maximize_bell(spec)
    start = np.array([pinned.r, pinned.r_prime] + [0.0] * (n - 1))
    lifted, _ = _search(spec, _bell_scores(spec), _start=start)
    assert joint.best_s <= pinned.best_s + 1e-9
    assert -lifted.fun <= pinned.best_s + 1e-9
    assert -lifted.fun >= pinned.best_s - 1e-12  # the lifted walker starts there


def test_evaluation_counts_unchanged():
    # objective-call counts of these searches before the batched scan
    pinned = maximize_bell(OptimizationSpec(2, 0.2, optimize_phases=False, restarts=2))
    assert pinned.evaluations == 220
    joint = maximize_bell(
        OptimizationSpec(3, 0.25, efficiency=0.93, optimize_phases=True, restarts=1)
    )
    assert joint.evaluations == 338


@pytest.mark.parametrize(
    "spec, expected",
    [
        (
            OptimizationSpec(2, 0.2, efficiency=0.95, optimize_phases=False, restarts=2),
            (1.2280699377473798, -0.5697379004578493, 0.17011738349625302, 206),
        ),
        (
            OptimizationSpec(9, 0.15, efficiency=0.9, optimize_phases=False, restarts=2),
            (1.3908787207795317, -0.26952835030475475, 0.13617381183710364, 231),
        ),
        (
            OptimizationSpec(3, 0.25, efficiency=0.93, optimize_phases=True, restarts=1),
            (1.2806677881557116, 0.19064721531455686, -0.4568293608872702, 338),
        ),
        (
            OptimizationSpec(2, 0.1, optimize_phases=False, shared_amplitudes=False, restarts=2),
            (1.3414668556192062, -0.16466983545403946, 0.5622310753631863, 1023),
        ),
    ],
)
def test_search_results_are_pinned(spec, expected):
    # exact values of pinned N=2 and N=9, joint N=3 and per-party N=2
    # searches, recorded before the scores were prepared once per search:
    # a faster score must not move a single bit of any result.  The
    # per-party count includes the shared search that now runs first.
    # The N=9 best_s moved by one ulp (1.390878720779531 before) when
    # pinned scores went from the full 2^N sum to the weighted class sum,
    # and the pinned best_s by one ulp each (1.2280699377473796 and
    # 1.3908787207795315 before) when the class values came from the
    # closed form; r, r' and every count held.
    report = maximize_bell(spec)
    assert (report.best_s, report.r, report.r_prime, report.evaluations) == expected


def test_threshold_and_frontier_results_are_pinned():
    # exact values recorded with the per-call score pipeline
    assert threshold_efficiency(2, 0.2, tolerance=1e-4, restarts=2).efficiency == (
        0.8401399885817341
    )
    assert threshold_efficiency(4, 0.2, tolerance=1e-4, restarts=2).efficiency == (
        0.7647053623583925
    )
    frontier = certainty_frontier(
        2, 0.9, [8], grid_density=360, width_tolerance=0.05, restarts=1
    )
    assert frontier == [(8, 0.6500000000000001)]


def _oracle_points(spec, rng):
    """Cloud points, random points, amplitudes at +-3 and 0, equal and distinct centers."""
    n_amp, n_phase = optimize._search_dims(spec)
    _, cloud = _search_box(spec)
    edges = rng.choice([-3.0, 0.0, 3.0], size=(6, n_amp))
    edges[0] = 0.0
    inner = rng.uniform(-1.5, 1.5, size=(6, n_amp))
    points = np.concatenate((edges, inner))
    if n_phase:
        phases = rng.uniform(0.0, TWO_PI, size=(len(points), n_phase))
        phases[::3] = 0.0
        phases[1::3] = phases[1::3, :1]  # equal centers: the exchangeable route
        points = np.concatenate((points, phases), axis=1)
    return np.concatenate((cloud[:8], points))


@pytest.mark.parametrize("n", range(1, 10))
def test_prepared_scores_equal_per_call_pipeline(n):
    # the table-route scores against the per-call pipeline they replaced,
    # bit for bit, and the prepared scores against them: bit for bit for
    # joint searches; for pinned ones, whose class values come from the
    # closed form, within 2 ulps (Bell) and 3 ulps (crossing) at N <= 2,
    # and within 1e-15 (Bell) and 1e-13 (crossing) for N = 3..9 (measured:
    # 7.8e-16, and 1.1e-14 at N = 9 in eta*, where S is flat in eta and
    # the table route's own rounding dominates).  Pinned, joint and
    # (n <= 3) per-party searches at widths 0, 0.2 and 1.5, with amplitudes
    # at the bounds and at 0, in one batch and point by point
    rng = np.random.default_rng(90 + n)
    kinds = [dict(optimize_phases=False), dict(optimize_phases=True)]
    if n <= 3:
        kinds += [dict(optimize_phases=opt, shared_amplitudes=False) for opt in (False, True)]
    for kind in kinds:
        for width in (0.0, 0.2, 1.5):
            spec = OptimizationSpec(n, width, efficiency=0.9, **kind)
            points = _oracle_points(spec, rng)
            bell, crossing = _bell_scores(spec), _crossing_scores(spec)
            scores, crossings = bell(points), crossing(points)
            oracle_bell = table_bell_scores(spec)(points)
            oracle_crossing = table_crossing_scores(spec)(points)
            assert np.array_equal(oracle_bell, per_call_bell_scores(spec, points))
            assert np.array_equal(oracle_crossing, per_call_crossing_scores(spec, points))
            if spec.optimize_phases:
                assert np.array_equal(scores, oracle_bell)
                assert np.array_equal(crossings, oracle_crossing)
            elif n <= 2:
                assert np.max(np.abs(scores - oracle_bell)) <= 2 * ULP
                assert np.max(np.abs(crossings - oracle_crossing)) <= 3 * ULP
            else:
                assert np.max(np.abs(scores - oracle_bell)) <= 1e-15
                assert np.max(np.abs(crossings - oracle_crossing)) <= 1e-13
            for i in range(0, len(points), 5):
                assert bell(points[i : i + 1])[0] == scores[i]


def _pinned_oracle_points(spec, rng):
    """Cloud and random points (|r| <= 1.5), then amplitudes at +-3, 0 and -0.0."""
    n_amp, _ = _search_dims(spec)
    _, cloud = _search_box(spec)
    inner = rng.uniform(-1.5, 1.5, size=(4, n_amp))
    edges = rng.choice([-3.0, -0.0, 0.0, 3.0], size=(6, n_amp))
    edges[0], edges[1] = 0.0, -0.0
    return np.concatenate((cloud[:6], inner, edges))


@pytest.mark.parametrize("n", range(1, 17))
def test_pinned_scores_equal_the_table_route_oracle(n):
    # the closed-form scores of pinned searches against the 2^N-table
    # scores they replaced, shared amplitudes and party 1's own pair at
    # widths 0 and 0.4.  The gaps stay within 2.5e-15 at the cloud and
    # interior points (the first ten; 1.7e-15 measured) and 1.5e-14 at the
    # +-3 corners (1.1e-14 measured at N = 16).  Both are the table
    # route's rounding: its transform cancels terms of size 6e3 at the
    # corners, while the closed form lies within 1.5e-15 of exact
    # arithmetic there (test_pinned_scores_equal_exact_arithmetic).  N <= 2
    # are within 2 ulps.  Crossings are checked in S against the table's
    # directly summed Bell values: S at the closed-form eta* against
    # 1 + VIOLATION_ROUNDOFF, a plateau penalty against
    # 2 + VIOLATION_ROUNDOFF - S(1), with the same bounds; the table
    # route's own walk sums its 2^N breakpoints cumulatively and is no
    # tighter in eta*, where S is flat in eta
    rng = np.random.default_rng(400 + n)
    level = 1.0 + VIOLATION_ROUNDOFF
    interior, corners = (2 * ULP, 2 * ULP) if n <= 2 else (2.5e-15, 1.5e-14)
    for shared in (True, False):
        for width in (0.0, 0.4):
            spec = OptimizationSpec(n, width, efficiency=0.9, shared_amplitudes=shared)
            points = _pinned_oracle_points(spec, rng)
            bell, oracle_bell = _bell_scores(spec)(points), table_bell_scores(spec)(points)
            crossing = _crossing_scores(spec)(points)
            oracle_crossing = table_crossing_scores(spec)(points)
            gaps = np.abs(bell - oracle_bell)
            assert gaps[:10].max() <= interior and gaps.max() <= corners
            violating = crossing < 1.0
            assert np.array_equal(violating, oracle_crossing < 1.0)
            vacuum, lossless = _walsh_hadamard(table_values(spec, points, (0.0, 1.0))) / 2**n
            at_crossing = np.abs(vacuum + crossing[:, None] * (lossless - vacuum)).sum(axis=-1)
            penalty = 1.0 + level - np.abs(lossless).sum(axis=-1)
            gaps = np.where(violating, np.abs(at_crossing - level), np.abs(crossing - penalty))
            assert gaps[:10].max() <= interior and gaps.max() <= corners


@pytest.mark.parametrize("n", range(1, 25))
def test_pinned_scores_equal_exact_arithmetic(n):
    # the closed-form Bell and crossing scores against exact rational
    # arithmetic on the same float setting entries and states: for
    # N <= 10 the exact 2^N table and its exact transform, above that the
    # exact sum of the closed form's terms.  Cloud, interior and +-3, 0 and
    # -0.0 points, shared and party 1's own pair, widths 0 and 0.4.  The
    # largest gap measured was 1.5e-15 (Bell) and 1.7e-15 (crossing, in
    # S) at N = 24
    rng = np.random.default_rng(700 + n)
    level = Fraction(1.0 + VIOLATION_ROUNDOFF)
    for shared in (True, False):
        for width in (0.0, 0.4):
            spec = OptimizationSpec(n, width, efficiency=0.9, shared_amplitudes=shared)
            points = _pinned_oracle_points(spec, rng)
            bell = -_bell_scores(spec)(points)
            (exact,), denominator = exact_pinned_terms(spec, points, (spec.efficiency,))
            for s, terms in zip(bell, exact):
                assert abs(Fraction(s) - Fraction(sum(map(abs, terms)), denominator)) <= 4e-15
            crossing = _crossing_scores(spec)(points)
            (vacuum, lossless), denominator = exact_pinned_terms(spec, points, (0.0, 1.0))
            for eta, a, b in zip(crossing, vacuum, lossless):
                if eta < 1.0:
                    # S at the crossing, a + eta (b - a) with eta = p / q
                    p, q = Fraction(eta).as_integer_ratio()
                    s = Fraction(sum(map(abs, q * a + p * (b - a))), q * denominator)
                    assert abs(s - level) <= 4e-15
                else:
                    s = Fraction(sum(map(abs, b)), denominator)
                    assert abs(Fraction(eta) - (1 + level - s)) <= 4e-15


def test_pinned_searches_build_no_tables(monkeypatch):
    # a pinned search reduces each point's 2N class values: no 2^N
    # transform and no weight-layout leaf runs in maximize_bell, shared
    # and with party 1's own pair, or in threshold_efficiency
    def refused(*_args):
        raise AssertionError("a pinned search built a table")

    for module in (optimize, wwzb):
        monkeypatch.setattr(module, "_walsh_hadamard", refused)
    for module in (fock_core, wwzb):
        monkeypatch.setattr(module, "_weight_leaves", refused)
    for n in (1, 2, 9):
        for shared in (True, False):
            report = maximize_bell(OptimizationSpec(n, 0.3, restarts=2, shared_amplitudes=shared))
            assert (report.best_s > 1.0 + VIOLATION_ROUNDOFF) == (n > 1)
        result = threshold_efficiency(n, 0.2, tolerance=1e-3, restarts=1)
        assert result.violable == (n > 1)


def test_pinned_step_checks_two_matrices_per_point(monkeypatch):
    # every pinned score call checks the real entries of its points' 2K
    # settings (K = 1 shared pair, or party 1's and the one parties 2..N
    # share) in one shared entry check, before its one closed-form call,
    # and a prepared score forms its states' distinct entries once
    checked, scored, stacks = [], [], []
    check = optimize._check_observable_entries
    closed_form = optimize._exchangeable_closed_form
    constants = optimize._exchangeable_constants

    def counted_check(*entries):
        checked.append(np.shape(entries))
        return check(*entries)

    def counted_closed_form(*args):
        scored.append(checked[-1])
        return closed_form(*args)

    def counted_constants(states):
        stacks.append(np.shape(states))
        return constants(states)

    monkeypatch.setattr(optimize, "_check_observable_entries", counted_check)
    monkeypatch.setattr(optimize, "_exchangeable_closed_form", counted_closed_form)
    monkeypatch.setattr(optimize, "_exchangeable_constants", counted_constants)
    for n in (2, 9):
        for shared in (True, False):
            spec = OptimizationSpec(n, 0.2, shared_amplitudes=shared, restarts=2, **PINNED)
            pairs = 1 if shared else 2
            checked.clear()
            scored.clear()
            stacks.clear()
            report = maximize_bell(spec)
            # a search with party 1's own pair runs the shared search first
            assert stacks == [(1, n + 1, n + 1)] * (1 if shared else 2)
            assert scored == checked
            assert all(shape[0] == 3 and shape[2:] in ((1, 2), (pairs, 2)) for shape in checked)
            assert sum(shape[1] for shape in checked) >= report.evaluations
        stacks.clear()
        threshold_efficiency(n, 0.2, tolerance=1e-3, restarts=1)
        assert stacks == [(2, n + 1, n + 1)]


def test_prepared_pinned_scores_refuse_states_the_closed_form_cannot_take(monkeypatch):
    # the closed form reads five entries of each state: a prepared pinned
    # score refuses, before any point, a stack with an imaginary part, one
    # that is not exchangeable in modes 2..N and one with vacuum-excitation
    # coherence; a joint score takes any state through the kernel
    n = 3
    # full rank, so that every edit below keeps a valid state
    base = 0.5 * lossy_w_state(n, 0.5).matrix + 0.5 * np.eye(n + 1) / (n + 1)
    complex_coherence, unequal, vacuum_coherent = base.copy(), base.copy(), base.copy()
    complex_coherence[1, 2:] += 0.01j
    complex_coherence[2:, 1] -= 0.01j
    unequal[2, 2] += 0.01
    unequal[3, 3] -= 0.01
    vacuum_coherent[0, 1:] = vacuum_coherent[1:, 0] = 0.01
    for rho in (base, complex_coherence, unequal, vacuum_coherent):
        SubspaceState(n, rho)
        monkeypatch.setattr(
            optimize, "_lossy_rhos", lambda n, etas, width, rho=rho: np.stack([rho] * len(etas))
        )
        for prepare in (_bell_scores, _crossing_scores):
            for shared in (True, False):
                spec = OptimizationSpec(n, 0.2, shared_amplitudes=shared)
                if rho is base:
                    prepare(spec)
                else:
                    with pytest.raises(ConsistencyError, match="exchangeable"):
                        prepare(spec)
            prepare(OptimizationSpec(n, 0.2, **JOINT))


def test_per_party_oracle_is_the_former_search():
    # the 2N-coordinate oracle reproduces the former per-party N=2 pin,
    # with its 646 evaluations: the search it replaced, bit for bit
    spec = OptimizationSpec(2, 0.1, restarts=2, **PINNED)
    best_s, amplitudes, evaluations = per_party_search(spec)
    assert (best_s, *amplitudes[0], evaluations) == (
        1.3414668556192062, -0.16466983545403946, 0.5622310753631863, 646
    )


@pytest.mark.parametrize("width", [0.3, 0.9, 1.5])
def test_party_one_pair_matches_per_party_oracle(width):
    # at N=3 party 1's pair beside one pair for parties 2 and 3 reaches the
    # optimum of the search that gives every party its own pair
    spec = OptimizationSpec(3, width, shared_amplitudes=False, restarts=3, **PINNED)
    report = maximize_bell(spec)
    oracle, _, _ = per_party_search(spec)
    assert abs(report.best_s - oracle) <= 1e-9
    first, *rest = report.party_amplitudes
    assert (report.r, report.r_prime) == first and rest == [rest[0]] * 2


@pytest.mark.parametrize("n", [4, 9])
def test_party_one_pair_is_never_below_the_shared_search(n):
    # the lifted shared optimum starts one walker, so the four-coordinate
    # search ends at or above the shared one
    for width in (0.0, 0.6, 1.2):
        spec = OptimizationSpec(n, width, restarts=2, **PINNED)
        shared = maximize_bell(spec)
        report = maximize_bell(replace(spec, shared_amplitudes=False))
        assert report.best_s >= shared.best_s - 1e-12, width
        assert report.evaluations > shared.evaluations


def test_party_one_pair_gains_over_the_shared_optimum():
    # at N=9 and width 1.2 party 1's own pair is worth 0.0078 over the
    # shared optimum of 1.06583 at the default restarts
    report = maximize_bell(OptimizationSpec(9, 1.2, shared_amplitudes=False, **PINNED))
    assert report.best_s >= 1.0736


def test_pinned_party_one_step_makes_one_exchangeable_call_of_2n_rows(monkeypatch):
    # a pinned search, shared or with party 1's own pair, builds no
    # complex settings and makes no kernel call: each score call is one
    # closed-form call over its points' settings and their sums and
    # differences, 2N distinct correlators and 2N class values per point
    n = 9
    calls = []
    closed_form = optimize._exchangeable_closed_form

    def counted(constants, n_parties, first, rest):
        values = closed_form(constants, n_parties, first, rest)
        calls.append(rest.shape[1:-1])
        assert values.shape == (len(constants),) + rest.shape[1:-1] + (n_parties, 2)
        return values

    def refused(*_args):
        raise AssertionError("a pinned search built complex settings or called the kernel")

    monkeypatch.setattr(optimize, "_exchangeable_closed_form", counted)
    for module in (fock_core, optimize):
        monkeypatch.setattr(module, "displacement_matrices", refused)
    monkeypatch.setattr(fock_core, "_correlator_values", refused)
    for shared in (True, False):
        spec = OptimizationSpec(n, 0.6, shared_amplitudes=shared, restarts=2, **PINNED)
        score = _bell_scores(spec)
        _, cloud = _search_box(spec)
        assert optimize._amplitude_pairs(spec, cloud).shape == (len(cloud), 1 if shared else 2, 2)
        calls.clear()
        score(cloud)
        assert calls == [(2, len(cloud))]
        calls.clear()
        report = maximize_bell(spec)
        assert all(rows == 2 for rows, _ in calls)
        assert sum(points for _, points in calls) >= report.evaluations
    calls.clear()
    threshold_efficiency(n, 0.2, tolerance=1e-3, restarts=1)
    assert calls


def test_single_party_keeps_two_coordinates():
    # one party has no parties 2..N: both modes search the same (r, r')
    spec = OptimizationSpec(1, 0.3, shared_amplitudes=False, restarts=2, **PINNED)
    assert _search_dims(spec) == (2, 0)
    report = maximize_bell(spec)
    shared = maximize_bell(replace(spec, shared_amplitudes=True))
    assert report.best_s == shared.best_s
    assert report.party_amplitudes == ((report.r, report.r_prime),)


def assert_same_descent(ours, oracle):
    # the walker's end state equals SciPy's, bit for bit
    assert np.array_equal(ours.x, oracle.x)
    assert ours.fun == oracle.fun
    assert ours.success == oracle.success
    assert ours.nfev == oracle.nfev


@pytest.mark.parametrize(
    "spec, score",
    [
        (OptimizationSpec(2, 0.2, restarts=3, **PINNED), _bell_scores),
        (OptimizationSpec(3, 0.25, efficiency=0.93, restarts=2, **JOINT), _bell_scores),
        (OptimizationSpec(2, 0.1, shared_amplitudes=False, restarts=2, **JOINT), _bell_scores),
        (OptimizationSpec(3, 0.1, shared_amplitudes=False, restarts=2, **PINNED), _bell_scores),
        (OptimizationSpec(2, 0.0, restarts=2, tolerance=1e-12, **PINNED), _bell_scores),
        (OptimizationSpec(2, 0.2, restarts=3, tolerance=1e-4, **PINNED), _crossing_scores),
        (OptimizationSpec(4, 0.2, restarts=2, tolerance=1e-4, **PINNED), _crossing_scores),
    ],
)
def test_lockstep_search_equals_scipy_search(spec, score):
    # pinned, joint, per-party and threshold searches: the lockstep
    # walkers end where SciPy's one-point loop ends, with its counts
    ours, evaluations = _search(spec, score(spec))
    oracle, oracle_evaluations = scipy_search(spec, score(spec))
    assert_same_descent(ours, oracle)
    assert evaluations == oracle_evaluations


def walk_alone(spec, scores, x0, max_evals):
    """One walker through the lockstep driver, SciPy's descent, and the block sizes.

    ``scores`` is a score factory such as ``_bell_scores``.
    """
    (lower, upper), _ = _search_box(spec)
    score = scores(spec)
    sizes = []

    def recorded(points):
        sizes.append(len(points))
        return score(points)

    walker = _nelder_mead(x0, lower, upper, spec.tolerance, max_evals)
    (ours,) = _lockstep(spec, recorded, [walker])
    oracle = scipy_simplex(
        lambda x: score(x[None])[0], x0, lower, upper, spec.tolerance, max_evals
    )
    return ours, oracle, sizes


@pytest.mark.parametrize("score", [_bell_scores, _crossing_scores])
def test_walker_start_on_the_upper_bound(score):
    # the 5% step off r = 3 leaves the box and is reflected into it
    spec = OptimizationSpec(2, 0.2, optimize_phases=False)
    (lower, upper), _ = _search_box(spec)
    x0 = np.array([3.0, -0.5])
    first = next(_nelder_mead(x0, lower, upper, spec.tolerance, 800))
    assert first[1, 0] == 2 * 3.0 - 1.05 * 3.0
    ours, oracle, _ = walk_alone(spec, score, x0, 800)
    assert_same_descent(ours, oracle)
    assert ours.success


def test_walker_shrinks_and_stops_at_evaluation_caps():
    # joint N=2 from the best cloud point: 3 coordinates, so a shrink is
    # the one 3-point block.  Its third shrink starts after 16 points;
    # cap 17 stops it after the first moved vertex, which beats the old
    # best, and cap 18 after the second.  Caps 3 and 5 stop the initial
    # simplex and the first iteration's second call.
    spec = OptimizationSpec(2, 0.2, **JOINT)
    _, cloud = _search_box(spec)
    x0 = cloud[0]
    full, oracle, sizes = walk_alone(spec, _bell_scores, x0, 1200)
    assert_same_descent(full, oracle)
    assert full.success and sizes.count(3) >= 3
    capped = {}
    for cap in (3, 5, 16, 17, 18):
        capped[cap], oracle, _ = walk_alone(spec, _bell_scores, x0, cap)
        assert_same_descent(capped[cap], oracle)
        assert not capped[cap].success and capped[cap].nfev == cap
    assert capped[17].fun < capped[16].fun
    assert not np.array_equal(capped[17].x, capped[16].x)


def test_lockstep_scores_every_walker_in_one_call(monkeypatch):
    # each step scores the pending block of every live walker together,
    # four candidates per iteration: at most one call per two points used
    calls = []

    def counted(spec):
        score = _bell_scores(spec)

        def recorded(points):
            calls.append(len(points))
            return score(points)

        return recorded

    monkeypatch.setattr(optimize, "_bell_scores", counted)
    report = maximize_bell(OptimizationSpec(2, 0.2, optimize_phases=False, restarts=2))
    assert report.evaluations == 220
    assert len(calls) <= report.evaluations // 2
    assert calls[1] == 2 * 3  # both initial simplices in one call


def test_lockstep_calls_stay_within_the_scan_size(monkeypatch):
    # with many restarts the first round alone holds restarts x (dims + 1)
    # points; the driver scores them in slices no larger than the cloud
    # scan, the call a caller sizes with _scan_table_count, and the walk
    # still ends where SciPy's ends
    spec = OptimizationSpec(2, 0.2, restarts=40, **PINNED)
    calls = []
    score = _bell_scores(spec)

    def counted(points):
        calls.append(len(points))
        return score(points)

    ours, evaluations = _search(spec, counted)
    assert max(calls) == _scan_points(spec) < spec.restarts * 3
    oracle, oracle_evaluations = scipy_search(spec, score)
    assert_same_descent(ours, oracle)
    assert evaluations == oracle_evaluations


def test_halton_cloud_equals_scipy():
    # the start cloud must not move: scipy's unscrambled Halton points,
    # bit for bit, at every search dimension up to 40
    from scipy.stats import qmc

    for d in range(1, 41):
        for n in (1, max(64, 24 * d)):
            expected = qmc.Halton(d=d, scramble=False).random(n)
            assert np.array_equal(_halton(n, d), expected), (d, n)


def test_scan_table_count_sizes_the_cloud_scan(monkeypatch):
    # the count a caller checks before a search sizes the tables the
    # search's first scoring call builds: 2^N entries each for a joint
    # search, and for a pinned one, which builds no table, 2N distinct
    # correlators and 2N class values each
    import photonbell.optimize as optimize

    class Scanned(Exception):
        pass

    prepare = optimize._point_tables
    sizes = []
    checked = []

    def first_call(search, *args):
        tables_at = prepare(search, *args)
        if search.shared_amplitudes and not checked[-1].shared_amplitudes:
            return tables_at  # the shared search a per-party one runs first

        def scanned(points):
            values, transformed = tables_at(points)
            assert transformed.size == values.size
            sizes.append(values.size)
            raise Scanned

        return scanned

    monkeypatch.setattr(optimize, "_point_tables", first_call)
    specs = (
        OptimizationSpec(2, 0.2, optimize_phases=False),
        OptimizationSpec(3, 0.2, **JOINT),
        OptimizationSpec(5, 0.2, restarts=200, **JOINT),
        OptimizationSpec(2, 0.2, shared_amplitudes=False, **JOINT),
    )
    for spec in specs:
        checked.append(spec)
        n = spec.n_parties
        with pytest.raises(Scanned):
            maximize_bell(spec)
        entries = 2**n if spec.optimize_phases else 2 * n
        assert sizes.pop() == _scan_table_count(spec) * entries, spec
        if spec.shared_amplitudes:
            # a threshold always searches the pinned coordinates
            with pytest.raises(Scanned):
                threshold_efficiency(n, spec.width, restarts=spec.restarts)
            count = _scan_table_count(replace(spec, optimize_phases=False), threshold=True)
            assert sizes.pop() == count * 2 * n, spec


def test_report_json_dict():
    report = OptimumReport(1.2, 0.1, -0.5, (0.0,), True, 10)
    payload = report.to_json_dict()
    assert payload["best_s"] == 1.2
    assert "party_amplitudes" not in payload
    with_parties = OptimumReport(
        1.2, 0.1, -0.5, (0.0,), True, 10, party_amplitudes=((0.1, -0.5), (0.2, 0.3))
    )
    assert with_parties.to_json_dict()["party_amplitudes"] == [[0.1, -0.5], [0.2, 0.3]]


def test_optimum_decreases_with_noise_and_loss():
    # ~2 s: six pinned optimizations
    by_width = [
        maximize_bell(OptimizationSpec(2, w, optimize_phases=False, restarts=4)).best_s
        for w in (0.0, 0.4, 0.9)
    ]
    assert by_width[0] >= by_width[1] - 1e-9 >= by_width[2] - 2e-9
    by_eta = [
        maximize_bell(
            OptimizationSpec(2, 0.2, efficiency=eta, optimize_phases=False, restarts=4)
        ).best_s
        for eta in (0.7, 0.85, 1.0)
    ]
    assert by_eta[0] <= by_eta[1] + 1e-9 <= by_eta[2] + 2e-9


def test_single_party_never_violates():
    report = maximize_bell(OptimizationSpec(1, 0.0, optimize_phases=False, restarts=2))
    assert report.best_s <= 1.0 + 1e-9


def test_threshold_efficiency_two_parties():
    # coarse bisection keeps this ~2 s
    out = threshold_efficiency(2, 0.0, tolerance=0.02, restarts=4)
    assert out.violable
    assert 0.78 < out.efficiency < 0.89
    single = threshold_efficiency(1, 0.0, tolerance=0.02, restarts=2)
    assert not single.violable
    assert single.efficiency == 1.0
    for tolerance in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            threshold_efficiency(2, 0.0, tolerance=tolerance)


def _bell_value_on_grid(a, b, etas):
    return np.abs(a[:, None, :] + etas[None, :, None] * b[:, None, :]).sum(axis=-1)


def test_crossing_walk_matches_dense_grid():
    rng = np.random.default_rng(41)
    rows, size = 40, 16
    a = rng.normal(size=(rows, size))
    b = rng.normal(size=(rows, size))
    # degenerate rows: exact zeros in a and b, S(0) = 1 exactly, tied breakpoints
    a[0, :4] = 0.0
    b[1, :4] = 0.0
    a[2, 1:] = 0.0
    a[3, 1], b[3, 1] = a[3, 0], b[3, 0]
    a *= rng.uniform(0.2, 1.0, (rows, 1)) / np.abs(a).sum(axis=1, keepdims=True)
    a[2] /= np.abs(a[2]).sum()
    b *= rng.uniform(0.005, 0.1, (rows, 1))
    eta = _crossing_efficiency(a.copy(), b.copy())
    level = 1.0 + VIOLATION_ROUNDOFF
    grid = np.linspace(0.0, 1.0, 20_001)
    values = _bell_value_on_grid(a, b, grid)
    violates = values[:, -1] > level
    assert 5 < violates.sum() < rows - 5
    step = grid[1]
    for i in range(rows):
        if violates[i]:
            root = grid[np.argmax(values[i] > level)]
            assert root - step <= eta[i] <= root + 1e-12
            assert 0.0 <= eta[i] < 1.0
            at_root = np.abs(a[i] + eta[i] * b[i]).sum()
            assert abs(at_root - level) < 1e-12
        else:
            assert abs(eta[i] - (1.0 + level - values[i, -1])) < 1e-12
            assert eta[i] >= 1.0


@pytest.mark.parametrize(
    "spec",
    [
        OptimizationSpec(2, 0.2, optimize_phases=False),
        OptimizationSpec(3, 0.3, optimize_phases=True),
        OptimizationSpec(3, 0.1, optimize_phases=True, shared_amplitudes=False),
        OptimizationSpec(5, 0.15, optimize_phases=True),
    ],
)
def test_affine_transform_matches_bell_value(spec):
    rng = np.random.default_rng(7)
    n = spec.n_parties
    _, cloud = _search_box(spec)
    # the three lowest-scoring cloud points (violating ones where any
    # exist) and three random ones
    crossing = _crossing_scores(spec)
    pick = np.argsort(crossing(cloud))
    points = cloud[np.concatenate((pick[:3], rng.choice(pick[3:], 3, replace=False)))]
    amplitudes, centers = _point_parameters(spec, points)
    eta_star = crossing(points)
    assert eta_star.min() < 1.0 < eta_star.max()

    def table(i, eta):
        points = slice(i, i + 1)
        (tables,) = per_call_averaged_tables(
            n, amplitudes[points], centers[points], spec.width, (eta,)
        )
        return tables[0]

    for i in range(len(points)):
        a = _walsh_hadamard(table(i, 0.0)) / 2**n
        b = _walsh_hadamard(table(i, 1.0)) / 2**n - a
        for eta in rng.uniform(0.0, 1.0, 4):
            exact = wwzb_value(CorrelatorTable(n, table(i, eta))).s_value
            assert abs(np.abs(a + eta * b).sum() - exact) < 1e-12
        if eta_star[i] < 1.0:
            at_star = wwzb_value(CorrelatorTable(n, table(i, eta_star[i]))).s_value
            assert abs(at_star - (1.0 + VIOLATION_ROUNDOFF)) < 1e-12
        else:
            lossless = wwzb_value(CorrelatorTable(n, table(i, 1.0))).s_value
            assert abs(eta_star[i] - (2.0 + VIOLATION_ROUNDOFF - lossless)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 9])
def test_stacked_efficiencies_match_one_efficiency_calls(n):
    # the tables of (0, 1) in one call equal two one-efficiency calls, bit
    # for bit, on the exchangeable route and on the all-entries route
    rng = np.random.default_rng(n)
    amplitudes = rng.uniform(-1.0, 1.0, (4, 1, 2)).repeat(n, axis=1)
    amplitudes[2:, 1:] = rng.uniform(-1.0, 1.0, (2, n - 1, 2))
    centers = np.zeros((4, n - 1))
    centers[1::2] = rng.uniform(0.0, TWO_PI, (2, n - 1))
    for points in (slice(0, 1), slice(1, 4)):
        args = (amplitudes[points], centers[points])
        both = prepared_tables(n, 0.3, (0.0, 1.0), *args)
        assert np.array_equal(both[0], prepared_tables(n, 0.3, (0.0,), *args)[0])
        assert np.array_equal(both[1], prepared_tables(n, 0.3, (1.0,), *args)[0])


@pytest.mark.parametrize("n", range(1, 10))
def test_averaged_tables_match_dressed_observable_oracle(n):
    # frame noise in the state (plain settings at the centers against the
    # dephased state) equals frame noise in the observables: bit for bit at
    # width 0, to rounding above it.  Points: shared amplitudes and then
    # per-party ones, each with zero, equal and distinct centers, so both
    # routes run.
    rng = np.random.default_rng(60 + n)
    amplitudes = np.concatenate(
        (
            rng.uniform(-1.5, 1.5, (3, 1, 2)).repeat(n, axis=1),
            rng.uniform(-1.5, 1.5, (3, n, 2)),
        )
    )
    centers = np.zeros((6, n - 1))
    centers[1::3] = rng.uniform(0.0, TWO_PI, (2, 1))
    centers[2::3] = rng.uniform(0.0, TWO_PI, (2, n - 1))
    for width in (0.0, 0.2, 0.7, 1.5):
        for efficiencies in ((0.0, 1.0), (0.9,)):
            tables = prepared_tables(n, width, efficiencies, amplitudes, centers)
            oracle = dressed_averaged_tables(n, amplitudes, centers, width, efficiencies)
            if width == 0.0:
                assert np.array_equal(tables, oracle)
            else:
                assert np.max(np.abs(tables - oracle)) <= 1e-15, (width, efficiencies)
            # the per-call builder the prepared one replaced, bit for bit
            per_call = per_call_averaged_tables(n, amplitudes, centers, width, efficiencies)
            assert np.array_equal(tables, per_call)
        # every point alone has its bits in the batch (tables is at 0.9)
        for i in range(len(amplitudes)):
            points = slice(i, i + 1)
            alone = per_call_averaged_tables(n, amplitudes[points], centers[points], width, (0.9,))
            assert np.array_equal(alone[0, 0], tables[0, i])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frame_averaged_state_matches_sampled_frames(n):
    # the frame map against the physics it encodes: conjugating the state
    # by U(Delta) = diag(1, 1, exp(i Delta_1), ...) for sampled offsets and
    # averaging must give the dephased state, within 5 sigma per entry
    rng = np.random.default_rng(70 + n)
    count = 20_000
    freqs = _offset_frequencies(n)
    assert freqs.shape == (n + 1, n + 1, n - 1)
    for width in (0.3, 1.1):
        offsets = sample_offsets(PhaseModel((0.0,) * (n - 1), width), n, count)
        frames = np.ones((count, n + 1), dtype=complex)
        frames[:, 2:] = np.exp(1j * offsets)
        damping = np.exp(-0.5 * width * width * np.sum(freqs * freqs, axis=-1))
        rho = random_state(rng, n).matrix
        for rho, averaged in (
            (rho, rho * damping),
            (lossy_w_state(n, 0.8).matrix, _lossy_rhos(n, (0.8,), width)[0]),
        ):
            samples = frames.conj()[:, :, None] * rho * frames[:, None, :]
            # the slack covers the rounding of 2e4-term sums on entries
            # that do not rotate, where sigma is zero
            sigma = samples.std(axis=0) / np.sqrt(count)
            assert np.all(np.abs(samples.mean(axis=0) - averaged) <= 5.0 * sigma + 1e-12)
    # dephasing keeps a state a state, at any width
    rho = random_state(rng, n).matrix
    for width in np.linspace(0.0, 3.0, 7):
        damping = np.exp(-0.5 * width * width * np.sum(freqs * freqs, axis=-1))
        SubspaceState(n, rho * damping)
        for averaged in _lossy_rhos(n, (0.0, 0.8, 1.0), float(width)):
            SubspaceState(n, averaged)


def test_threshold_score_makes_one_kernel_call_per_route(monkeypatch):
    # a crossing score contracts the eta = 0 and eta = 1 states as one
    # stack: one exchangeable-route call and one 2^N-row walk for a batch
    # that holds both kinds of points
    calls = []
    exchangeable_values = fock_core._exchangeable_values
    walked_values = fock_core._walked_values

    def exchangeable(terms, pairs):
        calls.append(("exchangeable", terms.states.shape))
        return exchangeable_values(terms, pairs)

    def walked(terms, pairs):
        calls.append(("walked", terms.states.shape))
        return walked_values(terms, pairs)

    monkeypatch.setattr(fock_core, "_exchangeable_values", exchangeable)
    monkeypatch.setattr(fock_core, "_walked_values", walked)
    spec = OptimizationSpec(3, 0.2, **JOINT)
    _crossing_scores(spec)(np.array([[0.3, -0.6, 0.0, 0.0], [0.3, -0.6, 0.5, 1.0]]))
    assert sorted(calls) == [("exchangeable", (2, 4, 4)), ("walked", (2, 4, 4))]


def test_violating_vacuum_raises(monkeypatch):
    # a vacuum table that violates means the tables are broken: feed the
    # lossless state in place of the vacuum
    lossless = lossy_w_state(2, 1.0).matrix
    monkeypatch.setattr(
        "photonbell.optimize._lossy_rhos",
        lambda n, etas, width: np.stack([lossless] * len(etas)),
    )
    spec = OptimizationSpec(2, 0.0, optimize_phases=False)
    with pytest.raises(ConsistencyError, match=r"n_parties=2, width=0\.0, search"):
        _crossing_scores(spec)(np.array([[0.15, -0.55]]))
    with pytest.raises(ConsistencyError):
        threshold_efficiency(2, 0.0, tolerance=0.02, restarts=1)


def test_bell_scores_reject_out_of_range_tables(monkeypatch):
    # the batched scores keep the [-1, 1] range check of CorrelatorTable,
    # for every row of the batch: on a pinned point's 2N distinct
    # correlators (E, P, N, 2), which hold every entry of its table, and
    # on a joint point's table (E, P, 2^N).  A pinned point's class values
    # T(r_1, u), sums of 2^N signed entries, are not range-checked
    for spec in (OptimizationSpec(3, 0.0), OptimizationSpec(3, 0.0, **JOINT)):
        points = np.zeros((3, sum(_search_dims(spec))))
        good = np.full((1, 3) + ((8,) if spec.optimize_phases else (3, 2)), 0.5)
        classes = good if spec.optimize_phases else np.full((1, 3, 3, 2), 2.0)
        monkeypatch.setattr(
            "photonbell.optimize._point_tables", lambda *a: lambda points: (good, classes)
        )
        expected = -0.5 if spec.optimize_phases else -2.0 * 2 * (1 + 2 + 1) / 2**3
        assert np.all(_bell_scores(spec)(points) == expected)
        for bad in (1.0 + 1e-8, -1.0 - 1e-8, np.nan):
            values = good.copy()
            values.reshape(-1)[-1] = bad
            monkeypatch.setattr(
                "photonbell.optimize._point_tables", lambda *a: lambda points: (values, classes)
            )
            with pytest.raises(ValueError, match=r"\[-1, 1\]"):
                _bell_scores(spec)(points)


@pytest.mark.parametrize("n_parties, width", [(1, 0.0), (2, 0.0), (2, 0.2), (4, 0.2)])
def test_threshold_matches_bisection_oracle(n_parties, width):
    oracle_tolerance = 0.01
    oracle = bisect_threshold(n_parties, width, oracle_tolerance, restarts=4)
    exact = threshold_efficiency(n_parties, width, tolerance=1e-4, restarts=4)
    assert exact.violable == oracle.violable == (n_parties > 1)
    assert abs(exact.efficiency - oracle.efficiency) <= oracle_tolerance


def test_certainty_frontier_small_cases():
    # ~2 s.  With two pairs a frame offset a quarter turn from both pair
    # phases defeats the optimal settings, so no width is certain; three
    # pairs cover the circle and stay certain past the probe cap.
    out = certainty_frontier(
        2, 1.0, (2, 3), grid_density=360, width_tolerance=0.05, width_max=0.5, restarts=4
    )
    assert out[0][0] == 2 and np.isnan(out[0][1])
    assert out[1] == (3, 0.5)


def test_certainty_frontier_searches_each_width_once(monkeypatch):
    # two pair counts that both bisect share the widths they probe: one
    # search per distinct width, and each count's width as its own call gives
    kwargs = dict(grid_density=360, width_tolerance=0.05, restarts=1)
    widths, search = [], optimize.maximize_bell

    def counted(spec):
        widths.append(spec.width)
        return search(spec)

    monkeypatch.setattr(optimize, "maximize_bell", counted)
    alone, probed = [], set()
    for pair_count in (4, 8):
        widths.clear()
        alone += certainty_frontier(2, 0.95, [pair_count], **kwargs)
        probed.update(widths)
    widths.clear()
    both = certainty_frontier(2, 0.95, [4, 8], **kwargs)
    assert both == alone
    assert not any(np.isnan(width) for _, width in both)
    assert sorted(widths) == sorted(probed)


def test_certainty_frontier_stays_within_width_max(monkeypatch):
    # the first probe is min(0.2, width_max), so no probed or reported
    # width exceeds a width_max below 0.2 (a first probe at 0.2 reported
    # 0.125 here)
    widths, search = [], optimize.maximize_bell

    def counted(spec):
        widths.append(spec.width)
        return search(spec)

    monkeypatch.setattr(optimize, "maximize_bell", counted)
    kwargs = dict(grid_density=360, width_tolerance=0.01, restarts=1)
    ((pairs, width),) = certainty_frontier(2, 0.87, [6], width_max=0.1, **kwargs)
    assert pairs == 6 and 0.0 <= width <= 0.1
    assert max(widths) <= 0.1
    widths.clear()
    ((_, width),) = certainty_frontier(2, 0.87, [6], width_max=0.15, **kwargs)
    assert 0.0 <= width <= 0.15 and max(widths) <= 0.15


def test_certainty_frontier_vacuum_is_never_certain():
    # ~1.5 s.  At transmission 0 the state is the vacuum, a product state;
    # the optimizer's pair there gives best-pair values that round to
    # 1 + 2.2e-16 on every frame, which is no violation.
    for n_parties in (2, 3):
        out = certainty_frontier(n_parties, 0.0, [1, 8], grid_density=360)
        assert [m for m, _ in out] == [1, 8]
        assert all(np.isnan(width) for _, width in out)


def test_certainty_frontier_rejects_pair_counts_before_any_search(monkeypatch):
    def no_search(_spec):
        raise AssertionError("maximize_bell ran before the pair counts were checked")

    monkeypatch.setattr("photonbell.optimize.maximize_bell", no_search)
    # an integral float such as 2.0 is a whole pair count (see
    # test_counts_must_be_whole_numbers); booleans and NaN are not
    for bad in ([0], [-1], [2, 0], [1.5], [True], [np.nan]):
        with pytest.raises(ValueError, match="pair counts? must be"):
            certainty_frontier(2, 0.9, bad)


def test_certainty_frontier_validation(monkeypatch):
    def no_search(_spec):
        raise AssertionError("maximize_bell ran before the arguments were checked")

    monkeypatch.setattr("photonbell.optimize.maximize_bell", no_search)
    # a fractional density is no uniform circle grid: 360.5 would give 361
    # centers spaced 2 pi / 360.5
    for bad in (100, 360.5, np.nan):
        with pytest.raises(ValueError, match="grid_density"):
            certainty_frontier(2, 1.0, (2,), grid_density=bad)
    with pytest.raises(ValueError):
        certainty_frontier(4, 1.0, (2,))
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            certainty_frontier(2, 1.0, (2,), width_tolerance=bad)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            certainty_frontier(2, 1.0, (3,), grid_density=360, width_max=bad)
