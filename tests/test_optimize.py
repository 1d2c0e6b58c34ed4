"""Bell-value maximization, loss thresholds, and certainty frontiers."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import bisect_threshold, dressed_averaged_tables, random_state

from photonbell import (
    ConsistencyError,
    CorrelatorTable,
    OptimizationSpec,
    OptimumReport,
    PhaseModel,
    SubspaceState,
    averaged_correlator_table,
    certainty_frontier,
    lossy_w_state,
    maximize_bell,
    sample_offsets,
    threshold_efficiency,
    wwzb_value,
)
import photonbell.optimize as optimize
from photonbell.experiments import _offset_frequencies
from photonbell.fock_core import correlator_batch, correlator_tables
from photonbell.optimize import (
    VIOLATION_ROUNDOFF,
    _averaged_tables,
    _bell_scores,
    _crossing_efficiency,
    _crossing_scores,
    _halton,
    _lossy_rhos,
    _point_parameters,
    _search_box,
    _scan_table_count,
)
from photonbell.wwzb import _walsh_hadamard

TWO_PI = 2.0 * np.pi


def test_spec_validation():
    with pytest.raises(ValueError):
        OptimizationSpec(0, 0.0)
    with pytest.raises(ValueError):
        OptimizationSpec(2, -0.1)
    with pytest.raises(ValueError):
        OptimizationSpec(2, 0.0, efficiency=1.2)
    with pytest.raises(ValueError):
        OptimizationSpec(4, 0.0, shared_amplitudes=False)
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
    # scores one point per call, so the batched scores must equal the
    # one-point scores bit for bit; the joint cloud's first point has
    # equal centers and takes the exchangeable route
    _, cloud = _search_box(spec)
    scores = _bell_scores(spec, cloud)
    crossings = _crossing_scores(spec, cloud)
    assert scores.shape == crossings.shape == (len(cloud),)
    amplitudes, centers = _point_parameters(spec, cloud)
    for i, x in enumerate(cloud):
        assert scores[i] == _bell_scores(spec, x[None])[0]
        assert crossings[i] == _crossing_scores(spec, x[None])[0]
        table = averaged_correlator_table(
            spec.n_parties,
            amplitudes[i, :, 0],
            amplitudes[i, :, 1],
            centers[i],
            spec.width,
            spec.efficiency,
        )
        assert scores[i] == -wwzb_value(CorrelatorTable(spec.n_parties, table)).s_value


def test_evaluation_counts_unchanged():
    # objective-call counts of these searches before the batched scan
    pinned = maximize_bell(OptimizationSpec(2, 0.2, optimize_phases=False, restarts=2))
    assert pinned.evaluations == 220
    joint = maximize_bell(
        OptimizationSpec(3, 0.25, efficiency=0.93, optimize_phases=True, restarts=1)
    )
    assert joint.evaluations == 338


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
    # search's first scoring call builds
    import photonbell.optimize as optimize

    class Scanned(Exception):
        pass

    built = optimize._averaged_tables
    sizes = []

    def first_call(*args):
        sizes.append(built(*args).size)
        raise Scanned

    monkeypatch.setattr(optimize, "_averaged_tables", first_call)
    specs = (
        OptimizationSpec(2, 0.2, optimize_phases=False),
        OptimizationSpec(3, 0.2),
        OptimizationSpec(5, 0.2, restarts=200),
        OptimizationSpec(2, 0.2, shared_amplitudes=False),
    )
    for spec in specs:
        with pytest.raises(Scanned):
            maximize_bell(spec)
        assert sizes.pop() == _scan_table_count(spec) * 2**spec.n_parties, spec
        if spec.shared_amplitudes:
            # a threshold always searches the pinned coordinates
            with pytest.raises(Scanned):
                threshold_efficiency(spec.n_parties, spec.width, restarts=spec.restarts)
            count = _scan_table_count(replace(spec, optimize_phases=False), threshold=True)
            assert sizes.pop() == count * 2**spec.n_parties, spec


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
    pick = np.argsort(_crossing_scores(spec, cloud))
    points = cloud[np.concatenate((pick[:3], rng.choice(pick[3:], 3, replace=False)))]
    amplitudes, centers = _point_parameters(spec, points)
    eta_star = _crossing_scores(spec, points)
    assert eta_star.min() < 1.0 < eta_star.max()

    def table(i, eta):
        return averaged_correlator_table(
            n, amplitudes[i, :, 0], amplitudes[i, :, 1], centers[i], spec.width, eta
        )

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
        args = (n, amplitudes[points], centers[points], 0.3)
        both = _averaged_tables(*args, (0.0, 1.0))
        assert np.array_equal(both[0], _averaged_tables(*args, (0.0,))[0])
        assert np.array_equal(both[1], _averaged_tables(*args, (1.0,))[0])


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
            args = (n, amplitudes, centers, width, efficiencies)
            tables = _averaged_tables(*args)
            oracle = dressed_averaged_tables(*args)
            if width == 0.0:
                assert np.array_equal(tables, oracle)
            else:
                assert np.max(np.abs(tables - oracle)) <= 1e-15, (width, efficiencies)


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
    # stack: one exchangeable-route call and one table call for a batch
    # that holds both kinds of points
    calls = []

    def batch(rho, mats):
        calls.append(("batch", rho.shape))
        return correlator_batch(rho, mats)

    def tables(rho, pairs):
        calls.append(("tables", rho.shape))
        return correlator_tables(rho, pairs)

    monkeypatch.setattr(optimize, "correlator_batch", batch)
    monkeypatch.setattr(optimize, "correlator_tables", tables)
    spec = OptimizationSpec(3, 0.2)
    _crossing_scores(spec, np.array([[0.3, -0.6, 0.0, 0.0], [0.3, -0.6, 0.5, 1.0]]))
    assert sorted(calls) == [("batch", (2, 4, 4)), ("tables", (2, 4, 4))]


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
        _crossing_scores(spec, np.array([[0.15, -0.55]]))
    with pytest.raises(ConsistencyError):
        threshold_efficiency(2, 0.0, tolerance=0.02, restarts=1)


def test_bell_scores_reject_out_of_range_tables(monkeypatch):
    # the batched scores keep the [-1, 1] range check of CorrelatorTable,
    # for every row of the batch
    spec = OptimizationSpec(2, 0.0, optimize_phases=False)
    points = np.array([[0.15, -0.55], [0.1, 0.2], [0.3, -0.4]])
    good = np.full((1, 3, 4), 0.5)
    monkeypatch.setattr("photonbell.optimize._averaged_tables", lambda *a: good)
    assert np.all(_bell_scores(spec, points) == -0.5)
    for bad in (1.0 + 1e-8, -1.0 - 1e-8, np.nan):
        tables = good.copy()
        tables[0, 2, 3] = bad
        monkeypatch.setattr("photonbell.optimize._averaged_tables", lambda *a: tables)
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            _bell_scores(spec, points)


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
    for bad in ([0], [-1], [2, 0], [1.5], [2.0]):
        with pytest.raises(ValueError, match="pair counts must be integers >= 1"):
            certainty_frontier(2, 0.9, bad)


def test_certainty_frontier_validation():
    with pytest.raises(ValueError):
        certainty_frontier(2, 1.0, (2,), grid_density=100)
    with pytest.raises(ValueError):
        certainty_frontier(4, 1.0, (2,))
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            certainty_frontier(2, 1.0, (2,), width_tolerance=bad)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            certainty_frontier(2, 1.0, (3,), grid_density=360, width_max=bad)
