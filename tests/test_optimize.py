"""Bell-value maximization, loss thresholds, and certainty frontiers."""

import numpy as np
import pytest

from photonbell import (
    OptimizationSpec,
    OptimumReport,
    certainty_frontier,
    maximize_bell,
    threshold_efficiency,
)
from photonbell.optimize import (
    AMPLITUDE_BOUNDS,
    _objective,
    _scan_scores,
    _search_box,
)

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
        OptimizationSpec(2, 0.0, amplitude_bounds=(1.0, 1.0))
    with pytest.raises(ValueError):
        OptimizationSpec(2, 0.0, amplitude_bounds=(0.0, np.inf))
    with pytest.raises(ValueError):
        OptimizationSpec(2, 0.0, restarts=0)
    with pytest.raises(ValueError):
        OptimizationSpec(2, 0.0, tolerance=0.0)


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
    # the start order is a stable argsort of these scores, so the batched
    # scan must reproduce the one-point objective bit for bit; the joint
    # cloud's first point has equal centers and takes the exchangeable route
    _, cloud = _search_box(spec)
    scores = _scan_scores(spec, cloud)
    assert scores.shape == (len(cloud),)
    for x, score in zip(cloud, scores):
        assert score == _objective(spec, x)


def test_evaluation_counts_unchanged():
    # objective-call counts of these searches before the batched scan
    pinned = maximize_bell(OptimizationSpec(2, 0.2, optimize_phases=False, restarts=2))
    assert pinned.evaluations == 220
    joint = maximize_bell(
        OptimizationSpec(3, 0.25, efficiency=0.93, optimize_phases=True, restarts=1)
    )
    assert joint.evaluations == 338


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


def test_amplitude_bounds_are_respected():
    tight = maximize_bell(
        OptimizationSpec(
            2, 0.0, optimize_phases=False, amplitude_bounds=(-0.3, 0.3), restarts=4
        )
    )
    assert abs(tight.r) <= 0.3 + 1e-9
    assert abs(tight.r_prime) <= 0.3 + 1e-9
    free = maximize_bell(OptimizationSpec(2, 0.0, optimize_phases=False, restarts=4))
    assert tight.best_s <= free.best_s + 1e-9
    assert AMPLITUDE_BOUNDS == (-3.0, 3.0)


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
    with pytest.raises(ValueError):
        threshold_efficiency(2, 0.0, tolerance=0.0)


def test_certainty_frontier_small_cases():
    # ~2 s.  With two pairs a frame offset a quarter turn from both pair
    # phases defeats the optimal settings, so no width is certain; three
    # pairs cover the circle and stay certain past the probe cap.
    out = certainty_frontier(
        2, 1.0, (2, 3), grid_density=360, width_tolerance=0.05, width_max=0.5, restarts=4
    )
    assert out[0][0] == 2 and np.isnan(out[0][1])
    assert out[1] == (3, 0.5)


def test_certainty_frontier_validation():
    with pytest.raises(ValueError):
        certainty_frontier(2, 1.0, (2,), grid_density=100)
    with pytest.raises(ValueError):
        certainty_frontier(4, 1.0, (2,))
    with pytest.raises(ValueError):
        certainty_frontier(2, 1.0, (2,), width_tolerance=0.0)
