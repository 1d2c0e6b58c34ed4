"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  Each test prints its measured numbers, shown with ``-s``
or on failure.  The suite re-derives every expected value independently
(closed forms, brute-force contractions, Monte Carlo) rather than
comparing against stored outputs.
"""

import time

import numpy as np
from scipy.integrate import quad

from helpers import (
    complex_entries,
    correlator_bruteforce,
    projective_observable,
    random_settings,
    random_state,
    sample_offsets,
    setting_matrices,
    wrapped_gaussian_pdf,
)
from photonbell import (
    CorrelatorTable,
    OptimizationSpec,
    PhaseModel,
    bell_value_averaged,
    certainty_frontier,
    chsh_horodecki,
    frame_averaged_table,
    lossy_w_state,
    maximize_bell,
    pair_symbolic_tables,
    paired_strategy,
    threshold_efficiency,
    two_setting_strategy,
    violation_distribution,
    w_state,
    wwzb_value,
    wwzb_value_naive,
)
from photonbell.fock_core import correlator_batch, displacement_matrices

TWO_PI = 2.0 * np.pi


def test_criterion_01_correlator_matches_bruteforce():
    # 200 random states and settings across 2..6 parties, against the
    # direct tensor-product contraction
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(2, 7))
        state = random_state(rng, n)
        mats = setting_matrices(random_settings(rng, n))
        fast = correlator_batch(state.matrix, mats)
        slow = correlator_bruteforce(state.matrix, mats)
        worst = max(worst, abs(fast - slow))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max |fast - bruteforce| = {worst:.3e} in {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 30.0


def test_criterion_02_two_party_correlator_closed_forms():
    # photon counting (setting 0) and displacement r (setting 1) on the
    # two-mode single-photon state, against the known closed forms
    r = 0.6
    e = np.exp(-(r**2))
    state = w_state(2)
    worst = 0.0
    for phi in np.linspace(0.0, TWO_PI, 100):
        strat = two_setting_strategy(2, 0.0, r, phases=(phi, 0.0))
        vals = frame_averaged_table(state, strat, PhaseModel((0.0,), 0.0)).values
        expected = (
            -1.0,
            -e * (1 - r**2),
            -e * (1 - r**2),
            1 - 2 * e * (1 + r**2) + 4 * e**2 * r**2 * (1 + np.cos(phi)),
        )
        worst = max(worst, max(abs(v - w) for v, w in zip(vals, expected)))
    print(f"criterion 2: max formula deviation = {worst:.3e}")
    assert worst < 1e-12


def test_criterion_03_small_amplitude_expansion():
    # frame-averaged Bell value of the vacuum-probe pair approaches
    # 1 + q r^2 (|cos| + cos) with error within 10 r^4
    worst_ratio = 0.0
    for r in (0.02, 0.05):
        strat = two_setting_strategy(2, 0.0, r)
        for width in (0.0, 0.4, 0.9):
            q = np.exp(-0.5 * width**2)
            for x in np.linspace(0.0, TWO_PI, 73):
                exact = bell_value_averaged(w_state(2), strat, PhaseModel((x,), width)).s_value
                approx = 1 + q * r**2 * (abs(np.cos(x)) + np.cos(x))
                error = abs(exact - approx)
                worst_ratio = max(worst_ratio, error / r**4)
                assert error <= 10 * r**4
    print(f"criterion 3: worst error / r^4 = {worst_ratio:.2f} (bound 10)")


def test_criterion_04_noise_damping_factor():
    # first circular moment of the wrapped Gaussian
    worst = 0.0
    for width in (0.2, 0.9, 1.5):
        for center in (0.0, 1.1, np.pi, 4.4):
            value, _ = quad(
                lambda p: wrapped_gaussian_pdf(p, center, width) * np.cos(p),
                0.0,
                TWO_PI,
            )
            expected = np.exp(-0.5 * width**2) * np.cos(center)
            worst = max(worst, abs(value - expected))
    print(f"criterion 4: max moment deviation = {worst:.3e}")
    assert worst < 1e-9


def test_criterion_05_two_party_noiseless_optimum():
    start = time.perf_counter()
    pinned = maximize_bell(OptimizationSpec(2, 0.0, optimize_phases=False))
    joint = maximize_bell(OptimizationSpec(2, 0.0, optimize_phases=True))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 5: pinned {pinned.best_s:.6f}, joint {joint.best_s:.6f} "
        f"in {elapsed:.1f}s"
    )
    for report in (pinned, joint):
        assert abs(report.best_s - 1.34) < 0.01
        assert report.best_s <= np.sqrt(2.0) + 1e-9
    assert elapsed < 60.0


def test_criterion_06_more_parties_help_noise_hurts():
    width = 0.2
    s_values = {}
    thresholds = {}
    for n in (2, 4, 9):
        s_values[n] = maximize_bell(
            OptimizationSpec(n, width, optimize_phases=False)
        ).best_s
        thresholds[n] = threshold_efficiency(n, width, tolerance=2e-3).efficiency
    print(f"criterion 6: s_max {s_values}, eta_threshold {thresholds}")
    assert s_values[9] > s_values[4] > s_values[2] > 1.0
    assert thresholds[9] < thresholds[4] < thresholds[2] < 1.0
    by_width = [
        maximize_bell(OptimizationSpec(2, w, optimize_phases=False, restarts=6)).best_s
        for w in (0.0, 0.3, 0.6, 0.9, 1.2)
    ]
    print(f"criterion 6: s_max over widths {np.round(by_width, 6)}")
    assert all(a >= b - 1e-9 for a, b in zip(by_width, by_width[1:]))


def test_criterion_07_five_pairs_make_violation_certain():
    # noise width 0.4, transmission 0.9: with five stepped setting pairs
    # the violation holds for every frame, with one pair only sometimes
    start = time.perf_counter()
    width, eta = 0.4, 0.9
    report = maximize_bell(
        OptimizationSpec(2, width, efficiency=eta, optimize_phases=False)
    )
    amps = (report.r, report.r_prime)
    state = lossy_w_state(2, eta)
    grid = (np.arange(720) * (TWO_PI / 720))[:, None]
    from photonbell import best_pair_values_over_centers

    mins = {}
    for m in (1, 5):
        tables = pair_symbolic_tables(state, paired_strategy(2, *amps, m))
        mins[m] = best_pair_values_over_centers(tables, grid, width).min()
    hist5 = violation_distribution(2, amps, width, eta, 5, 10_000, seed=2024)
    hist1 = violation_distribution(2, amps, width, eta, 1, 10_000, seed=2024)
    mode = int(np.argmax(hist5.counts))
    mode_center = 0.5 * (hist5.bin_edges[mode] + hist5.bin_edges[mode + 1])
    quartile_cut = hist5.min_s + 0.75 * (hist5.max_s - hist5.min_s)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 7: grid mins {mins}, fractions m=5 "
        f"{hist5.fraction_violating} m=1 {hist1.fraction_violating}, mode "
        f"{mode_center:.5f} vs cut {quartile_cut:.5f}, {elapsed:.1f}s"
    )
    assert mins[5] > 1.0
    assert mins[1] < 1.0
    assert hist5.fraction_violating == 1.0
    assert 0.0 < hist1.fraction_violating < 1.0
    assert mode_center > quartile_cut
    assert elapsed < 300.0


def test_criterion_08_certainty_frontier_eight_pairs():
    out = certainty_frontier(2, 0.9, (8,))
    print(f"criterion 8: frontier {out}")
    m, frontier = out[0]
    assert m == 8
    assert abs(frontier - 0.7) <= 0.05


def test_criterion_09_benchmark_qubit_state_stays_local():
    # mixing the one-excitation Bell state (2/3) with vacuum (1/3):
    # CHSH reach from the correlation matrix, against an in-test rebuild
    psi = np.zeros(4)
    psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
    rho = (2.0 / 3.0) * np.outer(psi, psi)
    rho[0, 0] += 1.0 / 3.0
    value = chsh_horodecki(rho)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    paulis = (sx, sy, sz)
    t_matrix = np.array(
        [
            [np.trace(rho @ np.kron(a, b)).real for b in paulis]
            for a in paulis
        ]
    )
    eigs = np.sort(np.linalg.eigvalsh(t_matrix.T @ t_matrix))
    rebuild = 2.0 * np.sqrt(eigs[-1] + eigs[-2])
    print(f"criterion 9: chsh = {value!r}, rebuild = {rebuild!r}")
    assert abs(value - rebuild) < 1e-12
    assert abs(value - 2.0 * np.sqrt(8.0 / 9.0)) < 1e-12
    assert value < 2.0


def test_criterion_10_property_checks():
    rng = np.random.default_rng(99)
    # (a) fast Bell transform agrees with the direct sum
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        table = CorrelatorTable(n, rng.uniform(-1.0, 1.0, 2**n))
        worst = max(worst, abs(wwzb_value(table).s_value - wwzb_value_naive(table).s_value))
    assert worst < 1e-12
    # (b) deterministic product strategies reach exactly 1
    for n in range(1, 5):
        signs = rng.choice([-1.0, 1.0], size=(n, 2))
        table = np.ones(2**n)
        for index in range(2**n):
            for p in range(n):
                table[index] *= signs[p][(index >> p) & 1]
        assert wwzb_value(CorrelatorTable(n, table)).s_value == 1.0
    # (c) the state route's analytic frame average against the Monte Carlo
    # mean of the symbolic rows over sampled frames
    state = random_state(rng, 3)
    strat = two_setting_strategy(3, *rng.uniform(-1.0, 1.0, 2), rng.uniform(0.0, TWO_PI, 3))
    model = PhaseModel((0.8, 2.3), 0.6)
    exact = frame_averaged_table(state, strat, model).values
    draws = sample_offsets(model, rng_seed=4, count=100_000)
    samples = complex_entries(pair_symbolic_tables(state, strat)[0], draws).real
    sigma = samples.std(axis=0) / np.sqrt(draws.shape[0])
    mc_gap = np.max(np.abs(samples.mean(axis=0) - exact) / sigma)
    assert mc_gap < 4.0
    # (d) projective observables approach scaled displacements cubically
    thetas = np.logspace(-2.5, -1.0, 7)
    residues = []
    for theta in thetas:
        proj = 2.0 * projective_observable(theta, 0.7)
        residues.append(np.linalg.norm(proj - displacement_matrices(theta / 2.0, 0.7)))
    slope = np.polyfit(np.log(thetas), np.log(residues), 1)[0]
    print(
        f"criterion 10: transform gap {worst:.2e}, largest MC gap "
        f"{mc_gap:.2f} sigma (bound 4), residue slope {slope:.3f}"
    )
    assert 2.8 < slope < 3.2

