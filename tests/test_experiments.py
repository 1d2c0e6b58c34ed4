"""Measurement strategies, offset-symbolic correlators, and frame scans."""

import numpy as np
import pytest

from helpers import (
    complex_entries,
    complex_frame_scan,
    random_state,
    symbolic_rows_per_component,
)
from photonbell import (
    DisplacementSetting,
    MeasurementStrategy,
    PhaseModel,
    SymbolicCorrelatorTable,
    best_pair_bell_value,
    best_pair_values_over_centers,
    bell_value_averaged,
    bell_value_static,
    correlator,
    correlator_bruteforce,
    displacement_observable,
    averaged_correlator_table,
    lossy_w_state,
    pair_setting_indices,
    pair_symbolic_tables,
    paired_strategy,
    symbolic_correlators,
    two_setting_strategy,
    violation_distribution,
    w_state,
    wwzb_value,
)
import photonbell.experiments as experiments
from photonbell.experiments import FRAME_SCAN_CHUNK_ELEMENTS
from photonbell.fock_core import (
    check_observable_matrices,
    correlator_tables,
    displacement_matrices,
)
from photonbell.wwzb import VIOLATION_ROUNDOFF

TWO_PI = 2.0 * np.pi


def phase_gap(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def test_two_setting_strategy_signed_amplitudes():
    strat = two_setting_strategy(3, 0.2, -0.5, phases=(0.0, 1.0, 2.0))
    assert strat.n_parties == 3
    for party, phi in zip(strat.settings, (0.0, 1.0, 2.0)):
        assert party[0].amplitude == 0.2 and abs(party[0].phase - phi) < 1e-12
        # the negative amplitude is stored as |r| with the phase advanced by pi
        assert party[1].amplitude == 0.5
        assert phase_gap(party[1].phase, phi + np.pi) < 1e-12
    with pytest.raises(ValueError):
        two_setting_strategy(3, 0.2, 0.5, phases=(0.0, 1.0))


def test_paired_strategy_stepping():
    strat = paired_strategy(2, 0.1, -0.6, 4, phases=(0.3, 0.0))
    assert strat.pair_count == 4
    assert len(strat.settings[0]) == 8
    assert len(strat.settings[1]) == 2
    for j in range(4):
        step = j * TWO_PI / 4
        assert phase_gap(strat.settings[0][2 * j].phase, 0.3 + step) < 1e-12
        assert phase_gap(strat.settings[0][2 * j + 1].phase, 0.3 + np.pi + step) < 1e-12
    with pytest.raises(ValueError):
        paired_strategy(2, 0.1, 0.6, 0)


def test_strategy_validation():
    with pytest.raises(ValueError):
        MeasurementStrategy(())
    with pytest.raises(ValueError):
        MeasurementStrategy(((),))
    with pytest.raises(ValueError):
        MeasurementStrategy((("nope",),))
    ok = DisplacementSetting(0.5, 0.0)
    with pytest.raises(ValueError):
        MeasurementStrategy(((ok, ok),), pair_count=0)
    # wrong phase step across pairs
    bad = (ok, ok, DisplacementSetting(0.5, 0.1), DisplacementSetting(0.5, np.pi))
    with pytest.raises(ValueError):
        MeasurementStrategy((bad,), pair_count=2)
    # wrong amplitude across pairs
    bad = (ok, ok, DisplacementSetting(0.4, np.pi), DisplacementSetting(0.5, np.pi))
    with pytest.raises(ValueError):
        MeasurementStrategy((bad,), pair_count=2)
    # wrong settings count for the declared pairs
    with pytest.raises(ValueError):
        MeasurementStrategy(((ok, ok),), pair_count=2)


def test_symbolic_table_matches_shifted_settings():
    # evaluating the symbolic table at offsets Delta must equal the plain
    # correlator with party k >= 2's phases shifted by Delta_{k-1}, and the
    # tensor-product oracle, which shares no code with the kernel behind
    # both (~1 s for the 12 cases)
    rng = np.random.default_rng(42)
    for n in (2, 3, 4):
        for _ in range(4):
            state = random_state(rng, n)
            r0, r1 = rng.uniform(-1.0, 1.0, 2)
            phases = rng.uniform(0.0, TWO_PI, n)
            offsets = rng.uniform(0.0, TWO_PI, n - 1)
            strat = two_setting_strategy(n, r0, r1, phases)
            table = symbolic_correlators(state, strat).evaluate(offsets)
            shifted = [
                tuple(
                    DisplacementSetting(s.amplitude, s.phase + (offsets[k - 1] if k else 0.0))
                    for s in party
                )
                for k, party in enumerate(strat.settings)
            ]
            for index in range(2**n):
                chosen = [
                    displacement_observable(shifted[p][(index >> p) & 1])
                    for p in range(n)
                ]
                direct = correlator(state, chosen)
                assert abs(table.values[index] - direct) < 1e-12
                dense = correlator_bruteforce(state, chosen)
                assert abs(table.values[index] - dense) < 1e-12


def offset_basis(n: int) -> list:
    """0, +-e_k and +-(e_j - e_k) over the N-1 offsets, sorted."""
    eye = np.eye(n - 1, dtype=int)
    vectors = {(0,) * (n - 1)}
    vectors |= {tuple(s * row) for row in eye for s in (1, -1)}
    vectors |= {tuple(a - b) for a in eye for b in eye if tuple(a) != tuple(b)}
    return sorted(vectors)


def test_pair_tables_equal_per_pair_tables(monkeypatch):
    # the one batched build of all pair tables must give exactly the rows of
    # building each pair's table alone, in one kernel-table call with the
    # 1 + N(N-1) components of the state stacked, over the half basis: one
    # n of each pair +-n of the 1 + N(N-1) frequencies, first nonzero entry
    # positive, sorted; its frame scan is as large as a caller counts
    # beforehand; random states carry vacuum-excitation coherences
    calls = []

    def counted(rho, pairs):
        calls.append((rho.shape, len(pairs)))
        return correlator_tables(rho, pairs)

    monkeypatch.setattr(experiments, "correlator_tables", counted)
    rng = np.random.default_rng(31)
    for n, pair_count in ((1, 2), (2, 3), (3, 4), (4, 2)):
        state = random_state(rng, n)
        assert np.abs(state.matrix[0, 1:]).min() > 0.0
        r0, r1 = rng.uniform(-1.0, 1.0, 2)
        strat = paired_strategy(n, r0, r1, pair_count, rng.uniform(0.0, TWO_PI, n))
        calls.clear()
        tables = pair_symbolic_tables(state, strat)
        assert calls == [((1 + n * (n - 1), n + 1, n + 1), pair_count)]
        assert len(tables) == pair_count
        basis = offset_basis(n)
        half = [key for key in basis if any(key) and key[np.flatnonzero(key)[0]] > 0]
        assert len(half) == n * (n - 1) // 2 and len(basis) == 1 + 2 * len(half)
        assert experiments._half_basis(n).tolist() == [list(key) for key in half]
        _, scan = experiments._frame_scan_coefficients(tables, 0.3)
        assert scan.size == experiments._frame_scan_row_count(n, pair_count) * 2**n
        for j, table in enumerate(tables):
            alone = symbolic_correlators(state, strat, pair_setting_indices(strat, j))
            assert table.n_parties == alone.n_parties == n
            assert table.coeffs.shape == (len(basis), 2**n)
            assert table.coeffs.dtype == float
            assert np.array_equal(table.coeffs, alone.coeffs)
            assert not table.coeffs.flags.writeable


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_symbolic_rows_match_per_component_oracle(n):
    # the stacked build equals one kernel call per Hermitian component, bit
    # for bit, on random states with vacuum-excitation coherences and on
    # lossy W states
    rng = np.random.default_rng(70 + n)
    for state in (random_state(rng, n), random_state(rng, n), lossy_w_state(n, 0.8)):
        strat = paired_strategy(n, *rng.uniform(-1.0, 1.0, 2), 3, rng.uniform(0.0, TWO_PI, n))
        index_sets = [pair_setting_indices(strat, j) for j in range(3)]
        rows = symbolic_rows_per_component(state, strat, index_sets)
        tables = pair_symbolic_tables(state, strat)
        assert np.array_equal(np.stack([t.coeffs for t in tables], axis=1), rows)


def test_pair_tables_build_each_setting_once(monkeypatch):
    # party 1's 2m settings and the two settings of each other party are
    # each built once per call, not once per pair, and validated in one
    # batch; each pair table equals the table of a strategy that holds only
    # that pair
    built = []
    checks = []

    def counted(amplitudes, phases):
        built.extend(zip(amplitudes, phases))
        return displacement_matrices(amplitudes, phases)

    def checked(matrices):
        checks.append(len(matrices))
        return check_observable_matrices(matrices)

    monkeypatch.setattr(experiments, "displacement_matrices", counted)
    monkeypatch.setattr(experiments, "check_observable_matrices", checked)
    for n, m in ((1, 3), (2, 8), (3, 5), (4, 2)):
        state = lossy_w_state(n, 0.9)
        strat = paired_strategy(n, 0.12, -0.5, m)
        built.clear()
        checks.clear()
        tables = pair_symbolic_tables(state, strat)
        assert len(built) == 2 * m + 2 * (n - 1)
        assert checks == [len(built)]
        built.clear()
        checks.clear()
        symbolic_correlators(state, strat, pair_setting_indices(strat, m - 1))
        assert len(built) == 2 * n
        assert checks == [2 * n]
        first, *rest = strat.settings
        for j, table in enumerate(tables):
            alone = symbolic_correlators(
                state, MeasurementStrategy((first[2 * j : 2 * j + 2], *rest))
            )
            assert np.array_equal(table.coeffs, alone.coeffs)


def test_setting_matrices_match_displacement_observable(monkeypatch):
    # the one-array build gives every setting exactly the matrix of
    # displacement_observable, and the pair tables exactly the coefficients
    # of the setting-by-setting build
    rng = np.random.default_rng(41)
    settings = [
        DisplacementSetting(r, phi)
        for r, phi in zip(rng.uniform(0.0, 3.0, 200), rng.uniform(-10.0, 10.0, 200))
    ]
    batch = displacement_matrices([s.amplitude for s in settings], [s.phase for s in settings])
    assert batch.shape == (200, 2, 2)
    for setting, matrix in zip(settings, batch):
        assert np.array_equal(matrix, displacement_observable(setting).matrix)

    def one_by_one(strategy, index_sets):
        return np.array(
            [
                [
                    [displacement_observable(party[i]).matrix for i in pair]
                    for party, pair in zip(strategy.settings, indices)
                ]
                for indices in index_sets
            ]
        )

    for n, m in ((1, 2), (2, 8), (3, 5), (4, 2)):
        state = random_state(rng, n)
        r0, r1 = rng.uniform(-1.5, 1.5, 2)
        strat = paired_strategy(n, r0, r1, m, rng.uniform(0.0, TWO_PI, n))
        index_sets = [pair_setting_indices(strat, j) for j in range(m)]
        assert np.array_equal(
            experiments._setting_pairs(strat, index_sets), one_by_one(strat, index_sets)
        )
        tables = pair_symbolic_tables(state, strat)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_setting_pairs", one_by_one)
            reference = pair_symbolic_tables(state, strat)
        for table, expected in zip(tables, reference):
            assert np.array_equal(table.coeffs, expected.coeffs)


def test_symbolic_tables_match_complex_oracle():
    # evaluate and averaged against the complex +-n terms c_0 = a_0,
    # c_+-n = (A_n -+ i B_n) / 2, each term damped by exp(-w^2 |n|^2 / 2)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4, 5):
        for state in (random_state(rng, n), lossy_w_state(n, 0.8)):
            r0, r1 = rng.uniform(-1.0, 1.0, 2)
            strat = two_setting_strategy(n, r0, r1, rng.uniform(0.0, TWO_PI, n))
            table = symbolic_correlators(state, strat)
            offsets = rng.uniform(0.0, TWO_PI, n - 1)
            static = complex_entries(table, offsets)
            assert np.max(np.abs(table.evaluate(offsets).values - static.real)) <= 1e-15
            model = PhaseModel(tuple(offsets), rng.uniform(0.0, 1.2))
            average = complex_entries(table, model.centers, model.width)
            assert np.max(np.abs(table.averaged(model).values - average.real)) <= 1e-15


def test_zero_width_average_is_evaluation():
    # one row product serves both: width 0 reproduces evaluate bit for bit
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 4):
        table = symbolic_correlators(random_state(rng, n), two_setting_strategy(n, 0.3, -0.6))
        centers = rng.uniform(0.0, TWO_PI, n - 1)
        averaged = table.averaged(PhaseModel(tuple(centers), 0.0))
        assert np.array_equal(averaged.values, table.evaluate(centers).values)


def test_symbolic_evaluation_validation():
    state = w_state(3)
    strat = two_setting_strategy(3, 0.1, -0.4)
    table = symbolic_correlators(state, strat)
    with pytest.raises(ValueError, match="relative phases"):
        table.averaged(PhaseModel((0.1,), 0.3))
    # non-finite offsets are refused before any arithmetic, so no numpy
    # warning escapes (warnings are errors in this suite)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="offsets must be finite"):
            bell_value_static(state, strat, [bad, 0.0])
    # offsets must be one vector of N-1 entries
    for shape in ((1,), (3,), (1, 2), (2, 2), ()):
        with pytest.raises(ValueError, match="length 2"):
            bell_value_static(state, strat, np.zeros(shape))
    paired = paired_strategy(3, 0.1, -0.4, 3)
    with pytest.raises(ValueError, match="offsets must be finite"):
        best_pair_bell_value(state, paired, offsets=[0.2, np.nan])
    with pytest.raises(ValueError, match="length 2"):
        best_pair_bell_value(state, paired, offsets=np.zeros((4, 2)))
    # a single party has no offsets: the empty vector is its one frame
    single = symbolic_correlators(w_state(1), two_setting_strategy(1, 0.1, -0.4))
    assert np.array_equal(single.evaluate([]).values, single.coeffs[0])


def test_two_party_correlators_closed_form():
    # photon counting paired with a displaced setting of amplitude r
    r = 0.6
    state = w_state(2)
    e = np.exp(-(r**2))
    for phi in np.linspace(0.0, TWO_PI, 100):
        strat = two_setting_strategy(2, 0.0, r, phases=(phi, 0.0))
        vals = symbolic_correlators(state, strat).evaluate(np.zeros(1)).values
        assert abs(vals[0] - (-1.0)) < 1e-12
        assert abs(vals[1] - (-e * (1 - r**2))) < 1e-12
        assert abs(vals[2] - (-e * (1 - r**2))) < 1e-12
        both = 1 - 2 * e * (1 + r**2) + 4 * e**2 * r**2 * (1 + np.cos(phi))
        assert abs(vals[3] - both) < 1e-12


def test_averaged_table_matches_symbolic_route():
    # the frame-averaged-state shortcut must agree with averaging the
    # symbolic polynomials entry by entry, shared and per-party alike
    rng = np.random.default_rng(7)
    cases = [
        (2, 0.3, -0.7, 1.0),
        (3, -0.2, 0.55, 0.9),
        (3, (0.1, -0.4, 0.8), (0.5, 0.2, -0.3), 0.75),
        (4, 0.16, -0.56, 0.85),
    ]
    for n, r0, r1, eta in cases:
        centers = tuple(rng.uniform(0.0, TWO_PI, n - 1))
        width = rng.uniform(0.0, 1.0)
        fast = averaged_correlator_table(n, r0, r1, centers, width, eta)
        r0s = np.broadcast_to(np.asarray(r0, dtype=float), (n,))
        r1s = np.broadcast_to(np.asarray(r1, dtype=float), (n,))
        parties = tuple(
            (
                DisplacementSetting.from_signed(r0s[k]),
                DisplacementSetting.from_signed(r1s[k]),
            )
            for k in range(n)
        )
        strat = MeasurementStrategy(parties)
        table = symbolic_correlators(lossy_w_state(n, eta), strat)
        slow = table.averaged(PhaseModel(centers, width))
        assert np.max(np.abs(fast - slow.values)) < 1e-12


def test_averaged_table_shared_centers_fast_path():
    # equal centers trigger the exchangeable-party shortcut; spot-check it
    fast = averaged_correlator_table(4, 0.2, -0.5, (1.1, 1.1, 1.1), 0.4, 0.9)
    general = averaged_correlator_table(4, 0.2, -0.5, (1.1, 1.1, 1.1 + 1e-13), 0.4, 0.9)
    assert np.max(np.abs(fast - general)) < 1e-9


def test_averaged_table_validation():
    good = averaged_correlator_table(3, 0.2, -0.5, (0.4, 0.1), 0.3, 0.9)
    assert good.shape == (8,) and np.all(np.isfinite(good))
    for centers in ((np.nan, 0.1), (np.inf, 0.1), (0.4, -np.inf), (0.4,), (0.4, 0.1, 0.2)):
        with pytest.raises(ValueError):
            averaged_correlator_table(3, 0.2, -0.5, centers, 0.3, 0.9)
    for width in (-0.3, np.inf, np.nan):
        with pytest.raises(ValueError):
            averaged_correlator_table(3, 0.2, -0.5, (0.4, 0.1), width, 0.9)
    for r0 in (np.nan, (0.2, np.inf, 0.1), (0.2, 0.1)):
        with pytest.raises(ValueError):
            averaged_correlator_table(3, r0, -0.5, (0.4, 0.1), 0.3, 0.9)
    for eta in (-0.1, 1.2, np.nan):
        with pytest.raises(ValueError):
            averaged_correlator_table(3, 0.2, -0.5, (0.4, 0.1), 0.3, eta)
    with pytest.raises(ValueError, match="n_parties must be >= 1"):
        averaged_correlator_table(0, 0.1, 0.2, (), 0.0, 1.0)


def test_correlators_affine_in_efficiency():
    centers = (0.8, 2.2)
    lossless = averaged_correlator_table(3, 0.1, -0.5, centers, 0.3, 1.0)
    vacuum = averaged_correlator_table(3, 0.1, -0.5, centers, 0.3, 0.0)
    for eta in (0.25, 0.6, 0.85):
        mixed = averaged_correlator_table(3, 0.1, -0.5, centers, 0.3, eta)
        assert np.max(np.abs(mixed - (eta * lossless + (1 - eta) * vacuum))) < 1e-12


def test_bell_value_wrappers():
    state = w_state(2)
    strat = two_setting_strategy(2, 0.0, 0.5)
    static = bell_value_static(state, strat, np.zeros(1))
    table = symbolic_correlators(state, strat).evaluate(np.zeros(1))
    assert static.s_value == wwzb_value(table).s_value
    averaged = bell_value_averaged(state, strat, PhaseModel((0.0,), 0.3))
    assert averaged.s_value <= static.s_value + 1e-12


def test_pair_setting_indices():
    strat = paired_strategy(3, 0.0, 0.4, 3)
    assert pair_setting_indices(strat, 1) == [(2, 3), (0, 1), (0, 1)]
    with pytest.raises(ValueError):
        pair_setting_indices(strat, 3)
    with pytest.raises(ValueError):
        pair_setting_indices(two_setting_strategy(2, 0.0, 0.4), 0)


def test_best_pair_matches_manual_maximum():
    state = lossy_w_state(2, 0.92)
    strat = paired_strategy(2, 0.1, -0.55, 3)
    tables = pair_symbolic_tables(state, strat)
    model = PhaseModel((2.5,), 0.35)
    result, pair = best_pair_bell_value(state, strat, model=model)
    manual = [wwzb_value(t.averaged(model)).s_value for t in tables]
    assert result.s_value == max(manual)
    assert pair == int(np.argmax(manual))
    offsets = np.array([1.2])
    result_o, pair_o = best_pair_bell_value(state, strat, offsets=offsets)
    manual_o = [wwzb_value(t.evaluate(offsets)).s_value for t in tables]
    assert result_o.s_value == max(manual_o)
    assert pair_o == int(np.argmax(manual_o))
    with pytest.raises(ValueError):
        best_pair_bell_value(state, strat)
    with pytest.raises(ValueError):
        best_pair_bell_value(state, strat, model=model, offsets=offsets)


def test_best_pair_tie_goes_to_lowest_index():
    # zero amplitudes make every pair photon counting, an exact tie
    state = w_state(2)
    strat = paired_strategy(2, 0.0, 0.0, 4)
    _, pair = best_pair_bell_value(state, strat, offsets=np.array([0.7]))
    assert pair == 0


def test_batched_centers_match_looped_calls():
    state = lossy_w_state(3, 0.9)
    strat = paired_strategy(3, 0.12, -0.5, 3)
    tables = pair_symbolic_tables(state, strat)
    rng = np.random.default_rng(19)
    centers = rng.uniform(0.0, TWO_PI, (8, 2))
    width = 0.3
    batch = best_pair_values_over_centers(tables, centers, width)
    assert batch.shape == (8,)
    for row, value in zip(centers, batch):
        looped, _ = best_pair_bell_value(
            state, strat, model=PhaseModel(tuple(row), width)
        )
        assert abs(value - looped.s_value) < 1e-12


def test_batched_centers_span_several_chunks():
    # 64 table entries per center, so a chunk holds budget // 64 centers;
    # 2.5 chunks leaves a partial last one
    state = lossy_w_state(3, 0.9)
    strat = paired_strategy(3, 0.12, -0.5, 8)
    tables = pair_symbolic_tables(state, strat)
    chunk = FRAME_SCAN_CHUNK_ELEMENTS // 64
    count = 2 * chunk + chunk // 2
    centers = np.random.default_rng(23).uniform(0.0, TWO_PI, (count, 2))
    width = 0.35
    batch = best_pair_values_over_centers(tables, centers, width)
    assert batch.shape == (count,)
    # complex oracle over every center
    assert np.max(np.abs(batch - complex_frame_scan(tables, centers, width))) < 1e-12
    # per-center oracle at the chunk boundaries and the tail
    for i in (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, count - 1):
        slow, _ = best_pair_bell_value(
            state, strat, model=PhaseModel(tuple(centers[i]), width)
        )
        assert abs(batch[i] - slow.s_value) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_scan_matches_complex_oracle(monkeypatch, n):
    # the cosine/sine scan equals the complex exp(i C F^T) route for several
    # pair counts, over chunks of a few centers with a partial last one
    monkeypatch.setattr(experiments, "FRAME_SCAN_CHUNK_ELEMENTS", 2**9)
    rng = np.random.default_rng(60 + n)
    for pair_count in (1, 2, 5):
        state = random_state(rng, n)
        r0, r1 = rng.uniform(-1.0, 1.0, 2)
        strat = paired_strategy(n, r0, r1, pair_count, rng.uniform(0.0, TWO_PI, n))
        tables = pair_symbolic_tables(state, strat)
        chunk = 2**9 // max(1 + n * (n - 1), pair_count * 2**n)
        centers = rng.uniform(-TWO_PI, 2 * TWO_PI, (3 * chunk + 2, n - 1))
        for width in (0.0, 0.45):
            fast = best_pair_values_over_centers(tables, centers, width)
            slow = complex_frame_scan(tables, centers, width)
            assert fast.shape == slow.shape == (len(centers),)
            assert np.max(np.abs(fast - slow)) <= 1e-13


def test_batched_centers_edge_shapes():
    state = w_state(2)
    strat = paired_strategy(2, 0.1, -0.5, 3)
    tables = pair_symbolic_tables(state, strat)
    assert best_pair_values_over_centers(tables, np.empty((0, 1)), 0.2).shape == (0,)
    # a single 1-D row is one center
    one = best_pair_values_over_centers(tables, [0.7], 0.2)
    slow, _ = best_pair_bell_value(state, strat, model=PhaseModel((0.7,), 0.2))
    assert one.shape == (1,)
    assert abs(one[0] - slow.s_value) < 1e-12
    # a single party has no offset slots: every center gives the constant value
    single = paired_strategy(1, 0.2, -0.4, 2)
    tables1 = pair_symbolic_tables(w_state(1), single)
    values = best_pair_values_over_centers(tables1, np.empty((3, 0)), 0.5)
    const, _ = best_pair_bell_value(w_state(1), single, model=PhaseModel((), 0.5))
    assert values.shape == (3,)
    assert np.all(np.abs(values - const.s_value) < 1e-12)


def test_batched_centers_validation():
    tables = pair_symbolic_tables(w_state(2), paired_strategy(2, 0.1, -0.5, 2))
    for bad in ([[np.nan], [0.3]], [[0.3], [np.inf]], [[-np.inf]]):
        with pytest.raises(ValueError):
            best_pair_values_over_centers(tables, bad, 0.2)
    for width in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            best_pair_values_over_centers(tables, [[0.3]], width)
    with pytest.raises(ValueError):
        best_pair_values_over_centers(tables, [[0.3, 0.4]], 0.2)


def test_batched_centers_reject_mixed_tables():
    # every table of one scan must share the party count
    two = pair_symbolic_tables(w_state(2), paired_strategy(2, 0.1, -0.5, 2))
    three = pair_symbolic_tables(w_state(3), paired_strategy(3, 0.1, -0.5, 2))
    with pytest.raises(ValueError, match="party count"):
        best_pair_values_over_centers([two[0], three[0]], [[0.3]], 0.2)


def test_more_pairs_never_lower_the_best_value():
    # the m-pair phases are a subset of the 2m-pair phases
    state = w_state(2)
    grid = np.linspace(0.0, TWO_PI, 97)[:, None]
    values = {}
    for m in (2, 4):
        tables = pair_symbolic_tables(state, paired_strategy(2, 0.1, -0.5, m))
        values[m] = best_pair_values_over_centers(tables, grid, 0.2)
    assert np.all(values[4] >= values[2] - 1e-12)


def test_small_amplitude_pairs_lose_nowhere():
    # two stepped pairs of (0, r) settings at tiny r: the grid minimum sits
    # exactly at S = 1, reached only where the frame offset makes both
    # pair phases orthogonal to the offset (indices 180 and 540 of 720)
    r = 0.05
    tables = pair_symbolic_tables(w_state(2), paired_strategy(2, 0.0, r, 2))
    grid = (np.arange(720) * (TWO_PI / 720))[:, None]
    s = best_pair_values_over_centers(tables, grid, 0.0)
    assert s.min() >= 1.0 - 1e-12
    equal = np.flatnonzero(np.abs(s - 1.0) <= 1e-12)
    assert set(equal.tolist()) == {180, 540}
    assert np.all(s[np.setdiff1d(np.arange(720), equal)] > 1.0 + 1e-12)


def test_zero_amplitude_pair_value_closed_form():
    # independent oracle for the (0, r) two-setting scheme:
    # S(x) = 1 + 2 e^{-r^2} r^2 max(0, e^{-r^2} (1 + q cos x) - 1),
    # q = exp(-width^2 / 2)
    state = w_state(2)
    for r in (0.05, 0.3, 0.8):
        strat = two_setting_strategy(2, 0.0, r)
        table = symbolic_correlators(state, strat)
        e = np.exp(-(r**2))
        for width in (0.0, 0.4, 0.9):
            q = np.exp(-0.5 * width**2)
            for x in np.linspace(0.0, TWO_PI, 29):
                got = wwzb_value(table.averaged(PhaseModel((x,), width))).s_value
                want = 1 + 2 * e * r**2 * max(0.0, e * (1 + q * np.cos(x)) - 1)
                assert abs(got - want) < 1e-13


def test_symbolic_table_validation():
    # two parties hold 3 rows of 4 entries: a wrong row count, entry count
    # or rank is refused
    for coeffs in (np.ones((1, 4)), np.ones((3, 2)), np.ones(12), np.ones((3, 4, 1))):
        with pytest.raises(ValueError, match="shape"):
            SymbolicCorrelatorTable(2, coeffs)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_parties"):
            SymbolicCorrelatorTable(n, np.ones((1, 1)))
    # non-finite and complex coefficients are refused at the boundary
    for bad in (np.nan, np.inf, -np.inf):
        coeffs = np.ones((3, 4))
        coeffs[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            SymbolicCorrelatorTable(2, coeffs)
    with pytest.raises(ValueError, match="real"):
        SymbolicCorrelatorTable(2, np.ones((3, 4), dtype=complex))
    # the array is copied and frozen
    coeffs = np.ones((3, 4))
    table = SymbolicCorrelatorTable(2, coeffs)
    coeffs[0, 0] = 7.0
    assert table.coeffs[0, 0] == 1.0
    with pytest.raises(ValueError):
        table.coeffs[0, 0] = 2.0
    assert SymbolicCorrelatorTable(1, [[1, -1]]).coeffs.dtype == float
    with pytest.raises(ValueError):
        symbolic_correlators(w_state(3), two_setting_strategy(2, 0.0, 0.4))
    with pytest.raises(ValueError):
        symbolic_correlators(
            w_state(2), two_setting_strategy(2, 0.0, 0.4), setting_indices=[(0, 1)]
        )
    # a setting index beyond a party's list
    with pytest.raises(ValueError):
        symbolic_correlators(
            w_state(2), two_setting_strategy(2, 0.0, 0.4), setting_indices=[(0, 2), (0, 1)]
        )


def test_violation_distribution_reproducible_and_matches_per_center_oracle():
    kwargs = dict(
        n_parties=2,
        amplitudes=(0.17, -0.56),
        width=0.4,
        efficiency=0.9,
        pair_count=2,
        n_samples=40,
        seed=99,
        n_bins=12,
    )
    a = violation_distribution(**kwargs)
    b = violation_distribution(**kwargs)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.bin_edges, b.bin_edges)
    assert a.fraction_violating == b.fraction_violating
    assert a.counts.sum() == 40
    assert 0.0 <= a.fraction_violating <= 1.0
    assert a.min_s <= a.max_s
    payload = a.to_json_dict()
    assert payload["n_samples"] == 40
    assert payload["metadata"]["pair_count"] == 2
    assert len(payload["counts"]) == len(payload["bin_edges"]) - 1

    # the per-center oracle on the same seeded centers
    state = lossy_w_state(2, 0.9)
    strat = paired_strategy(2, 0.17, -0.56, 2)
    centers = np.random.default_rng(99).uniform(0.0, TWO_PI, size=(40, 1))
    slow = np.array(
        [
            best_pair_bell_value(state, strat, model=PhaseModel(tuple(row), 0.4))[0].s_value
            for row in centers
        ]
    )
    fast = best_pair_values_over_centers(pair_symbolic_tables(state, strat), centers, 0.4)
    assert np.max(np.abs(fast - slow)) < 1e-12
    assert np.array_equal(np.histogram(fast, bins=a.bin_edges)[0], a.counts)
    assert abs(a.min_s - slow.min()) < 1e-12
    assert abs(a.max_s - slow.max()) < 1e-12
    assert abs(a.fraction_violating - np.count_nonzero(slow > 1.0) / 40) < 1e-12


def test_vacuum_never_violates():
    # At transmission 0 the state is the vacuum, a product state.  With
    # this pair the best-pair value rounds to 1 + 2.2e-16 on every frame,
    # which must not count as a violation.
    for n_parties in (2, 3):
        hist = violation_distribution(n_parties, (0.0, -0.405), 0.0, 0.0, 1, 50, seed=1)
        assert hist.max_s <= 1.0 + VIOLATION_ROUNDOFF
        assert hist.fraction_violating == 0.0


def test_violation_distribution_validation():
    with pytest.raises(ValueError):
        violation_distribution(2, (0.1, 0.5), 0.4, 0.9, 2, 0, seed=1)
    with pytest.raises(ValueError):
        violation_distribution(2, (0.1, 0.5), 0.4, 0.9, 2, 10, seed=1, n_bins=0)
