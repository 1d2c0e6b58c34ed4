"""Measurement strategies, offset-symbolic correlators, and frame scans."""

import json
import math

import numpy as np
import pytest

from helpers import (
    chunked_frame_scan,
    complex_entries,
    complex_frame_scan,
    correlator_bruteforce,
    half_basis_frame_scan,
    per_call_averaged_tables,
    per_party_strategy_rows,
    random_state,
    setting_matrices,
    sine_negated_after_tables,
    symbolic_rows_per_component,
)
from photonbell import (
    CorrelatorTable,
    MeasurementStrategy,
    OptimizationSpec,
    OptimumReport,
    PhaseModel,
    SubspaceState,
    certainty_frontier,
    maximize_bell,
    best_pair_bell_value,
    best_pair_values_over_centers,
    bell_value_averaged,
    averaged_correlator_table,
    frame_averaged_table,
    lossy_w_state,
    pair_symbolic_tables,
    paired_strategy,
    two_setting_strategy,
    violation_distribution,
    w_state,
    wwzb_value,
)
import photonbell.experiments as experiments
from photonbell.experiments import FRAME_SCAN_CHUNK_ELEMENTS
from photonbell.fock_core import (
    check_observable_matrices,
    correlator_batch,
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
        assert party[0, 0] == 0.2 and abs(party[0, 1] - phi) < 1e-12
        # the negative amplitude is stored as |r| with the phase advanced by pi
        assert party[1, 0] == 0.5
        assert phase_gap(party[1, 1], phi + np.pi) < 1e-12
    with pytest.raises(ValueError):
        two_setting_strategy(3, 0.2, 0.5, phases=(0.0, 1.0))


def test_paired_strategy_stepping():
    strat = paired_strategy(2, 0.1, -0.6, 4, phases=(0.3, 0.0))
    assert strat.pair_count == 4
    assert len(strat.settings[0]) == 8
    assert len(strat.settings[1]) == 2
    for j in range(4):
        step = j * TWO_PI / 4
        assert phase_gap(strat.settings[0][2 * j, 1], 0.3 + step) < 1e-12
        assert phase_gap(strat.settings[0][2 * j + 1, 1], 0.3 + np.pi + step) < 1e-12
    with pytest.raises(ValueError):
        paired_strategy(2, 0.1, 0.6, 0)


def test_strategy_validation():
    with pytest.raises(ValueError):
        MeasurementStrategy(())
    with pytest.raises(ValueError):
        MeasurementStrategy(((),))
    with pytest.raises(ValueError):
        MeasurementStrategy((("nope",),))
    ok = (0.5, 0.0)
    with pytest.raises(ValueError, match="pair_count must be >= 1"):
        MeasurementStrategy(((ok, ok),), pair_count=0)
    # wrong phase step across pairs
    bad = (ok, ok, (0.5, 0.1), (0.5, np.pi))
    with pytest.raises(ValueError, match="pair 1 slot 0 phase is not stepped"):
        MeasurementStrategy((bad,), pair_count=2)
    # wrong amplitude across pairs, reported before the phase of that slot
    bad = (ok, ok, (0.4, 0.1), (0.5, np.pi))
    with pytest.raises(ValueError, match="pair 1 slot 0 amplitude differs"):
        MeasurementStrategy((bad,), pair_count=2)
    bad = (ok, ok, (0.5, np.pi), (0.4, np.pi))
    with pytest.raises(ValueError, match="pair 1 slot 1 amplitude differs"):
        MeasurementStrategy((bad,), pair_count=2)
    # phases stepped by pi, up to the tolerance and across the wrap
    fine = (ok, (0.3, 6.0), (0.5, np.pi + 1e-10), (0.3, 6.0 + np.pi))
    assert MeasurementStrategy((fine,), pair_count=2).pair_count == 2
    # wrong settings count for the declared pairs, 2m and 2m +- 1 rows
    with pytest.raises(ValueError, match="party 1 needs 4 settings for 2 pairs, has 2"):
        MeasurementStrategy(((ok, ok),), pair_count=2)
    for rows in (3, 5):
        with pytest.raises(ValueError, match=f"party 1 needs 4 settings for 2 pairs, has {rows}"):
            MeasurementStrategy(((fine * 2)[:rows], (ok, ok)), pair_count=2)
    with pytest.raises(ValueError, match="party 1 needs 2 settings for 1 pairs, has 1"):
        MeasurementStrategy(((ok,), (ok, ok)))
    # every other party holds exactly two settings
    for rows in (1, 3):
        with pytest.raises(ValueError, match=f"party 3 needs 2 settings, has {rows}"):
            MeasurementStrategy(((ok, ok), (ok, ok), (ok,) * rows, (ok, ok)))
        with pytest.raises(ValueError, match=f"party 2 needs 2 settings, has {rows}"):
            MeasurementStrategy((fine, (ok,) * rows), pair_count=2)


@pytest.mark.parametrize("n", [1, 2, 5, 22])
def test_strategy_checks_all_parties_as_one_array(n):
    # every party's rows are checked and reduced as one array: the rows
    # keep the bits of the per-party loop, integer and float32 parties
    # included, and each party's rows are a read-only view.  A bad row at
    # the first, a middle or the last party gives the loop's message and
    # party number, and of a bad row and a bad shape the earlier party
    # is reported.
    rng = np.random.default_rng(70 + n)
    parties = [
        np.column_stack((rng.uniform(0.0, 2.0, 2), rng.uniform(-20.0, 20.0, 2))) for _ in range(n)
    ]
    parties[0] = np.array([[1, 7], [0, -3]])
    parties[-1] = parties[-1].astype(np.float32)
    settings = MeasurementStrategy(tuple(parties)).settings
    for rows, expected in zip(settings, per_party_strategy_rows(parties), strict=True):
        assert rows.dtype == float and np.array_equal(rows.view(np.int64), expected.view(np.int64))
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1.0
    finite = "settings must be finite with amplitude >= 0"
    for k in sorted({0, n // 2, n - 1}):
        for bad, message in (
            ([[0.1, 0.2, 0.3]], rf"party {k + 1} needs \(amplitude, phase\) rows"),
            ([0.1, 0.2], rf"party {k + 1} needs \(amplitude, phase\) rows"),
            ([[0.1, 0.2], [0.3, np.nan]], finite),
            ([[0.1, 0.2], [-0.3, 0.4]], finite),
            ([[0.1, 0.2], [np.inf, 0.4]], finite),
            ([["0.1", "0.2"], ["0.3", "0.4"]], "settings must be real numbers"),
        ):
            changed = list(parties)
            changed[k] = bad
            with pytest.raises(ValueError, match=message):
                per_party_strategy_rows(changed)
            with pytest.raises(ValueError, match=message):
                MeasurementStrategy(tuple(changed))
        if k < n - 1:
            changed = list(parties)
            changed[k], changed[-1] = [[0.1, np.nan], [0.2, 0.3]], [[0.1]]
            with pytest.raises(ValueError, match=finite):
                MeasurementStrategy(tuple(changed))
            changed[k], changed[-1] = [[0.1]], [[0.1, np.nan], [0.2, 0.3]]
            with pytest.raises(ValueError, match=rf"party {k + 1} needs"):
                MeasurementStrategy(tuple(changed))


def test_fractional_pairs_and_pair_counts_are_refused():
    # a pair count of 2.7 was stored as 2.  Python and numpy integers
    # still pass.
    two_pairs = paired_strategy(2, 0.2, -0.5, 2).settings
    for bad in (2.7, np.float32(1.5), np.nan):
        with pytest.raises(ValueError, match="pair_count must be an integer"):
            MeasurementStrategy(two_pairs, pair_count=bad)
    with pytest.raises(ValueError, match="pair_count must be an integer"):
        paired_strategy(2, 0.2, -0.5, 2.5)
    for good in (2, np.int64(2), np.uint8(2)):
        counted = MeasurementStrategy(two_pairs, pair_count=good).pair_count
        assert counted == 2 and type(counted) is int


@pytest.mark.parametrize(
    "r0",
    ["0.5", True, np.bool_(False), 0.5 + 0.0j, (0.5, 0.2), np.array([0.5]), None],
    ids=["str", "bool", "numpy-bool", "complex", "tuple", "array", "none"],
)
def test_non_real_or_non_scalar_amplitudes_are_refused(r0):
    # a float conversion read "0.5" and True as amplitudes 0.5 and 1.0;
    # every builder of signed settings refuses them, in either slot, and
    # so does the one-table entry point that builds such a strategy
    for build in (
        lambda a, b: two_setting_strategy(2, a, b),
        lambda a, b: paired_strategy(2, a, b, 3),
        lambda a, b: averaged_correlator_table(3, a, b, (0.0, 0.0), 0.1, 0.9),
    ):
        for amplitudes in ((r0, 0.2), (0.2, r0)):
            with pytest.raises(ValueError, match="amplitudes must be real scalars"):
                build(*amplitudes)


@pytest.mark.parametrize(
    "phases",
    [0.3, np.float64(0.3), (0.1,), (0.1, 0.2, 0.3), ((0.1, 0.2),), ("0.1", "0.2")],
    ids=["scalar", "numpy-scalar", "short", "long", "nested", "str"],
)
def test_scalar_or_missized_phases_are_refused(phases):
    # a scalar raised TypeError from len(); every phase list but one real
    # number per party raises ValueError
    for build in (
        lambda: two_setting_strategy(2, 0.1, 0.2, phases),
        lambda: paired_strategy(2, 0.1, 0.2, 1, phases=phases),
    ):
        with pytest.raises(ValueError, match="need one real phase per party"):
            build()


def test_real_scalar_inputs_still_pass():
    # Python and numpy integers and floats, 0-d arrays and integer phases
    # give the strategy of the same float values
    reference = two_setting_strategy(2, 1.0, -0.5, (0.0, 1.0)).settings
    for r0, r1, phases in (
        (1, -0.5, (0, 1)),
        (np.int64(1), np.float32(-0.5), np.array([0.0, 1.0])),
        (np.array(1.0), np.float64(-0.5), [0.0, 1]),
    ):
        settings = two_setting_strategy(2, r0, r1, phases).settings
        assert all(np.array_equal(a, b) for a, b in zip(settings, reference))


def signed_row(r: float, phase: float) -> list:
    """(amplitude, phase) of a signed amplitude, in Python floats.

    The arithmetic of the former per-setting object: |r|, and the phase
    advanced by pi for r < 0, then reduced mod 2 pi.
    """
    offset = math.pi if r < 0.0 else 0.0
    return [abs(float(r)), float(phase + offset) % (2.0 * math.pi)]


def test_strategy_settings_match_signed_oracle():
    # every stored row equals, bit for bit, the Python-float arithmetic of
    # the signed form, for negative, zero and positive amplitudes and
    # phases outside [0, 2 pi)
    rng = np.random.default_rng(17)
    amplitudes = [-1.3, -0.7, -0.0, 0.0, 1e-300, 0.25, 2.9]
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        r0, r1 = (float(rng.choice(amplitudes)) for _ in range(2))
        phases = [float(x) for x in rng.uniform(-20.0, 20.0, n)]
        phases[0] = float(rng.choice([phases[0], 0.0, -0.0, 2.0 * math.pi, -math.pi]))
        step = [phases[0] + j * (2.0 * math.pi) / m for j in range(m)]
        paired = [[signed_row(r, phi) for phi in step for r in (r0, r1)]]
        paired += [[signed_row(r0, phi), signed_row(r1, phi)] for phi in phases[1:]]
        plain = [[signed_row(r0, phi), signed_row(r1, phi)] for phi in phases]
        strat = paired_strategy(n, r0, r1, m, phases)
        assert [party.tolist() for party in strat.settings] == paired
        single = two_setting_strategy(n, r0, r1, phases)
        assert [party.tolist() for party in single.settings] == plain
        assert all(not party.flags.writeable for party in strat.settings)
    # the default phases are zero
    (first,) = paired_strategy(1, -0.4, 0.3, 2).settings
    expected = [signed_row(-0.4, 0.0), [0.3, 0.0], signed_row(-0.4, math.pi), [0.3, math.pi]]
    assert first.tolist() == expected


def test_counts_must_be_whole_numbers(monkeypatch):
    # counts given as integral floats are stored as int; fractional,
    # boolean, non-finite and non-numeric counts raise ValueError where
    # they once raised TypeError or IndexError deep inside, or passed
    state = lossy_w_state(2.0, 0.5)
    assert type(state.n_modes) is int
    assert np.array_equal(state.matrix, lossy_w_state(2, 0.5).matrix)
    assert type(SubspaceState(2.0, state.matrix).n_modes) is int
    assert type(CorrelatorTable(2.0, np.ones(4)).n_parties) is int
    spec = OptimizationSpec(2.0, 0.0, optimize_phases=False, restarts=2.0)
    assert (type(spec.n_parties), type(spec.restarts)) == (int, int)
    assert maximize_bell(spec) == maximize_bell(
        OptimizationSpec(2, 0.0, optimize_phases=False, restarts=2)
    )
    assert np.array_equal(
        averaged_correlator_table(2.0, 0.1, -0.4, (0.3,), 0.2, 0.9),
        averaged_correlator_table(2, 0.1, -0.4, (0.3,), 0.2, 0.9),
    )
    for bad in (2.5, np.float32(1.5), np.nan, np.inf, True, np.bool_(True), "2", None):
        with pytest.raises(ValueError, match="n_parties must be an integer"):
            OptimizationSpec(bad, 0.0)
        with pytest.raises(ValueError, match="restarts must be an integer"):
            OptimizationSpec(2, 0.0, restarts=bad)
        with pytest.raises(ValueError, match="n_modes must be an integer"):
            lossy_w_state(bad, 0.5)
        with pytest.raises(ValueError, match="n_parties must be an integer"):
            CorrelatorTable(bad, np.ones(4))
        with pytest.raises(ValueError, match="n_parties must be an integer"):
            paired_strategy(bad, 0.1, -0.4, 2)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="must be >= 1"):
            paired_strategy(bad, 0.1, -0.4, 2)
        with pytest.raises(ValueError, match="must be >= 1"):
            two_setting_strategy(bad, 0.1, -0.4)
    assert two_setting_strategy(2.0, 0.1, -0.4).n_parties == 2

    kwargs = dict(amplitudes=(0.17, -0.56), width=0.4, efficiency=0.9, seed=99, n_bins=12)
    for name in ("n_samples", "n_bins"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            violation_distribution(2, pair_count=2, **{**kwargs, "n_samples": 40, name: 2.5})
    whole = violation_distribution(
        2.0, pair_count=2.0, n_samples=40.0, **dict(kwargs, n_bins=12.0)
    )
    plain = violation_distribution(2, pair_count=2, n_samples=40, **kwargs)
    assert json.dumps(whole.to_json_dict()) == json.dumps(plain.to_json_dict())

    # one party never violates, so each pair count costs one (stubbed) search
    report = OptimumReport(1.0, 0.1, -0.4, (), True, 1)
    monkeypatch.setattr("photonbell.optimize.maximize_bell", lambda spec: report)
    out = certainty_frontier(1.0, 1.0, (np.int64(2), 8.0), grid_density=360)
    assert [(type(m), m) for m, _ in out] == [(int, 2), (int, 8)]
    assert all(np.isnan(width) for _, width in out)
    for bad in (True, 2.5, np.nan):
        with pytest.raises(ValueError, match="pair count must be an integer"):
            certainty_frontier(1, 1.0, (2, bad), grid_density=360)


def test_distribution_seeds_are_checked_like_counts():
    # a seed is a whole number in [0, 2^64): 2.5 once reached numpy's
    # SeedSequence and raised its TypeError
    kwargs = dict(
        amplitudes=(0.17, -0.56), width=0.4, efficiency=0.9, pair_count=2, n_samples=40
    )
    for bad in (2.5, 0.5, -1, 2**64, True):
        with pytest.raises(ValueError, match="seed must be"):
            violation_distribution(2, seed=bad, **kwargs)
    whole = violation_distribution(2, seed=3.0, **kwargs)
    plain = violation_distribution(2, seed=3, **kwargs)
    assert json.dumps(whole.to_json_dict()) == json.dumps(plain.to_json_dict())
    assert whole.metadata["seed"] == 3 and type(whole.metadata["seed"]) is int


def single_pair(strategy, pair: int):
    """The strategy holding only party 1's pair ``pair`` and the other parties' rows."""
    first, *rest = strategy.settings
    return MeasurementStrategy((first[2 * pair : 2 * pair + 2], *rest))


def shifted_matrices(strategy, pair: int, offsets, index: int) -> np.ndarray:
    """Observables (N, 2, 2) of pair ``pair``'s table entry ``index``, shifted.

    Party k uses its setting bit k-1 of index, party 1 from rows
    (2 pair, 2 pair + 1), its phase shifted by offsets[k-2] for k >= 2.
    """
    chosen = []
    for p, party in enumerate(single_pair(strategy, pair).settings):
        amplitude, phase = party[(index >> p) & 1]
        chosen.append((amplitude, phase + (offsets[p - 1] if p else 0.0)))
    return setting_matrices(chosen)


def test_symbolic_table_matches_shifted_settings():
    # the symbolic rows at offsets Delta (read through the complex oracle)
    # must equal the plain correlator with party k >= 2's phases shifted by
    # Delta_{k-1}, and the tensor-product oracle, which shares no code with
    # the kernel behind both (~1 s for the 12 cases)
    rng = np.random.default_rng(42)
    for n in (2, 3, 4):
        for _ in range(4):
            state = random_state(rng, n)
            r0, r1 = rng.uniform(-1.0, 1.0, 2)
            phases = rng.uniform(0.0, TWO_PI, n)
            offsets = rng.uniform(0.0, TWO_PI, n - 1)
            strat = two_setting_strategy(n, r0, r1, phases)
            table = pair_symbolic_tables(state, strat)[0]
            values = complex_entries(table, offsets)
            assert np.max(np.abs(values.imag)) < 1e-12
            for index in range(2**n):
                chosen = shifted_matrices(strat, 0, offsets, index)
                assert abs(values[index].real - correlator_batch(state.matrix, chosen)) < 1e-12
                assert abs(values[index].real - correlator_bruteforce(state.matrix, chosen)) < 1e-12


@pytest.mark.parametrize("n", range(1, 6))
def test_frame_averaged_table_matches_oracles(n):
    # the state route at width 0 equals the correlator and the
    # tensor-product oracle with party k >= 2's phases shifted by the
    # frame; at every width it equals the symbolic rows averaged through
    # the complex +-n terms, which share no frame code with it; random and
    # lossy W states, per-party phases, stepped pairs and centers in +-10;
    # the public table is pair 0's
    rng = np.random.default_rng(80 + n)
    for state in (random_state(rng, n), random_state(rng, n), lossy_w_state(n, 0.8)):
        pair_count = int(rng.integers(1, 4))
        r0, r1 = rng.uniform(-1.2, 1.2, 2)
        strat = paired_strategy(n, r0, r1, pair_count, rng.uniform(0.0, TWO_PI, n))
        pair = int(rng.integers(pair_count))
        symbolic = pair_symbolic_tables(state, strat)[pair]
        centers = rng.uniform(-10.0, 10.0, n - 1)
        fixed = experiments._frame_averaged_tables(state, strat, PhaseModel(tuple(centers), 0.0))
        for index in range(2**n):
            chosen = shifted_matrices(strat, pair, centers, index)
            assert abs(fixed[pair][index] - correlator_batch(state.matrix, chosen)) < 1e-12
            assert abs(fixed[pair][index] - correlator_bruteforce(state.matrix, chosen)) < 1e-12
        for width in (0.0, 0.3, 1.1):
            model = PhaseModel(tuple(centers), width)
            tables = experiments._frame_averaged_tables(state, strat, model)
            oracle = complex_entries(symbolic, centers, width)
            assert np.max(np.abs(tables[pair] - oracle.real)) <= 1e-14
            table = frame_averaged_table(state, strat, model)
            assert np.array_equal(table.values, tables[0])


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
        basis = offset_basis(n)
        assert tables.shape == (pair_count, len(basis), 2**n)
        assert tables.dtype == float
        assert not tables.flags.writeable
        half = [key for key in basis if any(key) and key[np.flatnonzero(key)[0]] > 0]
        assert len(half) == n * (n - 1) // 2 and len(basis) == 1 + 2 * len(half)
        assert experiments._half_basis(n).tolist() == [list(key) for key in half]
        scan = experiments._frame_scan_coefficients(tables, n, 0.3)
        assert scan.size == experiments._frame_scan_row_count(n, pair_count) * 2**n
        for j, table in enumerate(tables):
            alone = pair_symbolic_tables(state, single_pair(strat, j))
            assert np.array_equal(table, alone[0])
            assert not alone.flags.writeable


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_symbolic_rows_match_per_component_oracle(n):
    # the stacked build equals one kernel call per Hermitian component, bit
    # for bit, on random states with vacuum-excitation coherences and on
    # lossy W states
    rng = np.random.default_rng(70 + n)
    for state in (random_state(rng, n), random_state(rng, n), lossy_w_state(n, 0.8)):
        strat = paired_strategy(n, *rng.uniform(-1.0, 1.0, 2), 3, rng.uniform(0.0, TWO_PI, n))
        rows = symbolic_rows_per_component(state, strat)
        tables = pair_symbolic_tables(state, strat)
        assert np.array_equal(tables.swapaxes(0, 1), rows)


@pytest.mark.parametrize("pair_count", [1, 3])
@pytest.mark.parametrize("n", range(1, 6))
def test_signed_sine_components_equal_rows_negated_afterwards(n, pair_count):
    # the sign of m against n folded into the sine components before the
    # kernel call gives the rows of negating them after it, bit for bit,
    # on a random full-rank state and on a lossy W state
    rng = np.random.default_rng(90 + n)
    for state in (random_state(rng, n), lossy_w_state(n, 0.8)):
        strat = paired_strategy(
            n, *rng.uniform(-1.0, 1.0, 2), pair_count, rng.uniform(0.0, TWO_PI, n)
        )
        tables = pair_symbolic_tables(state, strat)
        assert np.array_equal(tables, sine_negated_after_tables(state, strat))
        assert not tables.flags.writeable


def test_library_tables_are_read_only(monkeypatch):
    # the tables of frame_averaged_table, averaged_correlator_table and
    # best_pair_bell_value are read-only, so CorrelatorTable keeps them
    # without a copy, and writing to one raises
    seen = []

    def recorded(table):
        seen.append(table.values)
        return wwzb_value(table)

    monkeypatch.setattr(experiments, "wwzb_value", recorded)
    rng = np.random.default_rng(95)
    strat = paired_strategy(3, 0.3, -0.6, 2)
    model = PhaseModel((0.4, 0.4), 0.2)
    tables = [averaged_correlator_table(3, 0.1, -0.5, [0.2, 0.2], 0.3, 0.9)]
    for state in (lossy_w_state(3, 0.9), random_state(rng, 3)):
        tables.append(frame_averaged_table(state, strat, model).values)
        best_pair_bell_value(state, strat, model)
    assert len(seen) == 4
    for table in tables + seen:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    assert np.shares_memory(CorrelatorTable(3, tables[0]).values, tables[0])


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
        for j, table in enumerate(tables):
            assert np.array_equal(table, pair_symbolic_tables(state, single_pair(strat, j))[0])


def test_setting_matrices_match_displacement_observable(monkeypatch):
    # the one-array build gives every setting exactly the matrix of
    # building that setting alone, and the pair tables exactly the
    # coefficients of the setting-by-setting build
    rng = np.random.default_rng(41)
    settings = np.stack((rng.uniform(0.0, 3.0, 200), rng.uniform(-10.0, 10.0, 200)), axis=1)
    batch = displacement_matrices(settings[:, 0], settings[:, 1])
    assert batch.shape == (200, 2, 2)
    for (amplitude, phase), matrix in zip(settings, batch):
        assert np.array_equal(matrix, displacement_matrices(amplitude, phase))

    def one_by_one(strategy):
        pairs = [single_pair(strategy, j).settings for j in range(strategy.pair_count)]
        return np.array(
            [[[displacement_matrices(*row) for row in party] for party in pair] for pair in pairs]
        )

    for n, m in ((1, 2), (2, 8), (3, 5), (4, 2)):
        state = random_state(rng, n)
        r0, r1 = rng.uniform(-1.5, 1.5, 2)
        strat = paired_strategy(n, r0, r1, m, rng.uniform(0.0, TWO_PI, n))
        pairs = experiments._setting_pairs(strat)
        assert pairs.shape == (m, n, 2, 2, 2)
        assert np.array_equal(pairs, one_by_one(strat))
        tables = pair_symbolic_tables(state, strat)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_setting_pairs", one_by_one)
            reference = pair_symbolic_tables(state, strat)
        assert np.array_equal(tables, reference)


def test_zero_width_average_is_evaluation():
    # the centered frame of width 0 leaves the state untouched: its table is
    # the plain correlator table of the strategy's settings, bit for bit
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 4):
        state = random_state(rng, n)
        strat = two_setting_strategy(n, 0.3, -0.6, rng.uniform(0.0, TWO_PI, n))
        table = frame_averaged_table(state, strat, PhaseModel((0.0,) * (n - 1), 0.0))
        pairs = experiments._setting_pairs(strat)
        assert np.array_equal(table.values, correlator_tables(state.matrix, pairs)[0])


def test_symbolic_evaluation_validation():
    # one frame of a strategy's table is read through frame_averaged_table:
    # the model must hold N-1 relative phases for the strategy's N parties
    state = w_state(3)
    strat = two_setting_strategy(3, 0.1, -0.4)
    with pytest.raises(ValueError, match="relative phases"):
        frame_averaged_table(state, strat, PhaseModel((0.1,), 0.3))
    with pytest.raises(ValueError, match="modes but strategy has"):
        frame_averaged_table(w_state(2), strat, PhaseModel((0.1, 0.2), 0.3))
    # a fixed frame is a zero-width model; non-finite centers are refused
    # before any arithmetic, so no numpy warning escapes (warnings are
    # errors in this suite)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            PhaseModel((bad, 0.0), 0.0)
    # a single party has no offsets: the empty model is its one frame
    single = two_setting_strategy(1, 0.1, -0.4)
    table = frame_averaged_table(w_state(1), single, PhaseModel((), 0.7))
    symbolic = pair_symbolic_tables(w_state(1), single)[0]
    assert np.array_equal(table.values, symbolic[0])


def test_two_party_correlators_closed_form():
    # photon counting paired with a displaced setting of amplitude r
    r = 0.6
    state = w_state(2)
    e = np.exp(-(r**2))
    for phi in np.linspace(0.0, TWO_PI, 100):
        strat = two_setting_strategy(2, 0.0, r, phases=(phi, 0.0))
        vals = frame_averaged_table(state, strat, PhaseModel((0.0,), 0.0)).values
        assert abs(vals[0] - (-1.0)) < 1e-12
        assert abs(vals[1] - (-e * (1 - r**2))) < 1e-12
        assert abs(vals[2] - (-e * (1 - r**2))) < 1e-12
        both = 1 - 2 * e * (1 + r**2) + 4 * e**2 * r**2 * (1 + np.cos(phi))
        assert abs(vals[3] - both) < 1e-12


def test_averaged_table_matches_symbolic_route():
    # the optimizer's table (centers in the setting phases) must agree with
    # averaging the symbolic rows entry by entry through the complex
    # oracle, and with the state route (centers in the state), shared and
    # per-party alike
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
        r0s = np.broadcast_to(np.asarray(r0, dtype=float), (n,))
        r1s = np.broadcast_to(np.asarray(r1, dtype=float), (n,))
        amplitudes = np.stack((r0s, r1s), axis=-1)[None]
        fast = per_call_averaged_tables(n, amplitudes, np.array([centers]), width, (eta,))[0, 0]
        # a negative amplitude is |r| with the phase advanced by pi
        strat = MeasurementStrategy(
            [[(abs(r), np.pi * (r < 0.0)) for r in (r0s[k], r1s[k])] for k in range(n)]
        )
        state = lossy_w_state(n, eta)
        table = pair_symbolic_tables(state, strat)[0]
        slow = complex_entries(table, centers, width).real
        assert np.max(np.abs(fast - slow)) < 1e-12
        state_route = frame_averaged_table(state, strat, PhaseModel(centers, width))
        assert np.max(np.abs(fast - state_route.values)) < 1e-12
        if np.ndim(r0) == 0:
            one_table = averaged_correlator_table(n, r0, r1, centers, width, eta)
            assert np.max(np.abs(fast - one_table)) < 1e-12


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
    # bell_value_averaged is the Bell value of frame_averaged_table, and
    # frame noise cannot raise it at this centered frame
    state = w_state(2)
    strat = two_setting_strategy(2, 0.0, 0.5)
    for width in (0.0, 0.3):
        model = PhaseModel((0.0,), width)
        table = frame_averaged_table(state, strat, model)
        assert bell_value_averaged(state, strat, model) == wwzb_value(table)
    fixed = bell_value_averaged(state, strat, PhaseModel((0.0,), 0.0))
    averaged = bell_value_averaged(state, strat, PhaseModel((0.0,), 0.3))
    assert averaged.s_value <= fixed.s_value + 1e-12


def test_one_table_builds_pair_zero_only(monkeypatch):
    # frame_averaged_table and bell_value_averaged of a five-pair strategy
    # build pair 0's table alone: 2^N kernel rows on a random state, 2N on
    # the exchangeable lossy W state; best_pair_bell_value builds all five
    import photonbell.fock_core as fock_core

    rows = []
    values = fock_core._correlator_values

    def counted(terms, entries):
        rows.append(entries.shape[-1])
        return values(terms, entries)

    monkeypatch.setattr(fock_core, "_correlator_values", counted)
    rng = np.random.default_rng(21)
    n, m = 3, 5
    strat = paired_strategy(n, 0.3, -0.6, m)
    model = PhaseModel((0.4, 0.4), 0.2)
    for state, per_table in ((random_state(rng, n), 2**n), (lossy_w_state(n, 0.9), 2 * n)):
        for build in (frame_averaged_table, bell_value_averaged, best_pair_bell_value):
            rows.clear()
            build(state, strat, model)
            assert sum(rows) == per_table * (m if build is best_pair_bell_value else 1)


def test_best_pair_matches_manual_maximum(monkeypatch):
    # every pair in one kernel call, each with the bits of the
    # bell_value_averaged call of a strategy holding that pair alone;
    # fixed frames are zero-width models
    calls = []

    def counted(rho, pairs):
        calls.append(len(pairs))
        return correlator_tables(rho, pairs)

    rng = np.random.default_rng(12)
    for n, m in ((1, 2), (2, 3), (3, 4), (4, 2)):
        state = random_state(rng, n)
        strat = paired_strategy(n, *rng.uniform(-1.0, 1.0, 2), m, rng.uniform(0.0, TWO_PI, n))
        for width in (0.0, 0.35):
            model = PhaseModel(tuple(rng.uniform(-10.0, 10.0, n - 1)), width)
            manual = [bell_value_averaged(state, single_pair(strat, j), model) for j in range(m)]
            with monkeypatch.context() as patch:
                patch.setattr(experiments, "correlator_tables", counted)
                calls.clear()
                result, pair = best_pair_bell_value(state, strat, model=model)
            assert calls == [m]
            values = [r.s_value for r in manual]
            assert pair == int(np.argmax(values))
            assert result == manual[pair]
            assert result.s_value == max(values)
    # a two-setting strategy is one pair: its best pair is pair 0
    for n in (1, 2, 3):
        state = random_state(rng, n)
        single = two_setting_strategy(n, 0.1, -0.3, rng.uniform(0.0, TWO_PI, n))
        model = PhaseModel(tuple(rng.uniform(-3.0, 3.0, n - 1)), 0.2)
        assert single.pair_count == 1
        assert best_pair_bell_value(state, single, model) == (
            bell_value_averaged(state, single, model),
            0,
        )


def test_best_pair_tie_goes_to_lowest_index():
    # zero amplitudes make every pair photon counting, an exact tie
    state = w_state(2)
    strat = paired_strategy(2, 0.0, 0.0, 4)
    _, pair = best_pair_bell_value(state, strat, PhaseModel((0.7,), 0.0))
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_scan_equals_the_chunk_loop_bit_for_bit(monkeypatch, n):
    # the scan fills a block of chunks' rows at once and runs each full
    # chunk's product into one reused buffer; the chunk-at-a-time loop it
    # replaced gives the same bits for batches around every chunk and
    # block edge, the last partial chunk included, and for a 2-D batch
    budget = 2**9
    monkeypatch.setattr(experiments, "FRAME_SCAN_CHUNK_ELEMENTS", budget)
    rng = np.random.default_rng(70 + n)
    rows = 1 + n * (n - 1)
    for pair_count in (1, 3, 5, 8):
        state = random_state(rng, n)
        strat = paired_strategy(n, *rng.uniform(-1.0, 1.0, 2), pair_count, rng.uniform(0.0, TWO_PI, n))
        tables = pair_symbolic_tables(state, strat)
        chunk = max(1, budget // max(rows, pair_count * 2**n))
        block = chunk * max(1, budget // (rows * chunk))
        counts = {0, 1, chunk - 1, chunk, chunk + 1, block - 1, block, block + 1, 7 * block // 2}
        for count in sorted(counts):
            centers = _awkward_centers(rng, count, n - 1)
            for width in (0.0, 0.45):
                fast = best_pair_values_over_centers(tables, centers, width)
                assert np.array_equal(fast, chunked_frame_scan(tables, centers, width))
        batch = (3, block // 2 + 1)
        centers = rng.uniform(0.0, TWO_PI, (*batch, n - 1))
        fast = best_pair_values_over_centers(tables, centers, 0.2)
        oracle = chunked_frame_scan(tables, centers.reshape(math.prod(batch), n - 1), 0.2)
        assert np.array_equal(fast, oracle.reshape(batch))


def test_block_scan_equals_the_chunk_loop_at_the_default_budget():
    # violation-dist's three-party, five-pair scan: chunks of 1638 centers
    # and blocks of five chunks, over 3.5 blocks and a partial last chunk
    tables = pair_symbolic_tables(lossy_w_state(3, 0.93), paired_strategy(3, 0.55, -0.2, 5))
    chunk = FRAME_SCAN_CHUNK_ELEMENTS // (5 * 2**3)
    block = chunk * (FRAME_SCAN_CHUNK_ELEMENTS // (7 * chunk))
    assert (chunk, block) == (1638, 5 * 1638)
    centers = np.random.default_rng(7).uniform(0.0, TWO_PI, (7 * block // 2 + 5, 2))
    fast = best_pair_values_over_centers(tables, centers, 0.3)
    assert np.array_equal(fast, chunked_frame_scan(tables, centers, 0.3))


def _awkward_centers(rng, count: int, slots: int) -> np.ndarray:
    """Centers (count, slots) cycling through four kinds of rows.

    Negative, at or above 2*pi, about 1e3 rad, and rows whose slots all
    hold one value (c_j = c_k), none reduced modulo 2*pi.
    """
    kinds = (
        rng.uniform(-3.0 * TWO_PI, 0.0, (count, slots)),
        rng.uniform(TWO_PI, 4.0 * TWO_PI, (count, slots)),
        1e3 + rng.uniform(-TWO_PI, TWO_PI, (count, slots)),
        np.repeat(rng.uniform(-1e3, 1e3, (count, 1)), slots, axis=1),
    )
    return np.choose(np.arange(count)[:, None] % 4, kinds)


def _scan_counts(n: int, pair_count: int) -> tuple:
    """One chunk of centers minus one, exact and plus one, and several chunks."""
    chunk = FRAME_SCAN_CHUNK_ELEMENTS // max(1 + n * (n - 1), pair_count * 2**n)
    return chunk - 1, chunk, chunk + 1, 3 * chunk + 2


@pytest.mark.parametrize("n", [1, 2])
def test_scan_keeps_half_basis_bits_without_difference_rows(n):
    # below three parties there is no e_j - e_k row.  A single party has no
    # center, so its scan uses no trigonometry and gives the half-basis
    # route's bits.  Two parties take cos c and sin c from t = tan(c/2) by
    # the half-angle identities, while the half-basis route calls libm's
    # cos and sin: the two agree to within 2.2e-16 of the exact values
    # each, so N = 2's values may move by an ulp and are held to 1e-15
    rng = np.random.default_rng(90 + n)
    for pair_count in (1, 3):
        state = random_state(rng, n)
        strat = paired_strategy(n, *rng.uniform(-1.0, 1.0, 2), pair_count, rng.uniform(0.0, TWO_PI, n))
        tables = pair_symbolic_tables(state, strat)
        for count in _scan_counts(n, pair_count):
            centers = _awkward_centers(rng, count, n - 1)
            for width in (0.0, 0.45):
                fast = best_pair_values_over_centers(tables, centers, width)
                oracle = half_basis_frame_scan(tables, centers, width)
                if n == 1:
                    assert np.array_equal(fast, oracle)
                else:
                    assert fast.shape == oracle.shape
                    assert np.max(np.abs(fast - oracle)) <= 1e-15


def _half_angle_cos_sin(angles) -> tuple:
    """cos and sin of ``angles`` as the two-party scan writes its rows."""
    angles = np.asarray(angles, dtype=float)
    cos, sin = np.empty((1, angles.size)), np.empty((1, angles.size))
    experiments._fill_scan_rows(cos, sin, angles[:, None])
    return cos[0], sin[0]


def test_half_angle_cosine_and_sine_match_libm_at_awkward_angles():
    # t = tan(c/2) is 0 at c = 0, tiny for subnormals, +-1 at odd multiples
    # of pi/2 and about 1e16 next to odd multiples of pi; the identities
    # still give libm's values to within 4.5e-16 (2.2e-16 from the exact
    # values each), and sin keeps the sign of a zero
    tiny = np.array([5e-324, 1e-320, 1e-310, np.finfo(float).tiny, 1e-300])
    quarter = np.arange(-12, 13) * (np.pi / 2)
    odd_pi = np.array([-101, -5, -3, -1, 1, 3, 5, 7, 101, 1001]) * np.pi
    near_pi = np.concatenate([odd_pi, np.nextafter(odd_pi, np.inf), np.nextafter(odd_pi, -np.inf)])
    large = np.array([1e3, -1e3, 1e6, -1e6, 2.0**52, -(2.0**52)])
    angles = np.concatenate([[0.0, -0.0], tiny, -tiny, quarter, near_pi, large])
    cos, sin = _half_angle_cos_sin(angles)
    want_cos = np.array([math.cos(c) for c in angles])
    want_sin = np.array([math.sin(c) for c in angles])
    assert np.max(np.abs(cos - want_cos)) <= 4.5e-16
    assert np.max(np.abs(sin - want_sin)) <= 4.5e-16
    assert np.array_equal(cos[:2], [1.0, 1.0])
    assert np.array_equal(np.signbit(sin[:2]), [False, True])
    # the same angles as the units of a four-party chunk, as the scan lays them out
    units = angles[: 3 * (len(angles) // 3)].reshape(-1, 3)
    cos4, sin4 = np.empty((6, len(units))), np.empty((6, len(units)))
    experiments._fill_scan_rows(cos4, sin4, units)
    one_row = _half_angle_cos_sin(units.T.ravel())
    assert np.array_equal(cos4[:3], one_row[0].reshape(3, -1))
    assert np.array_equal(sin4[:3], one_row[1].reshape(3, -1))


def _recorded_scan(monkeypatch, tables, centers, width: float) -> tuple:
    """Scan values and the cosine/sine columns the scan built, per center."""
    fill, chunks = experiments._fill_scan_rows, []

    def recording(cos, sin, block):
        fill(cos, sin, block)
        chunks.append(np.concatenate((cos, sin)).copy())

    monkeypatch.setattr(experiments, "_fill_scan_rows", recording)
    values = best_pair_values_over_centers(tables, centers, width)
    monkeypatch.setattr(experiments, "_fill_scan_rows", fill)
    return values, np.concatenate(chunks, axis=1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_scan_rows_of_a_center_keep_their_bits_wherever_it_falls(monkeypatch, n):
    # a center's cosine, sine and difference rows are the same bits when it
    # is scanned alone, inside a multi-chunk batch, one place later (so the
    # centers at each chunk edge cross it) and in reversed order.  The
    # values may differ by a few ulp: the BLAS product picks its kernels
    # by the chunk's width, so it is held to 1e-14 (6.7e-16 measured)
    rng = np.random.default_rng(40 + n)
    pair_count = 3
    tables = pair_symbolic_tables(random_state(rng, n), paired_strategy(n, 0.3, -0.5, pair_count))
    chunk = FRAME_SCAN_CHUNK_ELEMENTS // max(1 + n * (n - 1), pair_count * 2**n)
    centers = _awkward_centers(rng, 3 * chunk + 2, n - 1)
    values, rows = _recorded_scan(monkeypatch, tables, centers, 0.3)
    assert rows.shape == (n * (n - 1), len(centers))
    later_centers = np.concatenate((rng.uniform(0.0, TWO_PI, (1, n - 1)), centers))
    later, later_rows = _recorded_scan(monkeypatch, tables, later_centers, 0.3)
    assert np.array_equal(later_rows[:, 1:], rows)
    backward, backward_rows = _recorded_scan(monkeypatch, tables, centers[::-1], 0.3)
    assert np.array_equal(backward_rows[:, ::-1], rows)
    for other in (later[1:], backward[::-1]):
        assert np.max(np.abs(other - values)) <= 1e-14
    for i in (0, chunk - 1, chunk, 2 * chunk, len(centers) - 1):
        alone, alone_rows = _recorded_scan(monkeypatch, tables, centers[i], 0.3)
        assert np.array_equal(alone_rows[:, 0], rows[:, i])
        assert abs(alone[0] - values[i]) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_angle_subtraction_scan_matches_oracles(n):
    # the half-angle unit rows and, from N = 3 on, the e_j - e_k rows by
    # angle subtraction agree with the complex route
    # at every center and with the per-center state route at the chunk
    # edges, for centers that are negative, past 2*pi, about 1e3 rad or
    # equal to each other
    rng = np.random.default_rng(80 + n)
    for pair_count in (1, 3):
        state = random_state(rng, n)
        strat = paired_strategy(n, *rng.uniform(-1.0, 1.0, 2), pair_count, rng.uniform(0.0, TWO_PI, n))
        tables = pair_symbolic_tables(state, strat)
        for count in _scan_counts(n, pair_count):
            centers = _awkward_centers(rng, count, n - 1)
            width = 0.3 if count % 2 else 0.0
            fast = best_pair_values_over_centers(tables, centers, width)
            assert fast.shape == (count,)
            assert np.max(np.abs(fast - complex_frame_scan(tables, centers, width))) <= 1e-13
            for i in sorted({0, 1, 2, 3, count // 3 - 1, count // 3, count - 2, count - 1}):
                slow, _ = best_pair_bell_value(state, strat, PhaseModel(tuple(centers[i]), width))
                assert abs(fast[i] - slow.s_value) <= 1e-13


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


def test_batched_centers_refuse_non_real_kinds():
    # strings, booleans and objects were once converted and scanned, and
    # complex centers raised TypeError; integers are real and scan as floats
    tables = pair_symbolic_tables(w_state(3), paired_strategy(3, 0.1, -0.5, 2))
    for bad in (
        [["0.5", "0.2"]],
        [[True, False]],
        np.array([[0.5, 0.2]], dtype=object),
        [[0.5 + 0j, 0.2]],
        np.array([0.5, 0.2], dtype=np.complex128),
    ):
        with pytest.raises(ValueError, match="frame centers must be real numbers"):
            best_pair_values_over_centers(tables, bad, 0.2)
    whole = best_pair_values_over_centers(tables, np.array([[1, 2]], dtype=np.int8), 0.2)
    assert np.array_equal(whole, best_pair_values_over_centers(tables, [[1.0, 2.0]], 0.2))


def test_violation_distribution_refuses_non_real_amplitudes():
    # float() once read "0.5" as r0 = 0.5 and True as r0 = 1.0, and raised
    # TypeError for a complex amplitude
    kwargs = dict(width=0.4, efficiency=0.9, pair_count=2, n_samples=40, seed=3)
    for amplitudes, name in (
        (("0.5", 0.1), "r0"),
        ((True, 0.1), "r0"),
        ((0.5 + 0j, 0.1), "r0"),
        ((0.5, "0.1"), "r1"),
        ((0.5, np.bool_(False)), "r1"),
        ((0.5, 1j), "r1"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            violation_distribution(2, amplitudes, **kwargs)
    numpy_floats = violation_distribution(2, np.array([0.5, -0.1]), **kwargs)
    plain = violation_distribution(2, (0.5, -0.1), **kwargs)
    assert json.dumps(numpy_floats.to_json_dict()) == json.dumps(plain.to_json_dict())


def test_batched_centers_reject_mixed_tables():
    # every table of one scan must share the party count: tables of two
    # counts form no array, and rows of one count cut to another's columns
    # do not fit it
    two = pair_symbolic_tables(w_state(2), paired_strategy(2, 0.1, -0.5, 2))
    three = pair_symbolic_tables(w_state(3), paired_strategy(3, 0.1, -0.5, 2))
    with pytest.raises(ValueError, match="pair tables must share one shape"):
        best_pair_values_over_centers([two[0], three[0]], [[0.3]], 0.2)
    with pytest.raises(ValueError, match="shape"):
        best_pair_values_over_centers(three[:, :, :4], [[0.3]], 0.2)


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
        e = np.exp(-(r**2))
        for width in (0.0, 0.4, 0.9):
            q = np.exp(-0.5 * width**2)
            for x in np.linspace(0.0, TWO_PI, 29):
                got = bell_value_averaged(state, strat, PhaseModel((x,), width)).s_value
                want = 1 + 2 * e * r**2 * max(0.0, e * (1 + q * np.cos(x)) - 1)
                assert abs(got - want) < 1e-13


def test_symbolic_table_validation():
    # a frame scan takes P >= 1 tables of 1 + N(N-1) rows of 2^N entries,
    # N >= 1, read off the entry count: two parties hold 3 rows of 4
    # entries, so a wrong row count, entry count or rank is refused, and
    # so are no tables and tables of no party
    for tables in (
        np.ones((1, 1, 4)),
        np.ones((1, 3, 2)),
        np.ones((2, 3, 3)),
        np.ones(12),
        np.ones((3, 4)),
        np.ones((1, 3, 4, 1)),
        np.ones((0, 3, 4)),
        np.ones((1, 1, 1)),
        np.ones((1, 0, 0)),
        [],
    ):
        with pytest.raises(ValueError, match="shape"):
            best_pair_values_over_centers(tables, [[0.3]], 0.2)
    # non-finite coefficients, and entries that are not real numbers, are
    # refused at the boundary
    for bad in (np.nan, np.inf, -np.inf):
        tables = np.ones((2, 3, 4))
        tables[1, 2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            best_pair_values_over_centers(tables, [[0.3]], 0.2)
    for tables in (np.ones((1, 3, 4), dtype=complex), [[["1", "-1"]]], [[[True, False]]]):
        with pytest.raises(ValueError, match="pair tables must be real numbers"):
            best_pair_values_over_centers(tables, np.empty((1, 0)), 0.0)
    # the scan leaves its tables as they were; integer tables are read as
    # floats (one party, entries 1 and -1: S = (|0| + |2|) / 2 = 1)
    tables = pair_symbolic_tables(w_state(2), paired_strategy(2, 0.1, -0.5, 2))
    kept = tables.copy()
    best_pair_values_over_centers(tables, [[0.3]], 0.2)
    assert np.array_equal(tables, kept)
    assert best_pair_values_over_centers([[[1, -1]]], np.empty((1, 0)), 0.0).tolist() == [1.0]
    # the tables are read-only
    with pytest.raises(ValueError):
        tables[0, 0, 0] = 2.0
    strat = two_setting_strategy(2, 0.0, 0.4)
    with pytest.raises(ValueError, match="modes but strategy has"):
        pair_symbolic_tables(w_state(3), strat)


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
