"""Core state/observable construction and the closed-form correlator."""

import tracemalloc

import numpy as np
import pytest

from photonbell import (
    ConsistencyError,
    MeasurementStrategy,
    OptimizationSpec,
    PhaseModel,
    SubspaceState,
    best_pair_values_over_centers,
    lossy_w_state,
    pair_symbolic_tables,
    paired_strategy,
    two_setting_strategy,
    w_state,
)
import photonbell.experiments as experiments
import photonbell.fock_core as fock_core
from photonbell.experiments import _frame_state
from photonbell.fock_core import (
    CORRELATOR_CHUNK_ELEMENTS,
    WEIGHT_LEAF_ROWS,
    _check_observable_entries,
    _correlator_rows,
    _displacement_entries,
    _exchangeable,
    _exchangeable_closed_form,
    _exchangeable_values,
    _state_terms,
    _walked_values,
    _weight_tables,
    check_observable_matrices,
    correlator_batch,
    correlator_tables,
    displacement_matrices,
)

from helpers import (
    coherent_vector,
    correlator_bruteforce,
    exchangeable_constants,
    former_displacement_matrices,
    indexed_leaf_tables,
    indexed_weight_leaves,
    projective_observable,
    random_observable_matrices,
    random_settings,
    random_state,
    rows_first_correlator_rows,
    rows_first_exchangeable,
    rows_first_walk,
    rows_last,
    setting_matrices,
    symmetric_tables,
)
from photonbell.optimize import _lossy_rhos


def test_w_state_entries():
    state = w_state(4)
    mat = state.matrix
    assert mat.shape == (5, 5)
    assert mat[0, 0] == 0.0
    assert np.allclose(mat[1:, 1:], 0.25)
    assert abs(np.trace(mat) - 1.0) < 1e-14


def test_w_state_single_mode():
    # one mode: the "shared" photon is simply |1><1|
    mat = w_state(1).matrix
    assert np.allclose(mat, np.diag([0.0, 1.0]))


@pytest.mark.parametrize("n_modes", [1, 2, 5])
def test_lossy_w_state_mixes_vacuum(n_modes):
    eta = 0.73
    lossy = lossy_w_state(n_modes, eta).matrix
    pure = w_state(n_modes).matrix
    expected = eta * pure
    expected[0, 0] += 1.0 - eta
    assert np.allclose(lossy, expected, atol=1e-14)
    assert np.allclose(lossy_w_state(n_modes, 1.0).matrix, pure)
    vac = lossy_w_state(n_modes, 0.0).matrix
    assert vac[0, 0] == 1.0 and np.abs(vac[1:, 1:]).max() == 0.0


def test_state_validation():
    with pytest.raises(ValueError):
        w_state(0)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="n_modes must be >= 1"):
            lossy_w_state(bad, 0.5)
    with pytest.raises(ValueError):
        lossy_w_state(2, 1.2)
    good = np.diag([0.5, 0.25, 0.25]).astype(complex)
    bad_herm = good.copy()
    bad_herm[0, 1] = 0.1j
    with pytest.raises(ValueError):
        SubspaceState(2, bad_herm)
    with pytest.raises(ValueError):
        SubspaceState(2, 2.0 * good)
    bad_psd = np.diag([1.5, -0.25, -0.25]).astype(complex)
    with pytest.raises(ValueError):
        SubspaceState(2, bad_psd)
    with pytest.raises(ValueError):
        SubspaceState(3, good)


NOT_REAL = ["0.1", True, np.bool_(False), 0.1 + 0j, np.complex128(0.5), None, [0.1], (0.1,)]


@pytest.mark.parametrize("value", NOT_REAL, ids=repr)
def test_real_parameters_refuse_non_real_scalars(value):
    # numpy would raise TypeError on these, or compare them as numbers
    calls = {
        "width": [
            lambda: PhaseModel((0.3,), value),
            lambda: OptimizationSpec(2, value),
            lambda: best_pair_values_over_centers(np.zeros((1, 3, 4)), [0.0], value),
        ],
        "efficiency": [
            lambda: OptimizationSpec(2, 0.1, efficiency=value),
            lambda: lossy_w_state(2, value),
        ],
        "tolerance": [lambda: OptimizationSpec(2, 0.1, tolerance=value)],
    }
    for name, makers in calls.items():
        for make in makers:
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                make()


def test_real_parameters_take_any_real_scalar():
    for value in (0, 1, 0.5, np.float32(0.5), np.int64(1), np.array(0.25)):
        assert PhaseModel((0.3,), value).width == float(value)
        assert lossy_w_state(2, value).n_modes == 2
        OptimizationSpec(2, value, efficiency=value, tolerance=value + 1)


def test_state_refuses_nonfinite_entries():
    # NaN passed every comparison of the Hermiticity, trace and PSD checks,
    # and an inf diagonal warned in the subtraction before the trace check
    # refused it; both are refused first, with no numpy warning (warnings
    # are errors in this suite)
    good = np.diag([0.5, 0.25, 0.25]).astype(complex)
    for bad in (np.nan, np.inf, -np.inf):
        for entry in ((0, 1), (1, 2), (1, 1), (0, 0)):
            mat = good.copy()
            mat[entry] = bad
            if entry[0] != entry[1]:
                mat[entry[::-1]] = bad
            with pytest.raises(ValueError, match="state matrix must be finite"):
                SubspaceState(2, mat)


def test_state_matrix_read_only():
    state = w_state(2)
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 1.0


def test_displacement_setting_normalization():
    # a strategy stores each party's settings as read-only (amplitude,
    # phase) rows with the phase reduced to [0, 2 pi)
    (rows,) = MeasurementStrategy(([[0.4, 5.0 * np.pi], [0.2, -0.5]],)).settings
    assert rows.shape == (2, 2) and rows.dtype == float
    assert abs(rows[0, 1] - np.pi) < 1e-12
    assert abs(rows[1, 1] - (2.0 * np.pi - 0.5)) < 1e-12
    alpha = rows[0, 0] * np.exp(1j * rows[0, 1])
    assert abs(alpha - 0.4 * np.exp(1j * np.pi)) < 1e-12
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0
    # negative or non-finite amplitudes and non-finite phases are refused
    for bad in ([-0.1, 0.0], [np.inf, 0.0], [np.nan, 0.0], [0.1, np.inf], [0.1, np.nan]):
        with pytest.raises(ValueError, match="finite with amplitude >= 0"):
            MeasurementStrategy(([[0.2, 0.0], bad],))
    # entries must be real numbers: strings, booleans and complex values
    # are not read as amplitudes and phases
    for party in ([["0.5", "1.0"]], [[True, False]], [[0.5 + 0j, 1.0]], [[None, 1.0]]):
        with pytest.raises(ValueError, match="settings must be real numbers"):
            MeasurementStrategy(([[0.1, 0.0]], party))
    # each party's settings are rows of two entries
    for party in ([], [[]], [0.1, 0.2], [[0.1, 0.2, 0.3]], [[[0.1, 0.2]]]):
        with pytest.raises(ValueError, match=r"party 2 needs \(amplitude, phase\) rows"):
            MeasurementStrategy(([[0.1, 0.0]], party))


def test_from_signed_amplitude():
    # a negative amplitude is stored as |r| with the phase advanced by pi:
    # the same point of phase space
    (plain,), (flipped,) = (
        two_setting_strategy(1, r, 0.1, phases=(0.3,)).settings for r in (0.7, -0.7)
    )
    assert np.array_equal(plain[0], [0.7, 0.3])
    assert flipped[0, 0] == 0.7
    assert abs(flipped[0, 1] - (0.3 + np.pi)) < 1e-12
    alpha = flipped[0, 0] * np.exp(1j * flipped[0, 1])
    assert abs(alpha - (-0.7) * np.exp(0.3j)) < 1e-12
    with pytest.raises(ValueError, match="finite"):
        two_setting_strategy(1, np.nan, 0.1)


def test_signed_observable_flips_off_diagonals():
    (signed,) = two_setting_strategy(1, 0.5, -0.5).settings
    direct, flipped = setting_matrices(signed)
    assert np.allclose(np.diag(direct), np.diag(flipped), atol=1e-15)
    assert np.allclose(direct[0, 1], -flipped[0, 1], atol=1e-15)


@pytest.mark.parametrize("r,phi", [(0.0, 0.0), (0.3, 1.1), (1.2, 4.0), (2.5, 0.2)])
def test_displacement_observable_against_fock_truncation(r, phi):
    # independent oracle: build 2|alpha><alpha| - 1 in a 40-level Fock space
    # and compress onto the 0/1-photon block
    alpha = r * np.exp(1j * phi)
    ket = coherent_vector(alpha, 40)
    full = 2.0 * np.outer(ket, ket.conj()) - np.eye(40)
    expected = full[:2, :2]
    got = displacement_matrices(r, phi)
    assert np.abs(got - expected).max() < 1e-12


def test_displacement_zero_amplitude_is_photon_counting():
    for phi in (0.0, 1.0, 3.0):
        mat = displacement_matrices(0.0, phi)
        assert np.allclose(mat, np.diag([1.0, -1.0]))


def test_displacement_matrices_never_overflow():
    # an amplitude whose square overflows is photon counting, diag(-1, -1),
    # with no numpy warning (warnings are errors in this suite)
    for r in (1e200, -1e200, 1.4e154, 1e308):
        mats = displacement_matrices([r, r], [0.0, 2.5])
        assert np.array_equal(mats, np.broadcast_to(-np.eye(2), (2, 2, 2)))
    # amplitudes whose square is finite keep the bits of the plain formula
    rng = np.random.default_rng(8)
    r = np.concatenate(
        (rng.uniform(-30.0, 30.0, 2000), [0.0, -0.0, 1e-200, 27.3, -1e150, 1e154])
    )
    phi = rng.uniform(-10.0, 10.0, r.size)
    g = 2.0 * np.exp(-r * r)
    plain = np.empty(r.shape + (2, 2), dtype=complex)
    plain[:, 0, 0] = g - 1.0
    plain[:, 0, 1] = g * r * np.exp(-1j * phi)
    plain[:, 1, 0] = g * r * np.exp(1j * phi)
    plain[:, 1, 1] = g * r * r - 1.0
    assert np.array_equal(displacement_matrices(r, phi), plain)


def test_observable_validation():
    with pytest.raises(ValueError, match="not Hermitian"):
        check_observable_matrices(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="outside"):
        check_observable_matrices(3.0 * np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        check_observable_matrices(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    ok = np.array([[0.5, 0.1], [0.1, -0.5]], dtype=complex)
    check_observable_matrices(ok)
    # a batch holding one bad matrix anywhere is rejected
    batch = np.broadcast_to(ok, (3, 4, 2, 2)).copy()
    check_observable_matrices(batch)
    for bad in (3.0 * np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.full((2, 2), np.inf)):
        broken = batch.copy()
        broken[2, 1] = bad
        with pytest.raises(ValueError):
            check_observable_matrices(broken)


def _raises(check, *args):
    """The ValueError message ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except ValueError as error:
        return str(error)
    return None


def test_factored_displacement_keeps_its_bits_and_its_check():
    # displacement_matrices puts the phase factors back on the real
    # entries of _displacement_entries: the former expression bit for bit,
    # NaN and infinities included, and the entry check refuses exactly the
    # settings check_observable_matrices refuses
    amplitudes = np.array([0.0, -0.0, 3.0, -3.0, 1e-300, 1e200, np.inf, -np.inf, np.nan, 0.4])
    for phase in (0.0, np.pi / 3.0):
        # an infinite amplitude times e^{-r^2} = 0 is NaN, with numpy's warning
        with np.errstate(invalid="ignore"):
            got = displacement_matrices(amplitudes, phase)
            expected = former_displacement_matrices(amplitudes, phase)
            entries = np.stack(_displacement_entries(amplitudes))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(entries[0], got[:, 0, 0].real, equal_nan=True)
        assert np.array_equal(entries[2], got[:, 1, 1].real, equal_nan=True)
        if phase == 0.0:
            assert np.array_equal(entries[1], got[:, 1, 0].real, equal_nan=True)
        for i in range(len(amplitudes)):
            refused = _raises(check_observable_matrices, got[i])
            assert (refused is None) == (_raises(_check_observable_entries, *entries[:, i]) is None)
            assert (refused is None) == np.isfinite(amplitudes[i])
    # real symmetric matrices on both sides of the eigenvalue bound: the
    # same refusals with the same messages
    rng = np.random.default_rng(12)
    entries = rng.uniform(-1.0, 1.0, size=(3, 400)) * rng.uniform(0.5, 1.5, size=400)
    entries[:, :3] = [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]]
    mats = np.array([[entries[0], entries[1]], [entries[1], entries[2]]]).transpose(2, 0, 1)
    outcomes = [_raises(check_observable_matrices, mat) for mat in mats]
    assert outcomes == [_raises(_check_observable_entries, *column) for column in entries.T]
    assert 50 < sum(outcome is None for outcome in outcomes) < 350
    assert _raises(_check_observable_entries, *entries) == _raises(check_observable_matrices, mats)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_closed_form_equals_the_kernel(n):
    # party 1 on a, u of parties 2..N on b and the rest on c, against the
    # kernel on the same real matrices, for frame-averaged lossy W stacks
    # and random real observables, over every u
    rng = np.random.default_rng(30 + n)
    rhos = _lossy_rhos(n, (0.0, 0.6, 1.0), 0.7)
    constants = exchangeable_constants(rhos)
    mats = random_observable_matrices(rng, (4, 4)).real
    mats = 0.5 * (mats + mats.swapaxes(-1, -2))
    entries = np.stack((mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]))
    # rest[..., 0] = c, the fourth matrix, and rest[..., 1] = b, the third
    values = _exchangeable_closed_form(constants, n, entries[:, :, :2], entries[:, :, 3:1:-1])
    assert values.shape == (3, 4, n, 2)
    for p in range(4):
        for u in range(n):
            rows = [[mats[p, j]] + [mats[p, 2]] * u + [mats[p, 3]] * (n - 1 - u) for j in (0, 1)]
            expected = correlator_batch(rhos, np.array(rows))
            assert np.max(np.abs(values[:, p, u] - expected)) <= 1e-15
    # one row scored alone keeps its bits
    alone = _exchangeable_closed_form(constants, n, entries[:, 1:2, :2], entries[:, 1:2, 3:1:-1])
    assert np.array_equal(alone, values[:, 1:2])


def test_projective_observable_form():
    theta, phi = 0.8, 2.1
    mat = projective_observable(theta, phi)
    expected = 0.5 * np.array(
        [
            [np.cos(theta), np.exp(-1j * phi) * np.sin(theta)],
            [np.exp(1j * phi) * np.sin(theta), -np.cos(theta)],
        ]
    )
    assert np.abs(mat - expected).max() < 1e-15
    eigs = np.linalg.eigvalsh(mat)
    assert np.allclose(eigs, [-0.5, 0.5])


def test_projective_matches_displacement_to_second_order():
    # doubling the half-strength projector matches the displaced observable
    # at r = theta/2 with a cubic off-diagonal residue; slope check below
    thetas = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    residues = []
    for theta in thetas:
        proj = 2.0 * projective_observable(theta, 0.7)
        disp = displacement_matrices(theta / 2.0, 0.7)
        residues.append(np.abs(proj - disp).max())
    slopes = np.diff(np.log(residues)) / np.diff(np.log(thetas))
    assert np.all(slopes > 2.8) and np.all(slopes < 3.2)
    # known leading coefficient of the residue is theta^3 / 12
    ratio = residues[-1] / (thetas[-1] ** 3 / 12.0)
    assert 0.9 < ratio < 1.1


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5, 6])
def test_correlator_matches_bruteforce(n_modes):
    rng = np.random.default_rng(1000 + n_modes)
    for _ in range(30):
        state = random_state(rng, n_modes)
        mats = setting_matrices(random_settings(rng, n_modes))
        fast = correlator_batch(state.matrix, mats)
        slow = correlator_bruteforce(state.matrix, mats)
        assert abs(fast - slow) < 1e-10


@pytest.mark.parametrize("n_modes", range(1, 9))
def test_correlator_batch_matches_bruteforce(n_modes):
    # random mixed states carry vacuum-excitation coherences; random
    # Hermitian observables with spectra in [-1, 1] exercise every entry
    rng = np.random.default_rng(2000 + n_modes)
    for _ in range(4):
        state = random_state(rng, n_modes)
        mats = random_observable_matrices(rng, (5, n_modes))
        values = correlator_batch(state.matrix, mats)
        assert values.shape == (5,)
        for row, value in zip(mats, values):
            slow = correlator_bruteforce(state.matrix, row)
            assert abs(value - slow) < 1e-10


def test_correlator_batch_leading_shape():
    rng = np.random.default_rng(41)
    state = random_state(rng, 3)
    mats = random_observable_matrices(rng, (3, 4, 3))
    values = correlator_batch(state.matrix, mats)
    assert values.shape == (3, 4)
    for index in np.ndindex(3, 4):
        slow = correlator_bruteforce(state.matrix, mats[index])
        assert abs(values[index] - slow) < 1e-10
    # a single row without a batch axis gives a 0-d result
    assert correlator_batch(state.matrix, mats[1, 2]).shape == ()
    assert correlator_batch(state.matrix, mats[:0]).shape == (0, 4)
    with pytest.raises(ValueError):
        correlator_batch(state.matrix, mats[..., :2, :, :])


def test_correlator_batch_spans_several_chunks():
    # 2.5 chunks of two-mode rows: every row must come out as if alone
    n = 2
    rows_per_chunk = CORRELATOR_CHUNK_ELEMENTS // n
    count = 5 * rows_per_chunk // 2
    rng = np.random.default_rng(43)
    state = random_state(rng, n)
    mats = random_observable_matrices(rng, (count, n))
    values = correlator_batch(state.matrix, mats)
    assert values.shape == (count,)
    edges = [0, count - 1]
    for boundary in (rows_per_chunk, 2 * rows_per_chunk):
        edges += [boundary - 1, boundary]
    for i in edges:
        slow = correlator_bruteforce(state.matrix, mats[i])
        assert abs(values[i] - slow) < 1e-10
    # slices that straddle the chunk boundaries reproduce the values exactly
    for start in range(0, count, 7001):
        part = correlator_batch(state.matrix, mats[start : start + 7001])
        assert np.array_equal(part, values[start : start + 7001])


@pytest.mark.parametrize("n", range(1, 11))
def test_stacked_states_match_single_state_calls(n, monkeypatch):
    # a stack of states gives every state the bits of a call with that
    # state alone, state axes first, also when the stack spans several
    # chunks of a small budget
    rng = np.random.default_rng(100 + n)
    states = np.stack([random_state(rng, n).matrix for _ in range(6)]).reshape(2, 3, n + 1, n + 1)
    mats = random_observable_matrices(rng, (5, 7, n))
    pairs = random_observable_matrices(rng, (3, n, 2))
    alone = [correlator_batch(states[i], mats) for i in np.ndindex(2, 3)]
    tables = [correlator_tables(states[i], pairs) for i in np.ndindex(2, 3)]
    # a stack of lossy W states is exchangeable in modes 2..N, alone and
    # stacked, so with parties 2..N on one pair each state takes the
    # 2N-row route either way, and the 2^N-row walk otherwise
    w_states = np.stack([lossy_w_state(n, eta).matrix for eta in np.linspace(0.0, 1.0, 6)])
    w_states = w_states.reshape(2, 3, n + 1, n + 1)
    w_pairs = pairs.copy()
    w_pairs[:, 2:] = w_pairs[:, 1:2]
    w_tables = [
        [correlator_tables(w_states[i], chosen) for i in np.ndindex(2, 3)]
        for chosen in (pairs, w_pairs)
    ]
    for budget in (None, 12 * n):
        if budget is not None:
            monkeypatch.setattr("photonbell.fock_core.CORRELATOR_CHUNK_ELEMENTS", budget)
        stacked = correlator_batch(states, mats)
        stacked_tables = correlator_tables(states, pairs)
        assert stacked.shape == (2, 3, 5, 7)
        assert stacked_tables.shape == (2, 3, 3, 2**n)
        for k, i in enumerate(np.ndindex(2, 3)):
            assert np.array_equal(stacked[i], alone[k])
            assert np.array_equal(stacked_tables[i], tables[k])
        for chosen, tables_alone in zip((pairs, w_pairs), w_tables):
            stacked_w = correlator_tables(w_states, chosen)
            for k, i in enumerate(np.ndindex(2, 3)):
                assert np.array_equal(stacked_w[i], tables_alone[k])
    # one state as a stack of one keeps its leading axis
    assert correlator_batch(states[:1, 0], mats).shape == (1, 5, 7)
    # an empty batch is empty on both entry points (the table walk once
    # divided its chunk budget by the zero point count)
    assert correlator_batch(states, mats[:0]).shape == (2, 3, 0, 7)
    assert correlator_tables(states, pairs[:0]).shape == (2, 3, 0, 2**n)


@pytest.mark.parametrize("n", range(1, 8))
def test_exchangeability_of_lossy_w_and_random_states(n):
    # frame-averaged lossy W stacks are exchangeable in modes 2..N at any
    # width, and so is the frame state of equal centers; a one-ulp change
    # to one entry that a permutation of modes 2..N moves, a random state
    # and a stack holding one are not.  With at most one such mode every
    # state is.
    rng = np.random.default_rng(40 + n)
    strategy = two_setting_strategy(n, 0.3, -0.6)
    for width in (0.0, 0.3, 1.7, 40.0):
        assert _exchangeable(_lossy_rhos(n, (0.0, 0.8, 1.0), width))
        model = PhaseModel((rng.uniform(-10.0, 10.0),) * (n - 1), width)
        assert _exchangeable(_frame_state(lossy_w_state(n, 0.9), strategy, model)[None])
    stack = np.array(_lossy_rhos(n, (0.8,), 0.3))
    for a, b in np.ndindex(n + 1, n + 1):
        changed = stack.copy()
        changed[0, a, b] = np.nextafter(changed[0, a, b].real, 1.0) + 1j * changed[0, a, b].imag
        assert _exchangeable(changed) == (n < 3 or max(a, b) < 2), (a, b)
    rho = random_state(rng, n).matrix
    assert _exchangeable(rho[None]) == (n < 3)
    assert _exchangeable(np.stack((stack[0], rho))) == (n < 3)


@pytest.mark.parametrize("n", range(1, 9))
def test_table_walk_picks_the_exchangeable_route(n, monkeypatch):
    # an exchangeable stack costs 2N kernel rows per point whose parties
    # 2..N hold one setting pair; a random state, or parties 2..N on
    # different pairs, costs 2^N rows; one batch may hold both kinds of
    # point, and the routes agree within 1e-15
    rows = []
    values = fock_core._correlator_values

    def counted(terms, entries):
        rows.append(entries.shape[-1])
        return values(terms, entries)

    monkeypatch.setattr(fock_core, "_correlator_values", counted)
    rng = np.random.default_rng(50 + n)
    shared = random_observable_matrices(rng, (3, 1, 2)).repeat(n, axis=1)
    shared[:, 0] = random_observable_matrices(rng, (3, 2))
    distinct = random_observable_matrices(rng, (2, n, 2))
    w_stack = _lossy_rhos(n, (0.0, 0.8, 1.0), 0.4)
    rho = random_state(rng, n).matrix
    walk = 2**n if n > 2 else 2 * n
    for states, pairs, count in (
        (w_stack, shared, 3 * 2 * n),
        (rho, shared, 3 * walk),
        (w_stack, distinct, 2 * walk),
        (w_stack, np.concatenate((shared, distinct)), 3 * 2 * n + 2 * walk),
    ):
        rows.clear()
        tables = correlator_tables(states, pairs)
        assert sum(rows) == count
        # every route hands out a read-only table
        assert not tables.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tables[..., 0] = 0.0
        stack = np.reshape(states, (-1, n + 1, n + 1))
        walked = _walked_values(_state_terms(stack), pairs)
        assert np.max(np.abs(tables.reshape(walked.shape) - walked)) <= 1e-15


@pytest.mark.parametrize("n", [3, 13, 14, 16])
def test_exchangeable_leaf_gather_is_a_pure_copy(n):
    # the leaf-by-leaf gather equals one gather of every entry by the
    # weight of its parties 2..N, bit for bit, in one leaf (N <= 13) and
    # across 2 and 8 leaves
    rng = np.random.default_rng(60 + n)
    options = random_observable_matrices(rng, (2, 1, 2)).repeat(n, axis=1)
    options[:, 0] = random_observable_matrices(rng, (2, 2))
    stack = _lossy_rhos(n, (0.7, 1.0), 0.3)
    tables = correlator_tables(stack, options)
    assert tables.shape == (2, 2, 2**n)
    assert np.array_equal(tables, symmetric_tables(stack, options))
    leaves = max(1, 2 ** (n - 1) // WEIGHT_LEAF_ROWS)
    assert fock_core._weight_layout(n)[1].shape == (leaves,)


def test_weight_leaves_read_the_index_in_place():
    # the gather reads the cached read-only rows where they are: it equals
    # np.take, which copies them, and at N = 22 peaks below the leaves
    # plus that copy
    n = 22
    rows, _ = fock_core._weight_layout(n)
    rng = np.random.default_rng(62)
    for shape in ((n, 2), (2, 3, n, 2)):
        distinct = rng.uniform(-1.0, 1.0, shape)
        assert np.array_equal(fock_core._weight_leaves(distinct), np.take(distinct, rows, axis=-2))
    tracemalloc.start()
    try:
        leaves = fock_core._weight_leaves(distinct[0, 0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < leaves.nbytes + rows.nbytes


def test_exchangeable_table_allocates_one_table():
    # no index array grows with the table: the peak is the 8 MiB table,
    # its distinct leaves and the kernel's small working arrays
    n = 20
    rng = np.random.default_rng(61)
    options = random_observable_matrices(rng, (1, 1, 2)).repeat(n, axis=1)
    stack = _lossy_rhos(n, (0.9,), 0.2)
    correlator_tables(stack, options)  # builds the cached layouts
    tracemalloc.start()
    try:
        tables = correlator_tables(stack, options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.125 * tables.nbytes


def kernel_stacks(n, rng, monkeypatch):
    """Three stacks of three states (3, N+1, N+1) for the kernel's bit tests.

    Random Hermitian matrices, lossy W frame states (distinct centers, and
    equal ones), and three of the Hermitian components that ``pair_symbolic_tables``
    stacks (the steady part, a cosine and a sine component).
    """
    hermitian = rng.normal(size=(3, n + 1, n + 1)) + 1j * rng.normal(size=(3, n + 1, n + 1))
    hermitian += hermitian.conj().swapaxes(1, 2)
    strategy = two_setting_strategy(n, 0.3, -0.6)
    frames = np.stack(
        [
            _frame_state(lossy_w_state(n, eta), strategy, PhaseModel(centers, width))
            for eta, centers, width in (
                (0.9, rng.uniform(0.0, 6.0, n - 1), 0.2),
                (1.0, (0.4,) * (n - 1), 0.0),
                (0.6, rng.uniform(0.0, 6.0, n - 1), 1.3),
            )
        ]
    )
    stacked = []

    def recording(rho, pairs):
        stacked.append(rho)
        return np.zeros((len(rho), len(pairs), 2**n))

    monkeypatch.setattr(experiments, "correlator_tables", recording)
    pair_symbolic_tables(lossy_w_state(n, 0.8), paired_strategy(n, 0.4, -0.2, 2))
    monkeypatch.undo()
    (components,) = stacked
    picked = components[[0, len(components) // 2, -1]]
    return hermitian, frames, picked


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64)
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_rows_last_kernel_equals_the_rows_first_kernel(n, monkeypatch):
    # the rows-last layout keeps every multiply and add of the rows-first
    # kernel and sums in its order: bit for bit on stacks of 1-3 states,
    # random Hermitian, lossy W frame states and symbolic components,
    # against random, zero and photon-counting observables
    rng = np.random.default_rng(200 + n)
    mats = random_observable_matrices(rng, (9, n))
    mats[1] = 0.0
    mats[2] = displacement_matrices(1e200, rng.uniform(0.0, 6.0, n))
    mats[3, 0] = displacement_matrices(1e200, 0.3)
    mats[4, -1] = 0.0
    for stack in kernel_stacks(n, rng, monkeypatch):
        for count in (1, 2, 3):
            terms = _state_terms(stack[:count])
            values = _correlator_rows(terms, rows_last(mats))
            assert same_bits(values, rows_first_correlator_rows(terms, mats))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 12])
def test_rows_last_gathers_equal_the_former_matrix_rows(n, monkeypatch):
    # every route hands the kernel, bit for bit, the entries of the (B, N,
    # 2, 2) rows it used to stage, in its own row order: the exchangeable
    # route's 2N rows per point (the former (P, 2, N, N, 2, 2) stack, rows
    # (w, s_1, point) now), the walk's rows chunk by chunk with chunk edges
    # inside a table (rows (index, point) now), and correlator_batch's rows
    # with batch axes on both sides
    rng = np.random.default_rng(320 + n)
    seen = []
    values = fock_core._correlator_values

    def recorded(terms, entries):
        seen.append(np.array(entries))
        return values(terms, entries)

    monkeypatch.setattr(fock_core, "_correlator_values", recorded)
    monkeypatch.setattr(fock_core, "CORRELATOR_CHUNK_ELEMENTS", n * max(3, 2**n // 5) + n - 1)
    points = 3
    terms = _state_terms(_lossy_rhos(n, (0.2, 0.9), 0.3))

    ref, shared = random_observable_matrices(rng, (2, points, 2))
    stack = np.empty((points, 2, n, n, 2, 2), dtype=complex)
    stack[:, :, :, 0] = ref[:, :, None]
    pick = (np.arange(1, n) <= np.arange(n)[:, None]).astype(np.intp)
    stack[:, :, :, 1:] = shared[:, None, pick]
    former = stack.transpose(2, 1, 0, 3, 4, 5).reshape(-1, n, 2, 2)
    # party 1's pair and the shared one, or every party's pair
    for pairs in ((ref, shared), (ref,) + (shared,) * (n - 1)):
        seen.clear()
        _exchangeable_values(terms, np.stack(pairs, axis=1))
        assert same_bits(np.concatenate(seen, axis=-1), rows_last(former))

    pairs = random_observable_matrices(rng, (points, n, 2))
    seen.clear()
    _walked_values(terms, pairs)
    assert len(seen) > 1 or n == 1
    start, parties = 0, np.arange(n)
    for entries in seen:
        stop = start + entries.shape[-1] // points
        bits = (np.arange(start, stop)[:, None] >> parties) & 1
        rows = pairs[:, parties, bits].swapaxes(0, 1).reshape(-1, n, 2, 2)
        assert same_bits(entries, rows_last(rows))
        start = stop
    assert start == 2**n

    mats = random_observable_matrices(rng, (2, 3, n))
    seen.clear()
    correlator_batch(_lossy_rhos(n, (0.2, 0.9), 0.3), mats)
    assert same_bits(np.concatenate(seen, axis=-1), rows_last(mats.reshape(-1, n, 2, 2)))


@pytest.mark.parametrize("n", range(1, 13))
def test_table_routes_equal_the_rows_first_oracles(n, monkeypatch):
    # the walk (rows by one np.take, chunks whose edges fall inside a
    # table) and the exchangeable route (2N rows per point, leaves and
    # tables by np.take) give the bits of the rows-first kernel with the
    # indexing gathers, at the default budget and at one of a few rows
    rng = np.random.default_rng(250 + n)
    stacks = kernel_stacks(n, rng, monkeypatch)
    pairs = random_observable_matrices(rng, (3, n, 2))
    ref = random_observable_matrices(rng, (3, 2))
    shared = random_observable_matrices(rng, (3, 2))
    w_stack = _lossy_rhos(n, (0.0, 0.8, 1.0), 0.4)
    walked = [rows_first_walk(stack, pairs[:count]) for stack in stacks for count in (1, 3)]
    exchangeable = [rows_first_exchangeable(w_stack[:count], ref, shared) for count in (1, 3)]
    for budget in (None, n * max(3, 2**n // 5) + n - 1):
        if budget is not None:
            monkeypatch.setattr(fock_core, "CORRELATOR_CHUNK_ELEMENTS", budget)
        routed = [_walked_values(_state_terms(s), pairs[:count]) for s in stacks for count in (1, 3)]
        for tables, expected in zip(routed, walked, strict=True):
            assert same_bits(tables, expected)
        if n > 1:
            for count, expected in zip((1, 3), exchangeable):
                terms = _state_terms(w_stack[:count])
                distinct = _exchangeable_values(terms, np.stack((ref, shared), axis=1))
                assert same_bits(_weight_tables(distinct), expected)


@pytest.mark.parametrize("n", range(2, 23))
def test_weight_gathers_equal_the_indexing_forms(n):
    # the leaf gather (one np.take per leaf row into the output) and the
    # table gather (np.take of whole leaves) copy the bits the Ellipsis
    # and leading fancy indexing copied, -0.0 and NaN payloads among
    # them, for every batch shape; the cached layout stays read-only
    rng = np.random.default_rng(300 + n)
    payloads = np.array(
        [0x8000000000000000, 0x7FF8000000000001, 0xFFF00000DEADBEEF, 0x0000000000000001],
        dtype=np.uint64,
    ).view(float)

    def laced(shape):
        values = rng.uniform(-1.0, 1.0, shape)
        flat = values.reshape(-1)
        flat[rng.choice(flat.size, min(4, flat.size), replace=False)] = payloads[: flat.size]
        return values

    for batch in ((), (1,), (3,), (2, 3)) if n <= 16 else ((), (2,)):
        values = laced(batch + (n, 2))
        assert same_bits(fock_core._weight_leaves(values), indexed_weight_leaves(values))
    # the table gather of distinct values (S, P, N, 2), as the exchangeable
    # route returns them
    count, points = (2, 2) if n <= 16 else (1, 1)
    distinct = laced((count, points, n, 2))
    tables = _weight_tables(distinct)
    leaves = indexed_weight_leaves(distinct.reshape(count * points, n, 2))
    assert same_bits(tables, indexed_leaf_tables(leaves, n).reshape(count, points, 2**n))
    assert not tables.flags.writeable
    assert not any(index.flags.writeable for index in fock_core._weight_layout(n))


def test_correlator_batch_rejects_non_hermitian_state():
    rho = np.array(w_state(2).matrix)
    rho[0, 0] += 0.1j
    photon_counting = np.array([np.diag([1.0, -1.0])] * 2, dtype=complex)
    with pytest.raises(ConsistencyError):
        correlator_batch(rho, photon_counting)
    # a residue confined to the last row of the last chunk is still caught
    rho = np.array(w_state(2).matrix)
    rho[1, 2] = 0.5j
    rows = CORRELATOR_CHUNK_ELEMENTS // 2 + 1
    mats = np.broadcast_to(photon_counting, (rows, 2, 2, 2)).copy()
    assert np.all(np.abs(correlator_batch(rho, mats)) <= 1.0)
    mats[-1] = displacement_matrices(0.4, 0.0)
    with pytest.raises(ConsistencyError):
        correlator_batch(rho, mats)


def test_correlator_single_mode_is_a_trace():
    rng = np.random.default_rng(7)
    state = random_state(rng, 1)
    mats = displacement_matrices([0.6], [0.9])
    expected = np.trace(state.matrix @ mats[0]).real
    assert abs(correlator_batch(state.matrix, mats) - expected) < 1e-14


def test_correlator_requires_one_observable_per_mode():
    state = w_state(3)
    mats = setting_matrices([[0.1, 0.0]] * 2)
    with pytest.raises(ValueError, match="state has 3 modes"):
        correlator_batch(state.matrix, mats)
    with pytest.raises(ValueError, match="state has 3 modes"):
        correlator_bruteforce(state.matrix, mats)


def test_bruteforce_mode_limit():
    state = w_state(13)
    mats = setting_matrices([[0.1, 0.0]] * 13)
    with pytest.raises(ValueError, match="limited to N <= 12"):
        correlator_bruteforce(state.matrix, mats)


def test_correlator_phase_covariance():
    # shifting mode k's phase in the state equals shifting party k's
    # setting phase; a common shift leaves W-state correlators unchanged
    rng = np.random.default_rng(31)
    n = 4
    settings = random_settings(rng, n)
    shifts = rng.uniform(0.0, 2.0 * np.pi, n)
    state = w_state(n)
    rotation = np.diag(np.exp(1j * np.concatenate(([0.0], shifts))))
    rotated = SubspaceState(n, rotation @ state.matrix @ rotation.conj().T)
    shifted = settings + np.stack((np.zeros(n), shifts), axis=1)
    lhs = correlator_batch(rotated.matrix, setting_matrices(shifted))
    rhs = correlator_batch(state.matrix, setting_matrices(settings))
    assert abs(lhs - rhs) < 1e-12
    common = settings + [0.0, 1.3]
    assert abs(correlator_batch(state.matrix, setting_matrices(common)) - rhs) < 1e-12


def test_correlator_affine_in_loss():
    rng = np.random.default_rng(8)
    n = 3
    mats = setting_matrices(random_settings(rng, n))
    top = correlator_batch(w_state(n).matrix, mats)
    bottom = correlator_batch(lossy_w_state(n, 0.0).matrix, mats)
    for eta in (0.2, 0.5, 0.9):
        mixed = correlator_batch(lossy_w_state(n, eta).matrix, mats)
        assert abs(mixed - (eta * top + (1.0 - eta) * bottom)) < 1e-12


def test_consistency_error_is_runtime_error():
    assert issubclass(ConsistencyError, RuntimeError)
