"""Core state/observable construction and the closed-form correlator."""

import numpy as np
import pytest

from photonbell import (
    ConsistencyError,
    DisplacementSetting,
    ModeObservable,
    SettingVector,
    SubspaceState,
    correlator,
    correlator_bruteforce,
    displacement_observable,
    lossy_w_state,
    projective_observable,
    w_state,
)
from photonbell.fock_core import (
    CORRELATOR_CHUNK_ELEMENTS,
    check_observable_matrices,
    correlator_batch,
)

from helpers import (
    coherent_vector,
    random_observable_matrices,
    random_settings,
    random_state,
)


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


def test_state_matrix_read_only():
    state = w_state(2)
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 1.0


def test_displacement_setting_normalization():
    s = DisplacementSetting(0.4, 5.0 * np.pi)
    assert abs(s.phase - np.pi) < 1e-12
    assert abs(s.alpha - 0.4 * np.exp(1j * np.pi)) < 1e-12
    with pytest.raises(ValueError):
        DisplacementSetting(-0.1)
    with pytest.raises(ValueError):
        DisplacementSetting(np.inf)


def test_from_signed_amplitude():
    plain = DisplacementSetting.from_signed(0.7, 0.3)
    assert plain == DisplacementSetting(0.7, 0.3)
    flipped = DisplacementSetting.from_signed(-0.7, 0.3)
    assert abs(flipped.amplitude - 0.7) < 1e-15
    assert abs(flipped.phase - (0.3 + np.pi)) < 1e-12
    # the signed form is the same point of phase space
    assert abs(flipped.alpha - (-0.7) * np.exp(0.3j)) < 1e-12
    with pytest.raises(ValueError):
        DisplacementSetting.from_signed(np.nan)


def test_signed_observable_flips_off_diagonals():
    direct = displacement_observable(DisplacementSetting(0.5, 0.0)).matrix
    flipped = displacement_observable(DisplacementSetting.from_signed(-0.5, 0.0)).matrix
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
    got = displacement_observable(DisplacementSetting(r, phi)).matrix
    assert np.abs(got - expected).max() < 1e-12


def test_displacement_zero_amplitude_is_photon_counting():
    for phi in (0.0, 1.0, 3.0):
        mat = displacement_observable(DisplacementSetting(0.0, phi)).matrix
        assert np.allclose(mat, np.diag([1.0, -1.0]))


def test_observable_validation():
    with pytest.raises(ValueError):
        ModeObservable(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        ModeObservable(3.0 * np.eye(2))
    with pytest.raises(ValueError):
        ModeObservable(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    ok = ModeObservable(np.array([[0.5, 0.1], [0.1, -0.5]], dtype=complex))
    assert ok.matrix.dtype == complex
    # the array form rejects a batch holding one bad matrix anywhere
    batch = np.broadcast_to(ok.matrix, (3, 4, 2, 2)).copy()
    check_observable_matrices(batch)
    for bad in (3.0 * np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.full((2, 2), np.inf)):
        broken = batch.copy()
        broken[2, 1] = bad
        with pytest.raises(ValueError):
            check_observable_matrices(broken)


def test_projective_observable_form():
    theta, phi = 0.8, 2.1
    mat = projective_observable(theta, phi).matrix
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
        proj = 2.0 * projective_observable(theta, 0.7).matrix
        disp = displacement_observable(DisplacementSetting(theta / 2.0, 0.7)).matrix
        residues.append(np.abs(proj - disp).max())
    slopes = np.diff(np.log(residues)) / np.diff(np.log(thetas))
    assert np.all(slopes > 2.8) and np.all(slopes < 3.2)
    # known leading coefficient of the residue is theta^3 / 12
    ratio = residues[-1] / (thetas[-1] ** 3 / 12.0)
    assert 0.9 < ratio < 1.1


def test_setting_vector_validation():
    vec = SettingVector((0, 1, 1))
    vec.validate_for([2, 2, 3])
    with pytest.raises(ValueError):
        vec.validate_for([2, 2])
    with pytest.raises(ValueError):
        vec.validate_for([2, 1, 3])
    with pytest.raises(ValueError):
        SettingVector((0, -1))


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5, 6])
def test_correlator_matches_bruteforce(n_modes):
    rng = np.random.default_rng(1000 + n_modes)
    for _ in range(30):
        state = random_state(rng, n_modes)
        obs = [displacement_observable(s) for s in random_settings(rng, n_modes)]
        fast = correlator(state, obs)
        slow = correlator_bruteforce(state, obs)
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
            slow = correlator_bruteforce(state, [ModeObservable(m) for m in row])
            assert abs(value - slow) < 1e-10


def test_correlator_batch_leading_shape():
    rng = np.random.default_rng(41)
    state = random_state(rng, 3)
    mats = random_observable_matrices(rng, (3, 4, 3))
    values = correlator_batch(state.matrix, mats)
    assert values.shape == (3, 4)
    for index in np.ndindex(3, 4):
        slow = correlator_bruteforce(state, [ModeObservable(m) for m in mats[index]])
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
        slow = correlator_bruteforce(state, [ModeObservable(m) for m in mats[i]])
        assert abs(values[i] - slow) < 1e-10
    # slices that straddle the chunk boundaries reproduce the values exactly
    for start in range(0, count, 7001):
        part = correlator_batch(state.matrix, mats[start : start + 7001])
        assert np.array_equal(part, values[start : start + 7001])


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
    mats[-1] = displacement_observable(DisplacementSetting(0.4)).matrix
    with pytest.raises(ConsistencyError):
        correlator_batch(rho, mats)


def test_correlator_single_mode_is_a_trace():
    rng = np.random.default_rng(7)
    state = random_state(rng, 1)
    obs = displacement_observable(DisplacementSetting(0.6, 0.9))
    expected = np.trace(state.matrix @ obs.matrix).real
    assert abs(correlator(state, [obs]) - expected) < 1e-14


def test_correlator_requires_one_observable_per_mode():
    state = w_state(3)
    obs = [displacement_observable(DisplacementSetting(0.1))] * 2
    with pytest.raises(ValueError):
        correlator(state, obs)
    with pytest.raises(ValueError):
        correlator_bruteforce(state, obs)


def test_bruteforce_mode_limit():
    state = w_state(13)
    obs = [displacement_observable(DisplacementSetting(0.1))] * 13
    with pytest.raises(ValueError):
        correlator_bruteforce(state, obs)


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
    shifted = [
        DisplacementSetting(s.amplitude, s.phase + t) for s, t in zip(settings, shifts)
    ]
    obs = [displacement_observable(s) for s in settings]
    obs_shifted = [displacement_observable(s) for s in shifted]
    lhs = correlator(rotated, obs_shifted)
    rhs = correlator(state, obs)
    assert abs(lhs - rhs) < 1e-12
    common = [DisplacementSetting(s.amplitude, s.phase + 1.3) for s in settings]
    obs_common = [displacement_observable(s) for s in common]
    assert abs(correlator(state, obs_common) - rhs) < 1e-12


def test_correlator_affine_in_loss():
    rng = np.random.default_rng(8)
    n = 3
    obs = [displacement_observable(s) for s in random_settings(rng, n)]
    top = correlator(w_state(n), obs)
    bottom = correlator(lossy_w_state(n, 0.0), obs)
    for eta in (0.2, 0.5, 0.9):
        mixed = correlator(lossy_w_state(n, eta), obs)
        assert abs(mixed - (eta * top + (1.0 - eta) * bottom)) < 1e-12


def test_consistency_error_is_runtime_error():
    assert issubclass(ConsistencyError, RuntimeError)
