"""Bell functional via the fast transform, and the two-qubit benchmark."""

from itertools import product

import numpy as np
import pytest

from helpers import walsh_hadamard_levels
from photonbell import (
    BellResult,
    CorrelatorTable,
    chsh_horodecki,
    wwzb_value,
    wwzb_value_naive,
)
from photonbell.wwzb import (
    VIOLATION_ROUNDOFF,
    WHT_BLOCK_ENTRIES,
    WHT_SMALL_ENTRIES,
    _walsh_hadamard,
)

_PAULIS = [
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
]


def test_table_validation():
    with pytest.raises(ValueError):
        CorrelatorTable(2, np.zeros(3))
    for bad in (1.5, -1.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="correlators must lie"):
            CorrelatorTable(2, np.array([0.0, 0.0, 0.0, bad]))
    # overshoot within roundoff is accepted
    CorrelatorTable(2, np.array([0.0, -1.0 - 5e-10, 1.0 + 5e-10, 0.0]))
    table = CorrelatorTable(1, np.array([1.0, -1.0]))
    assert table.values.flags.writeable is False


def _assert_transform_is_oracle(values):
    before = np.array(values, copy=True)
    out = _walsh_hadamard(values)
    assert np.array_equal(out, walsh_hadamard_levels(values))
    assert np.array_equal(values, before, equal_nan=True)
    return out


def test_blocked_transform_equals_level_loop():
    rng = np.random.default_rng(8)
    # One row for every n = 1..20, values spanning many binades so any
    # change in the order of the sums would show in the low bits.
    for n in range(1, 21):
        row = rng.normal(size=2**n) * np.exp2(rng.integers(-30, 30, 2**n))
        _assert_transform_is_oracle(row)
    # Odd n past one block, batch axes, tiny and just-blocked sizes.
    shapes = [
        (2**19,),
        (3, 2**17),
        (64, 2**9),
        (5, 3, 2**9),
        (2, 1, 2**4),
        (1, 2),
        (WHT_SMALL_ENTRIES // 4, 4),
        (WHT_SMALL_ENTRIES // 4 + 1, 4),
        (2 * WHT_BLOCK_ENTRIES + 1, 2),
        (7, 1),
        (0, 8),
    ]
    for shape in shapes:
        _assert_transform_is_oracle(rng.uniform(-1.0, 1.0, shape))


def test_blocked_transform_handles_views_and_special_values():
    rng = np.random.default_rng(9)
    base = rng.uniform(-1.0, 1.0, (2**11, 6))
    # Non-contiguous inputs: transposed columns, a strided column, a
    # reversed column and the real part of a complex array.
    _assert_transform_is_oracle(base[:, :4].T)
    _assert_transform_is_oracle(base[:, 2])
    _assert_transform_is_oracle(base[::-1, 0])
    _assert_transform_is_oracle((base[:1024, :4] + 1j * base[1024:, :4]).T.real)
    # Integer and list input.
    _assert_transform_is_oracle(np.arange(2**12).reshape(2, -1))
    _assert_transform_is_oracle([0.5, -0.25, 1.0, 2.0])
    # NaN, infinities and signed zeros propagate as in the level loop.
    special = rng.uniform(-1.0, 1.0, 2**12)
    special[[3, 700, 2000, 4000]] = [np.nan, np.inf, -np.inf, -0.0]
    with np.errstate(invalid="ignore"):
        out = _walsh_hadamard(special)
        expected = walsh_hadamard_levels(special)
    assert np.array_equal(out, expected, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(expected))


def test_fast_transform_matches_naive():
    # 500 random tables across party counts
    rng = np.random.default_rng(99)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        values = rng.uniform(-1.0, 1.0, 2**n)
        table = CorrelatorTable(n, values)
        fast = wwzb_value(table)
        slow = wwzb_value_naive(table)
        assert abs(fast.s_value - slow.s_value) < 1e-12
        assert fast.dominant_r == slow.dominant_r


def test_chsh_equivalence_for_two_parties():
    # the optimal singlet correlators give the usual CHSH point
    values = np.array([1.0, 1.0, 1.0, -1.0]) / np.sqrt(2.0)
    result = wwzb_value(CorrelatorTable(2, values))
    assert abs(result.s_value - np.sqrt(2.0)) < 1e-14
    assert result.violated


def test_deterministic_strategies_saturate_unity():
    # every local-deterministic table reaches exactly 1, never more
    for n in range(1, 5):
        assignments = list(product([1.0, -1.0], repeat=2))
        for outcome_rows in product(assignments, repeat=n):
            values = np.empty(2**n)
            for index in range(2**n):
                prod = 1.0
                for k in range(n):
                    prod *= outcome_rows[k][(index >> k) & 1]
                values[index] = prod
            result = wwzb_value(CorrelatorTable(n, values))
            assert result.s_value == 1.0
            assert not result.violated


def test_dominant_term_is_argmax():
    values = np.array([0.1, 0.9, -0.2, 0.3])
    result = wwzb_value(CorrelatorTable(2, values))
    transform = np.array(
        [
            values[0] + values[1] + values[2] + values[3],
            values[0] - values[1] + values[2] - values[3],
            values[0] + values[1] - values[2] - values[3],
            values[0] - values[1] - values[2] + values[3],
        ]
    )
    assert result.dominant_r == int(np.argmax(np.abs(transform)))
    assert abs(result.s_value - np.abs(transform).sum() / 4.0) < 1e-14


def test_bell_result_violated_flag():
    assert BellResult(1.2, 0).violated
    assert not BellResult(1.0, 0).violated
    # a classical value of 1 rounded up by an ulp or two is no violation
    assert not BellResult(1.0 + 2.3e-16, 0).violated
    assert not BellResult(1.0 + VIOLATION_ROUNDOFF, 0).violated


def _chsh_bruteforce(rho: np.ndarray) -> float:
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = np.trace(rho @ np.kron(_PAULIS[i], _PAULIS[j])).real
    u = np.sort(np.linalg.eigvalsh(t.T @ t))
    return 2.0 * np.sqrt(u[-1] + u[-2])


def test_chsh_horodecki_singlet():
    psi = np.zeros(4)
    psi[1], psi[2] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
    rho = np.outer(psi, psi)
    assert abs(chsh_horodecki(rho) - 2.0 * np.sqrt(2.0)) < 1e-12


def test_chsh_horodecki_product_state():
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert abs(chsh_horodecki(rho) - 2.0) < 1e-12


def test_chsh_horodecki_matches_bruteforce_on_random_states():
    rng = np.random.default_rng(4242)
    for _ in range(25):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        assert abs(chsh_horodecki(rho) - _chsh_bruteforce(rho)) < 1e-12


def test_chsh_horodecki_benchmark_mixture():
    # symmetric one-excitation Bell state diluted with |00>; stays below 2
    psi = np.zeros(4)
    psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
    rho = (2.0 / 3.0) * np.outer(psi, psi)
    rho[0, 0] += 1.0 / 3.0
    value = chsh_horodecki(rho)
    assert abs(value - 1.8856180831641267) < 1e-12
    assert abs(value - 2.0 * np.sqrt(8.0 / 9.0)) < 1e-12
    assert value < 2.0


def test_chsh_horodecki_validation():
    with pytest.raises(ValueError):
        chsh_horodecki(np.eye(3))
    bad_trace = np.eye(4)
    with pytest.raises(ValueError):
        chsh_horodecki(bad_trace)
    bad_herm = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    bad_herm[0, 1] = 0.2j
    with pytest.raises(ValueError):
        chsh_horodecki(bad_herm)
    bad_psd = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        chsh_horodecki(bad_psd)


def test_naive_party_limit():
    with pytest.raises(ValueError):
        wwzb_value_naive(CorrelatorTable(11, np.zeros(2**11)))
