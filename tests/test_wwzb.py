"""Bell functional via the fast transform, and the two-qubit benchmark."""

import dataclasses
import tracemalloc
from itertools import product

import numpy as np
import pytest

from helpers import (
    full_transform_bell_value,
    self_checking_bell_value,
    setting_weights,
    walsh_hadamard_levels,
)
import photonbell.wwzb as wwzb
from photonbell import (
    BellResult,
    CorrelatorTable,
    averaged_correlator_table,
    chsh_horodecki,
    wwzb_value,
    wwzb_value_naive,
)
from photonbell.fock_core import WEIGHT_LEAF_ROWS
from photonbell.wwzb import (
    NAIVE_PARTY_LIMIT,
    VIOLATION_ROUNDOFF,
    WHT_BLOCK_ENTRIES,
    _class_layout,
    _class_transform,
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
        # an input that would be kept without a copy is checked too
        with pytest.raises(ValueError, match="correlators must lie"):
            CorrelatorTable(2, _read_only(np.array([0.0, 0.0, 0.0, bad])))
    # overshoot within roundoff is accepted
    CorrelatorTable(2, np.array([0.0, -1.0 - 5e-10, 1.0 + 5e-10, 0.0]))
    table = CorrelatorTable(1, np.array([1.0, -1.0]))
    assert table.values.flags.writeable is False
    # values are real numbers: strings and booleans are not read as
    # floats, and complex values are refused before numpy's TypeError
    for bad in (["0.5", "0.2"], [True, False], [0.5 + 0j, 0.2], [None, 0.2]):
        with pytest.raises(ValueError, match="correlators must be real numbers"):
            CorrelatorTable(1, bad)
    assert CorrelatorTable(1, [1, 0]).values.dtype == float


def _read_only(array):
    array.setflags(write=False)
    return array


def _ramp(size, dtype=float):
    """A read-only array of ``size`` entries in [-1, 1] that owns its memory."""
    return _read_only(np.linspace(-1.0, 1.0, size).astype(dtype))


def test_unwritable_float_rows_are_kept_as_given():
    # a read-only float64 array that owns its memory, and a read-only view
    # of one, are kept: nothing can change them after the checks
    owner = _ramp(8)
    assert owner.base is None
    for given in (owner, owner[:], owner.reshape(2, 4).reshape(-1)):
        table = CorrelatorTable(3, given)
        assert table.values is given
        assert np.shares_memory(table.values, owner)


def _copied_inputs():
    writeable = np.array(_ramp(8))
    return {
        "writeable": writeable,
        "read-only view of writeable memory": _read_only(writeable.view()),
        "strided slice": _ramp(16)[::2],
        "float32": _ramp(8, np.float32),
        "big-endian": _ramp(8, ">f8"),
        "frombuffer": np.frombuffer(_ramp(8).tobytes()),
        "list of ints": [1, 0, -1, 0, 1, 1, -1, 0],
    }


@pytest.mark.parametrize("kind", list(_copied_inputs()))
def test_every_other_input_is_copied(kind):
    # lists, other dtypes and byte orders, strided arrays and anything
    # writeable, now or through its base, become a read-only float64 copy
    given = _copied_inputs()[kind]
    expected = np.array(given, dtype=float)
    table = CorrelatorTable(3, given)
    assert table.values.dtype == np.float64 and table.values.dtype.isnative
    assert not table.values.flags.writeable
    assert not np.shares_memory(table.values, given)
    assert np.array_equal(table.values, expected)
    if isinstance(given, np.ndarray) and given.flags.writeable:
        given[0] = 0.5
        assert np.array_equal(table.values, expected)


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
    # Odd n past one chunk, batch axes, sizes at and just past 512
    # entries, and a chunk boundary inside a level.
    shapes = [
        (2**19,),
        (3, 2**17),
        (64, 2**9),
        (5, 3, 2**9),
        (2, 1, 2**4),
        (1, 2),
        (128, 4),
        (129, 4),
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
    # NaN did not converge in eigvalsh and inf warned before the trace
    # check; both are refused first
    for bad in (np.nan, np.inf, -np.inf):
        for entry in ((0, 0), (1, 2)):
            mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
            mat[entry] = mat[entry[::-1]] = bad
            with pytest.raises(ValueError, match="state matrix must be finite"):
                chsh_horodecki(mat)


def test_naive_party_limit():
    with pytest.raises(ValueError):
        wwzb_value_naive(CorrelatorTable(11, np.zeros(2**11)))


def _weight_table(distinct):
    """Table (2^N,) whose entry s is distinct[weight(s_2..s_N), s_1]."""
    return distinct[setting_weights(len(distinct) - 1)].reshape(-1)


def _random_weight_table(rng, n):
    return _weight_table(rng.uniform(-1.0, 1.0, (n, 2)))


def _full_route_only(monkeypatch):
    def refused(distinct):
        raise AssertionError("class route taken")

    monkeypatch.setattr(wwzb, "_class_transform", refused)


def test_class_route_matches_full_transform_and_naive_sum():
    rng = np.random.default_rng(25)
    for n in range(3, 17):
        for _ in range(3):
            table = CorrelatorTable(n, _random_weight_table(rng, n))
            fast = wwzb_value(table)
            assert abs(fast.s_value - full_transform_bell_value(table).s_value) <= 1e-13
            if n <= NAIVE_PARTY_LIMIT:
                assert abs(fast.s_value - wwzb_value_naive(table).s_value) <= 1e-13


def test_class_values_equal_the_full_transform_bit_for_bit():
    # entries spanning many binades: a sum taken in another order than the
    # full transform's would show in the low bits.  A batch of tables on
    # leading axes gives each table the bits of a call with it alone, and
    # at N <= 2, where every index is a class, the whole transform
    rng = np.random.default_rng(26)
    for n in range(1, 19):
        distinct = rng.normal(size=(3, n, 2)) * np.exp2(rng.integers(-30, 1, (3, n, 2)))
        lowest, _ = _class_layout(n)
        batch = _class_transform(distinct)
        for table, classes in zip(distinct, batch):
            full = _walsh_hadamard(_weight_table(table))
            assert np.array_equal(_class_transform(table), full[lowest])
            assert np.array_equal(classes, full[lowest])


@pytest.mark.parametrize("n", [3, 9, 14, 15])
def test_one_ulp_off_weight_symmetry_takes_the_full_route(n, monkeypatch):
    # a single entry one ulp away in the first leaf, on both sides of the
    # first leaf boundary and at the last entry outside a class of one
    # sends the table to the full transform, with its bits
    rng = np.random.default_rng(27 + n)
    values = _random_weight_table(rng, n)
    lowest, _ = _class_layout(n)
    boundary = 2 * WEIGHT_LEAF_ROWS
    where = [5, 2**n - 3] + ([boundary - 1, boundary] if 2**n > boundary else [])
    changed_tables = []
    for index in where:
        changed = values.copy()
        changed[index] = np.nextafter(changed[index], 2.0)
        changed_tables.append(CorrelatorTable(n, changed))
    # the last entry is the lowest index of a class of one: changing it
    # keeps the table weight-symmetric
    last = values.copy()
    last[-1] = np.nextafter(last[-1], -2.0)
    assert lowest[-1, 1] == 2**n - 1
    table = CorrelatorTable(n, last)
    assert abs(wwzb_value(table).s_value - full_transform_bell_value(table).s_value) <= 1e-13
    _full_route_only(monkeypatch)
    for table in changed_tables:
        assert wwzb_value(table) == full_transform_bell_value(table)


def test_symmetric_deterministic_tables_give_exactly_one():
    # party 1 answers (b0, b1), parties 2..N all answer (a0, a1): the
    # table is weight-symmetric and its one nonzero class holds 2^N
    signs = list(product([1.0, -1.0], repeat=2))
    for n in range(3, 13):
        for (b0, b1), (a0, a1) in product(signs, signs):
            distinct = np.array(
                [[b * a0 ** (n - 1 - w) * a1**w for b in (b0, b1)] for w in range(n)]
            )
            result = wwzb_value(CorrelatorTable(n, _weight_table(distinct)))
            assert result.s_value == 1.0
            assert not result.violated


def test_one_and_two_parties_keep_the_full_route(monkeypatch):
    rng = np.random.default_rng(28)
    _full_route_only(monkeypatch)
    for n in (1, 2):
        for values in (rng.uniform(-1.0, 1.0, 2**n), _random_weight_table(rng, n)):
            table = CorrelatorTable(n, values)
            assert wwzb_value(table) == full_transform_bell_value(table)


def test_dominant_r_is_the_lowest_index_of_the_largest_class():
    rng = np.random.default_rng(29)
    for n in range(3, 13):
        values = _random_weight_table(rng, n)
        lowest, _ = _class_layout(n)
        magnitudes = np.abs(_walsh_hadamard(values))[lowest]
        best = lowest[magnitudes == magnitudes.max()].min()
        assert wwzb_value(CorrelatorTable(n, values)).dominant_r == best
    # a tie between class (r_1, u) = (1, 0), index 1, and class (0, N-1),
    # index 2^N - 2: party 1's answers are averaged over two strategies
    for n in range(3, 9):
        ones = np.ones(n)
        flips = (-1.0) ** np.arange(n)
        distinct = 0.5 * (np.outer(ones, [1.0, -1.0]) + np.outer(flips, [1.0, 1.0]))
        result = wwzb_value(CorrelatorTable(n, _weight_table(distinct)))
        assert result.dominant_r == 1
        assert result.s_value == 1.0


def test_class_route_allocates_nothing_table_sized():
    # the check reads the table leaf by leaf against its 8 distinct leaves
    # (512 KiB); the full transform would allocate its 8 MiB output
    n = 20
    table = CorrelatorTable(n, _random_weight_table(np.random.default_rng(30), n))
    wwzb_value(table)  # builds the cached layouts
    tracemalloc.start()
    try:
        wwzb_value(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.values.nbytes // 8


def test_library_table_reaches_the_bell_value_in_about_its_own_size():
    # the 8 MiB table of N = 20 is built once and kept by CorrelatorTable
    # without a copy, so building it and taking its Bell value peaks near
    # the table's own bytes; a copy would double that
    args = (20, 0.1, -0.4, [0.3] * 19, 0.2, 0.9)
    table = averaged_correlator_table(*args)
    wwzb_value(CorrelatorTable(20, table))  # builds the cached layouts
    tracemalloc.start()
    try:
        wwzb_value(CorrelatorTable(20, averaged_correlator_table(*args)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * table.nbytes


def _off_class_index(n, weight, first):
    """An index of class (weight, first) other than its lowest: the top parties set."""
    return first + sum(1 << (k - 1) for k in range(n - weight + 1, n + 1))


def _many_parties_tables():
    """The library tables of the perfbench ``many-parties`` inputs of N <= 16.

    The draw mirrors that workload's: per seed (0, 1) and variant (0..3),
    one generator that draws (r0, r1, width, efficiency, centers) for each
    N of the full and the tiny sizes in turn.
    """
    sizes = ((12, 14, 16, 18, 20, 22), 10), ((11, 12), 4)
    for (symmetric, distinct), seed, variant in product(sizes, (0, 1), range(4)):
        rng = np.random.default_rng([seed, variant, 2])
        for n in symmetric + (distinct,):
            r0, r1 = rng.uniform(0.05, 0.4), -rng.uniform(0.3, 0.8)
            width, efficiency = rng.uniform(0.0, 0.4), rng.uniform(0.85, 1.0)
            if n == distinct:
                centers = rng.uniform(0.0, 2 * np.pi, n - 1)
            else:
                centers = [rng.uniform(0.0, 2 * np.pi)] * (n - 1)
            if n <= 16:
                yield n, averaged_correlator_table(n, r0, r1, centers, width, efficiency)


def test_one_pass_verdict_equals_the_self_checking_oracle():
    # the classes found at construction give, bit for bit, what a Bell
    # value that checks the table itself gives: on weight-symmetric tables,
    # on copies one ulp off at any index, on random tables and on the
    # library tables that perfbench times
    rng = np.random.default_rng(31)
    for n in range(1, 17):
        symmetric = _random_weight_table(rng, n)
        tables = [symmetric, rng.uniform(-1.0, 1.0, 2**n)]
        for index in rng.integers(0, 2**n, 3):
            changed = symmetric.copy()
            changed[index] = np.nextafter(changed[index], 2.0)
            tables.append(changed)
        for values in tables:
            table = CorrelatorTable(n, values)
            assert wwzb_value(table) == self_checking_bell_value(table)
    routes = {True: 0, False: 0}
    for n, values in _many_parties_tables():
        table = CorrelatorTable(n, values)
        routes[table._classes is not None] += 1
        assert wwzb_value(table) == self_checking_bell_value(table)
    assert routes == {True: 40, False: 16}


def _counted_symmetry_checks(monkeypatch):
    calls = []
    check = wwzb._weight_symmetric

    def counted(values, distinct):
        verdict = check(values, distinct)
        calls.append((len(values), verdict))
        return verdict

    monkeypatch.setattr(wwzb, "_weight_symmetric", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 14, 20])
def test_weight_symmetry_is_checked_once_per_table(n, monkeypatch):
    # CorrelatorTable reads the table once for the classes and wwzb_value
    # never again; N <= 2 takes the full transform without a check
    rng = np.random.default_rng(32 + n)
    symmetric = _random_weight_table(rng, n)
    off = symmetric.copy()
    index = _off_class_index(n, 1, 1) if n >= 3 else 0
    off[index] = np.nextafter(off[index], 2.0)
    expected = [self_checking_bell_value(CorrelatorTable(n, v)) for v in (symmetric, off)]
    calls = _counted_symmetry_checks(monkeypatch)
    tables = []
    for values, result in zip((symmetric, off), expected):
        calls.clear()
        table = CorrelatorTable(n, values)
        assert wwzb_value(table) == result
        assert [size for size, _ in calls] == ([2**n] if n >= 3 else [])
        tables.append(table)
    assert (tables[0]._classes is not None) == (n >= 3)
    assert tables[1]._classes is None

    def refused(values, distinct):
        raise AssertionError("table checked again")

    monkeypatch.setattr(wwzb, "_weight_symmetric", refused)
    assert [wwzb_value(table) for table in tables] == expected


_RANGE_MESSAGE = "correlators must lie in \\[-1, 1\\] up to roundoff"


@pytest.mark.parametrize("n", [3, 13, 14])
def test_range_refusals_read_the_classes_or_every_entry(n, monkeypatch):
    # an out-of-range or non-finite value is refused with the same message
    # whether it fills a whole class (the classes are found, and their 2N
    # values fail the check) or sits at one entry of a larger class (lowest
    # index or not: the table is not weight-symmetric)
    rng = np.random.default_rng(40 + n)
    distinct = rng.uniform(-1.0, 1.0, (n, 2))
    calls = _counted_symmetry_checks(monkeypatch)
    for (weight, first), bad in product(
        [(0, 0), (n // 2, 1), (n - 1, 0)], [1.0 + 2e-9, -1.0 - 2e-9, np.nan, np.inf, -np.inf]
    ):
        whole = distinct.copy()
        whole[weight, first] = bad
        with pytest.raises(ValueError, match=_RANGE_MESSAGE):
            CorrelatorTable(n, _weight_table(whole))
        assert calls.pop() == (2**n, True)
        if weight in (0, n - 1):  # a class of one entry
            continue
        lowest = _class_layout(n)[0][weight, first]
        for index in (_off_class_index(n, weight, first), lowest):
            single = _weight_table(distinct)
            single[index] = bad
            with pytest.raises(ValueError, match=_RANGE_MESSAGE):
                CorrelatorTable(n, single)
            assert calls.pop() == (2**n, False)
    # overshoot within roundoff is accepted on both routes
    weight, first = n // 2, 1
    whole = distinct.copy()
    whole[weight, first] = 1.0 + 5e-10
    assert CorrelatorTable(n, _weight_table(whole))._classes is not None
    single = _weight_table(distinct)
    single[_off_class_index(n, weight, first)] = -1.0 - 5e-10
    assert CorrelatorTable(n, single)._classes is None


def test_classes_are_a_read_only_private_field():
    rng = np.random.default_rng(33)
    for n in range(1, 9):
        values = _random_weight_table(rng, n)
        table = CorrelatorTable(n, values)
        if n <= 2:
            assert table._classes is None
            continue
        classes = table._classes
        assert classes.shape == (n, 2) and classes.dtype == np.float64
        assert np.array_equal(classes, values[_class_layout(n)[0]])
        assert not classes.flags.writeable
        with pytest.raises(ValueError):
            classes[0, 0] = 0.0
        assert "_classes" not in repr(table)
        # -0.0 and 0.0 are told apart by their bits
        signed = values.copy()
        signed[[2, 4]] = [0.0, -0.0]
        assert CorrelatorTable(n, signed)._classes is None
    (field,) = [f for f in dataclasses.fields(CorrelatorTable) if f.name == "_classes"]
    assert not field.init and not field.repr
    with pytest.raises(TypeError):
        CorrelatorTable(3, np.zeros(8), _classes=np.zeros((3, 2)))
