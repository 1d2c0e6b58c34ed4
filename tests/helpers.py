"""Shared randomized-construction helpers and slow oracles for the test suite."""

import json
import math
from fractions import Fraction

import numpy as np

from photonbell import (
    BellResult,
    ConsistencyError,
    OptimizationSpec,
    PhaseModel,
    SubspaceState,
    ThresholdResult,
    maximize_bell,
)
import photonbell.experiments as experiments
import photonbell.optimize as optimize
from photonbell.experiments import _half_basis, _setting_pairs
from photonbell.fock_core import (
    IMAG_RESIDUE_TOL,
    TWO_PI,
    _displacement_entries,
    _exchangeable,
    _state_terms,
    _table_values,
    _weight_layout,
    check_observable_matrices,
    correlator_batch,
    correlator_tables,
    displacement_matrices,
    lossy_w_state,
)
from photonbell.optimize import (
    _THRESHOLD_EFFICIENCIES,
    AMPLITUDE_BOUNDS,
    START_AMPLITUDE,
    _amplitude_pairs,
    _crossing_efficiency,
    _halton,
    _lockstep,
    _lossy_rhos,
    _nelder_mead,
    _point_parameters,
    _search_box,
    _setting_options,
)
from photonbell.wwzb import (
    TABLE_RANGE_TOL,
    VIOLATION_ROUNDOFF,
    _class_layout,
    _class_transform,
    _walsh_hadamard,
    _weight_symmetric,
)

# Imaginary residue the complex frame scan allows in its real tables.
IMAG_TOL = 1e-10

# Largest N for which the dense 2^N oracle is allowed to run.
BRUTEFORCE_MODE_LIMIT = 12

# Drop theta-series terms once q^{n^2} falls below this.
SERIES_TRUNCATION = 1e-16


def setting_matrices(settings) -> np.ndarray:
    """Observable matrices (N, 2, 2) of one (amplitude, phase) row per mode, validated."""
    settings = np.asarray(settings, dtype=float)
    mats = displacement_matrices(settings[:, 0], settings[:, 1])
    check_observable_matrices(mats)
    return mats


def former_displacement_matrices(amplitudes, phases) -> np.ndarray:
    """``fock_core.displacement_matrices`` as written before its real entries were factored out.

    Oracle of the factored version, which must return the same bits for
    every amplitude and phase, NaN and infinities included.
    """
    r = np.asarray(amplitudes, dtype=float)
    phi = np.asarray(phases, dtype=float)
    capped = np.minimum(np.abs(r), 1e150)
    g = 2.0 * np.exp(-capped * capped)
    mats = np.empty(np.broadcast(r, phi).shape + (2, 2), dtype=complex)
    mats[..., 0, 0] = g - 1.0
    mats[..., 0, 1] = g * r * np.exp(-1j * phi)
    mats[..., 1, 0] = g * r * np.exp(1j * phi)
    mats[..., 1, 1] = g * r * r - 1.0
    return mats


def correlator_bruteforce(rho, matrices) -> float:
    """Tr[rho (M_1 x ... x M_N)] via dense tensors in the 2^N occupation space.

    Oracle for ``fock_core.correlator_batch``: embeds the (N+1) x (N+1)
    state ``rho`` into the full mode-occupation space, forms the tensor
    product of the (N, 2, 2) observable ``matrices`` as a dense 2^N x 2^N
    matrix and takes the trace inner product.  The matrices are validated
    first, and N is limited to BRUTEFORCE_MODE_LIMIT modes.
    """
    rho = np.asarray(rho)
    n = len(rho) - 1
    mats = np.asarray(matrices)
    if mats.shape != (n, 2, 2):
        raise ValueError(f"state has {n} modes, observables have shape {mats.shape}")
    check_observable_matrices(mats)
    if n > BRUTEFORCE_MODE_LIMIT:
        raise ValueError(
            f"brute-force correlator limited to N <= {BRUTEFORCE_MODE_LIMIT}"
        )
    dim = 2**n
    full = np.ones((1, 1), dtype=complex)
    for mat in mats:
        full = np.kron(full, mat)
    # Mode k (1-based) occupies bit n - k, so |e_1> is the highest bit.
    index = [0] + [1 << (n - k) for k in range(1, n + 1)]
    rho_full = np.zeros((dim, dim), dtype=complex)
    for a, ia in enumerate(index):
        for b, ib in enumerate(index):
            rho_full[ia, ib] = rho[a, b]
    value = complex(np.einsum("ab,ba->", rho_full, full))
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise ConsistencyError(
            f"brute-force correlator has imaginary residue {value.imag:.3e}"
        )
    return float(value.real)


def projective_observable(theta: float, phi: float) -> np.ndarray:
    """Half-weighted qubit observable along direction (theta, phi), a 2x2 matrix.

    Returns (1/2) * [[cos t, e^{-i phi} sin t], [e^{i phi} sin t, -cos t]],
    with the explicit 1/2 kept, so the outcomes are +-1/2.  Doubling it
    reproduces ``displacement_matrices`` at amplitude theta/2 up to
    O(theta^3): the off-diagonal entries differ by theta^3/12 at leading
    order, the diagonal ones by O(theta^4).
    """
    return 0.5 * np.array(
        [
            [np.cos(theta), np.exp(-1j * phi) * np.sin(theta)],
            [np.exp(1j * phi) * np.sin(theta), -np.cos(theta)],
        ]
    )


def wrapped_gaussian_pdf(phi, center: float, width: float):
    """Density of a Gaussian of mean ``center`` and sd ``width`` wrapped to 2*pi.

    Two exact forms exist, and the one with fewer terms at this width is
    summed.  Wide noise uses the Fourier form

        pdf(phi) = (1/2pi) * [1 + 2 * sum_{n>=1} q^{n^2} cos(n (phi - center))]

    with q = exp(-width^2 / 2), truncated once q^{n^2} < SERIES_TRUNCATION,
    which takes about 8.6 / width terms.  Narrow noise uses the sum of
    Gaussians over the windings 2 pi k of x = phi - center reduced to
    [-pi, pi],

        pdf(phi) = sum_k exp(-(x + 2 pi k)^2 / (2 width^2)) / (width sqrt(2 pi)),

    over the |k| <= K whose omitted terms fall below SERIES_TRUNCATION of
    the peak, which takes 2K + 1 terms.  Zero width is rejected: the density
    degenerates to a delta spike, and callers handle that case by using the
    center directly.  Its quadrature is the oracle of the package's exact
    Gaussian damping exp(-width^2 |m|^2 / 2).

    Parameters
    ----------
    phi : float or array_like
        Angles at which to evaluate (any real values; the density has
        period 2*pi).
    center, width : float
        Mean and standard deviation of the unwrapped Gaussian; width > 0.

    Returns
    -------
    float or ndarray
        Density values, nonnegative, integrating to 1 over one period.
    """
    if not np.isfinite(width) or width <= 0.0:
        raise ValueError("width must be > 0 (zero width has no density)")
    phi_arr = np.asarray(phi, dtype=float)
    reach = np.sqrt(-2.0 * np.log(SERIES_TRUNCATION))
    # Term counts as floats: either may be inf at extreme widths.
    n_max = np.floor(reach / width) + 1.0
    # Windings beyond K are at least 2 pi (K + 1) - pi from x.
    k_max = np.ceil((reach * width + np.pi) / TWO_PI) - 1.0
    x = phi_arr - center
    if 2.0 * k_max + 1.0 < n_max:
        x = x - TWO_PI * np.round(x / TWO_PI)
        shifts = TWO_PI * np.arange(-k_max, k_max + 1.0)
        peaks = np.exp(-0.5 * (np.add.outer(x, shifts) / width) ** 2)
        density = peaks.sum(axis=-1) / (width * np.sqrt(TWO_PI))
    else:
        n = np.arange(1.0, n_max + 1.0)
        weights = np.exp(-0.5 * (n * width) ** 2)
        series = 1.0 + 2.0 * (np.cos(np.multiply.outer(x, n)) @ weights)
        density = np.maximum(series / TWO_PI, 0.0)  # clip roundoff in far tails
    return float(density) if np.isscalar(phi) or phi_arr.ndim == 0 else density


def sample_offsets(model: PhaseModel, rng_seed: int, count: int) -> np.ndarray:
    """Draw ``count`` offset vectors from the model, deterministically.

    Returns an array of shape (count, n_relative) with each component drawn
    from a Gaussian of the model's center and width, reduced mod 2*pi.
    A zero-width model is rejected; callers use the centers directly in
    that degenerate case.  Means over these draws are the Monte Carlo
    oracle of the analytic frame averages.
    """
    if model.width == 0.0:
        raise ValueError("zero-width model has no randomness to sample")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    draws = rng.normal(
        loc=model.centers, scale=model.width, size=(count, model.n_relative)
    )
    return draws % TWO_PI


def random_state(rng: np.random.Generator, n_modes: int) -> SubspaceState:
    """Random mixed state on the 0/1-excitation sector of n_modes modes."""
    dim = n_modes + 1
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    return SubspaceState(n_modes, rho)


def random_settings(rng: np.random.Generator, n_modes: int, r_max: float = 1.5):
    """One random (amplitude, phase) row per mode, shape (n_modes, 2)."""
    return np.array(
        [[rng.uniform(0.0, r_max), rng.uniform(0.0, 2.0 * np.pi)] for _ in range(n_modes)]
    )


def random_observable_matrices(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Random Hermitian 2x2 matrices with eigenvalues in [-1, 1], shape (*shape, 2, 2)."""
    eigs = rng.uniform(-1.0, 1.0, shape + (2,))
    raw = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    unitary, _ = np.linalg.qr(raw)
    mats = unitary @ (eigs[..., :, None] * unitary.conj().swapaxes(-1, -2))
    return 0.5 * (mats + mats.conj().swapaxes(-1, -2))


def walsh_hadamard_levels(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis, level by level.

    The plain in-place loop over one copy: span h = 1, 2, 4, ... replaces
    each pair (x, y) by (x + y, x - y), a whole level in one step.  Oracle
    for ``wwzb._walsh_hadamard``, which runs each level in chunks of
    pairs and must return the same bits.
    """
    a = np.array(values, dtype=float)
    size = a.shape[-1]
    h = 1
    while h < size:
        b = a.reshape(a.shape[:-1] + (size // (2 * h), 2, h))
        first = b[..., 0, :].copy()
        b[..., 0, :] += b[..., 1, :]
        np.subtract(first, b[..., 1, :], out=b[..., 1, :])
        h *= 2
    return a


def full_transform_bell_value(table) -> BellResult:
    """Bell value of a ``CorrelatorTable`` by the full 2^N transform, for every table.

    The route ``wwzb_value`` takes for tables that are not weight-symmetric
    and for N <= 2: S from the sum of all 2^N magnitudes, r the lowest
    index of the largest.  Oracle of its class route, and the value the
    optimizer's batched scores equal bit for bit.
    """
    magnitudes = np.abs(_walsh_hadamard(table.values))
    s_value = float(magnitudes.sum() / 2**table.n_parties)
    return BellResult(s_value=s_value, dominant_r=int(np.argmax(magnitudes)))


def self_checking_bell_value(table) -> BellResult:
    """Bell value of a ``CorrelatorTable`` that checks its weight symmetry itself.

    ``wwzb_value`` as it was before ``CorrelatorTable`` found the weight
    classes at construction: a table of N >= 3 is checked here, bit for
    bit, and takes the class route if it is weight-symmetric; every other
    table takes the full transform.  Oracle of the one-pass verdict.
    """
    n, values = table.n_parties, table.values
    if n >= 3:
        lowest, counts = _class_layout(n)
        distinct = values[lowest]
        if _weight_symmetric(values, distinct):
            magnitudes = np.abs(_class_transform(distinct))
            s_value = float((magnitudes * counts[:, None]).sum() / 2**n)
            dominant = lowest.flat[np.argmax(magnitudes)]
            return BellResult(s_value=s_value, dominant_r=int(dominant))
    return full_transform_bell_value(table)


def complex_terms(table):
    """Full +-n basis (K, N-1) and complex coefficients (K, 2^N) of a table.

    ``table`` is one symbolic table, rows (1 + N(N-1), 2^N).

    Built straight from the real rows: c_0 = a_0 and c_+-n = (A_n -+ i B_n)
    / 2 for each half-basis frequency n, so that entry s at offsets Delta
    is sum_k coeffs[k, s] exp(i freqs[k] . Delta).
    """
    half = _half_basis(table.shape[-1].bit_length() - 1)
    constant, cos, sin = np.split(table, [1, 1 + len(half)])
    freqs = np.concatenate((np.zeros((1, half.shape[1]), dtype=int), half, -half)).astype(float)
    coeffs = np.concatenate((constant, 0.5 * (cos - 1j * sin), 0.5 * (cos + 1j * sin)))
    return freqs, coeffs


def complex_entries(table, centers, width: float = 0.0) -> np.ndarray:
    """Entries (..., 2^N) of a table averaged around ``centers`` (..., N-1).

    Each term c_k exp(i n_k . Delta) of :func:`complex_terms` averages to
    c_k exp(i n_k . c - width^2 |n_k|^2 / 2) over Gaussian offsets; width
    0 evaluates the table at the centers.  The complex result is returned
    as is.  It reads the symbolic rows one frame at a time: the oracle of
    the frame-averaged state (``experiments.frame_averaged_table``), which
    shares no frame code with it, and of the symbolic rows themselves at
    sampled frames.
    """
    freqs, coeffs = complex_terms(table)
    damping = np.exp(-0.5 * width * width * np.sum(freqs * freqs, axis=1))
    return np.exp(1j * (np.asarray(centers, dtype=float) @ freqs.T)) @ (damping[:, None] * coeffs)


def complex_frame_scan(tables, centers, width: float) -> np.ndarray:
    """Best-pair Bell values through the complex basis exp(i C F^T).

    The scan on the full +-n basis of :func:`complex_terms`, so this route
    shares no cosine/sine code with the real scan.  The damped
    coefficients of every pair's Walsh-Hadamard transform T(r), one
    complex product with the basis at all ``centers`` (shape (count,
    N-1)), and the "tables are real" property sampled: ConsistencyError
    if the imaginary part of T exceeds ``IMAG_TOL`` at one of the given
    centers.  Oracle for ``best_pair_values_over_centers``.
    """
    size = tables[0].shape[-1]
    freqs, _ = complex_terms(tables[0])
    coeffs = np.stack([complex_terms(table)[1] for table in tables], axis=1)
    coeffs = coeffs * np.exp(-0.5 * width * width * np.sum(freqs * freqs, axis=1))[:, None, None]
    transform = walsh_hadamard_levels(coeffs.real) + 1j * walsh_hadamard_levels(coeffs.imag)
    basis = np.exp(1j * (np.asarray(centers, dtype=float) @ freqs.T))
    values = basis @ transform.reshape(len(freqs), -1)
    residue = np.max(np.abs(values.imag), initial=0.0)
    if not residue <= IMAG_TOL:
        raise ConsistencyError(f"frame-averaged tables have imaginary residue {residue:.3e}")
    magnitudes = np.abs(values.real).reshape(len(values), len(tables), size)
    return magnitudes.sum(axis=-1).max(axis=-1, initial=-np.inf) / size


def half_basis_frame_scan(tables, centers, width: float) -> np.ndarray:
    """Best-pair Bell values through cos/sin of every half-basis phase.

    The real scan as it was before the angle-subtraction rows: the tables'
    rows in their half-basis order, damped and transformed, and per
    chunk of ``FRAME_SCAN_CHUNK_ELEMENTS`` products the phases ``half @
    centers.T``, their cosines and sines, and one real matrix product.
    ``tables`` (P, 1 + N(N-1), 2^N) and ``centers`` (count, N-1) are taken
    as checked.  Oracle of ``experiments.best_pair_values_over_centers``
    where no e_j - e_k row exists: bit for bit at N = 1, which needs no
    trigonometry, and within 1e-15 at N = 2, where the scan takes cos c
    and sin c from tan(c/2) and this route calls libm's cos and sin.
    """
    tables = np.asarray(tables)
    n = tables.shape[-1].bit_length() - 1
    centers = np.asarray(centers, dtype=float)
    half = _half_basis(n)
    coeffs = tables.swapaxes(0, 1).astype(float, order="C")
    coeffs[1:] *= np.tile(np.exp(-0.5 * np.sum((width * half) ** 2, axis=-1)), 2)[:, None, None]
    coeffs = _walsh_hadamard(coeffs).reshape(len(coeffs), -1)
    half = half.astype(float)
    size, terms = 2**n, len(half)
    chunk = max(1, experiments.FRAME_SCAN_CHUNK_ELEMENTS // max(coeffs.shape))
    basis = np.empty((1 + 2 * terms, min(chunk, len(centers))))
    basis[0] = 1.0
    best = np.empty(len(centers))
    for start in range(0, len(centers), chunk):
        phases = half @ centers[start : start + chunk].T
        count = phases.shape[1]
        rows = basis[:, :count]
        np.cos(phases, out=rows[1 : 1 + terms])
        np.sin(phases, out=rows[1 + terms :])
        transform = coeffs.T @ rows
        np.abs(transform, out=transform)
        sums = transform.reshape(len(tables), size, count).sum(axis=1)
        best[start : start + count] = sums.max(axis=0) / size
    return best


def chunked_frame_scan(tables, centers, width: float) -> np.ndarray:
    """Best-pair Bell values of the scan's rows, one chunk at a time.

    The loop ``experiments.best_pair_values_over_centers`` ran before it
    filled its rows a block of chunks at a time: per chunk of
    ``FRAME_SCAN_CHUNK_ELEMENTS`` products, the chunk's cosine and sine
    rows (``experiments._fill_scan_rows``), a fresh product with the
    damped transformed rows, the per-pair sums and the best pair divided
    by 2^N.  ``tables`` (P, 1 + N(N-1), 2^N) and ``centers`` (count, N-1)
    are taken as checked.  The block-at-a-time scan must give these
    values bit for bit: its fill and its BLAS calls have the same shapes.
    """
    tables = np.asarray(tables)
    n = tables.shape[-1].bit_length() - 1
    centers = np.asarray(centers, dtype=float)
    coeffs = experiments._frame_scan_coefficients(tables, n, width)
    size, terms = 2**n, n * (n - 1) // 2
    chunk = max(1, experiments.FRAME_SCAN_CHUNK_ELEMENTS // max(coeffs.shape))
    basis = np.empty((1 + 2 * terms, min(chunk, len(centers))))
    basis[0] = 1.0
    best = np.empty(len(centers))
    for start in range(0, len(centers), chunk):
        count = min(chunk, len(centers) - start)
        rows = basis[:, :count]
        experiments._fill_scan_rows(
            rows[1 : 1 + terms], rows[1 + terms :], centers[start : start + count]
        )
        transform = coeffs.T @ rows
        np.abs(transform, out=transform)
        sums = transform.reshape(len(tables), size, count).sum(axis=1)
        best[start : start + count] = sums.max(axis=0) / size
    return best


def symbolic_rows_per_component(state: SubspaceState, strategy) -> np.ndarray:
    """Rows (1 + N(N-1), P, 2^N) of the offset-symbolic tables, one kernel call each.

    The per-component build: the non-rotating part of the state, then for
    each half-basis frequency n the parts rho_n + rho_n^H (cosine row) and
    i (rho_n - rho_n^H) (sine row, negated when the upper-triangle entries
    carry -n), each through its own ``correlator_tables`` call.  Oracle
    for ``experiments.pair_symbolic_tables``, which stacks the components and
    makes one call.
    """
    n = strategy.n_parties
    pairs = _setting_pairs(strategy)
    rho = state.matrix
    unit = np.zeros((n + 1, n - 1), dtype=int)
    unit[2:] = np.eye(n - 1, dtype=int)
    freqs = unit[None, :, :] - unit[:, None, :]
    rotating = freqs.any(axis=-1)
    upper = np.triu(rotating)
    half = _half_basis(n)
    rows = np.empty((1 + 2 * len(half), len(pairs), 2**n))
    rows[0] = correlator_tables(np.where(rotating, 0.0, rho), pairs)
    for h, freq in enumerate(half, start=1):
        plus = upper & np.all(freqs == freq, axis=-1)
        part = np.where(plus | (upper & np.all(freqs == -freq, axis=-1)), rho, 0.0)
        rows[h] = correlator_tables(part + part.conj().T, pairs)
        sine = correlator_tables(1j * (part - part.conj().T), pairs)
        rows[h + len(half)] = sine if plus.any() else -sine
    return rows


def sine_negated_after_tables(state: SubspaceState, strategy) -> np.ndarray:
    """Offset-symbolic tables (m, 1 + N(N-1), 2^N) with the sine sign applied afterwards.

    The earlier build of ``experiments.pair_symbolic_tables``: one kernel
    call on the unsigned components, then the sine rows multiplied in
    place by the sign of m against n.  Oracle for the build that puts the
    sign into the sine components before the call.
    """
    n = strategy.n_parties
    pairs = _setting_pairs(strategy)
    rho = state.matrix
    freqs = experiments._offset_frequencies(n)
    half = _half_basis(n)[:, None, None]
    match = np.all(freqs == half, axis=-1).astype(int) - np.all(freqs == -half, axis=-1)
    signs = np.triu(match)
    parts = np.where(signs != 0, rho, 0.0)
    adjoint = parts.conj().swapaxes(1, 2)
    steady = np.where(freqs.any(axis=-1), 0.0, rho)
    components = np.concatenate((steady[None], parts + adjoint, 1j * (parts - adjoint)))
    rows = np.array(correlator_tables(components, pairs))
    rows[1 + len(half) :] *= np.sign(signs.sum(axis=(1, 2), keepdims=True))
    return rows.swapaxes(0, 1)


def rows_first_correlator_rows(terms, mats: np.ndarray) -> np.ndarray:
    """Complex traces (S, B) of observable rows (B, N, 2, 2), laid out rows-first.

    The kernel ``fock_core._correlator_rows`` ran before it went
    rows-last: the same multiplies and adds on (B, N) and (S, B, 2, N)
    arrays, whose pair recurrence updates runs of N - k - 1 entries.  Its
    bit-for-bit oracle.  ``terms`` is a ``fock_core._StateTerms``; its
    rows-last factors are read back in rows-first shape.
    """
    rows, n = mats.shape[:2]
    m00 = mats[:, :, 0, 0]
    m01 = mats[:, :, 0, 1]
    m10 = mats[:, :, 1, 0]
    m11 = mats[:, :, 1, 1]
    pre = np.ones((rows, n + 1), dtype=complex)
    np.cumprod(m00, axis=1, out=pre[:, 1:])
    suf = np.ones((rows, n + 1), dtype=complex)
    suf[:, :n] = np.cumprod(m00[:, ::-1], axis=1)[:, ::-1]
    hole = pre[:, :n] * suf[:, 1:]

    # The rows-last factors (S, N, 1) and (S, 2, N, N, 1) in rows-first shape.
    populations, upper, lower = (f.swapaxes(1, 2) for f in terms[2:5])
    weights = terms.weights[..., 0]
    total = terms.vacuum * pre[:, n]
    one_photon = populations * m11 + upper * m10 + lower * m01
    total += (one_photon * hole).sum(axis=2)

    opened = np.stack((m01, m10), axis=1) * pre[:, None, :n]
    closing = np.stack((m10, m01), axis=1) * suf[:, None, 1:]
    pending = np.zeros((len(terms.states), rows, 2, n), dtype=complex)
    for k in range(n - 1):
        later = pending[..., k + 1 :]
        later *= m00[:, None, k, None]
        later += opened[:, :, k, None] * weights[:, None, :, k, k + 1 :]
    total += (pending * closing).sum(axis=(2, 3))
    return total


def rows_last(mats: np.ndarray) -> np.ndarray:
    """Rows-last kernel entries (4, N, B) of observable rows (B, N, 2, 2).

    Entry e of the first axis holds m00, m01, m10 and m11 in turn, each
    an (N, B) array: the input layout of ``fock_core._correlator_rows``.
    """
    return np.stack([mats[..., a, b].T for a in (0, 1) for b in (0, 1)])


def rows_first_walk(rho, pairs) -> np.ndarray:
    """Tables (S, P, 2^N) of setting pairs (P, N, 2, 2, 2), every row in one rows-first call.

    The table walk as it ran before the kernel went rows-last and its row
    gather went through ``np.take``: entry s of table p uses party k's
    setting bit k-1 of s, the rows are gathered by fancy indexing and
    contracted by :func:`rows_first_correlator_rows` without chunks, since
    each row's value depends only on that row.  The bit-for-bit oracle of
    ``fock_core._walked_values``.
    """
    pairs = np.asarray(pairs, dtype=complex)
    points, n = pairs.shape[:2]
    terms = _state_terms(np.reshape(rho, (-1, n + 1, n + 1)))
    parties = np.arange(n)
    bits = (np.arange(2**n)[:, None] >> parties) & 1
    rows = pairs[:, parties, bits].reshape(-1, n, 2, 2)
    values = rows_first_correlator_rows(terms, rows).real
    return values.reshape(len(terms.states), points, 2**n)


def rows_first_exchangeable(rho, ref: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Tables (S, P, 2^N) of points whose parties 2..N share the pair ``shared``.

    ``ref`` and ``shared`` (P, 2, 2, 2) are party 1's pair and the pair of
    parties 2..N.  The 2N distinct rows of each point are contracted in
    one rows-first call and spread into the weight layout by the indexing
    forms :func:`indexed_weight_leaves` and :func:`indexed_leaf_tables`:
    the bit-for-bit oracle of ``fock_core._exchangeable_values``.
    """
    points, n = len(ref), np.shape(rho)[-1] - 1
    terms = _state_terms(np.reshape(rho, (-1, n + 1, n + 1)))
    count = len(terms.states)
    pick = (np.arange(1, n) <= np.arange(n)[:, None]).astype(np.intp)
    mats = np.empty((points, 2, n, n, 2, 2), dtype=complex)
    mats[:, :, :, 0] = ref[:, :, None]
    mats[:, :, :, 1:] = shared[:, None, pick]
    distinct = rows_first_correlator_rows(terms, mats.reshape(-1, n, 2, 2)).real
    leaves = indexed_weight_leaves(distinct.reshape(count * points, 2, n).swapaxes(-1, -2))
    return indexed_leaf_tables(leaves, n).reshape(count, points, 2**n)


def indexed_weight_leaves(values: np.ndarray) -> np.ndarray:
    """Distinct leaves (..., H, R, 2) of values (..., N, 2) by Ellipsis fancy indexing.

    The form ``fock_core._weight_leaves`` had before it gathered with
    ``np.take``; its bit-for-bit oracle.
    """
    rows, _ = _weight_layout(values.shape[-2])
    return values[..., rows, :]


def indexed_leaf_tables(leaves: np.ndarray, n_parties: int) -> np.ndarray:
    """Tables (B, L, R, 2) of N-party leaves (B, H, R, 2) by fancy indexing with every index leading.

    The table gather ``fock_core._exchangeable_values`` made before it
    used ``np.take``; its bit-for-bit oracle.
    """
    _, order = _weight_layout(n_parties)
    return leaves[np.arange(len(leaves))[:, None], order]


def setting_weights(rest: int) -> np.ndarray:
    """Number of ones in each of the 2^rest setting choices of parties 2..N."""
    weights = np.zeros(1, dtype=np.uint8)
    for _ in range(rest):
        weights = np.concatenate((weights, weights + 1))
    return weights


def symmetric_tables(rho: np.ndarray, options: np.ndarray) -> np.ndarray:
    """Tables (..., P, 2^N) of points whose parties 2..N share one setting pair.

    The per-call exchangeable route: ``options`` (P, N, 2, 2, 2) holds
    every party's settings, and the 2N distinct rows of each point are
    rebuilt from party 1's and party N's pairs through a ``pick`` mask
    and contracted by one ``correlator_batch`` call.  Part of the oracle
    of the exchangeable route of ``fock_core._table_values``.
    """
    points, n = options.shape[:2]
    rest = n - 1
    ones = np.arange(rest + 1)
    # Row (s_1, ones): parties 2..ones+1 use setting 1, the others setting 0.
    pick = (np.arange(1, n) <= ones[:, None])[..., None, None]
    shared = options[:, -1, :, None, None]  # the pair parties 2..N share
    mats = np.empty((points, 2, rest + 1, n, 2, 2), dtype=complex)
    mats[:, :, :, 0] = options[:, 0, :, None]
    mats[:, :, :, 1:] = np.where(pick, shared[:, 1], shared[:, 0])[:, None]
    distinct = correlator_batch(rho, mats)
    # Entry (s_2..s_N, s_1) of a table is distinct[..., s_1, weight(s_2..s_N)].
    pairs = np.ascontiguousarray(distinct.swapaxes(-1, -2))
    return np.take(pairs, setting_weights(rest), axis=-2).reshape(*pairs.shape[:-2], 2**n)


def routed_tables(rhos: np.ndarray, options: np.ndarray) -> np.ndarray:
    """Tables (E, P, 2^N) of lossy W states (E, N+1, N+1), each point routed per call.

    Points whose parties 2..N share one setting pair go through
    :func:`symmetric_tables`, the rest through ``correlator_tables``.
    """
    shared = np.all(options[:, 2:] == options[:, 1:2], axis=(1, 2, 3, 4))
    tables = np.empty((len(rhos), len(options), 2 ** options.shape[1]))
    for mask, build in ((shared, symmetric_tables), (~shared, correlator_tables)):
        if mask.any():
            tables[:, mask] = build(rhos, options[mask])
    return tables


def per_party_strategy_rows(settings) -> tuple:
    """Each party's (amplitude, phase) rows checked and reduced on their own.

    The loop ``MeasurementStrategy`` ran before it checked every party's
    rows as one array: per party a float copy, the shape check, the
    finiteness and amplitude check, then the phases reduced mod 2*pi.
    Raises the same ValueErrors, in the same order; returns the rows.
    """
    parties = tuple(map(np.asarray, settings))
    if any(rows.dtype.kind not in "iuf" for rows in parties):
        raise ValueError("settings must be real numbers")
    reduced = tuple(rows.astype(float) for rows in parties)
    if not reduced:
        raise ValueError("strategy needs at least one party")
    for party, rows in enumerate(reduced):
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise ValueError(f"party {party + 1} needs (amplitude, phase) rows")
        if not (np.isfinite(rows).all() and (rows[:, 0] >= 0.0).all()):
            raise ValueError("settings must be finite with amplitude >= 0")
        rows[:, 1] %= TWO_PI
    return reduced


def exchangeable_constants(states) -> np.ndarray:
    """The five distinct entries (S, 5) of a stack of states (S, N+1, N+1), read from the matrices.

    Columns rho_00, rho_11, rho_22, rho_12 and rho_23, 0 where N has no
    such entry, the input of ``fock_core._exchangeable_closed_form``.
    They hold every entry of a state that is real, symmetric,
    exchangeable in modes 2..N and free of vacuum-excitation coherence,
    bit for bit, which is checked first (ConsistencyError otherwise).
    Oracle of ``optimize._lossy_constants`` on the dense stacks of
    ``optimize._lossy_rhos``, which it must equal bit for bit.
    """
    states = np.asarray(states)
    real = states.real
    if not (
        np.all(states.imag == 0.0)
        and np.array_equal(real, real.swapaxes(1, 2))
        and np.all(real[:, 0, 1:] == 0.0)
        and _exchangeable(states)
    ):
        raise ConsistencyError(
            "the closed form needs real symmetric states, exchangeable in modes 2..N, "
            "with no vacuum-excitation coherence"
        )
    rows, cols = np.array([(0, 0), (1, 1), (2, 2), (1, 2), (2, 3)]).T
    present = cols < states.shape[-1]
    constants = np.zeros((len(states), 5))
    constants[:, present] = real[:, rows[present], cols[present]]
    return constants


def per_call_averaged_tables(n_parties, amplitudes, centers, width, efficiencies):
    """Averaged tables (E, P, 2^N) of P points, every step redone per call.

    Builds and checks all 2N settings of every point, looks up the
    stacked frame-averaged states and routes every point through
    :func:`routed_tables`.  Oracle of the optimizer's prepared table
    functions and scores, which must equal it bit for bit.
    """
    phases = np.zeros(amplitudes.shape[:2])
    phases[:, 1:] = centers
    options = displacement_matrices(amplitudes, phases[..., None])
    check_observable_matrices(options)
    etas = tuple(float(eta) for eta in efficiencies)
    return routed_tables(_lossy_rhos(int(n_parties), etas, float(width)), options)


def per_call_bell_scores(spec: OptimizationSpec, points: np.ndarray) -> np.ndarray:
    """Negated Bell values of search points through :func:`per_call_averaged_tables`.

    Oracle of :func:`table_bell_scores`, bit for bit: same range check,
    same batched transform and sum.
    """
    amplitudes, centers = _point_parameters(spec, points)
    (tables,) = per_call_averaged_tables(
        spec.n_parties, amplitudes, centers, spec.width, (spec.efficiency,)
    )
    if not np.all(np.abs(tables) <= 1.0 + TABLE_RANGE_TOL):
        raise ValueError("correlators must lie in [-1, 1] up to roundoff")
    return -np.abs(_walsh_hadamard(tables)).sum(axis=-1) / 2**spec.n_parties


def table_values(spec: OptimizationSpec, points: np.ndarray, efficiencies: tuple) -> np.ndarray:
    """Tables (E, P, 2^N) of search points (P, dims) by the package's table walk.

    A pinned point takes its exchangeable route and weight layout, as
    the optimizer's table function did before pinned searches reduced
    their 2N class values.
    """
    etas = tuple(float(eta) for eta in efficiencies)
    terms = _state_terms(_lossy_rhos(spec.n_parties, etas, float(spec.width)))
    return _table_values(terms, _setting_options(*_point_parameters(spec, points)))


def table_bell_scores(spec: OptimizationSpec):
    """Bell score of a search through 2^N-entry tables, for every spec.

    ``optimize._bell_scores`` as it ran before pinned searches reduced
    their 2N class values: the tables' [-1, 1] range check, then the sum
    over every magnitude of one batched full transform.  The oracle of
    the class-value scores: bit for bit at N <= 2 and for joint
    searches, to rounding at N >= 3.
    """

    def score(points):
        (tables,) = table_values(spec, points, (spec.efficiency,))
        if not np.all(np.abs(tables) <= 1.0 + TABLE_RANGE_TOL):
            raise ValueError("correlators must lie in [-1, 1] up to roundoff")
        return -np.abs(_walsh_hadamard(tables)).sum(axis=-1) / 2**spec.n_parties

    return score


def table_crossing_scores(spec: OptimizationSpec):
    """Crossing score of a search through 2^N-entry tables, for every spec.

    ``optimize._crossing_scores`` as it ran before pinned searches
    reduced their 2N class values: the full transforms of the tables at
    both transmissions, the vacuum check and the crossing walk over all
    2^N breakpoints.  The oracle of the class-value scores: bit for bit
    at N <= 2 and for joint searches, to rounding at N >= 3.
    """

    def score(points):
        tables = table_values(spec, points, _THRESHOLD_EFFICIENCIES)
        vacuum, lossless = _walsh_hadamard(tables) / 2**spec.n_parties
        if not np.all(np.abs(vacuum).sum(axis=-1) <= 1.0 + VIOLATION_ROUNDOFF):
            raise ConsistencyError("vacuum Bell value exceeds 1")
        return _crossing_efficiency(vacuum, lossless - vacuum)

    return score


def _exact_ints(values) -> tuple:
    """Floats as Python ints over one power of two: (ints, bits), value = int / 2^bits, exactly."""
    fractions = [Fraction(float(v)) for v in np.ravel(values)]
    bits = max((f.denominator.bit_length() - 1 for f in fractions), default=0)
    ints = [f.numerator << (bits - f.denominator.bit_length() + 1) for f in fractions]
    return np.array(ints, dtype=object).reshape(np.shape(values)), bits


def _exact_trace(rho, ops) -> int:
    """Integer Tr[rho (O_1 x ... x O_N)] of integer real entries, the subspace trace term by term.

    ``rho`` (N+1, N+1) and ``ops`` (N, 3) rows (o_00, o_01 = o_10, o_11)
    hold Python ints.  The vacuum term, each mode's population and every
    ordered pair of excitation coherences (j, k), each times the product
    of o_00 over the other modes: any real symmetric state of the
    subspace, no exchangeability assumed.
    """
    n = len(ops)
    diag = [op[0] for op in ops]
    prefix = [1]
    for d in diag:
        prefix.append(prefix[-1] * d)
    suffix = [1]
    for d in reversed(diag):
        suffix.append(suffix[-1] * d)
    suffix = suffix[::-1]  # suffix[k] = product over modes k..N-1
    total = rho[0][0] * prefix[n]
    for k in range(n):
        total += rho[k + 1][k + 1] * ops[k][2] * prefix[k] * suffix[k + 1]
        between = 1
        for j in range(k + 1, n):
            pair = rho[k + 1][j + 1] + rho[j + 1][k + 1]
            total += pair * ops[k][1] * ops[j][1] * prefix[k] * between * suffix[j + 1]
            between *= diag[j]
    return total


def _exact_walsh_hadamard(values) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of Python ints along the last axis, exactly.

    The level-by-level loop of :func:`walsh_hadamard_levels` on an object
    array, so every sum and difference is a Python int operation.
    """
    a = np.array(values, dtype=object)
    size = a.shape[-1]
    h = 1
    while h < size:
        b = a.reshape(a.shape[:-1] + (size // (2 * h), 2, h))
        a = np.stack((b[..., 0, :] + b[..., 1, :], b[..., 0, :] - b[..., 1, :]), axis=-2)
        a = a.reshape(a.shape[:-3] + (size,))
        h *= 2
    return a


def exact_pinned_terms(spec: OptimizationSpec, points: np.ndarray, efficiencies: tuple):
    """Exact terms (E, P, M) of the Bell value of pinned points: Python ints and a denominator.

    S = sum_r |terms[e, p, r]| / denominator, exactly, and at a rational
    efficiency eta between those of two rows a and b, S(eta) = sum_r |a_r +
    eta (b_r - a_r)| / denominator.  The float setting entries the
    package uses (``_displacement_entries``) and the float frame-averaged
    states are taken as exact rationals.  For N <= 10 the terms are the
    exact Walsh-Hadamard transform over all 2^N entries of the exact
    table, M = 2^N, each entry the subspace trace of its parties'
    settings (:func:`_exact_trace`).  For N > 10 they are the M = 2N
    classes C(N-1, u) T(r_1, u), each T the correlator of party 1 on M^0_1
    +- M^1_1, u parties on M^0 - M^1 and the rest on M^0 + M^1, summed term
    by term as ``fock_core._exchangeable_closed_form`` sums it
    (:func:`_exact_class_value`).
    """
    n = spec.n_parties
    etas = tuple(float(eta) for eta in efficiencies)
    rhos = _lossy_rhos(n, etas, float(spec.width)).real
    # the closed form reads no entry past (2, 3)
    rhos, state_bits = _exact_ints(rhos if n <= 10 else rhos[:, :4, :4])
    entries, bits = _exact_ints(np.stack(_displacement_entries(_amplitude_pairs(spec, points))))
    terms = []
    for rho in rhos:
        for p in range(len(points)):
            first = [tuple(entries[:, p, 0, s]) for s in (0, 1)]
            rest = [tuple(entries[:, p, -1, s]) for s in (0, 1)]
            if n <= 10:
                distinct = [
                    [_exact_trace(rho, [first[s1]] + [rest[1]] * w + [rest[0]] * (n - 1 - w))
                     for s1 in (0, 1)]
                    for w in range(n)
                ]
                terms.append([distinct[bin(s >> 1).count("1")][s & 1] for s in range(2**n)])
            else:
                terms.append(_exact_class_values(rho, first, rest, n))
    terms = np.array(terms, dtype=object).reshape(len(rhos), len(points), -1)
    if n <= 10:
        terms = _exact_walsh_hadamard(terms)
    return terms, 2 ** (n * bits + state_bits + n)


def _exact_class_values(rho, first, rest, n: int) -> list:
    """Integers C(N-1, u) T(r_1, u) of a pinned point in (u, r_1) order, summed exactly."""
    b = [x - y for x, y in zip(*rest)]
    c = [x + y for x, y in zip(*rest)]
    b_powers, c_powers = [1], [1]
    for _ in range(n):
        b_powers.append(b_powers[-1] * b[0])
        c_powers.append(c_powers[-1] * c[0])

    def power(k: int, l: int) -> int:
        return b_powers[k] * c_powers[l] if k >= 0 and l >= 0 else 0

    rho00, rho11, rho22, rho12, rho23 = rho[0][0], rho[1][1], rho[2][2], rho[1][2], rho[2][3]
    values = []
    for u in range(n):
        m = n - 1 - u
        plain, hole_b, hole_c = power(u, m), u * power(u - 1, m), m * power(u, m - 1)
        populations = b[2] * hole_b + c[2] * hole_c
        coherences = b[1] * hole_b + c[1] * hole_c
        pairs = (
            u * (u - 1) * b[1] ** 2 * power(u - 2, m)
            + 2 * u * m * b[1] * c[1] * power(u - 1, m - 1)
            + m * (m - 1) * c[1] ** 2 * power(u, m - 2)
        )
        outer = rho00 * plain + rho22 * populations + rho23 * pairs
        for sign in (1, -1):
            a = [x + sign * y for x, y in zip(*first)]
            value = a[0] * outer + rho11 * a[2] * plain + 2 * rho12 * a[1] * coherences
            values.append(math.comb(n - 1, u) * value)
    return values


def per_call_crossing_scores(spec: OptimizationSpec, points: np.ndarray) -> np.ndarray:
    """Crossing efficiencies of search points through :func:`per_call_averaged_tables`.

    Oracle of :func:`table_crossing_scores`, bit for bit, vacuum check
    included.
    """
    n = spec.n_parties
    amplitudes, centers = _point_parameters(spec, points)
    tables = per_call_averaged_tables(
        n, amplitudes, centers, spec.width, _THRESHOLD_EFFICIENCIES
    )
    vacuum, lossless = _walsh_hadamard(tables) / 2**n
    if not np.all(np.abs(vacuum).sum(axis=-1) <= 1.0 + VIOLATION_ROUNDOFF):
        raise ConsistencyError("vacuum Bell value exceeds 1")
    return _crossing_efficiency(vacuum, lossless - vacuum)


def dressed_observables(amplitudes: np.ndarray, centers: np.ndarray, width: float):
    """Frame-averaged observables of every party, setting and point.

    ``amplitudes`` holds signed amplitudes, shape (P, N, 2) as (point,
    party, setting); ``centers`` has shape (P, N-1).  Returns matrices of
    shape (P, N, 2, 2, 2).  A signed amplitude r gives the displaced
    click observable with off-diagonal 2 e^{-r^2} r (a negative r is the
    pi-flipped setting).  Zero-mean Gaussian frame noise of the given width
    multiplies the off-diagonal entries of parties 2..N by exp(-width^2/2)
    and the center c rotates them by exp(+-i c); party 1 is the undamped
    reference.  Raises ValueError unless every matrix is Hermitian with
    spectrum inside [-1, 1].
    """
    n = amplitudes.shape[1]
    g = 2.0 * np.exp(-amplitudes * amplitudes)
    rotation = np.ones(centers.shape[:-1] + (n,), dtype=complex)
    rotation[..., 1:] = np.exp(-0.5 * width * width) * np.exp(1j * centers)
    lower = g * amplitudes * rotation[..., None]
    mats = np.empty(amplitudes.shape + (2, 2), dtype=complex)
    mats[..., 0, 0] = g - 1.0
    mats[..., 0, 1] = lower.conj()
    mats[..., 1, 0] = lower
    mats[..., 1, 1] = g * amplitudes * amplitudes - 1.0
    check_observable_matrices(mats)
    return mats


def dressed_averaged_tables(n_parties, amplitudes, centers, width, efficiencies):
    """Averaged tables (E, P, 2^N) through frame-averaged observables.

    The noise sits in the observables instead of the state: the undamped
    lossy states against :func:`dressed_observables`, each point routed by
    :func:`routed_tables`.  Oracle for the optimizer's tables, which
    dephase the state.
    """
    options = dressed_observables(amplitudes, centers, width)
    rhos = np.stack([lossy_w_state(n_parties, eta).matrix for eta in efficiencies])
    return routed_tables(rhos, options)


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Truncated Fock-basis coefficients of a coherent state."""
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    return amps * np.exp(-0.5 * abs(alpha) ** 2)


def bisect_threshold(
    n_parties: int,
    width: float,
    tolerance: float,
    restarts: int = 6,
) -> ThresholdResult:
    """Loss threshold by bisecting the efficiency over full Bell searches.

    Slow oracle for ``threshold_efficiency``: every probe re-runs a
    pinned-phase ``maximize_bell``.  The Bell value is convex in the
    efficiency, so the predicate "optimized S > 1" is monotone as long as
    the inner search finds the optimum; a coarse grid checks that and raises
    ConsistencyError when a clear violation shrinks at higher efficiency.
    The result is the midpoint of the final bracket, so it lies within
    tolerance / 2 of the searched threshold.
    """
    slack = 1e-5  # restart jitter stays well below this

    def best_s(efficiency: float) -> float:
        spec = OptimizationSpec(
            n_parties=n_parties,
            width=width,
            efficiency=efficiency,
            optimize_phases=False,
            restarts=restarts,
        )
        return maximize_bell(spec).best_s

    top = best_s(1.0)
    if top <= 1.0:
        return ThresholdResult(efficiency=1.0, violable=False)
    probes = (0.25, 0.5, 0.75)
    values = [best_s(p) for p in probes]
    sequence = values + [top]
    for earlier, later in zip(sequence, sequence[1:]):
        if earlier > 1.0 + slack and later < earlier - slack:
            raise ConsistencyError("optimized Bell value fell at higher efficiency")
    lo, hi = 0.0, 1.0
    for eta, s in zip(probes, values):
        if s > 1.0:
            hi = min(hi, eta)
        else:
            lo = max(lo, eta)
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if best_s(mid) > 1.0:
            hi = mid
        else:
            lo = mid
    return ThresholdResult(efficiency=0.5 * (lo + hi), violable=True)


def bisect_frontier(
    n_parties: int,
    efficiency: float,
    pair_counts,
    grid_density: int = 720,
    width_tolerance: float = 0.01,
    width_max: float = 2.0,
    restarts: int = 6,
) -> list:
    """Certainty frontier by expanding and bisecting the width over full searches.

    Slow oracle for ``certainty_frontier``, with its arguments (checked
    there, not here) and its contract: every probe re-runs
    ``maximize_bell`` at its width (once per width, shared by the pair
    counts) and scans that optimum's pair tables on the grid of centers.
    The width doubles from 0.2 while it stays certain, capped at
    ``width_max``, and the bracket is then halved down to
    ``width_tolerance``; the result is its certain end.  This assumes that
    certainty falls off monotonically with the width.  ``maximize_bell`` is
    looked up in ``photonbell.optimize`` at call time, so a test that
    replaces it there counts these searches too.
    """
    axis = np.arange(grid_density) * TWO_PI / grid_density
    grids = np.meshgrid(*[axis] * (n_parties - 1), indexing="ij")
    centers = np.stack(grids, -1).reshape(-1, n_parties - 1) if grids else np.zeros((1, 0))
    state = lossy_w_state(n_parties, efficiency)
    amplitudes = {}

    def certain(width: float, pair_count: int) -> bool:
        if width not in amplitudes:
            spec = OptimizationSpec(
                n_parties=n_parties, width=width, efficiency=efficiency, restarts=restarts
            )
            report = optimize.maximize_bell(spec)
            amplitudes[width] = report.r, report.r_prime
        strategy = experiments.paired_strategy(n_parties, *amplitudes[width], pair_count)
        tables = experiments.pair_symbolic_tables(state, strategy)
        values = experiments.best_pair_values_over_centers(tables, centers, width)
        return bool(np.all(values > 1.0 + VIOLATION_ROUNDOFF))

    results = []
    for pair_count in pair_counts:
        if not certain(0.0, pair_count):
            results.append((pair_count, float("nan")))
            continue
        lo = 0.0
        hi = min(0.2, width_max)
        while certain(hi, pair_count):
            lo = hi
            hi *= 2.0
            if hi >= width_max:
                hi = width_max
                if certain(hi, pair_count):
                    lo = hi
                break
        if lo >= width_max:
            results.append((pair_count, float(width_max)))
            continue
        while hi - lo > width_tolerance:
            mid = 0.5 * (lo + hi)
            if certain(mid, pair_count):
                lo = mid
            else:
                hi = mid
        results.append((pair_count, float(lo)))
    return results


def scipy_simplex(objective, x0, lower, upper, tolerance: float, max_evals: int):
    """SciPy's bounded Nelder-Mead from ``x0`` on a one-point objective.

    Oracle of ``optimize._nelder_mead`` with the same bounds, tolerance
    and evaluation cap, which must return the same ``x``, ``fun``,
    ``success`` and ``nfev``.
    """
    from scipy.optimize import minimize

    return minimize(
        objective,
        x0,
        method="Nelder-Mead",
        bounds=list(zip(lower, upper)),
        options={
            "xatol": tolerance,
            "fatol": tolerance,
            "maxiter": max_evals,
            "maxfev": max_evals,
        },
    )


def scipy_search(spec: OptimizationSpec, score):
    """Oracle of ``optimize._search``: SciPy's simplex, one point per call.

    ``score(points)`` is a prepared score such as
    ``optimize._bell_scores(spec)``.  Scores the start cloud in one call, then runs SciPy's simplex from
    each of the ``spec.restarts`` best cloud points in turn.  Returns the
    best result (lowest restart index on ties) and the number of points
    scored, scan included.
    """
    (lower, upper), cloud = _search_box(spec)
    starts = cloud[np.argsort(score(cloud), kind="stable")[: spec.restarts]]
    best = None
    evaluations = len(cloud)
    for x0 in starts:
        result = scipy_simplex(
            lambda x: score(x[None])[0],
            x0,
            lower,
            upper,
            spec.tolerance,
            400 * len(lower),
        )
        evaluations += result.nfev
        if best is None or result.fun < best.fun:
            best = result
    return best, evaluations


def per_party_search(spec: OptimizationSpec):
    """The pinned per-party search: every party its own signed amplitude pair.

    Oracle of the pinned ``maximize_bell`` without shared amplitudes, and
    the search that mode ran before it took party 1's pair beside one
    pair shared by parties 2..N.  Its 2N coordinates are (r_1..r_N,
    r_1'..r_N'); the start cloud, the walkers and their stopping rules
    are those of ``optimize._search`` in that box, each point's table is
    routed by the table walk, and no walker starts from the shared
    optimum.  Returns (best_s, amplitudes (N, 2), evaluations).
    """
    n, dims = spec.n_parties, 2 * spec.n_parties
    terms = _state_terms(_lossy_rhos(n, (spec.efficiency,), float(spec.width)))

    def score(points):
        amplitudes = np.stack((points[:, :n], points[:, n:]), axis=-1)
        options = _setting_options(amplitudes, np.zeros((len(points), n - 1)))
        (tables,) = _table_values(terms, options)
        return -np.abs(_walsh_hadamard(tables)).sum(axis=-1) / 2**n

    cloud = _halton(max(64, 24 * dims, spec.restarts), dims)
    cloud = -START_AMPLITUDE + cloud * (2.0 * START_AMPLITUDE)
    lower, upper = np.full(dims, AMPLITUDE_BOUNDS[0]), np.full(dims, AMPLITUDE_BOUNDS[1])
    starts = cloud[np.argsort(score(cloud), kind="stable")[: spec.restarts]]
    walkers = [_nelder_mead(x0, lower, upper, spec.tolerance, 400 * dims) for x0 in starts]
    results = _lockstep(spec, score, walkers)
    best = min(results, key=lambda result: result.fun)
    evaluations = len(cloud) + sum(result.nfev for result in results)
    return -best.fun, np.stack((best.x[:n], best.x[n:]), axis=-1), evaluations


# The row-at-a-time data writer the command line used before its column
# writer: the byte oracle for ``cli._write_table`` and ``cli._write_rows``.


def row_cell(value) -> str:
    """A csv cell: floats to 12 significant digits, bools as true/false."""
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def row_round12(value):
    """A json cell before encoding: floats rounded to 12 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(format(float(value), ".12g"))


def write_rows_oracle(path, fmt, header, rows, manifest) -> None:
    """Write ``rows``, an iterable of row tuples, one value at a time.

    csv: manifest comment, header and lines; json: one
    ``json.dumps(payload, indent=2, sort_keys=True)`` of the whole table.
    """
    with open(path, "w", encoding="utf-8") as out:
        if fmt == "csv":
            out.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
            out.write(",".join(header) + "\n")
            out.writelines(",".join(map(row_cell, row)) + "\n" for row in rows)
            return
        payload = {
            "manifest": manifest,
            "columns": list(header),
            "rows": [[row_round12(v) for v in row] for row in rows],
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
