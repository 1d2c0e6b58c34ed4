"""States and click-detection observables for a single photon over N modes.

A single photon shared coherently between N spatial modes, together with the
vacuum admixture produced by loss, never leaves the (N+1)-dimensional
subspace spanned by the vacuum and the one-excitation states |e_k> (one
photon in mode k, vacuum elsewhere).  Density operators are stored as dense
(N+1) x (N+1) Hermitian matrices in the fixed basis order

    (vac, e_1, ..., e_N)

and every module in this package relies on that order.

Local measurements are small optical displacements followed by a
non-number-resolving detector, with outcome +1 for no click and -1 for a
click.  Restricted to the 0/1-photon sector of one mode, the observable
2|alpha><alpha| - 1 with alpha = r exp(i phi) becomes the 2x2 matrix
returned by :func:`displacement_observable`.

N-party correlation functions <M_1 x ... x M_N> are evaluated by one numpy
kernel, :func:`correlator_batch`, over an array of observable matrices of
shape (..., N, 2, 2) against one state.  It walks only the nonzero structure
of the subspace: the one-hole products (m_00 over every mode but one) come
from prefix and suffix cumulative products along the party axis, and the
two-hole sum over mode pairs j < k is an O(N)-step recurrence over k,
vectorized over the batch, that is valid for any density matrix.  The batch
is processed in chunks of at most ``CORRELATOR_CHUNK_ELEMENTS`` matrices, so
memory stays bounded for any batch size.  :func:`correlator` is the
batch-of-one form.  A dense evaluation in the full 2^N mode-occupation space
is kept as a slow oracle for tests (:func:`correlator_bruteforce`).

Validation happens where values enter: :class:`SubspaceState` checks the
state and :class:`ModeObservable` (or :func:`check_observable_matrices`, its
array form) checks observables, with closed-form 2x2 Hermiticity and
eigenvalue bounds.  The kernel itself only checks that its results are real
(``ConsistencyError`` otherwise), over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ConsistencyError",
    "DisplacementSetting",
    "ModeObservable",
    "SettingVector",
    "SubspaceState",
    "check_observable_matrices",
    "correlator",
    "correlator_batch",
    "correlator_bruteforce",
    "displacement_observable",
    "lossy_w_state",
    "projective_observable",
    "w_state",
]

TWO_PI = 2.0 * np.pi

# Construction-time tolerances for state and observable validation.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
EIGENVALUE_TOL = 1e-10

# A correlator whose imaginary residue exceeds this indicates a bug or an
# unphysical input, not roundoff.
IMAG_RESIDUE_TOL = 1e-8

# Largest N for which the dense 2^N oracle is allowed to run.
BRUTEFORCE_MODE_LIMIT = 12

# The correlator kernel handles at most this many mode matrices (batch rows
# times N) per chunk; its working arrays are a small multiple of that.
CORRELATOR_CHUNK_ELEMENTS = 2**16


class ConsistencyError(RuntimeError):
    """A numerical self-check failed (a result that must be real was not)."""


def _frozen_matrix(values, shape, what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SubspaceState:
    """Density operator on the vacuum-plus-one-photon subspace of N modes.

    Parameters
    ----------
    n_modes : int
        Number of modes N >= 1.
    matrix : array_like
        (N+1) x (N+1) density matrix in the basis (vac, e_1, ..., e_N).
        Must be Hermitian, unit trace and positive semidefinite within the
        module tolerances.
    """

    n_modes: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        dim = self.n_modes + 1
        mat = _frozen_matrix(self.matrix, (dim, dim), "state matrix")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise ValueError("state matrix is not Hermitian")
        trace = np.trace(mat)
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"state matrix trace is {trace}, expected 1")
        if np.linalg.eigvalsh(mat).min() < -PSD_TOL:
            raise ValueError("state matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class DisplacementSetting:
    """One local measurement choice: displacement amplitude and phase.

    The phase is stored reduced to [0, 2*pi).  Amplitude r >= 0; the complex
    displacement is alpha = r * exp(i * phase).
    """

    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.amplitude) or self.amplitude < 0.0:
            raise ValueError("amplitude must be finite and >= 0")
        if not np.isfinite(self.phase):
            raise ValueError("phase must be finite")
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "phase", float(self.phase) % TWO_PI)

    @property
    def alpha(self) -> complex:
        return self.amplitude * np.exp(1j * self.phase)

    @classmethod
    def from_signed(cls, amplitude: float, phase: float = 0.0) -> "DisplacementSetting":
        """Setting for alpha = amplitude * exp(i*phase) with a signed amplitude.

        A negative amplitude is the same displacement pointed the opposite
        way in phase space, i.e. the phase advanced by pi; the canonical
        (nonnegative-amplitude) form is stored.  Optimizers work with signed
        amplitudes so that a party can flip one of its settings without
        spending a second phase parameter.
        """
        if not np.isfinite(amplitude):
            raise ValueError("amplitude must be finite")
        offset = np.pi if amplitude < 0.0 else 0.0
        return cls(abs(float(amplitude)), phase + offset)


@dataclass(frozen=True, eq=False)
class ModeObservable:
    """A +-1-bounded observable on the 0/1-photon sector of a single mode.

    Holds the 2x2 Hermitian matrix in the (|0>, |1>) basis.  Eigenvalues
    must lie in [-1, 1]: the observables here are compressions of dichotomic
    measurements, so anything outside that range is a construction error.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen_matrix(self.matrix, (2, 2), "observable matrix")
        check_observable_matrices(mat)
        object.__setattr__(self, "matrix", mat)


def check_observable_matrices(matrices) -> None:
    """Raise ValueError unless every 2x2 matrix in ``matrices`` is an observable.

    ``matrices`` has shape (..., 2, 2).  Each matrix must be finite and
    Hermitian within ``HERMITICITY_TOL`` and have both eigenvalues in
    [-1, 1] within ``EIGENVALUE_TOL``.  The eigenvalues of a Hermitian 2x2
    matrix are m +- g with m = (a + d)/2 and g = sqrt(((a - d)/2)^2 + |c|^2)
    (diagonal a, d, lower off-diagonal c, read as ``eigvalsh`` reads them),
    so both lie in [-1, 1] exactly when |m| + g <= 1.
    """
    mats = np.asarray(matrices)
    if not np.isfinite(mats).all():
        raise ValueError("observable matrix must be finite")
    asymmetry = np.abs(mats - np.conj(np.swapaxes(mats, -1, -2)))
    if not asymmetry.max(initial=0.0) <= HERMITICITY_TOL:
        raise ValueError("observable matrix is not Hermitian")
    a = mats[..., 0, 0].real
    d = mats[..., 1, 1].real
    mean = 0.5 * (a + d)
    gap = np.hypot(0.5 * (a - d), np.abs(mats[..., 1, 0]))
    radius = np.abs(mean) + gap
    if not radius.max(initial=0.0) <= 1.0 + EIGENVALUE_TOL:
        worst = np.unravel_index(np.argmax(radius), radius.shape)
        eigs = [float(mean[worst] - gap[worst]), float(mean[worst] + gap[worst])]
        raise ValueError(f"observable eigenvalues {eigs} outside [-1, 1]")


@dataclass(frozen=True)
class SettingVector:
    """Which setting each party uses in one term of a Bell functional."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        if any(e < 0 for e in entries):
            raise ValueError("setting indices must be >= 0")
        object.__setattr__(self, "entries", entries)

    @property
    def n_parties(self) -> int:
        return len(self.entries)

    def validate_for(self, settings_per_party: Sequence[int]) -> None:
        """Raise ValueError unless each entry indexes that party's settings."""
        if len(self.entries) != len(settings_per_party):
            raise ValueError(
                f"setting vector has {len(self.entries)} entries for "
                f"{len(settings_per_party)} parties"
            )
        for party, (entry, count) in enumerate(zip(self.entries, settings_per_party)):
            if entry >= count:
                raise ValueError(
                    f"party {party + 1} has {count} settings, index {entry} invalid"
                )


def w_state(n_modes: int) -> SubspaceState:
    """Single photon in an equal coherent superposition over ``n_modes`` modes.

    The density matrix has 1/N in every entry of the one-excitation block
    and no vacuum component.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    dim = n_modes + 1
    mat = np.zeros((dim, dim), dtype=complex)
    mat[1:, 1:] = 1.0 / n_modes
    return SubspaceState(n_modes, mat)


def lossy_w_state(n_modes: int, efficiency: float) -> SubspaceState:
    """W state after symmetric loss: eta * W + (1 - eta) * vacuum.

    Parameters
    ----------
    n_modes : int
        Number of modes N >= 1.
    efficiency : float
        Per-mode transmission eta in [0, 1].  Equal loss in every arm keeps
        the state inside the subspace; the photon survives with probability
        eta and is otherwise replaced by vacuum.
    """
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    dim = n_modes + 1
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = 1.0 - efficiency
    mat[1:, 1:] = efficiency / n_modes
    return SubspaceState(n_modes, mat)


def displacement_observable(setting: DisplacementSetting) -> ModeObservable:
    """Displaced click/no-click observable on the 0/1-photon sector.

    Displacing by alpha = r exp(i phi) and asking "no click?" measures
    2|alpha><alpha| - 1.  Projected onto the span of |0> and |1> this is

        [[2 e^{-r^2} - 1,        2 e^{-r^2} r e^{-i phi}],
         [2 e^{-r^2} r e^{i phi},  2 e^{-r^2} r^2 - 1   ]]

    whose eigenvalues lie in [-1, 1].
    """
    r = setting.amplitude
    phi = setting.phase
    g = 2.0 * np.exp(-r * r)
    mat = np.array(
        [
            [g - 1.0, g * r * np.exp(-1j * phi)],
            [g * r * np.exp(1j * phi), g * r * r - 1.0],
        ]
    )
    return ModeObservable(mat)


def projective_observable(theta: float, phi: float) -> ModeObservable:
    """Half-weighted qubit observable along direction (theta, phi).

    Returns (1/2) * [[cos t, e^{-i phi} sin t], [e^{i phi} sin t, -cos t]],
    with the explicit 1/2 kept, so the outcomes are +-1/2.  Doubling it
    reproduces :func:`displacement_observable` at amplitude theta/2 up to
    O(theta^3): the off-diagonal entries differ by theta^3/12 at leading
    order, the diagonal ones by O(theta^4).
    """
    if not (np.isfinite(theta) and np.isfinite(phi)):
        raise ValueError("theta and phi must be finite")
    mat = 0.5 * np.array(
        [
            [np.cos(theta), np.exp(-1j * phi) * np.sin(theta)],
            [np.exp(1j * phi) * np.sin(theta), -np.cos(theta)],
        ]
    )
    return ModeObservable(mat)


def _check_observables(state: SubspaceState, observables) -> list:
    observables = list(observables)
    if len(observables) != state.n_modes:
        raise ValueError(
            f"state has {state.n_modes} modes, got {len(observables)} observables"
        )
    return observables


def _correlator_rows(rho: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Complex traces Tr[rho (M_1 x ... x M_N)] for mats of shape (B, N, 2, 2).

    With m_k(a, b) = <a|M_k|b> the trace splits into the vacuum term, the
    one-photon populations, the vacuum-excitation coherences and the
    excitation-excitation coherences, each multiplied by the product of
    m_l(0, 0) over the remaining modes.  Products with one mode left out
    are prefix times suffix products.  For the pair terms (modes j < k
    left out) step k of a recurrence over the modes adds mode k as the
    opening mode j of every later pair and extends the open products by
    m_k(0, 0); after step k-1 the entry for k holds every pair that k
    closes.  Nothing is divided by the possibly tiny m_l(0, 0).
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

    total = rho[0, 0] * pre[:, n]
    one_photon = np.diagonal(rho)[1:] * m11 + rho[0, 1:] * m10 + rho[1:, 0] * m01
    total += (one_photon * hole).sum(axis=1)

    # Channel 0 pairs <e_j|rho|e_k> with m01_j m10_k, channel 1 pairs
    # <e_k|rho|e_j> with m10_j m01_k.  pending[:, c, k] accumulates
    # sum_{j<k} weight_c(j, k) opened_c(j) prod_{j<l<k} m00_l.
    excited = rho[1:, 1:]
    weights = np.stack((excited, excited.T))
    opened = np.stack((m01, m10), axis=1) * pre[:, None, :n]
    closing = np.stack((m10, m01), axis=1) * suf[:, None, 1:]
    pending = np.zeros((rows, 2, n), dtype=complex)
    for k in range(n - 1):
        later = pending[:, :, k + 1 :]
        later *= m00[:, None, k, None]
        later += opened[:, :, k, None] * weights[:, k, k + 1 :]
    total += (pending * closing).sum(axis=(1, 2))
    return total


def _chunk_rows(n_modes: int) -> int:
    """Batch rows per kernel chunk for N-mode observable rows."""
    return max(1, CORRELATOR_CHUNK_ELEMENTS // n_modes)


def correlator_batch(rho, matrices) -> np.ndarray:
    """Correlators of a batch of observable rows against one state.

    Parameters
    ----------
    rho : array_like
        (N+1) x (N+1) density matrix in the basis (vac, e_1, ..., e_N),
        normally ``SubspaceState.matrix``; it is not validated here.
    matrices : array_like
        Observable matrices of shape (..., N, 2, 2): each row of N 2x2
        matrices is one product M_1 x ... x M_N.  They are not validated
        here either (see :func:`check_observable_matrices`).

    Returns the real array of shape (...) of Tr[rho (M_1 x ... x M_N)].
    Rows are processed in chunks of ``CORRELATOR_CHUNK_ELEMENTS`` matrices;
    each result depends only on its own row.  Raises ConsistencyError if
    the largest imaginary residue over the batch exceeds IMAG_RESIDUE_TOL
    (a non-Hermitian rho, for instance), ValueError on mismatched shapes.
    """
    rho = np.asarray(rho, dtype=complex)
    mats = np.asarray(matrices, dtype=complex)
    n = rho.shape[0] - 1
    if rho.shape != (n + 1, n + 1) or n < 1:
        raise ValueError(f"state matrix must be square with N >= 1, got {rho.shape}")
    if mats.ndim < 3 or mats.shape[-3:] != (n, 2, 2):
        raise ValueError(
            f"state has {n} modes, observables have shape {mats.shape}; "
            f"expected (..., {n}, 2, 2)"
        )
    batch_shape = mats.shape[:-3]
    flat = mats.reshape(-1, n, 2, 2)
    values = np.empty(len(flat), dtype=complex)
    step = _chunk_rows(n)
    for start in range(0, len(flat), step):
        values[start : start + step] = _correlator_rows(rho, flat[start : start + step])
    residue = np.max(np.abs(values.imag), initial=0.0)
    if not residue <= IMAG_RESIDUE_TOL:
        raise ConsistencyError(f"correlator has imaginary residue {residue:.3e}")
    return values.real.reshape(batch_shape)


def correlator(state: SubspaceState, observables: Sequence[ModeObservable]) -> float:
    """Expectation value of the tensor product of one observable per mode.

    The batch-of-one form of :func:`correlator_batch`.  Returns a float;
    raises ConsistencyError if the imaginary residue of the trace exceeds
    IMAG_RESIDUE_TOL.
    """
    observables = _check_observables(state, observables)
    mats = np.array([obs.matrix for obs in observables])
    return float(correlator_batch(state.matrix, mats))


def correlator_bruteforce(
    state: SubspaceState, observables: Sequence[ModeObservable]
) -> float:
    """Same expectation value via dense tensors in the 2^N occupation space.

    Test oracle for :func:`correlator`: embeds the state into the full
    mode-occupation space, forms the tensor product of the observables as a
    dense 2^N x 2^N matrix and takes the trace inner product.  Limited to
    N <= 12 modes.
    """
    observables = _check_observables(state, observables)
    n = state.n_modes
    if n > BRUTEFORCE_MODE_LIMIT:
        raise ValueError(
            f"brute-force correlator limited to N <= {BRUTEFORCE_MODE_LIMIT}"
        )
    dim = 2**n
    full = np.ones((1, 1), dtype=complex)
    for obs in observables:
        full = np.kron(full, obs.matrix)
    # Mode k (1-based) occupies bit n - k, so |e_1> is the highest bit.
    index = [0] + [1 << (n - k) for k in range(1, n + 1)]
    rho_full = np.zeros((dim, dim), dtype=complex)
    for a, ia in enumerate(index):
        for b, ib in enumerate(index):
            rho_full[ia, ib] = state.matrix[a, b]
    value = complex(np.einsum("ab,ba->", rho_full, full))
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise ConsistencyError(
            f"brute-force correlator has imaginary residue {value.imag:.3e}"
        )
    return float(value.real)
