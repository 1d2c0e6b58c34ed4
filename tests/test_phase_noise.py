"""Wrapped-Gaussian noise model and exact frame averaging."""

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import complex_entries, random_state, sample_offsets, wrapped_gaussian_pdf
from photonbell import (
    PhaseModel,
    child_seed,
    frame_averaged_table,
    pair_symbolic_tables,
    two_setting_strategy,
    w_state,
)


def test_pdf_normalizes_and_is_nonnegative():
    for width in (0.2, 0.9, 1.5, 3.0):
        total, _ = quad(wrapped_gaussian_pdf, 0.0, 2.0 * np.pi, args=(1.0, width))
        assert abs(total - 1.0) < 1e-9
        phis = np.linspace(0.0, 2.0 * np.pi, 100)
        assert all(wrapped_gaussian_pdf(p, 1.0, width) >= 0.0 for p in phis)


def test_pdf_matches_wrapped_sum_of_gaussians():
    # independent oracle: directly wrap the real-line normal density.  The
    # widths fall on both sides of the switch from the windings form
    # (narrow) to the Fourier form (wide), which lies near width 1.72.
    phis = np.linspace(0.0, 2.0 * np.pi, 17)
    for center, width in (
        (0.0, 0.3),
        (2.0, 0.8),
        (5.5, 1.4),
        (1.0, 1.7),
        (4.0, 1.75),
        (3.0, 2.5),
        (0.5, 4.0),
    ):
        wraps = np.arange(-60, 61)
        for phi in phis:
            direct = np.sum(
                np.exp(-0.5 * ((phi - center + 2.0 * np.pi * wraps) / width) ** 2)
            ) / (width * np.sqrt(2.0 * np.pi))
            assert abs(wrapped_gaussian_pdf(phi, center, width) - direct) < 1e-12


def test_pdf_of_very_narrow_noise_is_the_plain_gaussian():
    # the Fourier form would need about 8.6e9 terms per point at this
    # width; the windings form needs one
    width = 1e-9
    for center in (0.0, 2.0, 2.0 * np.pi - 1e-9):
        phis = center + width * np.linspace(-6.0, 6.0, 25)
        plain = np.exp(-0.5 * ((phis - center) / width) ** 2) / (width * np.sqrt(2.0 * np.pi))
        density = wrapped_gaussian_pdf(phis, center, width)
        assert np.allclose(density, plain, rtol=1e-12, atol=0.0)
        assert wrapped_gaussian_pdf(center + 1.0, center, width) == 0.0


def test_pdf_first_moment_of_cosine():
    for width in (0.2, 0.9, 1.5):
        for center in (0.0, 0.7, np.pi):
            value, _ = quad(
                lambda p: wrapped_gaussian_pdf(p, center, width) * np.cos(p),
                0.0,
                2.0 * np.pi,
            )
            assert abs(value - np.exp(-0.5 * width**2) * np.cos(center)) < 1e-9


def test_pdf_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        wrapped_gaussian_pdf(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        wrapped_gaussian_pdf(0.0, 0.0, -1.0)


def test_phase_model_normalization():
    model = PhaseModel((7.0, -1.0), 0.4)
    assert model.n_relative == 2
    assert 0.0 <= model.centers[0] < 2.0 * np.pi
    assert 0.0 <= model.centers[1] < 2.0 * np.pi
    with pytest.raises(ValueError):
        PhaseModel((0.0,), -0.1)


def test_phase_model_refuses_scalar_or_non_real_centers():
    # a scalar raised TypeError from iteration and "0.3" was read as 0.3;
    # the one-table entry point, which no longer checks centers itself,
    # refuses a scalar through the model as it did before
    from photonbell import averaged_correlator_table

    for centers in (0.3, np.float64(0.3), ("0.3",), (True,), ((0.1, 0.2),), (0.3 + 0.0j,)):
        with pytest.raises(ValueError, match="phase centers must be a sequence of real numbers"):
            PhaseModel(centers, 0.1)
    with pytest.raises(ValueError, match="phase centers"):
        averaged_correlator_table(2, 0.1, -0.4, 0.3, 0.2, 0.9)
    assert PhaseModel(np.array([1, 2]), 0.1).centers == (1.0, 2.0)
    assert PhaseModel((), 0.0).n_relative == 0


def test_averaged_table_known_case():
    # photon counting against a displacement r on the two-mode single
    # photon: only the entry with both parties displaced sees the frame,
    # through cos(phi - Delta), and E[cos(phi - Delta)] = q cos(phi - c)
    r, phi = 0.6, 1.3
    e = np.exp(-(r**2))
    strat = two_setting_strategy(2, 0.0, r, phases=(phi, 0.0))
    for center, width in ((0.9, 0.5), (-7.0, 1.1), (2.0, 0.0)):
        averaged = frame_averaged_table(w_state(2), strat, PhaseModel((center,), width)).values
        q = np.exp(-0.5 * width**2)
        expected = (
            -1.0,
            -e * (1 - r**2),
            -e * (1 - r**2),
            1 - 2 * e * (1 + r**2) + 4 * e**2 * r**2 * (1 + q * np.cos(phi - center)),
        )
        assert np.max(np.abs(averaged - expected)) <= 1e-15


def test_averaged_table_matches_monte_carlo():
    # the state route's analytic average against the mean over sampled
    # frames, each draw evaluated through the complex +-n terms of the
    # symbolic rows, within 4 sigma per entry
    rng = np.random.default_rng(77)
    n_samples = 100_000
    for n in (2, 3, 4):
        state = random_state(rng, n)
        r0, r1 = rng.uniform(-1.0, 1.0, 2)
        strat = two_setting_strategy(n, r0, r1, rng.uniform(0.0, 2.0 * np.pi, n))
        model = PhaseModel(tuple(rng.uniform(0.0, 2.0 * np.pi, n - 1)), rng.uniform(0.1, 1.2))
        exact = frame_averaged_table(state, strat, model).values
        draws = sample_offsets(model, rng_seed=int(rng.integers(2**32)), count=n_samples)
        table = pair_symbolic_tables(state, strat)[0]
        samples = complex_entries(table, draws).real
        sigma = samples.std(axis=0) / np.sqrt(n_samples)
        assert np.all(np.abs(samples.mean(axis=0) - exact) < 4.0 * sigma)


def test_sample_offsets_shape_and_determinism():
    model = PhaseModel((1.0, 4.0), 0.7)
    a = sample_offsets(model, rng_seed=123, count=50)
    b = sample_offsets(model, rng_seed=123, count=50)
    assert a.shape == (50, 2)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 2.0 * np.pi))
    with pytest.raises(ValueError):
        sample_offsets(model, rng_seed=1, count=0)
    with pytest.raises(ValueError):
        sample_offsets(PhaseModel((1.0,), 0.0), rng_seed=1, count=5)


def test_child_seed_spreads_streams():
    seeds = {child_seed(42, k) for k in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**64 for s in seeds)
    assert child_seed(42, 5) == child_seed(42, 5)
    assert child_seed(42, 5) != child_seed(43, 5)


def test_seeds_are_checked_like_counts():
    # seeds and shard indices are whole numbers, seeds in [0, 2^64):
    # 2.5 once passed as 2 and 0.5 raised TypeError
    for bad in (2.5, 0.5, -1, 2**64, True, np.nan, "3"):
        with pytest.raises(ValueError, match="seed must be"):
            child_seed(bad, 0)
    for bad in (0.5, -1, True):
        with pytest.raises(ValueError, match="index must be"):
            child_seed(1, bad)
    assert child_seed(3.0, 0) == child_seed(3, 0)
    assert child_seed(3, 2.0) == child_seed(3, 2)
    assert child_seed(np.uint64(2**64 - 1), 0) == child_seed(2**64 - 1, 0)
