"""Wrapped-Gaussian noise model and offset-polynomial averaging."""

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import damped_polynomial
from photonbell import (
    ConsistencyError,
    PhaseModel,
    PhasePolynomial,
    average_polynomial,
    child_seed,
    sample_offsets,
    wrapped_gaussian_pdf,
)


def _random_polynomial(rng: np.random.Generator, n_offsets: int) -> PhasePolynomial:
    terms = []
    for _ in range(rng.integers(1, 6)):
        freq = tuple(int(f) for f in rng.integers(-2, 3, n_offsets))
        coeff = complex(rng.normal(), rng.normal())
        terms.append((freq, coeff))
    return PhasePolynomial(n_offsets, tuple(terms))


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


def test_polynomial_canonicalization():
    poly = PhasePolynomial(
        2, (((1, 0), 1.0 + 0j), ((1, 0), 2.0 + 0j), ((0, 1), 0.0 + 0j))
    )
    assert poly.terms == (((1, 0), 3.0 + 0j),)
    constant = PhasePolynomial.constant(0.5, 2)
    assert constant.is_constant
    assert constant.constant_value() == 0.5


def test_polynomial_evaluate_batches():
    poly = _random_polynomial(np.random.default_rng(5), 3)
    offsets = np.random.default_rng(6).uniform(0.0, 2.0 * np.pi, (10, 3))
    batch = poly.evaluate(offsets)
    assert batch.shape == (10,)
    for row, value in zip(offsets, batch):
        single = sum(
            coeff * np.exp(1j * np.dot(freq, row)) for freq, coeff in poly.terms
        )
        assert abs(value - single) < 1e-12


def test_polynomial_evaluate_real_guards_imaginary_part():
    poly = PhasePolynomial(1, (((1,), 1.0 + 0j),))
    with pytest.raises(ConsistencyError):
        poly.evaluate_real(np.array([0.3]))
    # a Hermitian-symmetric pair is real everywhere
    sym = PhasePolynomial(1, (((1,), 0.5 + 0j), ((-1,), 0.5 + 0j)))
    assert abs(sym.evaluate_real(np.array([0.3])) - np.cos(0.3)) < 1e-14


def test_polynomial_algebra():
    a = PhasePolynomial(1, (((1,), 1.0 + 0j),))
    b = PhasePolynomial(1, (((-1,), 2.0 + 0j),))
    total = a + b
    assert set(total.terms) == {((1,), 1.0 + 0j), ((-1,), 2.0 + 0j)}
    scaled = a * 3.0
    assert scaled.terms == (((1,), 3.0 + 0j),)
    with pytest.raises(ValueError):
        a + PhasePolynomial(2, (((1, 0), 1.0 + 0j),))


def test_average_polynomial_known_case():
    # E[exp(i*Delta)] over a Gaussian with center c and width w
    poly = PhasePolynomial(1, (((1,), 1.0 + 0j),))
    model = PhaseModel((0.9,), 0.5)
    averaged = average_polynomial(poly, model)
    assert averaged.is_constant
    expected = np.exp(1j * 0.9 - 0.125)
    assert abs(averaged.constant_value() - expected) < 1e-14


def test_average_polynomial_matches_monte_carlo():
    rng = np.random.default_rng(77)
    n_samples = 100_000
    for trial in range(4):
        n_offsets = int(rng.integers(1, 4))
        poly = _random_polynomial(rng, n_offsets)
        model = PhaseModel(
            tuple(rng.uniform(0.0, 2.0 * np.pi, n_offsets)), rng.uniform(0.1, 1.2)
        )
        exact = average_polynomial(poly, model).constant_value()
        draws = sample_offsets(model, rng_seed=int(rng.integers(2**32)), count=n_samples)
        samples = poly.evaluate(draws)
        mc = samples.mean()
        sigma = max(samples.real.std(), samples.imag.std()) / np.sqrt(n_samples)
        assert abs(mc - exact) < 4.0 * max(sigma, 1e-12)


def test_damped_polynomial_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_offsets = int(rng.integers(1, 4))
        poly = _random_polynomial(rng, n_offsets)
        width = rng.uniform(0.0, 1.5)
        centers = tuple(rng.uniform(0.0, 2.0 * np.pi, n_offsets))
        damped = damped_polynomial(poly, width)
        via_damping = damped.evaluate(np.array(centers))
        via_average = average_polynomial(poly, PhaseModel(centers, width))
        assert abs(via_damping - via_average.constant_value()) < 1e-13


def test_damped_polynomial_zero_width_is_identity():
    poly = _random_polynomial(np.random.default_rng(3), 2)
    assert damped_polynomial(poly, 0.0).terms == poly.terms


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
