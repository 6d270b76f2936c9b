import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segpc import Gaussian, StochasticSpace, Uniform


def test_gaussian_standardize_examples():
    marg = Gaussian(mean=4.0, std=0.4)
    assert marg.standardize(4.0) == pytest.approx(0.0)
    # affine map evaluated directly
    assert Gaussian(0.75, 0.16).destandardize(2.0) == pytest.approx(1.07)


def test_uniform_standardize_endpoint():
    marg = Uniform(-math.pi, math.pi)
    assert marg.standardize(math.pi) == pytest.approx(1.0)
    assert marg.standardize(-math.pi) == pytest.approx(-1.0)


def test_invalid_marginals_rejected():
    with pytest.raises(ValueError):
        Gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        StochasticSpace([])


def test_roundtrip_identity_seeded():
    # quantified round-trip over 1000 random points per marginal kind
    rng = np.random.default_rng(0)
    space = StochasticSpace([Gaussian(1.5, 0.3), Uniform(-2.0, 7.0)])
    xi = np.column_stack([rng.standard_normal(1000), rng.uniform(-1, 1, 1000)])
    back = space.standardize(space.destandardize(xi))
    assert np.max(np.abs(back - xi)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(-50, 50),
    std=st.floats(1e-3, 50),
    xi=st.floats(-6, 6),
)
def test_roundtrip_gaussian_property(mean, std, xi):
    # cancellation in (x - mean) grows with |mean| / std
    marg = Gaussian(mean, std)
    tol = 1e-14 * (1.0 + abs(mean) / std)
    assert marg.standardize(marg.destandardize(xi)) == pytest.approx(xi, abs=tol)


@settings(max_examples=50, deadline=None)
@given(
    lower=st.floats(-50, 49),
    width=st.floats(1e-3, 50),
    xi=st.floats(-1, 1),
)
def test_roundtrip_uniform_property(lower, width, xi):
    marg = Uniform(lower, lower + width)
    tol = 1e-14 * (1.0 + abs(lower) / width) * 4
    assert marg.standardize(marg.destandardize(xi)) == pytest.approx(xi, abs=tol)


def test_sample_pool_domains_and_determinism():
    space = StochasticSpace([Gaussian(), Uniform()])
    pool_a = space.sample_pool(5, seed=0)
    pool_b = space.sample_pool(5, seed=0)
    assert np.array_equal(pool_a.points, pool_b.points)
    assert np.all(np.abs(pool_a.points[:, 1]) <= 1.0)
    with pytest.raises(ValueError):
        space.sample_pool(0, seed=1)


def test_sample_pool_law_of_large_numbers():
    space = StochasticSpace([Gaussian(), Gaussian()])
    pool = space.sample_pool(10000, seed=7)
    assert pool.points.shape == (10000, 2)
    assert np.all(np.abs(pool.points.mean(axis=0)) < 0.05)


def test_large_pool_moments():
    space = StochasticSpace([Gaussian()])
    pool = space.sample_pool(10**6, seed=123)
    draws = pool.points[:, 0]
    assert abs(draws.mean()) < 5e-3
    assert abs(draws.var() - 1.0) < 5e-3


def test_shape_validation():
    space = StochasticSpace([Gaussian(), Uniform()])
    with pytest.raises(ValueError):
        space.standardize(np.zeros(3))
    with pytest.raises(ValueError):
        space.destandardize(np.zeros((4, 3)))
