import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segpc import Gaussian, StochasticSpace, Uniform


def test_gaussian_standardize_examples():
    space = StochasticSpace([Gaussian(mean=4.0, std=0.4)])
    assert space.standardize([[4.0]]) == pytest.approx(np.array([[0.0]]))
    # affine map evaluated directly
    [[x]] = StochasticSpace([Gaussian(0.75, 0.16)]).destandardize([[2.0]])
    assert x == pytest.approx(1.07)


def test_uniform_standardize_endpoint():
    space = StochasticSpace([Uniform(-math.pi, math.pi)])
    assert space.standardize([[math.pi], [-math.pi]]) == pytest.approx(np.array([[1.0], [-1.0]]))


def test_affine_map_matches_closed_forms():
    # x = base + (xi + shift) * scale gives the bits of each marginal's own map
    rng = np.random.default_rng(3)
    for _ in range(300):
        mean, lower = rng.uniform(-50.0, 50.0, 2)
        std, width = rng.uniform(1e-3, 50.0, 2)
        upper = lower + width
        space = StochasticSpace([Gaussian(mean, std), Uniform(lower, upper)])
        xi = np.column_stack([rng.standard_normal(2000), rng.uniform(-1.0, 1.0, 2000)])
        x = np.column_stack([mean + std * rng.standard_normal(2000),
                             rng.uniform(lower, upper, 2000)])
        assert np.array_equal(space.destandardize(xi), np.column_stack([
            mean + std * xi[:, 0],
            lower + 0.5 * (xi[:, 1] + 1.0) * (upper - lower),
        ]))
        assert np.array_equal(space.standardize(x), np.column_stack([
            (x[:, 0] - mean) / std,
            2.0 * (x[:, 1] - lower) / (upper - lower) - 1.0,
        ]))


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
    space = StochasticSpace([Gaussian(mean, std)])
    tol = 1e-14 * (1.0 + abs(mean) / std)
    assert space.standardize(space.destandardize([[xi]]))[0, 0] == pytest.approx(xi, abs=tol)


@settings(max_examples=50, deadline=None)
@given(
    lower=st.floats(-50, 49),
    width=st.floats(1e-3, 50),
    xi=st.floats(-1, 1),
)
def test_roundtrip_uniform_property(lower, width, xi):
    space = StochasticSpace([Uniform(lower, lower + width)])
    tol = 1e-14 * (1.0 + abs(lower) / width) * 4
    assert space.standardize(space.destandardize([[xi]]))[0, 0] == pytest.approx(xi, abs=tol)


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
    # rows (n, m) only: a single point is a one-row batch
    space = StochasticSpace([Gaussian(), Uniform()])
    for points in (np.zeros(2), np.zeros(3), np.zeros((4, 3)), np.zeros((1, 1, 2))):
        for convert, name in ((space.standardize, "physical"), (space.destandardize, "standard")):
            message = f"{name} points have shape {points.shape}, expected (n, 2)"
            with pytest.raises(ValueError, match=re.escape(message)):
                convert(points)
