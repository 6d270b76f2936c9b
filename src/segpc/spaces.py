"""Input probability spaces: independent marginals, standardization, sampling.

All regression and quadrature machinery works in *standardized* coordinates:
a Gaussian marginal maps to N(0, 1), a uniform marginal to U(-1, 1).  Physical
coordinates appear only inside models, which call :meth:`StochasticSpace.
destandardize` before evaluating the underlying problem.

Each marginal states its map to physical coordinates once, as an affine
triple ``(base, shift, scale)`` with ``x = base + (xi + shift) * scale``, and
its JSON form once, as ``{"kind": kind, **fields}``; :data:`MARGINALS` maps
each kind to its class.

Sampling uses numpy's ``default_rng`` (PCG64).  Gaussian draws use numpy's
ziggurat implementation of ``standard_normal``; uniform draws come straight
from the PCG64 stream.  Pools generated with the same seed are bit-identical.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Gaussian:
    """Normal marginal N(mean, std**2); standardized variable is N(0, 1)."""

    mean: float = 0.0
    std: float = 1.0

    #: name of the marginal in config and surrogate JSON
    kind = "gaussian"
    #: polynomial family orthonormal under the standardized density
    family = "hermite"

    def __post_init__(self):
        if not self.std > 0.0:
            raise ValueError(f"Gaussian marginal needs std > 0, got {self.std}")

    @property
    def affine(self):
        """(base, shift, scale) of the map x = base + (xi + shift) * scale."""
        return self.mean, 0.0, self.std

    def sample_standard(self, rng, q):
        return rng.standard_normal(q)


@dataclass(frozen=True)
class Uniform:
    """Uniform marginal on [lower, upper]; standardized variable is U(-1, 1)."""

    lower: float = -1.0
    upper: float = 1.0

    kind = "uniform"
    family = "legendre"

    def __post_init__(self):
        if not self.upper > self.lower:
            raise ValueError(
                f"Uniform marginal needs upper > lower, got [{self.lower}, {self.upper}]"
            )

    @property
    def affine(self):
        return self.lower, 1.0, 0.5 * (self.upper - self.lower)

    def sample_standard(self, rng, q):
        return rng.uniform(-1.0, 1.0, q)


#: marginal class by its ``kind``
MARGINALS = {cls.kind: cls for cls in (Gaussian, Uniform)}


@dataclass(frozen=True)
class SamplePool:
    """Candidate sample points in standardized coordinates.

    ``points`` has shape (q, m); every row lies in the standard domain of its
    marginal (all of R for Gaussian, [-1, 1] for uniform).  Pools regenerate
    bit-identically from the stored seed.
    """

    points: np.ndarray
    seed: int

    @property
    def q(self):
        return self.points.shape[0]


class StochasticSpace:
    """Ordered collection of independent marginals.

    The joint PDF factorizes over marginals by construction.  Instances are
    immutable and safe to share across threads.
    """

    def __init__(self, marginals):
        marginals = tuple(marginals)
        if len(marginals) == 0:
            raise ValueError("a stochastic space needs at least one marginal")
        for marg in marginals:
            if not isinstance(marg, (Gaussian, Uniform)):
                raise ValueError(f"unsupported marginal type: {type(marg).__name__}")
        self._marginals = marginals
        affine = np.array([marg.affine for marg in marginals]).T.copy()
        self._base, self._shift, self._scales = affine

    @property
    def marginals(self):
        return self._marginals

    @property
    def m(self):
        """Number of stochastic dimensions."""
        return len(self._marginals)

    @property
    def families(self):
        """Per-dimension polynomial family ('hermite' or 'legendre')."""
        return tuple(marg.family for marg in self._marginals)

    @property
    def scales(self):
        """Per-dimension dx/dxi of the standardization map (chain-rule factors)."""
        return self._scales

    def __repr__(self):
        inner = ", ".join(repr(m) for m in self._marginals)
        return f"StochasticSpace([{inner}])"

    def _check_shape(self, arr, name):
        """``arr`` as a float array of rows (n, m), or a ValueError naming its shape."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.m:
            raise ValueError(f"{name} have shape {arr.shape}, expected (n, {self.m})")
        return arr

    def standardize(self, x):
        """Map rows (n, m) of physical coordinates to standardized ones."""
        x = self._check_shape(x, "physical points")
        return (x - self._base) / self._scales - self._shift

    def destandardize(self, xi):
        """Map rows (n, m) of standardized coordinates back to physical ones."""
        xi = self._check_shape(xi, "standard points")
        return self._base + (xi + self._shift) * self._scales

    def sample_pool(self, q, seed):
        """Draw q independent standardized points with a fixed seed.

        Columns are drawn marginal by marginal from a single PCG64 stream, so
        the pool depends only on (marginals, q, seed).
        """
        if q < 1:
            raise ValueError(f"pool size must be >= 1, got {q}")
        rng = np.random.default_rng(seed)
        points = np.empty((q, self.m))
        for k, marg in enumerate(self._marginals):
            points[:, k] = marg.sample_standard(rng, q)
        return SamplePool(points=points, seed=int(seed))

    def sample_chunks(self, q, seed, size):
        """The rows of ``sample_pool(q, seed).points``, ``size`` at a time, without the pool.

        One pass draws and discards each column but the last, chunk by
        chunk, and keeps a copy of the generator at each column's start;
        then each copy draws its column chunk by chunk.  numpy draws a
        ``standard_normal`` or ``uniform`` sequence in chunks with the bits
        of one draw, so the chunks hold the pool's bits.
        """
        if q < 1:
            raise ValueError(f"pool size must be >= 1, got {q}")
        rng = np.random.default_rng(seed)
        columns = []
        for k, marg in enumerate(self._marginals):
            columns.append(np.random.Generator(copy.deepcopy(rng.bit_generator)))
            if k + 1 < self.m:
                for start in range(0, q, size):
                    marg.sample_standard(rng, min(size, q - start))
        for start in range(0, q, size):
            points = np.empty((min(size, q - start), self.m))
            for k, (marg, column) in enumerate(zip(self._marginals, columns)):
                points[:, k] = marg.sample_standard(column, len(points))
            yield points
