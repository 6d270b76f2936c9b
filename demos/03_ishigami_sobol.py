"""Ishigami benchmark: moments and total Sobol indices from few evaluations.

The Ishigami function is strongly nonlinear and non-monotonic, which makes it
a stress test for spectral surrogates.  This script fits a degree-10
expansion from values and analytic gradients at QR-ranked points (oversampled
twofold: 144 points, 288 evaluations) and compares the first four moments and
the total sensitivity indices against the known reference values.

It also shows why the *minimum* sampling rule fails here: a square
gradient-augmented system at 72 points amplifies the (sizeable) degree-10
truncation remainder of the resonant sin^2 term.
"""

import numpy as np

from segpc import (
    ChaosBasis,
    fit_segpc,
    higher_moments,
    ishigami_model,
    ishigami_sobol_total,
    rank_pool,
    segpc_point_count,
    sobol_total,
)

model = ishigami_model()
space = model.space
basis = ChaosBasis(space, 10)
plan = rank_pool(basis, 10000, seed=1)

minimum = segpc_point_count(basis.n_terms, space.m)
print(f"basis: m=3, p=10, {basis.n_terms} coefficients")
print(f"minimum point rule would take {minimum} points; this fit uses "
      f"{2 * minimum} (oversampling ratio 2)\n")

surrogate = fit_segpc(basis, plan, model, n_points=2 * minimum)
moments = higher_moments(surrogate)
print(f"evaluations spent: {surrogate.fit_report.evaluation_count}")
print(f"mean     {moments.mean:9.4f}   (reference 3.5000)")
print(f"std      {moments.std:9.4f}   (reference 3.7208)")
print(f"skewness {moments.skewness:9.4f}   (reference 0.0)")
print(f"kurtosis {moments.kurtosis:9.4f}   (reference 3.5072)")

indices = sobol_total(surrogate).total_indices
exact = ishigami_sobol_total()
print("\ntotal Sobol indices (fit vs exact):")
for k, (got, want) in enumerate(zip(indices, exact), start=1):
    print(f"  input {k}: {got:.4f} vs {want:.4f}")

minimal = fit_segpc(basis, plan, model)
m_rep = higher_moments(minimal)
print(f"\nfor contrast, the minimum-point fit ({minimal.fit_report.evaluation_count} "
      f"evaluations) gives mean {m_rep.mean:.2f} and std {m_rep.std:.2f} —")
print("interpolating values and gradients exactly at that few points lets the")
print("truncation remainder alias freely across all coefficients.")
