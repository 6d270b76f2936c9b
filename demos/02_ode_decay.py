"""Exponential decay with an uncertain rate: 8 evaluations vs closed forms.

The solution u(t) = exp(-k t) with k ~ U(0, 1) has closed-form mean and
variance.  A degree-6 expansion fitted from values *and* derivatives at just
the top 4 ranked points (8 model evaluations in total) tracks both across
t in [0, 3] to a fraction of a percent.
"""

import numpy as np

from segpc import (
    ChaosBasis,
    fit_segpc,
    moments_from_coefficients,
    ode_mean,
    ode_model,
    ode_variance,
    rank_pool,
)

space = ode_model(0.0).space
basis = ChaosBasis(space, 6)
plan = rank_pool(basis, 10000, seed=42)

print("fit: degree 6, top 4 of 7 ranked points, value + derivative each")
print(f"selected k values: {np.round(space.destandardize(plan.points[:4]).ravel(), 4)}")
print(f"\n{'t':>5} {'mean':>10} {'exact':>10} {'rel err':>9}   "
      f"{'variance':>11} {'exact':>11} {'rel err':>9}")
for t in (0.0, 0.5, 1.0, 2.0, 3.0):
    surrogate = fit_segpc(basis, plan, ode_model(t))
    mean, var = moments_from_coefficients(surrogate)
    exact_mean, exact_var = ode_mean(t), ode_variance(t)
    err_m = abs(mean - exact_mean) / exact_mean
    err_v = abs(var - exact_var) / exact_var if exact_var else 0.0
    print(f"{t:5.1f} {mean:10.6f} {exact_mean:10.6f} {err_m:9.2e}   "
          f"{var:11.3e} {exact_var:11.3e} {err_v:9.2e}")

print("\n(each fit spends 8 evaluations; the plain value-only fit needs 7"
      " points for the same basis)")
