"""Where does the D-optimal selection place sample points?

For two standard-normal inputs the greedy pivoted-QR selection reproduces a
characteristic geometry: the first point sits at the mode of the joint PDF
and the remaining points arrange themselves on concentric rings.
"""

import numpy as np

from segpc import ChaosBasis, Gaussian, StochasticSpace, rank_pool

space = StochasticSpace([Gaussian(), Gaussian()])

for order in (2, 4):
    basis = ChaosBasis(space, order)
    plan = rank_pool(basis, 10000, seed=1)
    radii = np.linalg.norm(plan.points, axis=1)

    print(f"\nchaos order p={order}: {basis.n_terms} points selected from 10000")
    print(f"  rank  1: radius {radii[0]:.3f}  (the PDF mode)")
    if order == 2:
        print(f"  ranks 2-6: radii {np.round(radii[1:], 2)}  (a single ring)")
    else:
        print(f"  ranks 2-6:  radii {np.round(radii[1:6], 2)}  (inner ring)")
        print(f"  ranks 7-15: radii {np.round(radii[6:], 2)}  (outer ring)")
    print(f"  condition number {plan.cond_number:.2f}, "
          f"log|det| {np.sum(np.log(plan.r_diag)):.2f}")
    print(f"  pivot magnitudes |R_ii|: {np.round(plan.r_diag, 2)}")
