"""Criticality and norm minimization over determinant-1 products
================================================================

A state is critical when all single-site reductions are maximally mixed,
equivalently when it minimizes the norm in its orbit under products of
determinant-1 matrices.  The flow below recovers the minimum from perturbed
starting points, the sampled inequality exhibits the minimality, and a
product state shows the opposite behavior: its orbit norm infimum is zero
and never attained.
"""

import numpy as np

from amecode import catalog
from amecode.kempfness import (apply_sitewise, from_exact, is_critical,
                               kempf_ness_inequality_test,
                               norm_minimization_flow, random_group_element)

phi = from_exact(catalog.ame_state())
print("perfect tensor:", is_critical(phi, 1e-10))
print("product state: ", is_critical(from_exact(catalog.ket("000", 3, 12)), 1e-10))

# Perturb by a random determinant-1 product and flow back down.
rng = np.random.default_rng(0)
for trial in range(3):
    g = random_group_element(phi.shape, rng, scale=1.0)
    start = apply_sitewise(g, phi)
    rep = norm_minimization_flow(start, max_iters=5000, tol=1e-8)
    print(f"flow {trial}: start norm^2 = {rep.initial_norm_sq:.6f} -> "
          f"final = {rep.final_norm_sq:.12f} in {rep.iterations} iterations "
          f"(residual {rep.criticality_residual:.1e}, monotone {rep.monotone})")

# Sampled minimality: no determinant-1 product shrinks the norm.
rep = kempf_ness_inequality_test(phi, samples=500, seed=1)
print(f"min sampled ratio over 500 group elements: {rep.min_ratio:.9f}")

# A product basis state: the flow drives the norm toward zero without ever
# reaching a critical point -- the infimum is not attained on the orbit.
collapse = norm_minimization_flow(from_exact(catalog.ket("001", 2, 24)),
                                  max_iters=200, tol=1e-8)
print("collapse run: converged =", collapse.converged,
      f" final norm^2 = {collapse.final_norm_sq:.2e}",
      " monotone =", collapse.monotone)
