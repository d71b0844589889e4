"""Invariant polynomials of degrees 6, 9 and 12
===============================================

The gate group's invariant algebra on code coordinates is generated by
three polynomials.  This demo evaluates them exactly, decides their
invariance under the generators on a fixed integer lattice, and shows the
scale-free ratio fingerprint that separates orbits.
"""

from fractions import Fraction

from amecode.groups import weyl_generators, weyl_group
from amecode.invariants import (CartanPoint, check_weyl_invariance,
                                eval_invariants, invariant_ratio_fingerprint)
from amecode.linalg import Matrix

N = 12

for coords in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 2, 3)]:
    t = eval_invariants(CartanPoint.of(N, *coords))
    print(f"point {coords}: i6 = {t.i6.as_fraction()}, "
          f"i9 = {t.i9.as_fraction()}, i12 = {t.i12.as_fraction()}")

# Invariance under the three generators, decided at the 91 integer points
# of a + b + c = 12: the difference f(g x) - f(x) is homogeneous of degree
# at most 12, so vanishing there makes it vanish everywhere.
for i, r in enumerate(weyl_generators()):
    print(f"generator {i + 1} preserves all three invariants:", check_weyl_invariance(r))

# A diagonal rescaling that is not a gate fails immediately.
bad = Matrix(N, [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
print("diag(2, 1/2, 1) preserves them:", check_weyl_invariance(bad))

# Fingerprints: ratios of same-degree invariant powers are constant on
# orbits and under rescaling.
p = CartanPoint.of(N, 1, 2, 3)
f = invariant_ratio_fingerprint(p)
print("fingerprint branch:", f.branch)
g = weyl_group().elements[123]
print("constant along the orbit:", invariant_ratio_fingerprint(p.transform(g)) == f)
print("constant under rescaling:", invariant_ratio_fingerprint(p.scale(7)) == f)
print("separates distinct orbits:",
      invariant_ratio_fingerprint(CartanPoint.of(N, 1, 0, 0)) != f)
