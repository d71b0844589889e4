"""Invariant polynomials of degrees 6, 9 and 12
===============================================

The gate group's invariant algebra on code coordinates is generated by
three polynomials.  This demo evaluates them exactly, decides their
invariance under the generators on a fixed integer lattice, and finds the
gate that maps one code element onto the line of another, or shows that
none does.
"""

from fractions import Fraction

from amecode.cyclo import root_of_unity
from amecode.groups import weyl_generators, weyl_group
from amecode.invariants import CartanPoint, check_weyl_invariance, eval_invariants, orbit_witness
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

# Orbit witnesses: the first gate g with g * p parallel to q, found by
# exact 2x2 minors over all 648 elements of the gate group.
W = weyl_group()
p = CartanPoint.of(N, 1, 2, 3)
q = p.transform(W.elements[123]).scale(7 * root_of_unity(1, N))
print("witness for 7 zeta g_123 p: element", orbit_witness(W, p, q))
# i9 vanishes at (1, 0, 0) but not at (1, 2, 3), and whether it vanishes is
# unchanged along an orbit and by scaling: no witness exists.
print("witness for (1, 0, 0) against (1, 2, 3):", orbit_witness(W, CartanPoint.of(N, 1, 0, 0), p))
