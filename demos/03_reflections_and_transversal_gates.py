"""Complex reflections and the 648-element group of transversal gates
=====================================================================

Three order-3 reflections generate a 648-element matrix group on code
coordinates.  Each generator lifts to a three-site product unitary acting
on the physical qutrits, and closing the lifted restrictions reproduces the
same group: every one of its gates is implementable transversally.
"""

from amecode import catalog
from amecode.groups import (mu_matrix, reflection, transversal_group,
                            verify_coset_representatives, weyl_group)

# Reflection about a vector: fixes the orthogonal hyperplane, multiplies
# the vector by a cube root of unity.
vectors = catalog.reflection_vectors()
gens = [reflection(v, 3, 12) for v in vectors]
printed = catalog.weyl_generator_matrices()
print("reflection formula reproduces the closed-form matrices:",
      all(a == b for a, b in zip(gens, printed)))

w = weyl_group()
print("closure order:", w.order)

# The published three-site lifts restrict to the generators exactly, and
# each lift factors into special-unitary matrices (conductor lcm(12, 36)).
print(verify_coset_representatives())

# The code restriction of each lift, together with the trivial restrictions
# of the stabilizer generators, closes to the same 648-element group.
t = transversal_group()
print("transversal closure order:", t.order,
      " set-equal to the reflection group:", t.set_equal(w))

# Stabilizer elements act trivially on the code.
print("restriction of Z^x3 is the identity gate:",
      mu_matrix(catalog.zzz(3, 3, 12), catalog.code_332()).is_identity())
