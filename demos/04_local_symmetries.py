"""The local symmetry group of the perfect tensor
=================================================

Five four-site product unitaries generate the full group of product
operators fixing the state.  Counting is subtle: the group of three-site
operators preserving the code (the normalizer) has 648 * 9 = 5832 elements,
but pairing each with its conjugated code restriction maps the three
central scalars w^k * I to the identity, so the closure of the published
generators contains 5832 / 3 = 1944 distinct operators.
"""

from amecode import catalog
from amecode.groups import (homomorphism, image_fibres_kernel, local_symmetry_group,
                            mu_matrix, normalizer_group_332)
from amecode.tensor import LocalOperator, apply

phi = catalog.ame_state(normalized=False)

# Each generator fixes the state exactly (amplitude-for-amplitude).
gens = catalog.local_symmetry_generators()
print("generators fix the state:",
      all(apply(g, phi) == phi for g in gens))

sym = local_symmetry_group()
norm = normalizer_group_332()
print("operator closure order:", sym.order)
print("normalizer order:", norm.order)

# A -> conj(mu(A)) (x) A on the normalizer generators gives the five
# symmetry generators; checked on every edge of the normalizer's Cayley
# table, it is a homomorphism, and its image, fibres and kernel are exact.
code = catalog.code_332()
lifts = [LocalOperator(a.n, a.scalar, [mu_matrix(a, code).conj(), *a.factors])
         for a in norm.generators]
print("lifts of the normalizer generators are the symmetry generators:",
      lifts == list(gens))
image, fibres, kernel = image_fibres_kernel(norm, homomorphism(norm, sym, lifts))
print("image order:", image)
print("fibre sizes:", fibres)
print("kernel order:", len(kernel))
print("kernel elements are scalar multiples of I:",
      all(f.is_identity() for k in kernel for f in k.factors))
