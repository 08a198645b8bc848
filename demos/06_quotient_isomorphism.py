"""
Ultraproduct of quotients = quotient of the ultraproduct
========================================================

Quotient each factor by its chosen congruence, then take the
ultraproduct; or transfer the family onto the ultraproduct and
quotient there.  Both roads give the same algebra, witnessed by an
explicit isomorphism.  verify_thm2 builds the coordinatewise map,
checks it is a surjective homomorphism with the product congruence as
kernel, factors it through the transferred congruence, and verifies
the induced map is an isomorphism.
"""

from ultracon import (
    CongruenceFamily,
    congruence_on_ultraproduct,
    coordinatewise_quotient_map,
    direct_product,
    find_isomorphism,
    is_homomorphism,
    kernel,
    parse_partition,
    principal_ultrafilter,
    product_congruence,
    quotient,
    ultraproduct,
    verify_thm2,
)
from ultracon.corpus import corpus_by_name

by = corpus_by_name()
factors = (by["C4"], by["C3"])
family = CongruenceFamily(factors, (parse_partition("[[0,1],[2,3]]", 4),
                                    parse_partition("[[0],[1,2]]", 3)))
ultra = principal_ultrafilter(2, 0)

# road 1: quotient first, then ultraproduct
quots = tuple(quotient(f, c) for f, c in zip(factors, family.choice))
print("quotient sizes:", [q.size for q in quots])
quot_power = ultraproduct(quots, ultra)
print("ultraproduct of quotients: size", quot_power.size)

# the coordinatewise map goes from the full product onto that algebra
phi = coordinatewise_quotient_map(family, ultra)
prod = direct_product(factors)
assert is_homomorphism(phi, prod, quot_power)
assert phi.is_surjective()
print("coordinatewise map: surjective homomorphism on", prod.size, "elements")

# its kernel is exactly the product congruence of the family
assert kernel(phi) == product_congruence(family, ultra)
print("kernel = product congruence of the family")

# road 2: ultraproduct first, then quotient by the transferred congruence
power = ultraproduct(factors, ultra)
transferred = congruence_on_ultraproduct(family, ultra)
other_road = quotient(power, transferred)
print("quotient of the ultraproduct: size", other_road.size)

result = find_isomorphism(quot_power, other_road)
print("isomorphic:", result.found, "witness", list(result.witness.image))
assert result.found

# the bundled verifier runs all of the above plus the factoring argument
report = verify_thm2(family, ultra)
print()
print("\n".join(report.summary_lines()))
assert report.passed

print("all gates passed")
