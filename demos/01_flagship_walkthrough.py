"""The flagship computation, end to end.

The group is Z^5 x| Z/6: the generator of the cyclic part acts on the
rank-5 lattice by a sign flip, a coordinate swap, and an order-3 planar
rotation.  We decompose the lattice prime by prime, read off the isotropy
divisors, and then compute every cohomology group three ways.
"""

from semicoh import (
    assemble_p_torsion,
    e2_table,
    isotropy_data,
    rank_column,
    rst_decompose,
    validate,
)
from semicoh.fixtures import fixture_by_name

spec = validate(fixture_by_name("z5_z6").spec)
print(f"group: Z^{spec.n} x| Z/{spec.m}")
print("action of the generator:")
for row in spec.phi.data:
    print("   ", list(row))

print("\n-- per-prime lattice decomposition ------------------------------")
for p in spec.primes:
    rst = rst_decompose(spec, p)
    iso = isotropy_data(spec, p, rst)
    print(f"p = {p}: (r, s, t) = ({rst.r}, {rst.s}, {rst.t})")
    print(f"   trivial-block eigenvalue census:      {rst.r_census.as_dict()}")
    print(f"   free-origin-block eigenvalue census:  {rst.t_census.as_dict()}")
    print(f"   isotropy divisors D = {list(iso.divisors)}, k_d = {dict(iso.k_d)}")

print("\n-- free ranks ----------------------------------------------------")
print("rank H^l, l = 0..12:", list(rank_column(spec, 12)))

print("\n-- torsion exponents, three engines -------------------------------")
oracle = e2_table(spec, 12)
print("l   p  published  corrected  oracle")
published = {p: assemble_p_torsion(spec, p, 12, "published") for p in spec.primes}
corrected = {p: assemble_p_torsion(spec, p, 12, "corrected") for p in spec.primes}
for l in range(13):
    for p in spec.primes:
        pub, cor = published[p][l], corrected[p][l]
        ora = oracle.groups[l].p_multiplicity(p)
        marker = "" if pub == cor == ora else "   <-- disagreement"
        print(f"{l:<3} {p}  {pub:<10} {cor:<10} {ora}{marker}")

print("\nfull oracle table:")
for l, g in enumerate(oracle.groups):
    print(f"  H^{l} = {g}")
print(
    "\nThe published engine reproduces the published reference table for this"
    "\ngroup; the oracle (exact rank-mod-p evaluation) disagrees with it in"
    "\nmany degrees, and the reconciliation report documents every cell."
)
