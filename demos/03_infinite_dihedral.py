"""The smallest interesting case: Z x| Z/2 with the sign action.

This is the infinite dihedral group.  Everything is small enough to see
all the machinery at once: the lattice is a single copy of the rank-1
free-origin module, there are two classes of order-2 subgroups, and the
cohomology is Z, 0, (Z/2)^2, 0, (Z/2)^2, ...
"""

from semicoh import (
    assemble_p_torsion,
    cyclic_cohomology,
    CyclicRep,
    e2_table,
    max_finite_subgroup_census,
    rst_decompose,
    validate,
)
from semicoh.fixtures import fixture_by_name
from semicoh.intmat import IntMatrix

spec = validate(fixture_by_name("dinfty").spec)
rst = rst_decompose(spec, 2)
print(f"(r, s, t) = ({rst.r}, {rst.s}, {rst.t})  -- one free-origin line")

rep = CyclicRep(2, IntMatrix([[-1]]))
print("H^1(Z/2; sign) =", cyclic_cohomology(rep, 1))
print("H^2(Z/2; sign) =", cyclic_cohomology(rep, 2))

census = max_finite_subgroup_census(spec)
print("order-2 subgroup classes:", census.count(2))

table = e2_table(spec, 8)
for l, g in enumerate(table.groups):
    print(f"H^{l} =", g)

print("\ncorrected closed form, degree 2:", assemble_p_torsion(spec, 2, 2, "corrected")[2])
print("published closed form, degree 2:", assemble_p_torsion(spec, 2, 2, "published")[2],
      " (as printed; the reconciliation report flags the difference)")
