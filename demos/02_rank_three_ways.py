"""Free ranks computed by three routes.

1. Census + subset count: the rank of H^l is the number of l-element
   subsets of the eigenvalue exponents summing to 0 mod m.  One dynamic
   program on the cyclotomic census of charpoly(phi) gives this count for
   every l = 0..n at once; above n it is 0.
2. Trace average: the same number as an averaged trace of exterior powers
   over the group (a character inner product, hence an exact integer).
   Each trace is a coefficient of charpoly(phi^j), and one chain of
   products phi^0..phi^(m-1) gives every charpoly(phi^j).
3. Oracle: the free part of the exact evaluation, tr(N)/q of each layer.

Routes 1 and 2 share the characteristic polynomial: Newton's identities
on the traces of one power_chain, which the test suite checks
against cofactor expansion and, through the trace identity, against
explicit exterior powers.  Route 3 shares only that generic product
chain, and only for n < 6.
"""

from semicoh import (
    count_wedge_roots,
    e2_table,
    exponent_multiset,
    matrix_census,
    molien_rank,
    validate,
)
from semicoh.fixtures import fixture_suite

for fixture in fixture_suite():
    if not fixture.valid:
        continue
    spec = validate(fixture.spec)
    top = spec.n + 2
    x = exponent_multiset(matrix_census(spec.phi, spec.m))
    dp = list(count_wedge_roots(x, spec.m)) + [0] * (top - spec.n)
    trace = [molien_rank(spec.phi, spec.m, l) for l in range(top + 1)]
    oracle = list(e2_table(spec, top).rank_column())
    status = "agree" if dp == trace == oracle else "DISAGREE"
    print(f"{fixture.name:<10} ranks {dp}  [{status}]")
