"""Exact integer linear algebra.

Smith normal forms with verified transforms, determinants, characteristic
polynomials, contragredients and functorial exterior powers -- all in
arbitrary-precision integer arithmetic.
"""

from math import prod

from semicoh import charpoly, contragredient, smith_normal_form, wedge_power
from semicoh.intmat import IntMatrix, det

a = IntMatrix([[6, 4, 2], [4, 6, 4], [2, 4, 6]])
s = smith_normal_form(a)
print("A =", [list(r) for r in a.data])
print("Smith diagonal:", s.diagonal)
print("U A V == D:", (s.u @ a @ s.v) == s.d, "  |det U| = |det V| = 1:",
      abs(det(s.u)) == abs(det(s.v)) == 1)
print("det A =", det(a), "  |det A| is the product of the Smith diagonal:",
      abs(det(a)) == prod(s.diagonal))

rot = IntMatrix([[0, -1], [1, -1]])  # order-3 rotation of the hexagonal lattice
print("\ncharacteristic polynomial of the order-3 rotation:", charpoly(rot))
print("contragredient (inverse transpose):", [list(r) for r in contragredient(rot).data])

b = IntMatrix([[2, 1, 0], [1, 1, 1], [0, 1, 1]])
c = IntMatrix([[1, 0, 1], [0, 1, 0], [1, 1, 1]])
lhs = wedge_power(b @ c, 2)
rhs = wedge_power(b, 2) @ wedge_power(c, 2)
print("\nwedge^2 is functorial:", lhs == rhs)
