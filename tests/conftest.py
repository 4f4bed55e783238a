import random

import pytest

from semicoh.cyclotomic import companion_of_cyclotomic, divisors, euler_phi
from semicoh.groups import GroupSpec
from semicoh.intmat import IntMatrix, block_diagonal


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> IntMatrix:
    """Product of elementary transvections and swaps; determinant +-1."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        op = rng.randrange(3)
        if op == 0:
            q = rng.choice((-2, -1, 1, 2))
            for col in range(n):
                rows[i][col] += q * rows[j][col]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix(rows)


def random_int_matrix(rng: random.Random, m: int, n: int, bound: int = 5) -> IntMatrix:
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def random_companion_spec(rng: random.Random, n_max: int = 6,
                          orders=(2, 3, 5, 6, 10, 15)) -> GroupSpec:
    """Random phi of order dividing m, built from cyclotomic companion blocks."""
    m = rng.choice(orders)
    usable = [e for e in divisors(m) if euler_phi(e) <= n_max]
    blocks = []
    size = 0
    n_target = rng.randint(1, n_max)
    while size < n_target:
        e = rng.choice([e for e in usable if euler_phi(e) <= n_target - size] or [1])
        blocks.append(companion_of_cyclotomic(e))
        size += euler_phi(e)
    rng.shuffle(blocks)
    phi = block_diagonal(blocks)
    return GroupSpec(n=size, m=m, phi=phi)


@pytest.fixture
def rng():
    return random.Random(20250810)
