import random

import pytest

from semicoh.cyclotomic import companion_of_cyclotomic, divisors, euler_phi
from semicoh.groups import GroupSpec
from semicoh.intmat import IntMatrix, block_diagonal, contragredient


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


def cycle_matrix(size: int) -> IntMatrix:
    """The cyclic permutation e_i -> e_(i+1 mod size)."""
    return IntMatrix([[int(i == (j + 1) % size) for j in range(size)] for i in range(size)])


# Z + Z[Z/3]: (r, s, t) = (1, 1, 0) at p = 3, small enough to check by hand.
# It lives here rather than in fixtures/, whose every file the benchmark runs.
CYCLE_PLUS_TRIVIAL = GroupSpec(
    n=4, m=3, phi=block_diagonal([cycle_matrix(3), IntMatrix.identity(1)]), name="cycle3_plus_1"
)


def random_permutation_spec(rng: random.Random, n_max: int = 6,
                            orders=(2, 3, 5, 6, 10, 15, 30)) -> GroupSpec:
    """Companion blocks plus cyclic permutation blocks, densely conjugated.

    A p-cycle block, p a prime factor of m, is the regular Z[Z/p] lattice
    under psi = phi^(m/p), so these specs reach s > 0, which sums of
    cyclotomic companions never do.
    """
    m = rng.choice(orders)
    primes = [p for p in divisors(m) if p > 1 and euler_phi(p) == p - 1]  # the primes of m
    n_target = rng.randint(1, n_max)
    blocks = []
    size = 0
    while size < n_target:
        room = n_target - size
        cycles = [p for p in primes if p <= room]
        if cycles and rng.random() < 0.5:
            blocks.append(cycle_matrix(rng.choice(cycles)))
        else:
            e = rng.choice([e for e in divisors(m) if euler_phi(e) <= room])
            blocks.append(companion_of_cyclotomic(e))
        size += blocks[-1].rows
    rng.shuffle(blocks)
    conj = random_unimodular(rng, size)
    phi = conj @ block_diagonal(blocks) @ contragredient(conj).transpose()
    return GroupSpec(n=size, m=m, phi=phi)


def count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def rng():
    return random.Random(20250810)
