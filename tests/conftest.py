import random
import subprocess
import sys
from collections import Counter, namedtuple
from pathlib import Path

import pytest

from semicoh.abelian import AbelianGroup
from semicoh.cli import main
from semicoh.cyclotomic import companion_of_cyclotomic, divisors, euler_phi
from semicoh.groups import GroupSpec, _factorint
from semicoh.intmat import IntMatrix, contragredient


ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, timeout=None) -> subprocess.CompletedProcess:
    """``python -m semicoh.cli *args`` in a fresh interpreter from the repository root.

    Only a test of the process itself starts one (tests/test_process_budget.py);
    every other CLI test uses the in-process ``cli`` fixture.
    """
    return subprocess.run(
        [sys.executable, "-m", "semicoh.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=timeout,
    )


CliRun = namedtuple("CliRun", "returncode stdout stderr")


@pytest.fixture
def cli(tmp_path, monkeypatch, capsys):
    """``cli(*args)`` runs ``semicoh.cli.main`` in this process from the repository root.

    It returns (exit code, stdout, stderr), with argparse's SystemExit turned
    into its exit code.  The cache lives in the test's tmp_path, unless the
    test sets SEMICOH_CACHE_DIR itself.
    """
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("SEMICOH_CACHE_DIR", str(tmp_path))

    def run(*args) -> CliRun:
        capsys.readouterr()
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
        return CliRun(code, *capsys.readouterr())

    return run


def cyclic_sum(rank: int, orders) -> AbelianGroup:
    """Z^rank plus Z/f for each cyclic order f in a list, split into its primes.

    Order 0 adds to the rank and order 1 is dropped; an order with a
    repeated prime factor, such as 4 or 12, has no such form and raises.
    """
    counts = Counter()
    for f in orders:
        primes = _factorint(f)
        if f < 0 or any(e > 1 for e in primes.values()):
            raise ValueError(f"cyclic order {f} is not a square-free order >= 0")
        rank += f == 0
        counts.update(primes.keys())
    return AbelianGroup.from_counts(rank, counts)


def block_diagonal(blocks) -> IntMatrix:
    """Square blocks placed along the diagonal, zeros elsewhere."""
    size = sum(b.rows for b in blocks)
    out = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.data):
            out[offset + i][offset : offset + b.cols] = row
        offset += b.rows
    return IntMatrix(out)


def scalar_matrix(n: int, c: int) -> IntMatrix:
    """c times the n x n identity."""
    return IntMatrix([[c if i == j else 0 for j in range(n)] for i in range(n)])


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


def power_chain_reference(a: IntMatrix, q: int):
    """(N, [tr a^k for k < q], a^q == 1) from separate powers a**k: the power chains' reference."""
    powers = [a**k for k in range(q + 1)]
    norm = IntMatrix.zeros(a.rows, a.rows)
    for power in powers[:q]:
        norm = norm + power
    return norm, [power.trace() for power in powers[:q]], powers[q].is_identity()


@pytest.fixture
def rng():
    return random.Random(20250810)
