"""Canonical abelian groups."""

import random
from itertools import zip_longest
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semicoh.abelian
from semicoh.abelian import AbelianGroup, _factorint

from conftest import count_calls


def test_canonicalization():
    assert AbelianGroup.from_factors(0, [2, 3]) == AbelianGroup(0, (6,))
    assert AbelianGroup.from_factors(1, [1, 1, 6]) == AbelianGroup(1, (6,))
    assert AbelianGroup.from_factors(0, [4, 6]) == AbelianGroup(0, (2, 12))
    assert AbelianGroup.from_factors(0, [0, 2]) == AbelianGroup(1, (2,))


def _from_factors_per_copy(rank, factors):
    """The canonical form with every copy of a factor factored on its own: the reference."""
    exponents: dict[int, list[int]] = {}
    for f in map(abs, factors):
        if f == 0:
            rank += 1
        elif f > 1:
            for p, e in _factorint(f).items():
                exponents.setdefault(p, []).append(e)
    powers = [sorted((p**e for e in es), reverse=True) for p, es in sorted(exponents.items())]
    chain = [prod(tup) for tup in zip_longest(*powers, fillvalue=1)]
    return AbelianGroup(rank, tuple(reversed(chain)))


def test_from_factors_factors_each_distinct_order_once(monkeypatch):
    rng = random.Random(20)
    calls = count_calls(monkeypatch, semicoh.abelian, "_factorint")
    for _ in range(200):
        pool = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))] + [0, 1, -1]
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 60))]
        rank = rng.randint(0, 3)
        expected = _from_factors_per_copy(rank, factors)
        calls.clear()
        assert AbelianGroup.from_factors(rank, factors) == expected, factors
        assert sorted(args[0] for args in calls) == sorted({abs(f) for f in factors} - {0, 1})


def test_chain_is_validated():
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1, 2))


def test_direct_sum_and_p_multiplicity():
    g = AbelianGroup.direct_sum(
        AbelianGroup.free(1), AbelianGroup(0, (2,)), AbelianGroup(0, (6,))
    )
    assert g == AbelianGroup(1, (2, 6))
    assert g.p_multiplicity(2) == 2
    assert g.p_multiplicity(3) == 1
    assert g.p_multiplicity(5) == 0


def test_rendering():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup.free(1)) == "Z"
    assert str(AbelianGroup.from_factors(2, [2, 2, 3])) == "Z^2 + (Z/2)^2 + (Z/3)"
    assert str(AbelianGroup(0, (6,))) == "(Z/2) + (Z/3)"


@given(st.lists(st.integers(min_value=0, max_value=60), max_size=6))
@settings(max_examples=100, deadline=None)
def test_from_factors_is_canonical(factors):
    g = AbelianGroup.from_factors(0, factors)
    # invariant factors form a chain and multiply to the group order
    for a, b in zip(g.torsion, g.torsion[1:]):
        assert b % a == 0
    from math import prod

    assert prod(g.torsion) if g.torsion else 1 == prod(f for f in factors if f > 1) if all(
        f != 0 for f in factors
    ) else True
    # canonical means order independent
    assert g == AbelianGroup.from_factors(0, sorted(factors, reverse=True))
