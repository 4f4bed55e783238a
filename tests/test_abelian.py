"""Canonical abelian groups."""

import json
import random
from collections import Counter
from itertools import zip_longest
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semicoh.abelian
from semicoh.abelian import AbelianGroup, _factorint
from semicoh.errors import TorsionExponentViolation
from semicoh.iojson import parse_table, render_table
from semicoh.tables import CohomologyTable

from conftest import count_calls


def test_canonicalization():
    assert AbelianGroup.from_factors(0, [2, 3]) == AbelianGroup.from_factors(0, (6,))
    assert AbelianGroup.from_factors(1, [1, 1, 6]) == AbelianGroup.from_factors(1, (6,))
    assert AbelianGroup.from_factors(0, [4, 6]) == AbelianGroup.from_factors(0, (2, 12))
    assert AbelianGroup.from_factors(0, [0, 2]) == AbelianGroup.from_factors(1, (2,))
    assert AbelianGroup.from_factors(0, [4, 6]).torsion == (2, 12)
    assert AbelianGroup.from_factors(0, [4, 6]).primary == ((2, 1), (3, 1), (4, 1))


def _from_factors_per_copy(rank, factors):
    """The rank, invariant-factor chain and rendering, every copy of a factor factored on its own.

    The reference for from_factors, torsion and str.
    """
    exponents: dict[int, list[int]] = {}
    for f in map(abs, factors):
        if f == 0:
            rank += 1
        elif f > 1:
            for p, e in _factorint(f).items():
                exponents.setdefault(p, []).append(e)
    powers = [sorted((p**e for e in es), reverse=True) for p, es in sorted(exponents.items())]
    chain = [prod(tup) for tup in zip_longest(*powers, fillvalue=1)]
    copies = Counter(q for qs in powers for q in qs)
    parts = ["Z" if rank == 1 else f"Z^{rank}"] * (rank > 0) + [
        f"(Z/{q})" + (f"^{k}" if k > 1 else "") for q, k in sorted(copies.items())
    ]
    return rank, tuple(reversed(chain)), " + ".join(parts) or "0"


def _p_exponent(f, p):
    e = 0
    while f and f % p == 0:
        f //= p
        e += 1
    return e


def test_from_factors_factors_each_distinct_order_once(monkeypatch):
    rng = random.Random(20)
    calls = count_calls(monkeypatch, semicoh.abelian, "_factorint")
    previous = (0, [])
    for _ in range(200):
        pool = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))] + [0, 1, -1]
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 60))]
        rank = rng.randint(0, 3)
        expected_rank, chain, text = _from_factors_per_copy(rank, factors)
        calls.clear()
        group = AbelianGroup.from_factors(rank, factors)
        assert sorted(args[0] for args in calls) == sorted({abs(f) for f in factors} - {0, 1})
        assert (group.rank, group.torsion) == (expected_rank, chain), factors
        assert group == AbelianGroup.from_factors(expected_rank, chain)
        assert str(group) == text
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            assert group.p_multiplicity(p) == sum(_p_exponent(abs(f), p) for f in factors)
        # the previous multiset is an independent second summand
        joined = AbelianGroup.from_factors(rank + previous[0], factors + previous[1])
        assert AbelianGroup.direct_sum(group, AbelianGroup.from_factors(*previous)) == joined
        previous = (rank, factors)


def test_chain_is_validated():
    # unsorted or repeated orders, a zero count, and orders that are not prime powers above 1
    for primary in (((3, 1), (2, 1)), ((2, 0),), ((1, 2),), ((6, 1),), ((2, 1), (2, 1))):
        with pytest.raises(ValueError):
            AbelianGroup(0, primary)
    groups = (AbelianGroup(1), AbelianGroup(0), AbelianGroup.from_factors(0, [6]))
    text = render_table(CohomologyTable(engine="oracle", n=1, m=6, max_degree=2, groups=groups))
    assert parse_table(text).groups == groups
    for torsion in ((4, 6), (1, 2), (0, 2), (-2,)):
        doc = json.loads(text)
        doc["groups"][2]["torsion"] = list(torsion)
        with pytest.raises(ValueError):
            parse_table(json.dumps(doc))
    doc = json.loads(text)
    doc["groups"][2]["rank"] = 1.5
    with pytest.raises(ValueError):
        parse_table(json.dumps(doc))
    # a corrupt order is refused before it is factored: trial division up to
    # the square root of this prime would take minutes
    doc = json.loads(text)
    doc["groups"][2]["torsion"] = [2**61 - 1]
    with pytest.raises(TorsionExponentViolation, match=f"order {2**61 - 1} in degree 2 does not"):
        parse_table(json.dumps(doc))


def test_direct_sum_and_p_multiplicity():
    g = AbelianGroup.direct_sum(
        AbelianGroup(1), AbelianGroup.from_factors(0, (2,)), AbelianGroup.from_factors(0, (6,))
    )
    assert g == AbelianGroup.from_factors(1, (2, 6))
    assert g.p_multiplicity(2) == 2
    assert g.p_multiplicity(3) == 1
    assert g.p_multiplicity(5) == 0
    assert AbelianGroup.from_factors(0, [4, 2]).p_multiplicity(2) == 3


def test_rendering():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup.from_factors(2, [2, 2, 3])) == "Z^2 + (Z/2)^2 + (Z/3)"
    assert str(AbelianGroup.from_factors(0, (6,))) == "(Z/2) + (Z/3)"


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
