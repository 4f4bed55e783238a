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

from conftest import count_calls, cyclic_sum


def test_canonicalization():
    assert cyclic_sum(0, [2, 3]) == cyclic_sum(0, (6,))
    assert cyclic_sum(1, [1, 1, 6]) == cyclic_sum(1, (6,))
    assert cyclic_sum(0, [4, 6]) == cyclic_sum(0, (2, 12))
    assert cyclic_sum(0, [0, 2]) == cyclic_sum(1, (2,))
    assert cyclic_sum(0, [4, 6]).primary == ((2, 1), (3, 1), (4, 1))


def _from_orders_per_copy(rank, factors):
    """The rank, invariant-factor chain and rendering, every copy of a factor factored on its own.

    The reference for from_counts and str: the chain is a second canonical
    form, so two multisets give equal groups iff their chains are equal.
    """
    exponents: dict[int, list[int]] = {}
    for f in factors:
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


def test_from_counts_factors_each_distinct_order_once(monkeypatch):
    rng = random.Random(20)
    calls = count_calls(monkeypatch, semicoh.abelian, "_factorint")
    previous = (0, [])
    for _ in range(200):
        pool = [rng.randint(0, 40) for _ in range(rng.randint(1, 6))] + [0, 1]
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 60))]
        rank = rng.randint(0, 3)
        expected_rank, chain, text = _from_orders_per_copy(rank, factors)
        calls.clear()
        g = cyclic_sum(rank, factors)
        assert sorted(args[0] for args in calls) == sorted(set(factors) - {0, 1})
        assert g.rank == expected_rank, factors
        assert g == cyclic_sum(expected_rank, chain)
        assert _from_orders_per_copy(*_orders(g))[:2] == (expected_rank, chain)
        assert str(g) == text
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            assert g.p_multiplicity(p) == sum(_p_exponent(f, p) for f in factors)
        # the previous multiset is an independent second summand
        joined = cyclic_sum(rank + previous[0], factors + previous[1])
        assert AbelianGroup.direct_sum(g, cyclic_sum(*previous)) == joined
        previous = (rank, factors)


def _orders(g):
    """(rank, one cyclic order per copy of each primary summand)."""
    return g.rank, [q for q, copies in g.primary for _ in range(copies)]


def test_chain_is_validated():
    # unsorted or repeated orders, a zero count, and orders that are not prime powers above 1
    for primary in (((3, 1), (2, 1)), ((2, 0),), ((1, 2),), ((6, 1),), ((2, 1), (2, 1))):
        with pytest.raises(ValueError):
            AbelianGroup(0, primary)
    groups = (AbelianGroup(1), AbelianGroup(0), cyclic_sum(0, [6]))
    text = render_table(CohomologyTable(engine="oracle", n=1, m=6, max_degree=2, groups=groups))
    assert json.loads(text)["groups"][2]["torsion"] == [[2, 1], [3, 1]]
    assert parse_table(text).groups == groups
    # the same faults in a parsed table, plus pairs of the wrong shape or type
    for torsion in ([[3, 1], [2, 1]], [[2, 0]], [[1, 2]], [[6, 1]], [[2, 1], [2, 1]],
                    [[2, -1]], [[-2, 1]], [[0, 1]], [[2, 1.0]], [[2, True]], [["2", 1]],
                    [[2]], [[2, 1, 1]], [2, 3], [6]):
        doc = json.loads(text)
        doc["groups"][2]["torsion"] = torsion
        with pytest.raises(ValueError):
            parse_table(json.dumps(doc))
    doc = json.loads(text)
    doc["groups"][2]["rank"] = 1.5
    with pytest.raises(ValueError):
        parse_table(json.dumps(doc))
    # a corrupt order is refused before it is factored: trial division up to
    # the square root of this prime would take minutes
    doc = json.loads(text)
    doc["groups"][2]["torsion"] = [[2**61 - 1, 1]]
    with pytest.raises(TorsionExponentViolation, match=f"order {2**61 - 1} in degree 2 does not"):
        parse_table(json.dumps(doc))


def test_direct_sum_and_p_multiplicity():
    g = AbelianGroup.direct_sum(AbelianGroup(1), cyclic_sum(0, (2,)), cyclic_sum(0, (6,)))
    assert g == cyclic_sum(1, (2, 6))
    assert g.p_multiplicity(2) == 2
    assert g.p_multiplicity(3) == 1
    assert g.p_multiplicity(5) == 0
    assert cyclic_sum(0, [4, 2]).p_multiplicity(2) == 3


def test_rendering():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(cyclic_sum(2, [2, 2, 3])) == "Z^2 + (Z/2)^2 + (Z/3)"
    assert str(cyclic_sum(0, (6,))) == "(Z/2) + (Z/3)"


@given(st.lists(st.integers(min_value=0, max_value=60), max_size=6))
@settings(max_examples=100, deadline=None)
def test_from_counts_is_canonical(factors):
    g = cyclic_sum(0, factors)
    # the group order is kept, and zeros become rank
    assert g.rank == factors.count(0)
    assert prod(q**k for q, k in g.primary) == prod(f for f in factors if f > 1)
    # canonical means order independent
    assert g == cyclic_sum(0, sorted(factors, reverse=True))
