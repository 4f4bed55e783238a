"""Abelian groups of the paper's shape: Z^rank plus (Z/p)^theta_p."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicoh.abelian import AbelianGroup
from semicoh.errors import TorsionExponentViolation
from semicoh.iojson import parse_table, render_table
from semicoh.tables import CohomologyTable

from conftest import cyclic_sum


def test_canonicalization():
    assert cyclic_sum(0, [2, 3]) == cyclic_sum(0, (6,))
    assert cyclic_sum(1, [1, 1, 6]) == cyclic_sum(1, (6,))
    assert cyclic_sum(0, [0, 2]) == cyclic_sum(1, (2,))
    assert cyclic_sum(0, [6, 10]).primary == ((2, 2), (3, 1), (5, 1))
    # an order with a repeated prime has no (p, theta) form
    for orders in ([4], [2, 12], [-2]):
        with pytest.raises(ValueError):
            cyclic_sum(0, orders)


def test_orders_below_two_are_refused():
    for counts in ({-2: 1}, {0: 1}, {1: 1}, {1: 0, 2: 1}):
        with pytest.raises(ValueError, match="below 2"):
            AbelianGroup.from_counts(0, counts)


def test_chain_is_validated():
    # unsorted or repeated p, a zero count, p below 2, and a rank that is not an int >= 0
    for rank, primary in ((0, ((3, 1), (2, 1))), (0, ((2, 0),)), (0, ((1, 2),)),
                          (0, ((-2, 1),)), (0, ((2, 1), (2, 1))), (-1, ()), (1.5, ()), (True, ())):
        with pytest.raises(ValueError):
            AbelianGroup(rank, primary)
    groups = (AbelianGroup(1), AbelianGroup(0), cyclic_sum(0, [6]))
    text = render_table(CohomologyTable(engine="oracle", n=1, m=6, max_degree=2, groups=groups))
    assert json.loads(text)["groups"][2]["torsion"] == [[2, 1], [3, 1]]
    assert parse_table(text).groups == groups
    # the same faults in a parsed table, plus pairs of the wrong shape or type
    for torsion in ([[3, 1], [2, 1]], [[2, 0]], [[1, 2]], [[2, 1], [2, 1]],
                    [[2, -1]], [[-2, 1]], [[0, 1]], [[2, 1.0]], [[2, True]], [["2", 1]],
                    [[2]], [[2, 1, 1]], [2, 3], [6]):
        doc = json.loads(text)
        doc["groups"][2]["torsion"] = torsion
        with pytest.raises(ValueError):
            parse_table(json.dumps(doc))
    for rank in (1.5, True, -1):
        doc = json.loads(text)
        doc["groups"][2]["rank"] = rank
        with pytest.raises(ValueError):
            parse_table(json.dumps(doc))
    # a corrupt order is refused by a remainder, never factored: trial
    # division up to the square root of this prime would take minutes
    doc = json.loads(text)
    doc["groups"][2]["torsion"] = [[2**61 - 1, 1]]
    with pytest.raises(TorsionExponentViolation, match=f"order {2**61 - 1} in degree 2 does not"):
        parse_table(json.dumps(doc))


def test_degrees_must_be_zero_to_max_degree():
    groups = (AbelianGroup(1), AbelianGroup(0), cyclic_sum(0, [2]), AbelianGroup(0))
    text = render_table(CohomologyTable(engine="oracle", n=1, m=2, max_degree=3, groups=groups))
    doc = json.loads(text)
    doc["groups"].reverse()
    assert parse_table(json.dumps(doc)).groups == groups
    for degrees in ([0, 0, 2, 3], [0, 1, 2, 4], [0, 1, 2], [1, 2, 3, 4]):
        doc = json.loads(text)
        for entry, degree in zip(doc["groups"], degrees):
            entry["degree"] = degree
        doc["groups"] = doc["groups"][: len(degrees)]
        with pytest.raises(ValueError, match="degrees are not 0..3"):
            parse_table(json.dumps(doc))


def test_direct_sum_and_p_multiplicity():
    g = AbelianGroup.direct_sum(AbelianGroup(1), cyclic_sum(0, (2,)), cyclic_sum(0, (6,)))
    assert g == cyclic_sum(1, (2, 6))
    assert g.p_multiplicity(2) == 2
    assert g.p_multiplicity(3) == 1
    assert g.p_multiplicity(5) == 0


def test_rendering():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(cyclic_sum(2, [2, 2, 3])) == "Z^2 + (Z/2)^2 + (Z/3)"
    assert str(cyclic_sum(0, (6,))) == "(Z/2) + (Z/3)"


_COUNTS = st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(0, 4), max_size=6)


@given(st.integers(0, 3), _COUNTS, st.integers(0, 3), _COUNTS)
@settings(max_examples=100, deadline=None)
def test_from_counts_is_canonical(rank, counts, other_rank, other_counts):
    g = AbelianGroup.from_counts(rank, counts)
    # the nonzero counts, sorted by p, whatever order the dict lists them in
    assert g.primary == tuple(sorted((p, k) for p, k in counts.items() if k))
    assert g == AbelianGroup.from_counts(rank, dict(reversed(counts.items())))
    assert all(g.p_multiplicity(p) == counts.get(p, 0) for p in (2, 3, 5, 7, 11, 13, 17))
    # direct sums add ranks and counts, in any order
    h = AbelianGroup.from_counts(other_rank, other_counts)
    joined = AbelianGroup.from_counts(rank + other_rank, Counter(counts) + Counter(other_counts))
    assert AbelianGroup.direct_sum(g, h) == AbelianGroup.direct_sum(h, g) == joined
    assert AbelianGroup.direct_sum(g) == g
