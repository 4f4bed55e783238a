"""The oracle's array kernels: Laplace-built exterior powers, the float64 power chain, ranks mod p."""

import random

import numpy as np
import pytest

from semicoh.intmat import (
    IntMatrix,
    certifies_rank,
    contragredient,
    norm_and_power,
    rank_mod_p,
    wedge_power,
)
from semicoh.layers import certifies_rank as array_certifies_rank
from semicoh.layers import exterior_powers, norm_trace_chain
from semicoh.layers import rank_mod_p as array_rank_mod_p

from conftest import (
    power_chain_reference,
    random_int_matrix,
    random_permutation_spec,
    random_unimodular,
    scalar_matrix,
)


def test_norm_trace_chain_leaves_float64_at_its_bound():
    # c * ones(4x4), c = 10**6 + 1: a^1 and a^2 are proven in float64, and
    # a^3 (entries 16 c^3, not representable in float64) is not, so q >= 3
    # runs on Python ints.  2^17 * identity(4): a^3's bound 4 * 2^34 * 2^17
    # is exactly 2^53, which leaves float64 as well
    for a in (IntMatrix([[10**6 + 1] * 4 for _ in range(4)]), scalar_matrix(4, 1 << 17)):
        for q in range(8):
            norm, traces, is_one = power_chain_reference(a, q)
            for dtype in (np.int64, object):
                got = norm_trace_chain(np.array(a.data, dtype=dtype), q)
                assert got[0].dtype == (np.float64 if q <= 2 else object), (a, q)
                assert got[0].tolist() == [list(row) for row in norm.data], (a, q)
                assert got[1:] == (traces, is_one), (a, q)
                assert all(type(t) is int for t in got[1]), (a, q)
    # entries past 2**53 never enter float64
    big = scalar_matrix(4, 1 << 60)
    norm, traces, _ = norm_trace_chain(np.array(big.data, dtype=object), 2)
    assert norm.dtype == object and traces == power_chain_reference(big, 2)[1]


def test_norm_trace_chain_ends_at_the_identity_on_a_conjugate():
    psi = random_unimodular(random.Random(6), 5)
    psi = psi @ IntMatrix([[0, -1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                           [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]]) @ contragredient(psi).transpose()
    norm, traces, is_one = norm_trace_chain(np.array(psi.data), 6)
    expected = power_chain_reference(psi, 6)
    assert (traces, is_one) == expected[1:] and is_one
    assert norm.tolist() == [list(row) for row in expected[0].data]
    assert norm_and_power(psi, 6) == expected
    assert not norm_trace_chain(np.array(psi.data), 4)[2]


def test_rank_mod_p_matches_row_elimination(rng):
    # products of random factors give every rank; widths past one panel
    # and the certificate prime exercise the blocked trailing update
    for trial in range(40):
        rows, cols = rng.randint(1, 150), rng.randint(1, 150)
        inner = rng.randint(0, min(rows, cols))
        a = (random_int_matrix(rng, rows, inner, 3) @ random_int_matrix(rng, inner, cols, 3)
             if inner else IntMatrix.zeros(rows, cols))
        p = (2, 3, 5, 8388593)[trial % 4]
        expected = rank_mod_p(a, p)
        for dtype in (np.int64, np.float64, object):
            assert array_rank_mod_p(np.array(a.data, dtype=dtype), p) == expected, (rows, cols, p)


def test_rank_mod_p_on_zero_rows_columns_and_multiples_of_p(rng):
    # rank_mod_p drops the rows and columns that vanish mod p before it
    # eliminates: zero and all-zero inputs, empty shapes and entries that
    # are multiples of p must keep the row-elimination rank
    for trial in range(60):
        p = (2, 3, 5, 1048573, 8388593)[trial % 5]
        rows, cols = rng.randint(0, 80), rng.randint(0, 80)
        data = [[rng.randint(-3, 3) * rng.choice((1, p)) for _ in range(cols)] for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            data[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols)):
            for row in data:
                row[j] = 0
        for a in (data, [[0] * cols for _ in range(rows)], [[p * x for x in row] for row in data]):
            expected = rank_mod_p(IntMatrix(a), p)
            for dtype in (np.int64, np.float64, object):
                array = np.array(a, dtype=dtype).reshape(rows, cols)
                assert array_rank_mod_p(array, p) == expected, (rows, cols, p)
    for shape in ((0, 0), (0, 5), (5, 0)):
        assert array_rank_mod_p(np.zeros(shape, dtype=np.int64), 3) == 0


def test_certifies_rank_agrees_between_kinds_and_proves_the_rank(rng):
    # on the norms of random actions, both kinds certify rk_l(N) = tr(N)/q
    # and refuse a rank one off or a changed trace; an off-diagonal change
    # may leave N a q-multiple of another idempotent of the same rank, so
    # there both kinds agree and a certified rank is the true one
    ell = 1048573
    for _ in range(40):
        spec = random_permutation_spec(rng, n_max=8)
        norm, traces, is_one = norm_and_power(spec.phi, spec.m)
        assert is_one
        rank = sum(traces) // spec.m
        cases = [(norm, rank, True), (norm, rank + 1, False), (norm, rank - 1, False)]
        for j in range(min(2, spec.n)):
            changed = [list(row) for row in norm.data]
            changed[0][j] += 1
            cases.append((IntMatrix(changed), rank, False if j == 0 else None))
        for a, f, expected in cases:
            certified = certifies_rank(a, f, spec.m, ell)
            assert expected in (None, certified), (spec, a, f)
            assert not certified or rank_mod_p(a, ell) == f, (spec, a, f)
            for dtype in (np.int64, np.float64, object):
                got = array_certifies_rank(np.array(a.data, dtype=dtype), f, spec.m, ell)
                assert got is certified, (spec, a, f, dtype)
    # a prime dividing q proves nothing, and is refused
    two = IntMatrix([[2]])
    assert not certifies_rank(two, 1, 2, 2) and not array_certifies_rank(np.array(two.data), 1, 2, 2)
    # a square whose sums could pass 2**53 is refused before any product
    with pytest.raises(ValueError, match="too large"):
        array_certifies_rank(np.zeros((200, 200)), 0, 1, 8388593)


def test_exterior_powers_big_entries_leave_int64():
    # max|a| = 2^40: wedge^2 bound 2 * 2^40 * 2^41 passes 2^62, so that
    # layer is built from Python ints
    a = IntMatrix([[1 << 40, 3, 0, 1], [5, 1 << 41, 2, 0], [0, 1, 1, 7], [2, 0, 3, 1]])
    layers = list(exterior_powers(a))
    for gamma, layer in enumerate(layers):
        assert layer.tolist() == [list(row) for row in wedge_power(a, gamma).data]
    assert layers[1].dtype != object and layers[2].dtype == object
