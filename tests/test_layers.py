"""The oracle's array kernels: Laplace-built exterior powers, the float64 power chain, ranks mod p."""

import random

import numpy as np

from semicoh.intmat import IntMatrix, contragredient, norm_and_power, rank_mod_p, wedge_power
from semicoh.layers import exterior_powers, norm_trace_chain
from semicoh.layers import rank_mod_p as array_rank_mod_p

from conftest import random_int_matrix, random_unimodular


def _power_chain_reference(a, q):
    norm = IntMatrix.zeros(a.rows, a.rows)
    for k in range(q):
        norm = norm + a**k
    return norm, a**q


def test_norm_trace_chain_leaves_float64_at_its_bound():
    # c * ones(4x4), c = 10**6 + 1: a^1 and a^2 are proven in float64, and
    # a^3 (entries 16 c^3, not representable in float64) is not, so q >= 3
    # runs on Python ints.  2^17 * identity(4): a^3's bound 4 * 2^34 * 2^17
    # is exactly 2^53, which leaves float64 as well
    for a in (IntMatrix([[10**6 + 1] * 4 for _ in range(4)]), IntMatrix.scalar(4, 1 << 17)):
        for q in range(8):
            norm, power = _power_chain_reference(a, q)
            for dtype in (np.int64, object):
                got, trace, is_one = norm_trace_chain(np.array(a.data, dtype=dtype), q)
                assert got.dtype == (np.float64 if q <= 2 else object), (a, q)
                assert got.tolist() == [list(row) for row in norm.data], (a, q)
                assert (trace, is_one) == (norm.trace(), power.is_identity())
    # entries past 2**53 never enter float64
    big = IntMatrix.scalar(4, 1 << 60)
    got, trace, _ = norm_trace_chain(np.array(big.data, dtype=object), 2)
    assert got.dtype == object and trace == 4 * (1 + (1 << 60))


def test_norm_trace_chain_ends_at_the_identity_on_a_conjugate():
    psi = random_unimodular(random.Random(6), 5)
    psi = psi @ IntMatrix([[0, -1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                           [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]]) @ contragredient(psi).transpose()
    norm, trace, is_one = norm_trace_chain(np.array(psi.data), 6)
    expected, _ = norm_and_power(psi, 6)
    assert is_one and trace == expected.trace()
    assert norm.tolist() == [list(row) for row in expected.data]
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


def test_exterior_powers_big_entries_leave_int64():
    # max|a| = 2^40: wedge^2 bound 2 * 2^40 * 2^41 passes 2^62, so that
    # layer is built from Python ints
    a = IntMatrix([[1 << 40, 3, 0, 1], [5, 1 << 41, 2, 0], [0, 1, 1, 7], [2, 0, 3, 1]])
    layers = list(exterior_powers(a))
    for gamma, layer in enumerate(layers):
        assert layer.tolist() == [list(row) for row in wedge_power(a, gamma).data]
    assert layers[1].dtype != object and layers[2].dtype == object
