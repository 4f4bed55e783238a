"""The oracle's array kernels: Laplace-built exterior powers, the float64 power chain, ranks mod p."""

import random

import numpy as np

from semicoh.intmat import IntMatrix, contragredient, norm_and_power, rank_mod_p, wedge_power
from semicoh.layers import exterior_powers, norm_trace_chain
from semicoh.layers import rank_mod_p as array_rank_mod_p

from conftest import power_chain_reference, random_int_matrix, random_unimodular


def test_norm_trace_chain_leaves_float64_at_its_bound():
    # c * ones(4x4), c = 10**6 + 1: a^1 and a^2 are proven in float64, and
    # a^3 (entries 16 c^3, not representable in float64) is not, so q >= 3
    # runs on Python ints.  2^17 * identity(4): a^3's bound 4 * 2^34 * 2^17
    # is exactly 2^53, which leaves float64 as well
    for a in (IntMatrix([[10**6 + 1] * 4 for _ in range(4)]), IntMatrix.scalar(4, 1 << 17)):
        for q in range(8):
            norm, traces, is_one = power_chain_reference(a, q)
            for dtype in (np.int64, object):
                got = norm_trace_chain(np.array(a.data, dtype=dtype), q)
                assert got[0].dtype == (np.float64 if q <= 2 else object), (a, q)
                assert got[0].tolist() == [list(row) for row in norm.data], (a, q)
                assert got[1:] == (traces, is_one), (a, q)
                assert all(type(t) is int for t in got[1]), (a, q)
    # entries past 2**53 never enter float64
    big = IntMatrix.scalar(4, 1 << 60)
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


def test_exterior_powers_big_entries_leave_int64():
    # max|a| = 2^40: wedge^2 bound 2 * 2^40 * 2^41 passes 2^62, so that
    # layer is built from Python ints
    a = IntMatrix([[1 << 40, 3, 0, 1], [5, 1 << 41, 2, 0], [0, 1, 1, 7], [2, 0, 3, 1]])
    layers = list(exterior_powers(a))
    for gamma, layer in enumerate(layers):
        assert layer.tolist() == [list(row) for row in wedge_power(a, gamma).data]
    assert layers[1].dtype != object and layers[2].dtype == object
