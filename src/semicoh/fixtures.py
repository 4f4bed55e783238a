"""The shipped fixture corpus.

Expected values carry a provenance note: ``published-table`` (stated in
the published reference computation) or ``hand-checked`` (verified by an
independent hand computation before this package was built).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclotomic import companion_of_cyclotomic
from .groups import GroupSpec
from .intmat import IntMatrix

FLAGSHIP_MATRIX = IntMatrix(
    [
        [-1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, -1],
        [0, 0, 0, 1, -1],
    ]
)


@dataclass(frozen=True)
class Fixture:
    name: str
    spec: GroupSpec
    valid: bool = True
    expected_rst: dict = field(default_factory=dict)       # p -> (r, s, t)
    expected_divisors: dict = field(default_factory=dict)  # p -> {d: k_d}
    expected_ranks: tuple = ()                              # H^0.. prefix
    expected_groups: dict = field(default_factory=dict)    # degree -> (rank, torsion)
    notes: dict = field(default_factory=dict)               # key -> provenance


def fixture_suite() -> list[Fixture]:
    """Every fixture the reconciliation report runs over."""
    fixtures = [
        Fixture(
            name="dinfty",
            spec=GroupSpec(1, 2, IntMatrix([[-1]]), name="dinfty"),
            expected_rst={2: (0, 0, 1)},
            expected_divisors={2: {1: 1}},
            expected_ranks=(1, 0, 0, 0),
            expected_groups={
                0: (1, ()),
                1: (0, ()),
                2: (0, (2, 2)),
                3: (0, ()),
                4: (0, (2, 2)),
            },
            notes={
                "groups": "hand-checked: free product of two order-2 groups",
                "rst": "hand-checked",
            },
        ),
        Fixture(
            name="p3",
            spec=GroupSpec(2, 3, companion_of_cyclotomic(3), name="p3"),
            expected_rst={3: (0, 0, 1)},
            expected_divisors={3: {1: 1}},
            expected_ranks=(1, 0, 1, 0, 0),
            expected_groups={
                1: (0, ()),
                2: (1, (3, 3)),
            },
            notes={"groups": "hand-checked: kernel/image quotients done by hand"},
        ),
        Fixture(
            name="z5_z6",
            spec=GroupSpec(5, 6, FLAGSHIP_MATRIX, name="z5_z6"),
            expected_rst={2: (2, 1, 1), 3: (3, 0, 1)},
            expected_divisors={2: {3: 1}, 3: {2: 1}},
            expected_ranks=(1, 1, 2, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0),
            expected_groups={
                2: (2, (2, 2, 3)),
            },
            notes={
                "rst": "published-table",
                "divisors": "published-table",
                "ranks": "published-table",
                "groups": "published-table (the reconciliation report arbitrates)",
            },
        ),
        Fixture(
            name="id_n1_m2",
            spec=GroupSpec(1, 2, IntMatrix.identity(1), name="id_n1_m2"),
            expected_rst={2: (1, 0, 0)},
            expected_divisors={2: {}},
            notes={"rst": "hand-checked: trivial action"},
        ),
        Fixture(
            name="id_n2_m3",
            spec=GroupSpec(2, 3, IntMatrix.identity(2), name="id_n2_m3"),
            expected_rst={3: (2, 0, 0)},
            expected_divisors={3: {}},
            expected_groups={
                2: (1, (3,)),
            },
            notes={"groups": "hand-checked: direct product with a cyclic factor"},
        ),
        Fixture(
            name="id_n3_m6",
            spec=GroupSpec(3, 6, IntMatrix.identity(3), name="id_n3_m6"),
            expected_rst={2: (3, 0, 0), 3: (3, 0, 0)},
            expected_divisors={2: {}, 3: {}},
            notes={"rst": "hand-checked: trivial action"},
        ),
        Fixture(
            name="phi5",
            spec=GroupSpec(4, 5, companion_of_cyclotomic(5), name="phi5"),
            expected_rst={5: (0, 0, 1)},
            expected_divisors={5: {1: 1}},
            notes={"rst": "hand-checked: free outside the origin"},
        ),
        Fixture(
            name="p6",
            spec=GroupSpec(2, 6, companion_of_cyclotomic(6), name="p6"),
            expected_rst={2: (0, 0, 2), 3: (0, 0, 1)},
            expected_divisors={2: {1: 2}, 3: {1: 1}},
            notes={
                "rst": "hand-checked: order-6 action, free outside the origin",
                "coefficients": "the orbit coefficients are non-integral here "
                "(degree strata are not stable under the complementary action); "
                "reports record this",
            },
        ),
        Fixture(
            name="m4_reject",
            spec=GroupSpec(3, 4, IntMatrix.identity(3), name="m4_reject"),
            valid=False,
            notes={"validation": "m = 4 = 2^2 is not square-free"},
        ),
    ]
    return fixtures


def fixture_by_name(name: str) -> Fixture:
    for f in fixture_suite():
        if f.name == name:
            return f
    raise KeyError(name)
