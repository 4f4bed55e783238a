"""The shipped fixture corpus."""

from __future__ import annotations

from dataclasses import dataclass

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
    spec: GroupSpec
    valid: bool = True

    @property
    def name(self) -> str:
        return self.spec.name


def fixture_suite() -> list[Fixture]:
    """Every fixture the reconciliation report runs over."""
    return [
        Fixture(GroupSpec(1, 2, IntMatrix([[-1]]), name="dinfty")),
        Fixture(GroupSpec(2, 3, companion_of_cyclotomic(3), name="p3")),
        Fixture(GroupSpec(5, 6, FLAGSHIP_MATRIX, name="z5_z6")),
        Fixture(GroupSpec(1, 2, IntMatrix.identity(1), name="id_n1_m2")),
        Fixture(GroupSpec(2, 3, IntMatrix.identity(2), name="id_n2_m3")),
        Fixture(GroupSpec(3, 6, IntMatrix.identity(3), name="id_n3_m6")),
        Fixture(GroupSpec(4, 5, companion_of_cyclotomic(5), name="phi5")),
        Fixture(GroupSpec(2, 6, companion_of_cyclotomic(6), name="p6")),
        Fixture(GroupSpec(3, 4, IntMatrix.identity(3), name="m4_reject"), valid=False),
    ]


def fixture_by_name(name: str) -> Fixture:
    for f in fixture_suite():
        if f.name == name:
            return f
    raise KeyError(name)
