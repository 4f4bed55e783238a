"""semicoh: exact integral group cohomology of Z^n x| Z/m, m square-free.

Two closed-form torsion engines (the published formulas as printed, and
the orbit-count correction their own arguments support) are reconciled
degree by degree against an independent rank-mod-p evaluator of the
cyclic-cohomology layers.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .abelian import AbelianGroup
from .cyclotomic import (
    CyclotomicCensus,
    ExponentMultiset,
    count_wedge_roots,
    cyclotomic_census,
    cyclotomic_polynomial,
    exponent_multiset,
    matrix_census,
    molien_rank,
)
from .engines import build_table, formula_table, molien_column, rank_column
from .groups import (
    FreeActionReport,
    GroupSpec,
    IsotropyData,
    MaxFiniteCensus,
    RstDecomposition,
    free_outside_origin,
    isotropy_data,
    max_finite_subgroup_census,
    rst_decompose,
    validate,
)
from .intmat import (
    IntMatrix,
    SmithDecomposition,
    charpoly,
    contragredient,
    smith_normal_form,
    wedge_power,
)
from .intpoly import IntPolynomial
from .oracle import CyclicRep, cyclic_cohomology, e2_table
from .report import compare_report
from .tables import CohomologyTable
from .torsion import assemble_p_torsion

__all__ = [
    "AbelianGroup",
    "CohomologyTable",
    "CyclicRep",
    "CyclotomicCensus",
    "ExponentMultiset",
    "FreeActionReport",
    "GroupSpec",
    "IntMatrix",
    "IntPolynomial",
    "IsotropyData",
    "MaxFiniteCensus",
    "RstDecomposition",
    "SmithDecomposition",
    "assemble_p_torsion",
    "build_table",
    "charpoly",
    "compare_report",
    "contragredient",
    "count_wedge_roots",
    "cyclic_cohomology",
    "cyclotomic_census",
    "cyclotomic_polynomial",
    "e2_table",
    "exponent_multiset",
    "formula_table",
    "free_outside_origin",
    "isotropy_data",
    "matrix_census",
    "max_finite_subgroup_census",
    "molien_column",
    "molien_rank",
    "rank_column",
    "rst_decompose",
    "smith_normal_form",
    "validate",
    "wedge_power",
]
