"""Three-way reconciliation reports: published vs corrected vs oracle.

The report never masks a disagreement: every (degree, prime) cell carries
all engine values, non-integral orbit coefficients are recorded as null
cells with an error entry, and the known erratum notes travel with every
report so a mismatch can be traced to its documented cause.
"""

from __future__ import annotations

from .engines import molien_column, rank_column
from .errors import NonIntegralOrbitCount
from .groups import GroupSpec, isotropy_data, rst_decompose, validate
from .iojson import canonical_dumps
from .oracle import e2_table
from .torsion import assemble_p_torsion

# Known divergences between the published closed form and the orbit/Smith
# arithmetic, phrased self-contained; the published engine is "as printed"
# except where a note says a convention had to be pinned.
ERRATUM_NOTES = (
    "block-count display swap: the displayed degree-1/degree-2 identification of the "
    "trivial and free-origin block counts is swapped relative to the procedure text; "
    "this implementation takes t from the degree-1 quotient ker(N)/im(psi-1) and r "
    "from the degree-2 quotient ker(psi-1)/im(N), the only reading consistent with "
    "degree-1 cohomology of a trivial lattice being zero.",
    "orbit-count exponent: the published coefficient raises the index-ratio "
    "p*gcd(A)/m to the power |A|; the constant-isotropy orbit count supports "
    "exponent 1, which the corrected engine uses.",
    "zero-class coefficient: as displayed, the published empty-set coefficient is 1 "
    "in every even degree >= 0; that convention provably cannot reproduce the "
    "published reference table through the published assembly, so the published "
    "engine pins it to 1 exactly in degrees divisible by 4 (the unique convention "
    "that does).  A side effect is 4-periodicity of some published columns.",
    "stratum entry degree: the published tuple sums admit weights up to beta; the "
    "corrected engine enters a class of weight w at degree 2w (cutoff floor(beta/2), "
    "zero class at degree 2).  The alternative cutoff beta-1 is evaluated in the "
    "calibration section so reports state which cutoff the oracle supports per input.",
    "parity filter: both closed forms couple the lattice-degree parity to the total "
    "degree, forcing zero torsion in all odd degrees; the oracle reports odd-degree "
    "torsion whenever the trivial block has invariants in odd degrees.",
    "regular-block sign twist (p = 2): the top exterior power of a regular block "
    "carries the sign action for p = 2; both closed forms omit the twist, so their "
    "2-torsion can differ from the oracle when the regular multiplicity s is positive.",
    "non-integral strata: when the complementary action does not preserve the weight "
    "strata of the class set, the orbit coefficients fail integrality; such cells are "
    "reported as null with an error entry instead of a fabricated value.",
    "trivial-block invariant ranks: the reference evaluation of the flagship example "
    "takes the trivial-block invariant rank to vanish in every positive degree for the "
    "larger prime; the eigenvalue-count definition of that rank gives nonzero values "
    "there.  This implementation always counts by the definition and never adopts the "
    "evaluated zeros; the pinned zero-class convention is what still lets the published "
    "engine land on the reference table.",
)


def _theta_cell(spec, p, l, variant, cutoff="half"):
    try:
        return assemble_p_torsion(spec, p, l, variant, corrected_cutoff=cutoff), None
    except NonIntegralOrbitCount as exc:
        return None, str(exc)


def compare_report(spec: GroupSpec, max_degree: int, primes=None) -> dict:
    """Full three-way comparison for one group, every per-prime part over ``primes``.

    By default that is every prime of m; a foreign one is refused
    (NotADivisor) by the decompositions, which run before the oracle.
    """
    validate(spec)
    primes = spec.primes if primes is None else tuple(primes)
    per_prime = {}
    for p in primes:
        rst = rst_decompose(spec, p)
        iso = isotropy_data(spec, p, rst)
        per_prime[str(p)] = {
            "r": rst.r,
            "s": rst.s,
            "t": rst.t,
            "divisors": list(iso.divisors),
            "k_d": {str(d): k for d, k in iso.k_d},
        }

    ranks_wedge = list(rank_column(spec, max_degree))
    ranks_molien = list(molien_column(spec, max_degree))
    oracle = e2_table(spec, max_degree)
    ranks_oracle = list(oracle.rank_column())
    ranks_agree = ranks_wedge == ranks_molien == ranks_oracle

    rows = []
    errors = []
    mismatches = 0
    cutoff_half_ok = {p: True for p in primes}
    cutoff_alt_ok = {p: True for p in primes}
    for l in range(max_degree + 1):
        for p in primes:
            oracle_theta = oracle.groups[l].p_multiplicity(p)
            published, err_pub = _theta_cell(spec, p, l, "published")
            corrected, err_cor = _theta_cell(spec, p, l, "corrected")
            corrected_alt, err_alt = _theta_cell(spec, p, l, "corrected", "beta_minus_1")
            for variant, err in (
                ("published", err_pub),
                ("corrected", err_cor),
                ("corrected-alt-cutoff", err_alt),
            ):
                if err:
                    errors.append(
                        {"degree": l, "prime": p, "variant": variant, "error": err}
                    )
            row = {
                "degree": l,
                "prime": p,
                "published": published,
                "corrected": corrected,
                "corrected_alt_cutoff": corrected_alt,
                "oracle": oracle_theta,
                "published_matches": published == oracle_theta if published is not None else None,
                "corrected_matches": corrected == oracle_theta if corrected is not None else None,
            }
            if l % 2 == 0:
                # the cutoff only governs even-degree coefficients; odd-degree
                # zeros come from the parity filter (separate erratum note)
                if corrected is None or corrected != oracle_theta:
                    cutoff_half_ok[p] = False
                if corrected_alt is None or corrected_alt != oracle_theta:
                    cutoff_alt_ok[p] = False
            if row["published_matches"] is False or row["corrected_matches"] is False:
                mismatches += 1
                rows.append(row)
            elif published is None or corrected is None:
                rows.append(row)
            elif oracle_theta or (published or 0) or (corrected or 0):
                rows.append(row)
    calibration = {
        "corrected_cutoff_matches_oracle_even_degrees": {
            str(p): {
                "floor_beta_half": cutoff_half_ok[p],
                "beta_minus_1": cutoff_alt_ok[p],
            }
            for p in primes
        }
    }
    return {
        "schema": "comparison-report/1",
        "name": spec.name or "group",
        "n": spec.n,
        "m": spec.m,
        "max_degree": max_degree,
        "ranks": {
            "wedge_count": ranks_wedge,
            "molien": ranks_molien,
            "oracle": ranks_oracle,
            "all_agree": ranks_agree,
        },
        "decomposition": per_prime,
        "torsion": rows,
        "formula_errors": errors,
        "calibration": calibration,
        "summary": {
            "degrees": max_degree + 1,
            "rank_agreement": ranks_agree,
            "torsion_mismatch_cells": mismatches,
            "error_cells": len(errors),
        },
        "published_column_label": "as printed (with the pinned conventions in the erratum notes)",
        "errata": list(ERRATUM_NOTES),
    }


def render_report_json(report: dict) -> str:
    return canonical_dumps(report)


def render_report_markdown(report: dict) -> str:
    lines = [
        f"# Reconciliation report: {report['name']} (n={report['n']}, m={report['m']})",
        "",
        f"Degrees 0..{report['max_degree']}.",
        "",
        "## Ranks (three independent engines)",
        "",
        f"- wedge count: {report['ranks']['wedge_count']}",
        f"- trace average: {report['ranks']['molien']}",
        f"- oracle: {report['ranks']['oracle']}",
        f"- all agree: {report['ranks']['all_agree']}",
        "",
        "## Torsion exponents per (degree, prime)",
        "",
        "| l | p | published (as printed) | corrected | corrected (beta-1 cutoff) | oracle | pub=oracle | corr=oracle |",
        "|---|---|------------------------|-----------|---------------------------|--------|------------|-------------|",
    ]
    for row in report["torsion"]:
        fmt = lambda v: "-" if v is None else str(v)  # noqa: E731
        lines.append(
            f"| {row['degree']} | {row['prime']} | {fmt(row['published'])} "
            f"| {fmt(row['corrected'])} | {fmt(row['corrected_alt_cutoff'])} "
            f"| {row['oracle']} | {fmt(row['published_matches'])} "
            f"| {fmt(row['corrected_matches'])} |"
        )
    if report["formula_errors"]:
        lines += ["", "## Non-integral coefficient cells", ""]
        for err in report["formula_errors"]:
            lines.append(
                f"- degree {err['degree']}, p={err['prime']}, {err['variant']}: {err['error']}"
            )
    lines += ["", "## Calibration: which corrected cutoff matches the oracle (even degrees)", ""]
    for p, flags in sorted(
        report["calibration"]["corrected_cutoff_matches_oracle_even_degrees"].items()
    ):
        lines.append(
            f"- p={p}: floor(beta/2): {flags['floor_beta_half']}, beta-1: {flags['beta_minus_1']}"
        )
    lines += ["", "## Erratum notes", ""]
    lines += [f"- {note}" for note in report["errata"]]
    return "\n".join(lines) + "\n"


def render_report_csv(report: dict) -> str:
    lines = ["degree,prime,published,corrected,corrected_alt_cutoff,oracle"]
    for row in report["torsion"]:
        fmt = lambda v: "" if v is None else str(v)  # noqa: E731
        lines.append(
            f"{row['degree']},{row['prime']},{fmt(row['published'])},"
            f"{fmt(row['corrected'])},{fmt(row['corrected_alt_cutoff'])},{row['oracle']}"
        )
    return "\n".join(lines) + "\n"
