"""Output checks, run outside the timed region.

Every check returns ``(status, reason)`` with status one of:

- ``ok``: the output is correct;
- ``refused``: the expected refusal of an invalid input (exit 2), which
  is not a failure;
- ``failed``: no answer (a non-zero exit or a documented defect);
- ``wrong``: an answer that is not the correct one.

``failed`` and ``wrong`` both count as failed ops; only ``wrong`` makes a
run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

OK, REFUSED, FAILED, WRONG = "ok", "refused", "failed", "wrong"


def counts_as_failed(status: str) -> bool:
    return status in (FAILED, WRONG)


@dataclass(frozen=True)
class CliExpectation:
    """What one command-line call must print.

    ``stdout`` is the library's own rendering (None when the library has
    none to give), ``golden`` an optional committed reference that must
    match byte for byte, and ``refusal`` marks an input the command must
    reject with exit code 2.
    """

    stdout: str | None = None
    golden: str | None = None
    refusal: bool = False
    note: str = ""


def check_cli(code: int, stdout: str, stderr: str, expect: CliExpectation):
    if expect.refusal:
        if code == 2 and stdout == "":
            return REFUSED, ""
        return (WRONG if code == 0 else FAILED), f"expected exit 2, got exit {code}"
    if code != 0:
        first = stderr.strip().splitlines()[:1]
        return FAILED, f"exit {code}: {first[0] if first else ''}".strip()
    if expect.stdout is None:
        return FAILED, f"no library rendering to compare with ({expect.note})"
    if stdout != expect.stdout:
        return WRONG, "stdout differs from the library's rendering"
    if expect.golden is not None and stdout != expect.golden:
        return WRONG, "stdout differs from the golden report"
    return OK, ""


def _theta(rows, degree: int, prime: int) -> int:
    for row in rows:
        if row["degree"] == degree and row["prime"] == prime:
            return row["oracle"]
    return 0


def check_report(report: dict, text: str, n: int, m: int):
    """A reconciliation report and its rendering, for a group of rank n.

    - the rendering parses back to the report;
    - the three rank columns agree, and the report says so;
    - every match flag and summary count agrees with the cells;
    - oracle torsion is 2-periodic from degree n + 1 on, and only primes
      dividing m occur.
    """
    if json.loads(text) != report:
        return WRONG, "rendered report does not parse back to the report"
    ranks = report["ranks"]
    if not (ranks["wedge_count"] == ranks["molien"] == ranks["oracle"]):
        return WRONG, "rank columns disagree"
    if ranks["all_agree"] is not True:
        return WRONG, "report does not state rank agreement"
    rows = report["torsion"]
    mismatches = 0
    for row in rows:
        if m % row["prime"]:
            return WRONG, f"torsion prime {row['prime']} does not divide m={m}"
        for variant in ("published", "corrected"):
            value = row[variant]
            flag = None if value is None else value == row["oracle"]
            if row[f"{variant}_matches"] != flag:
                return WRONG, f"{variant} match flag inconsistent at degree {row['degree']}"
        mismatches += row["published_matches"] is False or row["corrected_matches"] is False
    summary = report["summary"]
    if summary["torsion_mismatch_cells"] != mismatches:
        return WRONG, "mismatch count inconsistent with the cells"
    if summary["error_cells"] != len(report["formula_errors"]):
        return WRONG, "error count inconsistent with the error list"
    top = report["max_degree"]
    for p in {row["prime"] for row in rows}:
        for l in range(n + 1, top - 1):
            if _theta(rows, l, p) != _theta(rows, l + 2, p):
                return WRONG, f"oracle {p}-torsion not 2-periodic at degree {l}"
    return OK, ""


def check_ranks(n: int, ranks, molien, tables: dict, rendered: dict, decompositions):
    """One ranks-wide op.

    ``tables`` maps each formula variant to its table, or None for a
    documented non-integral outcome; ``rendered`` holds each table's JSON
    rendering; ``decompositions`` lists ``(p, rst, isotropy)``.
    """
    from semicoh.iojson import parse_table

    if list(ranks) != list(molien):
        return WRONG, "rank_column differs from molien_column"
    for variant, table in tables.items():
        if table is None:
            continue
        if list(table.rank_column()) != list(ranks):
            return WRONG, f"{variant} table ranks differ from rank_column"
        if parse_table(rendered[variant]) != table:
            return WRONG, f"{variant} rendering does not parse back to the table"
    for p, rst, iso in decompositions:
        if rst.r + p * rst.s + (p - 1) * rst.t != n:
            return WRONG, f"(r, s, t) = ({rst.r}, {rst.s}, {rst.t}) does not add up to n at p={p}"
        if any(count % (p - 1) for _, count in iso.m_d):
            return WRONG, f"isotropy counts at p={p} not divisible by p-1"
    return OK, ""
