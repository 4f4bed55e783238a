"""JSON input schema and table serialization.

Input schema: {"n": int, "m": int, "phi": [[int, ...], ...]} with an
optional "name".  Matrix entries may be strings when they exceed 64 bits;
everything is parsed into exact Python integers.

Output tables round-trip: parse_table(render_table(t)) == t, and the
rendered JSON is byte-deterministic (sorted keys, fixed separators).
"""

from __future__ import annotations

import json
from typing import Any

from .abelian import AbelianGroup
from .errors import SpecInputError
from .groups import GroupSpec, validate
from .intmat import IntMatrix
from .tables import CohomologyTable


def _as_int(value: Any, field: str) -> int:
    if isinstance(value, bool):
        raise SpecInputError("expected an integer, got a boolean", field=field)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise SpecInputError(f"cannot parse integer {value!r}", field=field) from None
    raise SpecInputError(f"expected an integer, got {type(value).__name__}", field=field)


def parse_group_document(text: str) -> GroupSpec:
    """Parse and validate one group description; errors carry field context."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecInputError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise SpecInputError("top level must be an object")
    for key in ("n", "m", "phi"):
        if key not in doc:
            raise SpecInputError("missing required field", field=key)
    n = _as_int(doc["n"], "n")
    m = _as_int(doc["m"], "m")
    raw_rows = doc["phi"]
    if not isinstance(raw_rows, list) or not all(isinstance(r, list) for r in raw_rows):
        raise SpecInputError("must be a list of rows", field="phi")
    if len(raw_rows) != n:
        raise SpecInputError(f"expected {n} rows, got {len(raw_rows)}", field="phi")
    rows = []
    for i, row in enumerate(raw_rows):
        if len(row) != n:
            raise SpecInputError(
                f"expected {n} entries, got {len(row)}", field=f"phi[{i}]"
            )
        rows.append([_as_int(x, f"phi[{i}][{j}]") for j, x in enumerate(row)])
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise SpecInputError("must be a string", field="name")
    return validate(GroupSpec(n=n, m=m, phi=IntMatrix(rows), name=name))


def load_group_file(path) -> GroupSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_group_document(handle.read())


def group_to_json_dict(spec: GroupSpec) -> dict:
    doc = {"n": spec.n, "m": spec.m, "phi": [list(r) for r in spec.phi.data]}
    if spec.name:
        doc["name"] = spec.name
    return doc


def canonical_dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# -- tables -----------------------------------------------------------------

# Each degree is {"degree", "rank", "torsion": [[p, theta_p], ...]}: one count
# per prime p of m, so its size does not grow with the number of summands.
TABLE_SCHEMA = "cohomology-table/2"


def table_to_dict(table: CohomologyTable) -> dict:
    return {
        "schema": TABLE_SCHEMA,
        "engine": table.engine,
        "variant": table.variant,
        "n": table.n,
        "m": table.m,
        "max_degree": table.max_degree,
        "stable_from": table.stable_from,
        "assumptions": list(table.assumptions),
        "groups": [
            {"degree": l, "rank": g.rank, "torsion": [list(c) for c in g.primary]}
            for l, g in enumerate(table.groups)
        ],
    }


def render_table(table: CohomologyTable) -> str:
    return canonical_dumps(table_to_dict(table))


def _is_count(c) -> bool:
    """A [p, theta] pair of positive ints, as json writes a tuple."""
    return type(c) is list and len(c) == 2 and all(type(x) is int and x > 0 for x in c)


def parse_table(text: str) -> CohomologyTable:
    """The table a render_table document holds; CohomologyTable checks it against m."""
    doc = json.loads(text)
    if doc.get("schema") != TABLE_SCHEMA:
        raise SpecInputError(f"not a {TABLE_SCHEMA} document", field="schema")
    entries = sorted(doc["groups"], key=lambda e: e["degree"])
    if [e["degree"] for e in entries] != list(range(doc["max_degree"] + 1)):
        raise ValueError(f"degrees are not 0..{doc['max_degree']}, one entry each")
    if not all(_is_count(c) for e in entries for c in e["torsion"]):
        raise ValueError("torsion is not a list of (p, theta) pairs")
    groups = tuple(AbelianGroup(e["rank"], tuple(map(tuple, e["torsion"]))) for e in entries)
    return CohomologyTable(
        engine=doc["engine"],
        n=doc["n"],
        m=doc["m"],
        max_degree=doc["max_degree"],
        groups=groups,
        stable_from=doc.get("stable_from"),
        variant=doc.get("variant"),
        assumptions=tuple(doc.get("assumptions") or ()),
    )


def table_markdown(table: CohomologyTable) -> str:
    lines = [
        f"# H^l for n={table.n}, m={table.m} ({table.engine})",
        "",
        "| l | group | rank |",
        "|---|-------|------|",
    ]
    for l, g in enumerate(table.groups):
        lines.append(f"| {l} | {g} | {g.rank} |")
    if table.stable_from is not None:
        lines += ["", f"2-periodic from degree {table.stable_from} on."]
    if table.assumptions:
        lines += ["", "Conditional on:"] + [f"- {a}" for a in table.assumptions]
    return "\n".join(lines) + "\n"
