"""Self-test of the benchmark's checker and input generator.

Run from the root of the checkout:

    python -m pytest perfbench/tests

A deliberately corrupted output (one torsion exponent flipped) must be
counted as a failed op; the untouched output must pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from semicoh.engines import formula_table  # noqa: E402
from semicoh.fixtures import fixture_by_name  # noqa: E402
from semicoh.iojson import canonical_dumps, render_table, table_markdown  # noqa: E402
from semicoh.oracle import e2_table  # noqa: E402
from semicoh.report import compare_report, render_report_json  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "z5_z6_compare.json"


def _flip_oracle_exponent(report: dict, degree: int) -> dict:
    doc = json.loads(json.dumps(report))
    row = next(r for r in doc["torsion"] if r["degree"] == degree and r["oracle"])
    row["oracle"] += 1
    return doc


class _ReplayOp:
    """An op whose timed call returns a fixed output, checked like a real op."""

    kind = "replay"

    def __init__(self, output, check):
        self.output, self._check = output, check

    def prepare(self):
        pass

    def run(self, traced):
        return self.output

    def check(self, output):
        return self._check(output)


class _ReplayWorkload:
    ROUND_S = 1.0

    def __init__(self, ops):
        self.ops = ops

    def round(self, r):
        return self.ops if r == 0 else []


def _statuses(ops):
    records = workloads.closed_loop(_ReplayWorkload(ops), seconds=0.5)
    return [r.status for r in records[: len(ops)]]


def test_cli_check_counts_a_flipped_torsion_exponent_as_failed():
    golden = GOLDEN.read_text(encoding="utf-8")
    expect = checks.CliExpectation(stdout=golden, golden=golden)
    report = json.loads(golden)
    corrupted = canonical_dumps(_flip_oracle_exponent(report, report["max_degree"]))
    assert corrupted != golden

    def check(stdout):
        return (*checks.check_cli(0, stdout, "", expect), 0)

    statuses = _statuses([_ReplayOp(golden, check), _ReplayOp(corrupted, check)])
    assert statuses == [checks.OK, checks.WRONG]
    assert checks.counts_as_failed(checks.WRONG)
    assert not checks.counts_as_failed(checks.OK)


def test_cli_check_on_markdown_tables():
    spec = fixture_by_name("z5_z6").spec
    text = table_markdown(e2_table(spec, spec.n + 3))
    expect = checks.CliExpectation(stdout=text)
    assert checks.check_cli(0, text, "", expect)[0] == checks.OK
    flipped = text.replace("(Z/2)^2", "(Z/2)^3", 1)
    assert flipped != text
    assert checks.check_cli(0, flipped, "", expect)[0] == checks.WRONG


def test_cli_refusals_and_errors():
    refusal = checks.CliExpectation(refusal=True)
    assert checks.check_cli(2, "", "error: m=4", refusal)[0] == checks.REFUSED
    assert checks.check_cli(0, "x", "", refusal)[0] == checks.WRONG
    missing = checks.CliExpectation(note="the library raises")
    assert checks.check_cli(3, "", "internal invariant violated", missing)[0] == checks.FAILED
    assert checks.counts_as_failed(checks.FAILED)
    assert not checks.counts_as_failed(checks.REFUSED)


def test_report_check_counts_a_flipped_torsion_exponent_as_failed():
    spec = fixture_by_name("z5_z6").spec
    report = compare_report(spec, spec.n + 3)
    assert checks.check_report(report, render_report_json(report), spec.n, spec.m)[0] == checks.OK
    corrupted = _flip_oracle_exponent(report, report["max_degree"])
    status, reason = checks.check_report(corrupted, render_report_json(corrupted), spec.n, spec.m)
    assert status == checks.WRONG, reason


def test_ranks_check_counts_a_flipped_torsion_exponent_as_failed():
    spec = fixture_by_name("z5_z6").spec
    top = spec.n + 3
    table = formula_table(spec, top, "corrected")
    ranks = list(table.rank_column())
    text = render_table(table)
    args = (spec.n, ranks, ranks, {"corrected": table})
    assert checks.check_ranks(*args, {"corrected": text}, [])[0] == checks.OK
    doc = json.loads(text)
    group = next(g for g in doc["groups"] if len(g["torsion"]) >= 2)
    group["torsion"] = group["torsion"][1:]
    corrupted = canonical_dumps(doc)
    assert checks.check_ranks(*args, {"corrected": corrupted}, [])[0] == checks.WRONG


@pytest.mark.parametrize("n,m", [(8, 6), (9, 10), (11, 15)])
def test_generator_is_seeded_distinct_and_conjugate(n, m):
    first = inputs.GroupStream(7, "t")
    again = inputs.GroupStream(7, "t")
    specs = [first.next(n, m) for _ in range(4)]
    assert [again.next(n, m).phi for _ in range(4)] == [s.phi for s in specs]
    assert len({s.phi for s in specs}) == 4
    other = inputs.GroupStream(8, "t").next(n, m)
    assert other.phi != specs[0].phi
    assert (m in inputs.layout_for(n, m)) == (n % 2 == 0)
    for spec in specs:
        assert (spec.phi ** m).is_identity()
        assert sum(1 for row in spec.phi.data for x in row if x) > n


def test_cyclotomic_companions_have_the_right_order():
    for d in (1, 2, 3, 5, 6, 10, 15):
        block = inputs.companion(d)
        power = [[int(i == j) for j in range(len(block))] for i in range(len(block))]
        orders = []
        for k in range(1, d + 1):
            power = inputs.matmul(power, block)
            if power == [[int(i == j) for j in range(len(block))] for i in range(len(block))]:
                orders.append(k)
        assert orders and orders[0] == d
