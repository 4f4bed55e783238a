"""Reports, serialization round-trips, CLI behavior, cache."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

import semicoh.report
from semicoh.cache import cache_get, cache_key, cache_put
from semicoh.cli import build_parser, main
from semicoh.engines import build_table
from semicoh.errors import NotADivisor
from semicoh.fixtures import fixture_by_name, fixture_suite
from semicoh.groups import GroupSpec
from semicoh.iojson import (
    group_to_json_dict,
    parse_group_document,
    parse_table,
    render_table,
)
from semicoh.report import compare_report, render_report_json, render_report_markdown

from conftest import count_calls

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "z5_z6_compare.json"


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "semicoh.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )


def test_parse_group_document_roundtrip():
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        doc = json.dumps(group_to_json_dict(fixture.spec))
        spec = parse_group_document(doc)
        assert spec.phi == fixture.spec.phi
        assert (spec.n, spec.m) == (fixture.spec.n, fixture.spec.m)


def test_parse_group_document_big_integers_as_strings():
    doc = json.dumps({"n": 1, "m": 2, "phi": [["-1"]]})
    spec = parse_group_document(doc)
    assert spec.phi.data == ((-1,),)


def test_parse_group_document_field_errors():
    from semicoh.errors import SpecInputError

    with pytest.raises(SpecInputError) as err:
        parse_group_document(json.dumps({"n": 2, "m": 2, "phi": [[1, 0]]}))
    assert "phi" in str(err.value)
    with pytest.raises(SpecInputError) as err:
        parse_group_document("{not json")
    assert "line" in str(err.value)


def test_table_roundtrip():
    for engine in ("oracle", "formula-published", "formula-corrected"):
        table = build_table(fixture_by_name("p3").spec, 5, engine)
        assert parse_table(render_table(table)) == table


def test_report_deterministic():
    spec = fixture_by_name("p3").spec
    a = render_report_json(compare_report(spec, 6))
    b = render_report_json(compare_report(spec, 6))
    assert a == b


def test_flagship_golden_report():
    spec = fixture_by_name("z5_z6").spec
    text = render_report_json(compare_report(spec, 12))
    assert text == GOLDEN.read_text(encoding="utf-8")


def test_report_never_masks_disagreement():
    spec = fixture_by_name("z5_z6").spec
    report = compare_report(spec, 8)
    listed = {(r["degree"], r["prime"]) for r in report["torsion"]}
    # every mismatching cell appears with all engine values
    from semicoh.oracle import e2_table
    from semicoh.torsion import assemble_p_torsion

    oracle = e2_table(spec, 8)
    for l in range(9):
        for p in spec.primes:
            o = oracle.groups[l].p_multiplicity(p)
            pub = assemble_p_torsion(spec, p, l, "published")
            cor = assemble_p_torsion(spec, p, l, "corrected")
            if pub != o or cor != o:
                assert (l, p) in listed
    for row in report["torsion"]:
        assert set(row) >= {
            "degree", "prime", "published", "corrected",
            "corrected_alt_cutoff", "oracle",
        }


def test_fixture_suite_compare_completes_and_ranks_agree():
    for fixture in fixture_suite():
        if not fixture.valid:
            continue
        spec = fixture.spec
        report = compare_report(spec, spec.n + 3)
        assert report["ranks"]["all_agree"], fixture.name
        md = render_report_markdown(report)
        assert "Erratum notes" in md


def test_cli_analyze_oracle_json(tmp_path):
    result = run_cli(
        "analyze", "--engine", "oracle", "--format", "json", "--no-cache",
        "fixtures/dinfty.json",
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["groups"][2]["torsion"] == [2, 2]


def test_cli_analyze_both_engines_md():
    result = run_cli(
        "analyze", "--max-degree", "8", "--engine", "both", "--no-cache",
        "fixtures/z5_z6.json",
    )
    assert result.returncode == 0, result.stderr
    assert "formula-published" in result.stdout
    assert "formula-corrected" in result.stdout
    assert "oracle" in result.stdout


def test_cli_analyze_csv():
    result = run_cli(
        "analyze", "--format", "csv", "--max-degree", "4", "--no-cache",
        "fixtures/p3.json",
    )
    assert result.returncode == 0, result.stderr
    header = result.stdout.splitlines()[0]
    assert header.startswith("degree,")
    assert "oracle_theta3" in header


def test_cli_validation_exit_code():
    result = run_cli("analyze", "fixtures/m4_reject.json")
    assert result.returncode == 2
    assert "square" in result.stderr.lower() or "2^2" in result.stderr


def test_cli_internal_invariant_exit_code():
    # the order-6 planar action has non-integral orbit coefficients; a direct
    # formula-engine analyze surfaces that as an internal invariant violation
    result = run_cli(
        "analyze", "--engine", "formula", "--variant", "corrected", "--no-cache",
        "fixtures/p6.json",
    )
    assert result.returncode == 3
    assert "not an integer" in result.stderr


def test_cli_dimension_exit_code(tmp_path):
    doc = {"n": 25, "m": 2, "phi": [[1 if i == j else 0 for j in range(25)] for i in range(25)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("analyze", "--engine", "oracle", "--no-cache", str(path))
    assert result.returncode == 4


def test_cli_compare_and_subcommands():
    for cmd in (
        ["compare", "--max-degree", "6", "--format", "json"],
        ["rank", "--format", "json", "--no-cache"],
        ["rst", "--format", "json"],
        ["isotropy", "--format", "json"],
        ["census", "--format", "json"],
    ):
        result = run_cli(*cmd, "fixtures/z5_z6.json")
        assert result.returncode == 0, (cmd, result.stderr)
        json.loads(result.stdout)


def test_cli_compare_prime_filter():
    result = run_cli(
        "compare", "--max-degree", "6", "--prime", "3", "--format", "json",
        "fixtures/z5_z6.json",
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["torsion"]
    assert all(row["prime"] == 3 for row in doc["torsion"])


@pytest.mark.parametrize("name, p", [("z5_z6", 2), ("z5_z6", 3), ("p6", 2), ("p6", 3)])
def test_compare_prime_covers_that_prime_in_every_part(name, p, capsys):
    # --prime used to filter the torsion rows only: the summary counts,
    # formula errors, decomposition and calibration still covered every prime
    assert main(["compare", "--prime", str(p), "--format", "json",
                 str(ROOT / "fixtures" / f"{name}.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    full = json.loads(render_report_json(compare_report(fixture_by_name(name).spec,
                                                        doc["max_degree"])))
    calibration = "corrected_cutoff_matches_oracle_even_degrees"
    assert set(doc["decomposition"]) == set(doc["calibration"][calibration]) == {str(p)}
    assert {row["prime"] for row in doc["torsion"]} == {p}
    assert doc["torsion"] == [row for row in full["torsion"] if row["prime"] == p]
    assert doc["formula_errors"] == [e for e in full["formula_errors"] if e["prime"] == p]
    assert doc["decomposition"][str(p)] == full["decomposition"][str(p)]
    assert doc["calibration"][calibration][str(p)] == full["calibration"][calibration][str(p)]
    mismatched = [row for row in doc["torsion"]
                  if False in (row["published_matches"], row["corrected_matches"])]
    assert doc["summary"]["torsion_mismatch_cells"] == len(mismatched)
    assert doc["summary"]["error_cells"] == len(doc["formula_errors"])
    shared = set(full) - {"decomposition", "torsion", "formula_errors", "calibration", "summary"}
    assert {k: doc[k] for k in shared} == {k: full[k] for k in shared}


def test_compare_refuses_a_foreign_prime_before_the_oracle(monkeypatch):
    oracle_calls = count_calls(monkeypatch, semicoh.report, "e2_table")
    spec = fixture_by_name("z5_z6").spec
    for p in (5, 0):
        with pytest.raises(NotADivisor, match=f"{p} is not a prime factor of m=6"):
            compare_report(spec, 6, [p])
    assert oracle_calls == []


def test_cli_census_reduces_each_psi_minus_one_once():
    # the freeness test and the class count read one reduction per prime of
    # m = 6; each used to reduce every psi_p - 1 itself
    code = (
        "import sys, semicoh.intmat as im, semicoh.cli as cli\n"
        "calls, engine = [], im._smith_engine\n"
        "im._smith_engine = lambda *a, **k: calls.append(a) or engine(*a, **k)\n"
        "status = cli.main(['census', '--format', 'json', 'fixtures/p6.json'])\n"
        "print(status, len(calls), file=sys.stderr)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, cwd=ROOT)
    assert result.stderr.split() == ["0", "2"], result.stderr


NEGATIVE_DEGREE = "--max-degree must be non-negative"
FOREIGN_PRIME = "is not a prime factor"


@pytest.mark.parametrize(
    "args, message",
    [
        (("analyze", "--max-degree", "-1"), NEGATIVE_DEGREE),
        (("compare", "--max-degree", "-1"), NEGATIVE_DEGREE),
        (("rank", "--max-degree", "-1"), NEGATIVE_DEGREE),
        (("compare", "--prime", "5", "--format", "json"), FOREIGN_PRIME),
        (("rst", "--prime", "5"), FOREIGN_PRIME),
        (("compare", "--prime", "0", "--format", "json"), FOREIGN_PRIME),
    ],
    ids=["analyze-degree", "compare-degree", "rank-degree", "compare-prime",
         "rst-prime", "compare-prime-zero"],
)
def test_cli_refuses_bad_degree_or_prime(args, message):
    # z5_z6 has m = 6: 0 and 5 are not prime factors of m; the message shows
    # that the handler refused the value, not argparse
    result = run_cli(*args, "fixtures/z5_z6.json")
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert message in result.stderr


TABLE_FORMATS = ("json", "md", "csv")
TEXT_FORMATS = ("json", "md")
SUBCOMMAND_OPTIONS = {
    "analyze": ({"--max-degree", "--format", "--no-cache", "--engine", "--variant"},
                TABLE_FORMATS),
    "compare": ({"--max-degree", "--format", "--prime"}, TABLE_FORMATS),
    "rank": ({"--max-degree", "--format", "--no-cache"}, TABLE_FORMATS),
    "rst": ({"--format", "--prime"}, TEXT_FORMATS),
    "isotropy": ({"--format", "--prime"}, TEXT_FORMATS),
    "census": ({"--format"}, TEXT_FORMATS),
    "fixtures": ({"--dir"}, None),
}


def test_cli_subcommands_take_only_the_options_they_read():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMAND_OPTIONS)
    for name, (options, formats) in SUBCOMMAND_OPTIONS.items():
        actions = sub.choices[name]._actions
        flags = {s for a in actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == options, name
        positionals = [a.dest for a in actions if not a.option_strings]
        assert positionals == ([] if name == "fixtures" else ["input"]), name
        format_choices = [tuple(a.choices) for a in actions if "--format" in a.option_strings]
        assert format_choices == ([formats] if formats else []), name


REMOVED_OPTIONS = [
    ("analyze", ("--prime", "3")),
    ("compare", ("--no-cache",)),
    ("rank", ("--prime", "3")),
    ("rst", ("--max-degree", "5")),
    ("rst", ("--no-cache",)),
    ("rst", ("--format", "csv")),
    ("isotropy", ("--max-degree", "5")),
    ("isotropy", ("--no-cache",)),
    ("isotropy", ("--format", "csv")),
    ("census", ("--max-degree", "5")),
    ("census", ("--no-cache",)),
    ("census", ("--prime", "3")),
    ("census", ("--format", "csv")),
]


@pytest.mark.parametrize("cmd, extra", REMOVED_OPTIONS,
                         ids=[f"{cmd}{extra[0]}" for cmd, extra in REMOVED_OPTIONS])
def test_cli_refuses_option_the_subcommand_does_not_read(cmd, extra):
    result = run_cli(cmd, "fixtures/z5_z6.json", *extra)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    expected = ("invalid choice: 'csv'" if extra[0] == "--format"
                else f"unrecognized arguments: {' '.join(extra)}")
    assert expected in result.stderr


def test_cli_determinism():
    args = ("compare", "--max-degree", "8", "--format", "json", "fixtures/z5_z6.json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout


def test_cli_import_does_not_load_numpy():
    # numpy is imported lazily by the int64 matrix product only
    code = "import sys, semicoh.cli; assert 'numpy' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, cwd=ROOT)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("argv", [
    ["compare", "fixtures/p3.json"],
    ["analyze", "--no-cache", "fixtures/dinfty.json"],
])
def test_cli_on_narrow_fixtures_does_not_load_numpy(argv):
    # every layer of p3 (n=3) and dinfty (n=1) is narrower than 4, so its
    # products and power chains stay on Python integers
    code = ("import sys; from semicoh.cli import main; "
            f"assert main({argv!r}) == 0; assert 'numpy' not in sys.modules")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, cwd=ROOT)
    assert result.returncode == 0, result.stderr


def test_cli_fixtures_listing():
    result = run_cli("fixtures")
    assert result.returncode == 0
    for name in ("dinfty", "z5_z6", "m4_reject"):
        assert name in result.stdout


def test_committed_fixtures_equal_generated(tmp_path):
    # the CLI tests and perfbench read fixtures/*.json, the library tests
    # read fixture_suite(); the two must not drift apart
    result = run_cli("fixtures", "--dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    committed = ROOT / "fixtures"
    names = sorted(path.name for path in tmp_path.glob("*.json"))
    assert names == sorted(path.name for path in committed.glob("*.json"))
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("SEMICOH_CACHE_DIR", str(tmp_path))
    spec = fixture_by_name("p3").spec
    table = build_table(spec, 5, "oracle")
    key = cache_key(spec, "oracle", 5)
    cache_put(key, render_table(table))
    hit = cache_get(key)
    assert hit is not None
    assert parse_table(hit) == table
    # a different degree is a different key
    assert cache_get(cache_key(spec, "oracle", 6)) is None


def test_cli_cache_hit_equals_recompute(tmp_path):
    env = {"SEMICOH_CACHE_DIR": str(tmp_path)}
    args = ("analyze", "--engine", "oracle", "--format", "json", "--max-degree", "6",
            "fixtures/p3.json")
    cold = run_cli(*args, env_extra=env)
    warm = run_cli(*args, env_extra=env)
    fresh = run_cli(*args, "--no-cache", env_extra=env)
    assert cold.returncode == warm.returncode == fresh.returncode == 0
    assert cold.stdout == warm.stdout == fresh.stdout
    assert list(Path(tmp_path).glob("*.json"))
