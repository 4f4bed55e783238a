"""Reports, serialization round-trips, CLI behavior, cache."""

import argparse
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import semicoh.groups
import semicoh.intmat
import semicoh.report
from semicoh.abelian import AbelianGroup
from semicoh.cache import cache_get, cache_key, cache_put
from semicoh.cli import build_parser, main
from semicoh.engines import build_table, formula_table, molien_column, rank_column
from semicoh.errors import NotADivisor, NotSquareFree, SpecInputError, TorsionExponentViolation
from semicoh.fixtures import fixture_by_name, fixture_suite
from semicoh.groups import GroupSpec
from semicoh.intmat import IntMatrix
from semicoh.iojson import (
    canonical_dumps,
    group_to_json_dict,
    load_group_file,
    parse_group_document,
    parse_table,
    render_table,
)
from semicoh.oracle import e2_table
from semicoh.report import compare_report, render_report_json, render_report_markdown
from semicoh.tables import CohomologyTable

from conftest import block_diagonal, count_calls, run_cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "z5_z6_compare.json"


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


def test_torsion_not_dividing_m_is_refused_built_or_parsed():
    # each degree is checked p by p; the refusal names the smallest p that is
    # not a prime of m, wherever it sits
    table = build_table(fixture_by_name("z5_z6").spec, 6, "oracle")
    for primary, p, why in ((((2, 1), (4, 1), (8, 1)), 4, "does not divide"),
                            (((5, 1),), 5, "does not divide"),
                            (((3, 2), (4, 1)), 4, "does not divide"),
                            (((2, 1), (6, 3)), 6, "is not a prime of")):
        group = AbelianGroup(1, primary)
        groups = table.groups[:3] + (group,) + table.groups[4:]
        message = f"torsion order {p} in degree 3 {why} m=6"
        with pytest.raises(TorsionExponentViolation, match=message):
            CohomologyTable(engine="oracle", n=5, m=6, max_degree=6, groups=groups)
        doc = json.loads(render_table(table))
        entry = next(e for e in doc["groups"] if e["degree"] == 3)
        entry["rank"], entry["torsion"] = 1, [list(c) for c in primary]
        with pytest.raises(TorsionExponentViolation, match=message):
            parse_table(json.dumps(doc))
    assert parse_table(render_table(table)) == table


@pytest.mark.parametrize("m, p, error, message", [
    (12, 4, NotSquareFree, "m=12 is not a positive square-free integer"),
    (30, 6, TorsionExponentViolation, "torsion order 6 in degree 1 is not a prime of m=30"),
])
def test_a_table_is_refused_unless_m_is_square_free_and_p_is_its_prime(m, p, error, message):
    # 4 divides 12 and 6 divides 30, but neither is a prime of a square-free m
    groups = (AbelianGroup(1), AbelianGroup(0, ((p, 1),)))
    with pytest.raises(error, match=message):
        CohomologyTable(engine="oracle", n=1, m=m, max_degree=1, groups=groups)
    valid = CohomologyTable(engine="oracle", n=1, m=2, max_degree=1, groups=(AbelianGroup(1),) * 2)
    doc = json.loads(render_table(valid))
    doc["m"], doc["groups"][1]["torsion"] = m, [[p, 1]]
    with pytest.raises(error, match=message):
        parse_table(json.dumps(doc))


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
    for p in spec.primes:
        published = assemble_p_torsion(spec, p, 8, "published")
        corrected = assemble_p_torsion(spec, p, 8, "corrected")
        for l in range(9):
            o = oracle.groups[l].p_multiplicity(p)
            pub, cor = published[l], corrected[l]
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


def test_cli_analyze_oracle_json(cli):
    result = cli(
        "analyze", "--engine", "oracle", "--format", "json", "--no-cache",
        "fixtures/dinfty.json",
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["groups"][2]["torsion"] == [[2, 2]]


def test_cli_analyze_both_engines_md(cli):
    result = cli(
        "analyze", "--max-degree", "8", "--engine", "both", "--no-cache",
        "fixtures/z5_z6.json",
    )
    assert result.returncode == 0, result.stderr
    assert "formula-published" in result.stdout
    assert "formula-corrected" in result.stdout
    assert "oracle" in result.stdout


def test_cli_analyze_csv(cli):
    result = cli(
        "analyze", "--format", "csv", "--max-degree", "4", "--no-cache",
        "fixtures/p3.json",
    )
    assert result.returncode == 0, result.stderr
    header = result.stdout.splitlines()[0]
    # for square-free m the theta columns carry every torsion count
    assert header == ",".join(["degree"] + [
        f"{engine}_{column}" for engine in ("formula-published", "formula-corrected", "oracle")
        for column in ("rank", "theta3")
    ])


def test_cli_validation_exit_code():
    # the one exit-code test through the `python -m semicoh.cli` entry point
    result = run_cli("analyze", "fixtures/m4_reject.json")
    assert result.returncode == 2
    assert "square" in result.stderr.lower() or "2^2" in result.stderr


def test_cli_internal_invariant_exit_code(cli):
    # the order-6 planar action has non-integral orbit coefficients; a direct
    # formula-engine analyze surfaces that as an internal invariant violation
    result = cli(
        "analyze", "--engine", "formula", "--variant", "corrected", "--no-cache",
        "fixtures/p6.json",
    )
    assert result.returncode == 3
    assert "not an integer" in result.stderr


def test_cli_dimension_exit_code(tmp_path, cli):
    doc = {"n": 25, "m": 2, "phi": [[1 if i == j else 0 for j in range(25)] for i in range(25)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = cli("analyze", "--engine", "oracle", "--no-cache", str(path))
    assert result.returncode == 4


def test_cli_compare_and_subcommands(cli):
    for cmd in (
        ["compare", "--max-degree", "6", "--format", "json"],
        ["rank", "--format", "json", "--no-cache"],
        ["rst", "--format", "json"],
        ["isotropy", "--format", "json"],
        ["census", "--format", "json"],
    ):
        result = cli(*cmd, "fixtures/z5_z6.json")
        assert result.returncode == 0, (cmd, result.stderr)
        json.loads(result.stdout)


def test_cli_compare_prime_filter(cli):
    result = cli(
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


def test_cli_census_reduces_each_psi_minus_one_once(monkeypatch, cli):
    # the freeness test and the class count read one det of psi_p - 1 per
    # prime of m = 6, after validate's det of phi, and run no Smith form;
    # each used to reduce every psi_p - 1 itself.  Both dets are memoised,
    # so the counts start from cold caches.
    semicoh.groups._check.cache_clear()
    semicoh.groups._psi_minus_one_det.cache_clear()
    dets = count_calls(monkeypatch, semicoh.groups, "det")
    smith = count_calls(monkeypatch, semicoh.intmat, "smith_normal_form")
    status = cli("census", "--format", "json", "fixtures/p6.json").returncode
    got = [a for (a,) in dets]
    spec = load_group_file(ROOT / "fixtures" / "p6.json")
    one = IntMatrix.identity(spec.n)
    expected = [spec.phi] + [spec.psi(p) - one for p in spec.primes]
    assert (status, len(got), got == expected, len(smith)) == (0, 3, True, 0), got


RST_KEYS = {"r", "s", "t", "trivial_block_census", "free_origin_block_census"}


def _valid_fixture_paths():
    return [(f, ROOT / "fixtures" / f"{f.name}.json") for f in fixture_suite() if f.valid]


def test_cli_rst_json_reports_counts_and_censuses_only(capsys):
    # each prime's entry holds (r, s, t) and both block censuses; no
    # integral basis of either block is reported
    for fixture, path in _valid_fixture_paths():
        assert main(["rst", "--format", "json", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {str(p) for p in fixture.spec.primes}, fixture.name
        for p, entry in doc.items():
            assert set(entry) == RST_KEYS, (fixture.name, p)


def test_cli_rst_runs_no_smith_form(monkeypatch, capsys):
    # a cold rst run, in either format, reads the counts off phi's census
    # and ranks mod p only
    calls = count_calls(monkeypatch, semicoh.intmat, "smith_normal_form")
    semicoh.groups.rst_decompose.cache_clear()
    for fmt in ("json", "md"):
        for _, path in _valid_fixture_paths():
            assert main(["rst", "--format", fmt, str(path)]) == 0
    assert capsys.readouterr().out
    assert calls == []


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
def test_cli_refuses_bad_degree_or_prime(args, message, cli):
    # z5_z6 has m = 6: 0 and 5 are not prime factors of m; the message shows
    # that the handler refused the value, not argparse
    result = cli(*args, "fixtures/z5_z6.json")
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert message in result.stderr


@pytest.mark.parametrize(
    "compute",
    [
        lambda spec: rank_column(spec, -1),
        lambda spec: molien_column(spec, -1),
        lambda spec: formula_table(spec, -1, "published"),
        lambda spec: e2_table(spec, -1),
        lambda spec: compare_report(spec, -1),
    ],
    ids=["rank_column", "molien_column", "formula_table", "e2_table", "compare_report"],
)
def test_library_refuses_negative_max_degree(compute):
    # formula_table used to fail with an IndexError, and the two rank
    # columns returned () without complaint
    with pytest.raises(ValueError, match="negative max degree"):
        compute(fixture_by_name("z5_z6").spec)


def _missing(tmp_path):
    return ["analyze", str(tmp_path / "missing.json")]


def _directory(tmp_path):
    return ["analyze", str(tmp_path)]


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    return ["analyze", str(path)]


def _dir_is_a_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("", encoding="utf-8")
    return ["fixtures", "--dir", str(path)]


@pytest.mark.parametrize(
    "make_argv, message",
    [
        (_missing, "No such file"),
        (_directory, "Is a directory"),
        (_not_utf8, "can't decode"),
        (_dir_is_a_file, "File exists"),
    ],
    ids=["missing", "directory", "not-utf8", "fixtures-dir-is-a-file"],
)
def test_cli_file_errors_exit_two(make_argv, message, tmp_path, capsys):
    # an input that cannot be read or an output directory that cannot be
    # made is invalid input: one error line, no output and no traceback
    assert main(make_argv(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


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
def test_cli_refuses_option_the_subcommand_does_not_read(cmd, extra, cli):
    result = cli(cmd, "fixtures/z5_z6.json", *extra)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    expected = ("invalid choice: 'csv'" if extra[0] == "--format"
                else f"unrecognized arguments: {' '.join(extra)}")
    assert expected in result.stderr


def test_cli_determinism(monkeypatch):
    # two fresh interpreters under different hash seeds print the same report
    args = ("compare", "--max-degree", "8", "--format", "json", "fixtures/z5_z6.json")
    monkeypatch.setenv("PYTHONHASHSEED", "1")
    a = run_cli(*args)
    monkeypatch.setenv("PYTHONHASHSEED", "2")
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0, a.stderr + b.stderr
    assert a.stdout == b.stdout


_COMPUTING_ARGVS = (
    ["analyze", "--no-cache"],
    ["analyze", "--no-cache", "--engine", "oracle"],
    ["compare"],
    ["rank", "--no-cache"],
    ["rst"],
    ["isotropy"],
    ["census"],
)


def _cli_exit_codes_and_numpy(paths):
    """In one fresh process: numpy loaded by ``import semicoh.cli``, and for each path
    (exit code of main per _COMPUTING_ARGVS, numpy loaded after them)."""
    code = ("import sys\n"
            "from semicoh.cli import main\n"
            "runs = ['numpy' in sys.modules]\n"
            f"for path in {[str(path) for path in paths]!r}:\n"
            f"    codes = [main(argv + [path]) for argv in {list(_COMPUTING_ARGVS)!r}]\n"
            "    runs.append((codes, 'numpy' in sys.modules))\n"
            "print(repr(runs), file=sys.stderr)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    at_import, *runs = ast.literal_eval(result.stderr.splitlines()[-1])
    return at_import, runs


SHIPPED = [f.name for f in fixture_suite() if f.valid]


@pytest.fixture(scope="module")
def shipped_fixture_runs():
    """numpy loaded at import, and {name: (exit codes, numpy loaded)} per shipped fixture.

    One process runs every fixture in turn, so a fixture's flag also covers
    the fixtures before it: the first fixture that loads numpy is the first
    test to fail.
    """
    at_import, runs = _cli_exit_codes_and_numpy(
        [ROOT / "fixtures" / f"{name}.json" for name in SHIPPED])
    return at_import, dict(zip(SHIPPED, runs))


def test_cli_import_does_not_load_numpy(shipped_fixture_runs):
    # numpy is imported lazily, by the int64 matrix product and by the
    # oracle's layers module, both only at least _NUMPY_MIN_DIM (6) wide
    at_import, _ = shipped_fixture_runs
    assert not at_import


@pytest.mark.parametrize("name", SHIPPED)
def test_cli_on_shipped_fixtures_does_not_load_numpy(name, shipped_fixture_runs):
    # every shipped fixture has rank n <= 5 < _NUMPY_MIN_DIM: its products,
    # exterior layers and power chains stay on Python integers.  p6's plain
    # analyze exits 3 on its non-integral formula cells (see
    # test_cli_internal_invariant_exit_code); its oracle-only analyze runs
    codes, loaded = shipped_fixture_runs[1][name]
    assert codes == [3 if name == "p6" and i == 0 else 0 for i in range(len(codes))], codes
    assert not loaded


def test_cli_on_a_rank_six_group_loads_numpy(tmp_path):
    # the control: z5_z6 plus a trivial summand has rank _NUMPY_MIN_DIM, so
    # its oracle layers are numpy arrays
    phi = block_diagonal([fixture_by_name("z5_z6").spec.phi, IntMatrix.identity(1)])
    spec = GroupSpec(semicoh.intmat._NUMPY_MIN_DIM, 6, phi, name="z6_z6")
    path = tmp_path / "z6_z6.json"
    path.write_text(json.dumps(group_to_json_dict(spec)), encoding="utf-8")
    _, [(codes, loaded)] = _cli_exit_codes_and_numpy([path])
    assert codes == [0] * len(codes), codes
    assert loaded


def test_cli_fixtures_listing(cli):
    result = cli("fixtures")
    assert result.returncode == 0
    for name in ("dinfty", "z5_z6", "m4_reject"):
        assert name in result.stdout


def test_committed_fixtures_equal_generated(tmp_path, cli):
    # the CLI tests and perfbench read fixtures/*.json, the library tests
    # read fixture_suite(); the two must not drift apart
    result = cli("fixtures", "--dir", str(tmp_path))
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


def test_cli_cache_hit_equals_recompute(tmp_path, cli):
    # the cli fixture keeps the cache in tmp_path
    args = ("analyze", "--engine", "oracle", "--format", "json", "--max-degree", "6",
            "fixtures/p3.json")
    cold = cli(*args)
    warm = cli(*args)
    fresh = cli(*args, "--no-cache")
    assert cold.returncode == warm.returncode == fresh.returncode == 0
    assert cold.stdout == warm.stdout == fresh.stdout
    assert list(Path(tmp_path).glob("*.json"))


def test_a_cache_entry_of_the_first_table_schema_is_refused_and_replaced(tmp_path, monkeypatch, cli):
    # cohomology-table/1 listed one invariant factor per cyclic summand; for
    # m = 2 that chain is one 2 per copy of Z/2
    monkeypatch.setenv("SEMICOH_CACHE_DIR", str(tmp_path))
    spec = fixture_by_name("dinfty").spec
    key = cache_key(spec, "oracle", 6)
    doc = json.loads(render_table(build_table(spec, 6, "oracle")))
    doc["schema"] = "cohomology-table/1"
    for entry in doc["groups"]:
        entry["torsion"] = [q for q, copies in entry["torsion"] for _ in range(copies)]
    assert [2, 2] in [entry["torsion"] for entry in doc["groups"]]
    cache_put(key, canonical_dumps(doc))
    with pytest.raises(SpecInputError, match="cohomology-table/2"):
        parse_table(cache_get(key))
    args = ("analyze", "--engine", "oracle", "--max-degree", "6", "fixtures/dinfty.json")
    migrated, fresh = cli(*args), cli(*args, "--no-cache")
    assert migrated.returncode == fresh.returncode == 0, migrated.stderr
    assert migrated.stdout == fresh.stdout
    assert json.loads(cache_get(key))["schema"] == "cohomology-table/2"
    assert parse_table(cache_get(key)) == build_table(spec, 6, "oracle")


@pytest.mark.parametrize("damage", ["degrees", "max_degree"])
def test_a_cache_entry_with_other_degrees_is_recomputed_and_replaced(damage, tmp_path, monkeypatch,
                                                                   cli):
    # degrees [0, 0, 2, 3, ...] (degree 1 missing, degree 0 twice) are refused by
    # parse_table; a consistent table of another max_degree parses but is not
    # the one asked for
    monkeypatch.setenv("SEMICOH_CACHE_DIR", str(tmp_path))
    spec = fixture_by_name("dinfty").spec
    key = cache_key(spec, "oracle", 6)
    if damage == "degrees":
        doc = json.loads(render_table(build_table(spec, 6, "oracle")))
        doc["groups"][1]["degree"] = 0
        assert [e["degree"] for e in doc["groups"]][:4] == [0, 0, 2, 3]
        with pytest.raises(ValueError, match="degrees are not 0..6"):
            parse_table(canonical_dumps(doc))
        cache_put(key, canonical_dumps(doc))
    else:
        cache_put(key, render_table(build_table(spec, 4, "oracle")))
        assert parse_table(cache_get(key)).max_degree == 4
    args = ("analyze", "--engine", "oracle", "--max-degree", "6", "fixtures/dinfty.json")
    cached, fresh = cli(*args), cli(*args, "--no-cache")
    assert cached.returncode == fresh.returncode == 0, cached.stderr
    assert cached.stdout == fresh.stdout
    assert parse_table(cache_get(key)) == build_table(spec, 6, "oracle")


def test_a_cache_entry_for_a_huge_m_is_replaced_without_factoring_it(tmp_path, monkeypatch, cli):
    # the entry's n, m, engine and max_degree are matched against the request
    # before a table is built: building one would trial-divide m = 2^61 - 1
    # (a prime) for minutes
    monkeypatch.setenv("SEMICOH_CACHE_DIR", str(tmp_path))
    spec = fixture_by_name("z5_z6").spec
    key = cache_key(spec, "oracle", 6)
    doc = json.loads(render_table(build_table(spec, 6, "oracle")))
    doc["m"] = 2**61 - 1
    cache_put(key, canonical_dumps(doc))
    args = ("analyze", "--engine", "oracle", "--max-degree", "6", "fixtures/z5_z6.json")
    # a fresh interpreter, so that a regression fails on the timeout instead of hanging
    cached, fresh = run_cli(*args, timeout=60), cli(*args, "--no-cache")
    assert cached.returncode == fresh.returncode == 0, cached.stderr
    assert cached.stdout == fresh.stdout
    assert parse_table(cache_get(key)) == build_table(spec, 6, "oracle")


def test_a_group_file_with_a_huge_m_exits_4_promptly(tmp_path):
    # m = 2^61 - 1 is a prime: trial division would run for minutes, and every
    # engine builds m powers of phi.  m is refused by size before it is
    # factored; a fresh interpreter, so that a regression fails on the timeout
    path = tmp_path / "huge_m.json"
    path.write_text(json.dumps({"n": 1, "m": 2**61 - 1, "phi": [[1]]}), encoding="utf-8")
    result = run_cli("analyze", "--no-cache", str(path), timeout=30)
    assert result.returncode == 4, result.stderr
    assert result.stdout == ""
    assert result.stderr == f"error: m={2**61 - 1} is over the cap of 100000\n"
