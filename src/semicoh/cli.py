"""Command-line interface.

Each computing subcommand reads one JSON group file and takes ``--format``
plus only the options its handler reads:

    analyze   --format {json,md,csv} --max-degree --no-cache --engine --variant
    compare   --format {json,md,csv} --max-degree --prime
    rank      --format {json,md,csv} --max-degree --no-cache
    rst       --format {json,md} --prime
    isotropy  --format {json,md} --prime
    census    --format {json,md}

``fixtures`` takes no input file, only ``--dir``.  Exit codes: 0 ok,
2 invalid input, 3 internal invariant violation, 4 dimension limit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .cache import cache_get, cache_key, cache_put
from .cyclotomic import exponent_multiset, matrix_census
from .engines import build_table, molien_column, rank_column
from .errors import (
    CohomologyError,
    DimensionTooLarge,
    InputError,
    InternalInvariantError,
)
from .fixtures import fixture_suite
from .groups import (
    GroupSpec,
    free_outside_origin,
    isotropy_data,
    max_finite_subgroup_census,
    rst_decompose,
)
from .iojson import (
    canonical_dumps,
    group_to_json_dict,
    load_group_file,
    parse_table,
    render_table,
    table_markdown,
    table_to_dict,
)
from .report import (
    compare_report,
    render_report_csv,
    render_report_json,
    render_report_markdown,
)


def _resolve_degree(spec: GroupSpec, value) -> int:
    if value is not None and value < 0:
        raise InputError(f"--max-degree must be non-negative, got {value}")
    return spec.n + 3 if value is None else value


def _emit(text: str):
    sys.stdout.write(text)


def _cached_table(spec, engine, max_degree, use_cache):
    key = cache_key(spec, engine, max_degree)
    if use_cache:
        hit = cache_get(key)
        if hit is not None:
            try:
                table = parse_table(hit)
                if (table.n, table.m, table.engine) == (spec.n, spec.m, engine):
                    return table
            except Exception:  # noqa: BLE001 - corrupt cache entry: recompute
                pass
    table = build_table(spec, max_degree, engine)
    if use_cache:
        cache_put(key, render_table(table))
    return table


def _engine_list(args) -> list[str]:
    engines = []
    if args.engine in ("formula", "both"):
        if args.variant in ("published", "both"):
            engines.append("formula-published")
        if args.variant in ("corrected", "both"):
            engines.append("formula-corrected")
    if args.engine in ("oracle", "both"):
        engines.append("oracle")
    return engines


def cmd_analyze(args) -> int:
    spec = load_group_file(args.input)
    max_degree = _resolve_degree(spec, args.max_degree)
    tables = [
        _cached_table(spec, engine, max_degree, not args.no_cache)
        for engine in _engine_list(args)
    ]
    if args.format == "json":
        docs = [table_to_dict(t) for t in tables]
        _emit(canonical_dumps(docs[0] if len(docs) == 1 else {"tables": docs}))
    elif args.format == "md":
        _emit("\n".join(table_markdown(t) for t in tables))
    else:
        header = ["degree"]
        for t in tables:
            header += [f"{t.engine}_rank", f"{t.engine}_torsion"]
            header += [f"{t.engine}_theta{p}" for p in spec.primes]
        lines = [",".join(header)]
        for l in range(max_degree + 1):
            row = [str(l)]
            for t in tables:
                g = t.groups[l]
                row += [str(g.rank), ";".join(str(f) for f in g.torsion)]
                row += [str(g.p_multiplicity(p)) for p in spec.primes]
            lines.append(",".join(row))
        _emit("\n".join(lines) + "\n")
    return 0


def cmd_compare(args) -> int:
    spec = load_group_file(args.input)
    max_degree = _resolve_degree(spec, args.max_degree)
    report = compare_report(spec, max_degree, _primes_for(args, spec))
    if args.format == "json":
        _emit(render_report_json(report))
    elif args.format == "md":
        _emit(render_report_markdown(report))
    else:
        _emit(render_report_csv(report))
    return 0


def cmd_rank(args) -> int:
    spec = load_group_file(args.input)
    max_degree = _resolve_degree(spec, args.max_degree)
    wedge = list(rank_column(spec, max_degree))
    molien = list(molien_column(spec, max_degree))
    oracle = list(
        _cached_table(spec, "oracle", max_degree, not args.no_cache).rank_column()
    )
    doc = {
        "name": spec.name or "group",
        "max_degree": max_degree,
        "wedge_count": wedge,
        "molien": molien,
        "oracle": oracle,
        "all_agree": wedge == molien == oracle,
    }
    if args.format == "json":
        _emit(canonical_dumps(doc))
    elif args.format == "csv":
        lines = ["degree,wedge_count,molien,oracle"]
        lines += [f"{l},{wedge[l]},{molien[l]},{oracle[l]}" for l in range(max_degree + 1)]
        _emit("\n".join(lines) + "\n")
    else:
        _emit(
            f"ranks 0..{max_degree}: {wedge}\n"
            f"trace average agrees: {molien == wedge}\n"
            f"oracle agrees: {oracle == wedge}\n"
        )
    return 0


def _primes_for(args, spec):
    """``--prime`` alone, else every prime of m; rst_decompose refuses a foreign one."""
    return spec.primes if args.prime is None else (args.prime,)


def cmd_rst(args) -> int:
    spec = load_group_file(args.input)
    doc = {}
    for p in _primes_for(args, spec):
        rst = rst_decompose(spec, p)
        doc[str(p)] = {
            "r": rst.r,
            "s": rst.s,
            "t": rst.t,
            "trivial_block_census": {str(d): mu for d, mu in rst.r_census.multiplicities},
            "free_origin_block_census": {str(d): mu for d, mu in rst.t_census.multiplicities},
            "r_basis": [list(row) for row in rst.r_basis.data],
            "t_basis": [list(row) for row in rst.t_basis.data] if rst.t_basis else None,
            "t_generators": [list(row) for row in rst.t_generators.data],
            "adapted_basis": [list(row) for row in rst.adapted_basis.data],
        }
    if args.format == "json":
        _emit(canonical_dumps(doc))
    else:
        for p, entry in sorted(doc.items(), key=lambda kv: int(kv[0])):
            _emit(f"p={p}: (r, s, t) = ({entry['r']}, {entry['s']}, {entry['t']})\n")
            _emit(f"  trivial block census: {entry['trivial_block_census']}\n")
            _emit(f"  free-origin block census: {entry['free_origin_block_census']}\n")
    return 0


def cmd_isotropy(args) -> int:
    spec = load_group_file(args.input)
    doc = {}
    for p in _primes_for(args, spec):
        iso = isotropy_data(spec, p)
        doc[str(p)] = {
            "divisors": list(iso.divisors),
            "m_d": {str(d): v for d, v in iso.m_d},
            "k_d": {str(d): v for d, v in iso.k_d},
        }
    if args.format == "json":
        _emit(canonical_dumps(doc))
    else:
        for p, entry in sorted(doc.items(), key=lambda kv: int(kv[0])):
            _emit(f"p={p}: D={entry['divisors']} m_d={entry['m_d']} k_d={entry['k_d']}\n")
    return 0


def cmd_census(args) -> int:
    spec = load_group_file(args.input)
    census = matrix_census(spec.phi, spec.m)
    exponents = exponent_multiset(census)
    free = free_outside_origin(spec)
    doc = {
        "cyclotomic_census": {str(d): mu for d, mu in census.multiplicities},
        "exponent_multiset": {str(a): c for a, c in exponents.counts},
        "free_outside_origin": {
            "per_prime": {str(p): flag for p, flag in free.per_prime},
            "overall": free.overall,
        },
    }
    if free.overall and spec.m > 1:
        mf = max_finite_subgroup_census(spec)
        doc["max_finite_subgroups"] = {
            "class_counts": {str(q): c for q, c in mf.class_counts},
            "nonzero_type_counts": {str(q): c for q, c in mf.nonzero_type_counts},
        }
    if args.format == "json":
        _emit(canonical_dumps(doc))
    else:
        _emit(f"cyclotomic census: {doc['cyclotomic_census']}\n")
        _emit(f"eigenvalue exponents (mod {spec.m}): {doc['exponent_multiset']}\n")
        _emit(f"free outside the origin: {doc['free_outside_origin']}\n")
        if "max_finite_subgroups" in doc:
            _emit(f"maximal finite subgroup classes: {doc['max_finite_subgroups']}\n")
    return 0


def cmd_fixtures(args) -> int:
    suite = fixture_suite()
    if args.dir:
        outdir = Path(args.dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for fixture in suite:
            path = outdir / f"{fixture.name}.json"
            path.write_text(canonical_dumps(group_to_json_dict(fixture.spec)),
                            encoding="utf-8")
        _emit(f"wrote {len(suite)} fixtures to {outdir}\n")
        return 0
    for fixture in suite:
        status = "valid" if fixture.valid else "rejected-by-validation"
        _emit(f"{fixture.name}: n={fixture.spec.n} m={fixture.spec.m} ({status})\n")
    return 0


_MAX_DEGREE = ("--max-degree", dict(type=int, default=None, metavar="L",
                                   help="top degree (default n+3)"))
_PRIME = ("--prime", dict(type=int, default=None,
                          help="report only this prime factor of m"))
_NO_CACHE = ("--no-cache", dict(action="store_true"))
_ENGINE = ("--engine", dict(choices=("formula", "oracle", "both"), default="both"))
_VARIANT = ("--variant", dict(choices=("published", "corrected", "both"), default="both"))
_WITH_CSV, _NO_CSV = ("json", "md", "csv"), ("json", "md")

# (name, handler, help, --format choices, options): each handler reads
# exactly the options listed for it, besides ``input`` and ``--format``.
_SUBCOMMANDS = (
    ("analyze", cmd_analyze, "compute cohomology tables", _WITH_CSV,
     (_MAX_DEGREE, _NO_CACHE, _ENGINE, _VARIANT)),
    ("compare", cmd_compare, "three-way reconciliation report", _WITH_CSV,
     (_MAX_DEGREE, _PRIME)),
    ("rank", cmd_rank, "free ranks: census count, Molien average, Smith oracle",
     _WITH_CSV, (_MAX_DEGREE, _NO_CACHE)),
    ("rst", cmd_rst, "per-prime (r, s, t) decomposition", _NO_CSV, (_PRIME,)),
    ("isotropy", cmd_isotropy, "isotropy divisors D, m_d, k_d", _NO_CSV, (_PRIME,)),
    ("census", cmd_census, "eigenvalue census and class counts", _NO_CSV, ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semicoh",
        description="Exact integral cohomology of Z^n x| Z/m (m square-free): "
        "closed-form engines reconciled against a Smith-form evaluator.",
    )
    parser.add_argument("--version", action="version", version=f"semicoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, formats, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="JSON group description file")
        p.add_argument("--format", choices=formats, default="md")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    p_fix = sub.add_parser("fixtures", help="list or export the fixture corpus")
    p_fix.add_argument("--dir", default=None, help="write fixture JSON files here")
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DimensionTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except CohomologyError as exc:  # pragma: no cover - catch-all safety
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
