"""Record what every command-line call prints, one file per call, for ``diff -r``.

    python tools/cli_snapshot.py OUTDIR [--src SRC]

Runs ``python -m semicoh.cli`` from the package under SRC (default: this
checkout's ``src``) on every ``fixtures/*.json`` of this checkout: every
subcommand, every ``--format`` it takes, every ``--engine`` and
``--variant`` of ``analyze``, the default top degree and ``--max-degree 9``,
every ``--prime`` of 2 and 3, and each cached subcommand with and without
``--no-cache``.  It also runs ``fixtures``, ``fixtures --dir`` (the
exported files are recorded too), ``--version`` and every ``--help``.
Every fixture has rank at most 5, so the oracle's numpy layers are
reached through ``analyze --engine oracle`` and ``compare --format json``
on a few companion-block sums of rank 6 to 9 (``WIDE_GROUPS``), written
to a private temporary directory and never to ``fixtures/``.

Each file in OUTDIR holds one call's command line, exit code, stdout and
stderr.  The calls run one after another in a fixed order, so whether an
entry is already cached is the same on every run.  The cache lives in a
private temporary directory, and every path printed is relative, so two
trees differ only where the program's output does:

    python tools/cli_snapshot.py /tmp/before --src ../parent/src
    python tools/cli_snapshot.py /tmp/after
    diff -r /tmp/before /tmp/after

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENGINES = [("--engine", "oracle")] + [
    ("--engine", engine, "--variant", variant)
    for engine, variant in product(("formula", "both"), ("published", "corrected", "both"))
]
DEGREES = [(), ("--max-degree", "9")]
CACHE = [(), ("--no-cache",)]
PRIMES = [(), ("--prime", "2"), ("--prime", "3")]

# monic cyclotomic polynomials Phi_e as [c_0, ..., c_(d-1)] below x^d
CYCLOTOMIC = {1: [-1], 2: [1], 3: [1, 1], 5: [1, 1, 1, 1], 6: [1, -1], 10: [1, -1, 1, -1]}
# name -> (m, the e of each companion block): odd and even n, det phi +1 and -1
WIDE_GROUPS = {
    "wide_n6_m6": (6, (3, 6, 3)),  # det 1
    "wide_n7_m10": (10, (10, 2, 1, 1)),  # det -1
    "wide_n8_m6": (6, (6, 3, 2, 1, 2, 2)),  # det -1
    "wide_n9_m15": (15, (5, 3, 3, 1)),  # det 1
}
WIDE_CALLS = [("analyze", "--engine", "oracle"), ("compare", "--format", "json")]


def _formats(*names):
    return [("--format", name) for name in names]


def _options(*axes):
    """Every combination of one choice from each axis, flattened into an argument list."""
    return [tuple(arg for choice in combo for arg in choice) for combo in product(*axes)]


# subcommand -> the option lists it runs with on each fixture
SUBCOMMANDS = {
    "analyze": _options(_formats("json", "md", "csv"), ENGINES, DEGREES, CACHE),
    "compare": _options(_formats("json", "md", "csv"), DEGREES, PRIMES),
    "rank": _options(_formats("json", "md", "csv"), DEGREES, CACHE),
    "rst": _options(_formats("json", "md"), PRIMES),
    "isotropy": _options(_formats("json", "md"), PRIMES),
    "census": _options(_formats("json", "md")),
}


def calls() -> list[tuple[str, ...]]:
    """Every argument list, in a fixed order; ``fixtures --dir`` is run apart."""
    out = [("--version",), ("--help",), ("fixtures",)]
    out += [(name, "--help") for name in (*SUBCOMMANDS, "fixtures")]
    for fixture in sorted((ROOT / "fixtures").glob("*.json")):
        path = f"fixtures/{fixture.name}"
        out += [(name, *options, path) for name, table in SUBCOMMANDS.items() for options in table]
    return out


def companion_sum(orders) -> list[list[int]]:
    """The block-diagonal sum of the companion matrices of Phi_e, e in ``orders``."""
    coefficients = [CYCLOTOMIC[e] for e in orders]
    n = sum(map(len, coefficients))
    phi, start = [[0] * n for _ in range(n)], 0
    for c in coefficients:
        last = start + len(c) - 1
        for i, c_i in enumerate(c):
            phi[start + i][last] = -c_i
            if start + i < last:
                phi[start + i + 1][start + i] = 1
        start = last + 1
    return phi


def write_wide_groups(directory: Path) -> list[tuple[str, ...]]:
    """Write WIDE_GROUPS as group files into ``directory``; the calls to run there."""
    for name, (m, orders) in WIDE_GROUPS.items():
        phi = companion_sum(orders)
        doc = {"m": m, "n": len(phi), "name": name, "phi": phi}
        (directory / f"{name}.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return [(*call, f"{name}.json") for name in WIDE_GROUPS for call in WIDE_CALLS]


def file_name(args) -> str:
    words = [Path(a).stem if a.endswith(".json") else a.lstrip("-") for a in args]
    return "_".join(words) + ".txt"


def record(args, env: dict, cwd: Path) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "semicoh.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    return (
        f"$ semicoh {' '.join(args)}\nexit {result.returncode}\n"
        f"--- stdout\n{result.stdout}--- stderr\n{result.stderr}"
    )


def export_fixtures(env: dict) -> str:
    """``fixtures --dir exported`` in a scratch directory, with every file it wrote."""
    with tempfile.TemporaryDirectory() as scratch:
        text = record(("fixtures", "--dir", "exported"), env, Path(scratch))
        for path in sorted((Path(scratch) / "exported").glob("*")):
            text += f"--- exported/{path.name}\n{path.read_text(encoding='utf-8')}"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the semicoh package to run")
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as cache, tempfile.TemporaryDirectory() as wide:
        env = dict(os.environ, PYTHONPATH=str(args.src.resolve()), SEMICOH_CACHE_DIR=cache)
        todo = [(call, ROOT) for call in calls()]
        todo += [(call, Path(wide)) for call in write_wide_groups(Path(wide))]
        for call, cwd in todo:
            (args.outdir / file_name(call)).write_text(record(call, env, cwd), encoding="utf-8")
        (args.outdir / "fixtures_dir.txt").write_text(export_fixtures(env), encoding="utf-8")
    print(f"wrote {len(todo) + 1} calls to {args.outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
