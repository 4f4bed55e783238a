"""Record what every command-line call prints, one file per call, for ``diff -r``.

    python tools/cli_snapshot.py OUTDIR [--src SRC]

Runs ``python -m semicoh.cli`` from the package under SRC (default: this
checkout's ``src``) on every ``fixtures/*.json`` of this checkout: every
subcommand, every ``--format`` it takes, every ``--engine`` and
``--variant`` of ``analyze``, the default top degree and ``--max-degree 9``,
every ``--prime`` of 2 and 3, and each cached subcommand with and without
``--no-cache``.  It also runs ``fixtures``, ``fixtures --dir`` (the
exported files are recorded too), ``--version`` and every ``--help``.

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
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(args.src.resolve()), SEMICOH_CACHE_DIR=cache)
        todo = calls()
        for call in todo:
            (args.outdir / file_name(call)).write_text(record(call, env, ROOT), encoding="utf-8")
        (args.outdir / "fixtures_dir.txt").write_text(export_fixtures(env), encoding="utf-8")
    print(f"wrote {len(todo) + 1} calls to {args.outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
