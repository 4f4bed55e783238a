"""The three workloads and the closed loop that drives them.

Each workload yields its ops round by round; a round holds every op kind
once.  One client runs them in a closed loop: an op's input is prepared
outside the timed region, the op is timed, and the next op starts when
the last one has finished.  All outputs are checked after the loop,
outside timing.

- ``cli-corpus``: one fresh ``semicoh`` process per op: ``analyze`` on
  every shipped fixture with an empty private cache and again with the
  entry cached, ``compare --format json`` on every fixture, and
  ``analyze --engine oracle`` on one seeded n=8 dense conjugate (cold and
  cached).
- ``oracle-dense``: ``compare_report(spec, n + 3)`` plus its JSON
  rendering on a distinct dense conjugate per op, n in {8, 9} and
  m in {6, 10, 15}.
- ``ranks-wide``: rank_column, molien_column, both formula_table variants
  with their JSON rendering, and rst_decompose/isotropy_data for every
  prime, at degree n + 3 on a distinct dense conjugate per op, n in
  {10, 11, 12} and m in {6, 10, 15}; no oracle.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import checks
from inputs import GroupStream

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
MAX_STRETCH = 1.25


@dataclass
class OpRecord:
    index: int
    kind: str
    round: int
    traced: bool
    wall: float
    cpu: float = 0.0
    status: str = checks.OK
    reason: str = ""
    null_tables: int = 0
    rss_kb: int = 0


def _null_tables(report: dict) -> int:
    """Formula variants with at least one documented non-integral cell."""
    variants = {e["variant"] for e in report["formula_errors"]}
    return len(variants & {"published", "corrected"})


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


class OracleOp:
    def __init__(self, workload, n: int, m: int):
        self.workload, self.n, self.m = workload, n, m
        self.kind = f"n{n}-m{m}"

    def prepare(self):
        self.spec = self.workload.take(self.n, self.m)

    def run(self, traced):
        import semicoh.report as report_mod

        report = report_mod.compare_report(self.spec, self.n + 3)
        return report, report_mod.render_report_json(report)

    def check(self, output):
        report, text = output
        status, reason = checks.check_report(report, text, self.n, self.m)
        return status, reason, _null_tables(report)


class RanksOp:
    def __init__(self, workload, n: int, m: int):
        self.workload, self.n, self.m = workload, n, m
        self.kind = f"n{n}-m{m}"

    def prepare(self):
        self.spec = self.workload.take(self.n, self.m)

    def run(self, traced):
        import semicoh.engines as engines
        import semicoh.groups as groups
        import semicoh.iojson as iojson
        from semicoh.errors import NonIntegralOrbitCount

        spec, top = self.spec, self.n + 3
        ranks = engines.rank_column(spec, top)
        molien = engines.molien_column(spec, top)
        tables, rendered = {}, {}
        for variant in ("published", "corrected"):
            try:
                tables[variant] = engines.formula_table(spec, top, variant)
            except NonIntegralOrbitCount:
                tables[variant] = None
                continue
            rendered[variant] = iojson.render_table(tables[variant])
        decompositions = []
        for p in spec.primes:
            rst = groups.rst_decompose(spec, p)
            decompositions.append((p, rst, groups.isotropy_data(spec, p, rst)))
        return ranks, molien, tables, rendered, decompositions

    def check(self, output):
        ranks, molien, tables, rendered, decompositions = output
        status, reason = checks.check_ranks(
            self.n, ranks, molien, tables, rendered, decompositions
        )
        return status, reason, sum(t is None for t in tables.values())


class LibraryWorkload:
    grid: tuple = ()
    op_class = None

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.root, self.seed, self.tmp = root, seed, tmp
        self.stream = GroupStream(seed, self.name)
        self._ready = None

    def setup(self):
        """Imports and the first op's input: everything before the first op."""
        import semicoh  # noqa: F401

        self._ready = self.stream.next(*self.grid[0])

    def take(self, n: int, m: int):
        """The next distinct input of size (n, m)."""
        spec, self._ready = self._ready, None
        if spec is None or (spec.n, spec.m) != (n, m):
            spec = self.stream.next(n, m)
        return spec

    def round(self, r: int):
        return [self.op_class(self, n, m) for n, m in self.grid]

    def expectations(self):
        """Library ops are checked by invariants; nothing to render up front."""

    def smith_probe_spec(self):
        """A group whose largest exterior layer the Smith-form probe reduces."""
        n = max(n for n, _ in self.grid if n <= 10)
        m = min(m for nn, m in self.grid if nn == n)
        return GroupStream(self.seed, f"{self.name}-probe").next(n, m)


class OracleDense(LibraryWorkload):
    name = "oracle-dense"
    ROUND_S = 6.0
    # interleaved so that a partial last round still mixes sizes and orders
    grid = ((8, 6), (9, 6), (8, 10), (9, 10), (8, 15), (9, 15))
    op_class = OracleOp


class RanksWide(LibraryWorkload):
    name = "ranks-wide"
    ROUND_S = 7.5
    grid = ((10, 6), (11, 10), (12, 15), (11, 6), (12, 10), (10, 15),
            (12, 6), (10, 10), (11, 15))
    op_class = RanksOp


# ---------------------------------------------------------------------------
# command-line workload
# ---------------------------------------------------------------------------


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout


def spawn(argv, env, cwd, out_path: Path, err_path: Path):
    """Run one child to completion; (exit code, ru_maxrss in KiB, CPU seconds).

    The child is reaped with ``wait4`` so its own peak RSS is known; an
    alarm kills it if it outlives ``CHILD_TIMEOUT_S``.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=cwd, env=env)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except _ChildTimeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


class CliOp:
    def __init__(self, workload, call: str, name: str, args: list[str], cache_dir: Path):
        self.workload, self.call, self.name = workload, call, name
        self.args, self.cache_dir = args, cache_dir
        self.kind = f"{call}:{name}"

    def prepare(self):
        if self.call == "analyze-cold":
            self.cache_dir.mkdir(parents=True)  # fresh and empty by construction

    def run(self, traced):
        wl = self.workload
        stem = wl.tmp / f"op{wl.counter}"
        wl.counter += 1
        env = dict(wl.env, SEMICOH_CACHE_DIR=str(self.cache_dir))
        if traced:
            spans_path = stem.with_suffix(".spans.json")
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *self.args]
        else:
            spans_path = None
            argv = [sys.executable, "-m", "semicoh.cli", *self.args]
        out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
        code, rss, cpu = spawn(argv, env, wl.root, out_path, err_path)
        return {"code": code, "rss_kb": rss, "cpu": cpu, "out": out_path, "err": err_path,
                "spans": spans_path}

    def check(self, output):
        stdout = output["out"].read_text(encoding="utf-8")
        stderr = output["err"].read_text(encoding="utf-8")
        expect = self.workload.expect[(self.call.split("-")[0], self.name)]
        status, reason = checks.check_cli(output["code"], stdout, stderr, expect)
        nulls = 0
        if self.call == "compare" and status == checks.OK:
            nulls = _null_tables(json.loads(stdout))
        return status, reason, nulls


class CliCorpus:
    name = "cli-corpus"
    ROUND_S = 8.5
    DENSE_N, DENSE_M = 8, 15

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.root, self.seed, self.tmp = root, seed, tmp
        self.counter = 0
        self.fixtures = sorted((root / "fixtures").glob("*.json"))
        if not self.fixtures:
            raise FileNotFoundError(f"no fixtures under {root / 'fixtures'}")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.expect: dict = {}

    def setup(self):
        from semicoh.iojson import canonical_dumps, group_to_json_dict

        self.dense_spec = GroupStream(self.seed, self.name).next(self.DENSE_N, self.DENSE_M)
        self.dense_path = self.tmp / "dense-n8.json"
        self.dense_path.write_text(canonical_dumps(group_to_json_dict(self.dense_spec)),
                                   encoding="utf-8")

    def round(self, r: int):
        ops = []
        for path in self.fixtures:
            name, rel = path.stem, os.path.relpath(path, self.root)
            cache = self.tmp / "cache" / f"r{r}-{name}"
            ops.append(CliOp(self, "analyze-cold", name, ["analyze", rel], cache))
            ops.append(CliOp(self, "analyze-cached", name, ["analyze", rel], cache))
            compare = ["compare", "--format", "json", rel]
            if name == "z5_z6":
                compare[1:1] = ["--max-degree", "12"]
            ops.append(CliOp(self, "compare", name, compare, cache))
        rel = os.path.relpath(self.dense_path, self.root)
        args = ["analyze", "--engine", "oracle", rel]
        cache = self.tmp / "cache" / f"r{r}-dense"
        ops.append(CliOp(self, "analyze-cold", "dense-n8", args, cache))
        ops.append(CliOp(self, "analyze-cached", "dense-n8", args, cache))
        return ops

    def expectations(self):
        """The library's own rendering of every answer the CLI must print."""
        from semicoh.engines import build_table
        from semicoh.errors import InputError, NonIntegralOrbitCount
        from semicoh.iojson import parse_group_document, table_markdown
        from semicoh.oracle import e2_table
        from semicoh.report import compare_report, render_report_json

        golden_path = self.root / "tests" / "golden" / "z5_z6_compare.json"
        for path in self.fixtures:
            name = path.stem
            try:
                spec = parse_group_document(path.read_text(encoding="utf-8"))
            except InputError:
                refusal = checks.CliExpectation(refusal=True)
                self.expect[("analyze", name)] = self.expect[("compare", name)] = refusal
                continue
            top = spec.n + 3
            engines = ("formula-published", "formula-corrected", "oracle")
            try:
                text = "\n".join(table_markdown(build_table(spec, top, e)) for e in engines)
                self.expect[("analyze", name)] = checks.CliExpectation(stdout=text)
            except NonIntegralOrbitCount as exc:
                self.expect[("analyze", name)] = checks.CliExpectation(
                    note=f"the library raises {type(exc).__name__} for this input"
                )
            golden = None
            if name == "z5_z6":
                top = 12
                golden = golden_path.read_text(encoding="utf-8")
            self.expect[("compare", name)] = checks.CliExpectation(
                stdout=render_report_json(compare_report(spec, top)), golden=golden
            )
        self.expect[("analyze", "dense-n8")] = checks.CliExpectation(
            stdout=table_markdown(e2_table(self.dense_spec, self.DENSE_N + 3))
        )

    def smith_probe_spec(self):
        return self.dense_spec


WORKLOADS = {w.name: w for w in (CliCorpus, OracleDense, RanksWide)}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def closed_loop(workload, seconds: float, tracer=None):
    """Run whole rounds of ops for about ``seconds``, then check every output.

    The number of rounds is ``seconds / workload.ROUND_S``, at least two,
    so the parent and a change run the same ops and the same mix; a round
    is never cut short.  ``ROUND_S`` is a workload's seconds per round as
    measured when the benchmark was defined (Python 3.11 on a 2-CPU x86-64
    sandbox), so faster code finishes the same work sooner.  A run stops
    early only when its next round would end after ``MAX_STRETCH`` times
    ``seconds``, so that slower code or a slower machine still ends in time.
    With a tracer, even rounds run traced and odd rounds untraced, so one
    run yields both the layer spans and the tracing overhead.
    """
    records, outputs = [], []
    start = time.perf_counter()
    for r in range(max(2, round(seconds / workload.ROUND_S))):
        elapsed = time.perf_counter() - start
        if r and elapsed + elapsed / r > MAX_STRETCH * seconds:
            break
        traced = tracer is not None and r % 2 == 0
        with tracer.installed() if traced else nullcontext():
            for op in workload.round(r):
                op.prepare()
                index = len(records)
                if traced:
                    tracer.op = index
                    c0, t0 = time.process_time(), time.perf_counter()
                    with tracer.span("op") as sid:
                        out = op.run(True)
                    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                else:
                    c0, t0 = time.process_time(), time.perf_counter()
                    out = op.run(False)
                    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                record = OpRecord(index, op.kind, r, traced, wall, cpu)
                if isinstance(out, dict) and out.get("spans"):
                    with open(out["spans"], encoding="utf-8") as handle:
                        child = json.load(handle)
                    tracer.adopt(child["spans"], child["counters"], parent=sid, op=index)
                if isinstance(out, dict):
                    record.rss_kb = out["rss_kb"]
                    record.cpu += out["cpu"]
                records.append(record)
                outputs.append((op, out))
    if tracer is not None:
        tracer.op = None
    for record, (op, out) in zip(records, outputs):
        record.status, record.reason, record.null_tables = op.check(out)
    return records
