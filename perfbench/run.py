"""The semicoh benchmark: one command, three workloads, every output checked.

Usage (from the root of a source checkout; nothing needs installing):

    python3 perfbench/run.py --workload oracle-dense --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1
    python -m pytest perfbench/tests        # the checker's self-test

Workloads (see workloads.py): ``cli-corpus``, ``oracle-dense``,
``ranks-wide``; ``all`` runs each in a fresh process.  Inputs come from
the seed alone.  Every op is one closed-loop call; outputs are checked
after the loop.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones from a traced
run.  The lines before it give every metric by name and unit (also the
error rate, the tail's sample count and, on cli-corpus, the median time
of each kind of call), the environment and the checks; the same is
written to ``.perfbench_runs/result-<workload>-s<seed>-t<trace>.json``
and, when traced, the raw spans to
``.perfbench_runs/spans-<workload>-s<seed>.jsonl``.

BLAS/OpenMP thread variables are set to 1 before numpy is imported, here
and in every child process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 7
CLI_PROBES = 5
SMITH_PROBES = 3

for _var in THREAD_VARS:
    os.environ[_var] = "1"

END_TO_END_UNITS = {"setup_s": "s", "groups_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}


def _require_source():
    """Exit 2 unless the package source and fixtures are beside the benchmark."""
    missing = [p for p in (ROOT / "src" / "semicoh" / "__init__.py", ROOT / "fixtures")
               if not p.exists()]
    if missing:
        print(f"error: not a semicoh checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import semicoh

    if Path(semicoh.__file__).resolve().parent != (ROOT / "src" / "semicoh").resolve():
        print(f"error: imported semicoh from {semicoh.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-corpus", "oracle-dense", "ranks-wide", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "client": "closed loop, one client",
    }


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def time_setup(args) -> list[float]:
    """Wall time from spawning a fresh benchmark process to its first op ready."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code:
            raise RuntimeError(f"set-up probe failed with exit {code}")
    return times


def cli_probes() -> dict:
    """Median start-up costs that every command-line call pays.

    ``cli.interpreter_s`` is the wall time of ``python -c pass``; the import
    times are measured inside a fresh interpreter around the import alone.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(code: str):
        return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True, timeout=120)

    def bare() -> float:
        start = time.perf_counter()
        run("pass")
        return time.perf_counter() - start

    def import_time(module: str) -> float:
        code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
        return float(run(code).stdout)

    return {
        "cli.interpreter_s": statistics.median(bare() for _ in range(CLI_PROBES)),
        "cli.import_s": statistics.median(import_time("semicoh.cli") for _ in range(CLI_PROBES)),
        "cli.import_numpy_s": statistics.median(import_time("numpy") for _ in range(CLI_PROBES)),
    }


def smith_probe(spec) -> tuple[float, int]:
    """smith_normal_form on psi - 1 for the largest exterior layer of spec."""
    from semicoh.intmat import IntMatrix, contragredient, smith_normal_form, wedge_power

    psi = wedge_power(contragredient(spec.phi), spec.n // 2)
    a = psi - IntMatrix.identity(psi.rows)
    times = []
    for _ in range(SMITH_PROBES):
        start = time.perf_counter()
        smith_normal_form(a)
        times.append(time.perf_counter() - start)
    return statistics.median(times), psi.rows


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with >= 10 beyond.

    Below 21 samples no such percentile lies above the median; the median
    is reported then, with its count beyond.
    """
    ordered = sorted(values)
    k = max(len(ordered) - 11, (len(ordered) - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def end_to_end(records, setup_times, peak_rss_kb) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run, and what is printed beside them.

    ``op_p50_s`` is the median over op kinds of each kind's median time.
    Every kind runs equally often, so it estimates the same median as the
    pooled ops; on oracle-dense the pooled median falls in the gap between
    the n=8 and n=9 op times and so swings with the slowest n=8 and the
    fastest n=9 op, which this estimate does not.
    """
    walls = [r.wall for r in records]
    tail_value, tail_pct, beyond = tail(walls)
    by_kind = _by_kind(records)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "groups_per_s": len(walls) / sum(walls),
        "op_p50_s": statistics.median(statistics.median(v) for v in by_kind.values()),
        "op_tail_s": tail_value,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    failed = sum(checks.counts_as_failed(r.status) for r in records)
    extra = {
        "error_rate": f"{failed}/{len(records)} = {failed / len(records):.4f}",
        "op_tail": f"p{tail_pct:.1f} of {len(walls)} ops, {beyond} beyond it",
        "setup_samples_s": setup_times,
    }
    for call in ("analyze-cold", "analyze-cached", "compare"):
        walls_of = [r.wall for r in records if r.kind.startswith(call + ":")]
        if walls_of:
            name = {"analyze-cold": "cli_cold_s", "analyze-cached": "cli_cached_s",
                    "compare": "cli_compare_s"}[call]
            extra[name] = statistics.median(walls_of)
    return metrics, extra


def _by_kind(records) -> dict:
    kinds: dict = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.wall)
    return kinds


def per_layer(tracer, records, probes) -> tuple[dict, dict]:
    from tracer import SPAN_METRICS, self_times

    traced = [r for r in records if r.traced]
    ops = {r.index for r in traced}
    totals = self_times(tracer.spans, ops)
    count = max(len(traced), 1)
    metrics = {name: totals.get(name, 0.0) / count for name in SPAN_METRICS}
    c = tracer.counters
    metrics["oracle.layer_dim_max"] = c["oracle.layer_dim_max"]
    metrics["oracle.work_units"] = c["oracle.work_units"] / max(c["oracle.tables"], 1)
    metrics["torsion.null_tables"] = sum(r.null_tables for r in records)
    metrics["cache.hit_ratio"] = c["cache.hits"] / max(c["cache.lookups"], 1)
    metrics.update(probes)
    # tracing overhead: traced against untraced rounds, matched by op kind
    on, off = _by_kind(traced), _by_kind([r for r in records if not r.traced])
    both = sorted(set(on) & set(off))
    metrics["trace.overhead"] = (
        sum(statistics.fmean(on[k]) for k in both) / sum(statistics.fmean(off[k]) for k in both)
        - 1.0 if both else 0.0
    )
    wall = sum(r.wall for r in traced)
    span_wall = sum(end - start for _, name, start, end, _, op in tracer.spans
                    if name == "op" and op in ops)
    accounted = sum(totals.values())
    extra = {
        "traced_ops": len(traced),
        "untraced_ops": len(records) - len(traced),
        "overhead_kinds_matched": len(both),
        "op_wall_s": wall,
        "self_time_sum_s": accounted,
        "accounting_residual_s": span_wall - accounted,
        "shares": {k: v / wall for k, v in sorted(totals.items(), key=lambda kv: -kv[1])},
        "cache_lookups": c["cache.lookups"],
    }
    return metrics, extra


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    import workloads
    from tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, tmp)
        if args.setup_probe:
            workload.setup()
            print("ready", flush=True)
            return 0
        setup_times = None if args.trace else time_setup(args)
        workload.setup()
        workload.expectations()
        tracer = Tracer() if args.trace else None
        records = workloads.closed_loop(workload, args.seconds, tracer)
        if args.trace:
            smith_s, smith_dim = smith_probe(workload.smith_probe_spec())
            probes = {"intmat.smith_s": smith_s, "intmat.smith_dim": smith_dim}
            probes.update(cli_probes())
            metrics, extra = per_layer(tracer, records, probes)
            units = {k: _unit(k) for k in metrics}
        else:
            # the user's process: each command-line call, or this one
            if args.workload == "cli-corpus":
                peak_kb = max(r.rss_kb for r in records)
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics, extra = end_to_end(records, setup_times, peak_kb)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [r for r in records if checks.counts_as_failed(r.status)]
    wrong = [r for r in records if r.status == checks.WRONG]
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "extra": extra,
        "result": result,
        "statuses": dict(Counter(r.status for r in records)),
        "failures": sorted({f"{r.kind}: {r.reason}" for r in failed}),
        "ops": [vars(r) for r in records],
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl",
                    {k: detail[k] for k in ("workload", "seed", "seconds", "environment")})
    _print_summary(detail)
    print(json.dumps(result), flush=True)
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in ("cache.hit_ratio", "trace.overhead") else "count"


def _print_summary(detail: dict):
    env = detail["environment"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"seconds {detail['seconds']}  trace {detail['trace']}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"{env['usable_cpus']}/{env['cpu_count']} cpus, threads "
          + ",".join(f"{k}={v}" for k, v in env["threads"].items()))
    for name, m in detail["result"]["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for name, value in detail["extra"].items():
        if name == "shares":
            print("  self-time shares of traced op wall time:")
            for k, v in value.items():
                print(f"    {k:30s} {100 * v:6.2f}%")
        elif isinstance(value, float):
            print(f"  {name:28s} {value:.6g}" + (" s" if name.endswith("_s") else ""))
        else:
            print(f"  {name:28s} {value}")
    print(f"checks: {detail['statuses']}")
    for failure in detail["failures"]:
        print(f"  failed: {failure}")


def run_all(args) -> int:
    """Each workload in a fresh process; prints their summaries in turn."""
    results, code = {}, 0
    for name in ("cli-corpus", "oracle-dense", "ranks-wide"):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
    print(json.dumps(results), flush=True)
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    _require_source()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
