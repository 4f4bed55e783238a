"""In-memory spans around the calls into each layer's public functions.

A span is ``(id, name, start, end, parent, op)``.  Spans are recorded only
while ``Tracer.installed()`` is active: it rebinds, in the calling
modules' namespaces, the public functions one layer calls in another
(the table ``CALL_SITES`` below) to wrappers that open a span, call the
original and close the span.  The package's source is untouched and the
originals are restored on exit.  Spans stay in memory until ``dump``.

A layer's self time is its span's duration minus the durations of its
direct children; ``self_times`` sums them per metric name.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from math import comb


def _torsion_name(args, kwargs) -> str:
    variant = args[3] if len(args) > 3 else kwargs["variant"]
    return f"torsion.{variant}"


def _formula_name(args, kwargs) -> str:
    variant = args[2] if len(args) > 2 else kwargs["variant"]
    return f"torsion.{variant}"


# (calling module, attribute, span name).  A span name is either a string
# or a function of the call's arguments.
CALL_SITES = (
    ("semicoh.report", "compare_report", "report.compare_report"),
    ("semicoh.report", "render_report_json", "report.render_report_json"),
    ("semicoh.report", "validate", "groups.validate"),
    ("semicoh.report", "rank_column", "engines.rank_column"),
    ("semicoh.report", "molien_column", "engines.molien_column"),
    ("semicoh.report", "e2_table", "oracle.e2_table"),
    ("semicoh.report", "rst_decompose", "groups.rst_decompose"),
    ("semicoh.report", "isotropy_data", "groups.isotropy_data"),
    ("semicoh.report", "assemble_p_torsion", _torsion_name),
    ("semicoh.report", "canonical_dumps", "iojson.canonical_dumps"),
    ("semicoh.engines", "validate", "groups.validate"),
    ("semicoh.engines", "rank_column", "engines.rank_column"),
    ("semicoh.engines", "molien_column", "engines.molien_column"),
    ("semicoh.engines", "formula_table", _formula_name),
    ("semicoh.engines", "build_table", "engines.build_table"),
    ("semicoh.engines", "e2_table", "oracle.e2_table"),
    ("semicoh.engines", "count_wedge_roots", "cyclotomic.count_wedge_roots"),
    ("semicoh.engines", "molien_rank", "cyclotomic.molien_rank"),
    ("semicoh.engines", "assemble_p_torsion", _torsion_name),
    ("semicoh.oracle", "validate", "groups.validate"),
    ("semicoh.oracle", "wedge_power", "oracle.wedge_power"),
    ("semicoh.oracle", "CyclicRep", "oracle.CyclicRep"),
    ("semicoh.oracle", "cyclic_cohomology", "oracle.cyclic_cohomology"),
    ("semicoh.torsion", "rst_decompose", "groups.rst_decompose"),
    ("semicoh.torsion", "isotropy_data", "groups.isotropy_data"),
    ("semicoh.iojson", "validate", "groups.validate"),
    # the benchmark's own calls into layers it reaches directly
    ("semicoh.iojson", "render_table", "iojson.render_table"),
    ("semicoh.groups", "rst_decompose", "groups.rst_decompose"),
    ("semicoh.groups", "isotropy_data", "groups.isotropy_data"),
    ("semicoh.cli", "load_group_file", "iojson.load_group_file"),
    ("semicoh.cli", "parse_table", "iojson.parse_table"),
    ("semicoh.cli", "render_table", "iojson.render_table"),
    ("semicoh.cli", "table_markdown", "iojson.table_markdown"),
    ("semicoh.cli", "table_to_dict", "iojson.table_to_dict"),
    ("semicoh.cli", "canonical_dumps", "iojson.canonical_dumps"),
    ("semicoh.cli", "cache_key", "cache.cache_key"),
    ("semicoh.cli", "cache_get", "cache.cache_get"),
    ("semicoh.cli", "cache_put", "cache.cache_put"),
    ("semicoh.cli", "build_table", "engines.build_table"),
    ("semicoh.cli", "compare_report", "report.compare_report"),
    ("semicoh.cli", "render_report_json", "report.render_report_json"),
    ("semicoh.cli", "rank_column", "engines.rank_column"),
    ("semicoh.cli", "molien_column", "engines.molien_column"),
)

# span name -> per-layer metric that its self time is charged to
METRIC_OF = {
    "oracle.e2_table": "oracle.table_s",
    "oracle.wedge_power": "oracle.wedge_s",
    "oracle.CyclicRep": "oracle.rep_check_s",
    "oracle.cyclic_cohomology": "oracle.reduce_s",
    "engines.molien_column": "cyclotomic.molien_s",
    "cyclotomic.molien_rank": "cyclotomic.molien_s",
    "engines.rank_column": "cyclotomic.wedge_rank_s",
    "cyclotomic.count_wedge_roots": "cyclotomic.wedge_rank_s",
    "torsion.published": "torsion.published_s",
    "torsion.corrected": "torsion.corrected_s",
    "groups.validate": "groups.validate_s",
    "groups.rst_decompose": "groups.rst_s",
    "groups.isotropy_data": "groups.isotropy_s",
    "report.compare_report": "report.self_s",
    "report.render_report_json": "report.self_s",
    "iojson.canonical_dumps": "iojson.render_s",
    "iojson.render_table": "iojson.render_s",
    "iojson.table_markdown": "iojson.render_s",
    "iojson.table_to_dict": "iojson.render_s",
    "iojson.load_group_file": "iojson.parse_s",
    "iojson.parse_table": "iojson.parse_s",
    "cache.cache_key": "cache.get_s",
    "cache.cache_get": "cache.get_s",
    "cache.cache_put": "cache.put_s",
    "op": "op.untraced_s",
}

SPAN_METRICS = tuple(dict.fromkeys(METRIC_OF.values()))


class Tracer:
    """Records spans and per-layer counters for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters = {"cache.hits": 0, "cache.lookups": 0, "oracle.tables": 0,
                         "oracle.work_units": 0, "oracle.layer_dim_max": 0}
        self._stack: list[int] = []
        self._next_id = 0
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with tracer.span(label):
                result = fn(*args, **kwargs)
            tracer._count(label, args, result)
            return result

        return traced

    def _count(self, label, args, result):
        c = self.counters
        if label == "cache.cache_get":
            c["cache.lookups"] += 1
            c["cache.hits"] += result is not None
        elif label == "oracle.e2_table":
            c["oracle.tables"] += 1
        elif label == "oracle.wedge_power":
            dim = comb(args[0].rows, args[1])
            c["oracle.work_units"] += dim**3
            c["oracle.layer_dim_max"] = max(c["oracle.layer_dim_max"], dim)

    @contextmanager
    def installed(self):
        """Rebind every call site in ``CALL_SITES`` to a traced wrapper."""
        saved = []
        try:
            for module_name, attr, name in CALL_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def adopt(self, spans, counters, parent: int, op: int):
        """Merge spans recorded by a child process under ``parent``."""
        offset = self._next_id
        for sid, name, start, end, par, _ in spans:
            self.spans.append(
                (sid + offset, name, start, end, parent if par is None else par + offset, op)
            )
            self._next_id = max(self._next_id, sid + offset + 1)
        for key, value in counters.items():
            if key == "oracle.layer_dim_max":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def dump(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": header, "counters": self.counters}) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")


def self_times(spans, ops) -> dict[str, float]:
    """Sum of self time per metric over the spans of the ops in ``ops``.

    Span names missing from ``METRIC_OF`` are charged to ``other:<name>``.
    """
    child_total: dict[int, float] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + (end - start)
    totals: dict[str, float] = {}
    for sid, name, start, end, _, op in spans:
        if op not in ops:
            continue
        key = METRIC_OF.get(name, f"other:{name}")
        totals[key] = totals.get(key, 0.0) + (end - start) - child_total.get(sid, 0.0)
    return totals
