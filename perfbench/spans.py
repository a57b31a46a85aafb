"""Span tracer installed from the benchmark's side of the program.

A traced function is replaced by a wrapper on the attribute that its caller
looks up (``resplite.pipeline.gbdt_fit``, ``resplite.advval.gbdt_fit``, ...),
so no file of the program changes.  Spans stay in memory and are written
once, at the end, in Chrome trace-event format (it opens in Perfetto); the
benchmark aggregates them with :func:`summarize`.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time
from contextlib import contextmanager


def _grown_leaves(tree) -> dict:
    # grow_tree returns None when not even the root can be split
    return {"leaves": 0 if tree is None else tree.n_leaves}


def _kept_trees(model) -> dict:
    return {"trees": model.n_trees}


def _dropped(report) -> dict:
    return {"dropped": len(report.dropped())}


def _ingested_rows(tables) -> dict:
    return {"rows": sum(t.n_rows for t in tables)}


#: (module, attribute, span name, annotate) for the timed operation.  The
#: attribute is the name the calling module looks up at call time; a
#: function imported into two modules is wrapped once per caller, and the
#: module is recorded as the span's site.
OPERATION_SPANS = (
    ("resplite.cli", "main", "cli.main", None),
    ("resplite.pipeline", "run", "pipeline.run", None),
    ("resplite.pipeline", "ingest_csv_group", "tabular.ingest_csv_group", _ingested_rows),
    ("resplite.pipeline", "save_binary", "tabular.save_binary", None),
    ("resplite.tabular", "load_binary", "tabular.load_binary", None),
    ("resplite.advval", "audit", "advval.audit", _dropped),
    ("resplite.advval", "adversarial_auc", "advval.adversarial_auc", None),
    ("resplite.advval", "save_report", "advval.save_report", None),
    ("resplite.advval", "filter_features", "advval.filter_features", None),
    ("resplite.advval", "gbdt_fit", "gbdt.fit", _kept_trees),
    ("resplite.advval", "gbdt_predict", "gbdt.predict", None),
    ("resplite.advval", "auc", "metrics.auc", None),
    ("resplite.denoise", "detect_all", "denoise.detect_all", None),
    ("resplite.denoise", "save_estimates", "denoise.save_estimates", None),
    ("resplite.denoise", "correlation_matrix", "denoise.correlation_matrix", None),
    ("resplite.denoise", "apply_denoise_group", "denoise.apply_denoise_group", None),
    ("resplite.encoders", "fit_frequency", "encoders.fit_frequency", None),
    ("resplite.encoders", "fit_target", "encoders.fit_target", None),
    ("resplite.encoders", "save_states", "encoders.save_states", None),
    ("resplite.encoders", "apply_encoders", "encoders.apply_encoders", None),
    ("resplite.pipeline", "gbdt_fit", "gbdt.fit", _kept_trees),
    ("resplite.pipeline", "gbdt_predict", "gbdt.predict", None),
    ("resplite.pipeline", "save_model", "gbdt.save_model", None),
    ("resplite.pipeline", "write_predictions_csv", "report.write_predictions_csv", None),
    ("resplite.pipeline", "report_export", "report.report_export", None),
    ("resplite.pipeline", "save_report_json", "report.save_report_json", None),
    ("resplite.gbdt.boosting", "grow_tree", "gbdt.grow_tree", _grown_leaves),
    ("resplite.gbdt.boosting", "tree_output", "gbdt.tree_output", None),
    ("resplite.gbdt.boosting", "bin_table", "gbdt.bin_table", None),
    ("resplite.gbdt.boosting", "build_bin_mapper", "gbdt.build_bin_mapper", None),
    ("resplite.gbdt.boosting", "logloss", "metrics.logloss", None),
    ("resplite.metrics", "logloss", "metrics.logloss", None),
    ("resplite.metrics", "nce", "metrics.nce", None),
    ("resplite.metrics", "auc", "metrics.auc", None),
    ("resplite.gbdt", "predict", "gbdt.predict", None),
    ("resplite.gbdt", "load_model", "gbdt.load_model", None),
    ("resplite.report", "write_predictions_csv", "report.write_predictions_csv", None),
)

#: spans of the set-up process: input generation (the model fit of the
#: scoring workload is a span of the benchmark's own code)
SETUP_SPANS = (
    ("resplite.pipeline", "generate", "synth.generate", None),
    ("resplite.pipeline", "write_csv", "synth.write_csv", None),
    ("resplite.synth", "generate", "synth.generate", None),
)


class Tracer:
    """Records nested spans (name, site, parent, start, end, peak RSS)."""

    def __init__(self) -> None:
        self._spans: list[dict | None] = []
        self._stack: list[int] = []

    def install(self, table) -> None:
        for module_name, attr, name, annotate in table:
            module = importlib.import_module(module_name)
            site = module_name.split(".")[1]
            setattr(module, attr, self._wrap(getattr(module, attr), name, site, annotate))

    def _wrap(self, fn, name, site, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, site) as attrs:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs.update(annotate(result))
                return result

        return traced

    @contextmanager
    def span(self, name: str, site: str):
        """Time the enclosed block as one span; yields its attribute dict."""
        index = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append(None)
        self._stack.append(index)
        attrs: dict = {}
        start = time.perf_counter_ns()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._spans[index] = {
                "name": name, "site": site, "id": index, "parent": parent,
                "start": start, "end": end,
                # ru_maxrss is in KiB on Linux: the process peak so far
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                **attrs,
            }

    def dump(self, path) -> None:
        """Write every finished span as a Chrome trace-event document."""
        events = []
        for s in self._spans:
            if s is None:
                continue
            args = {k: v for k, v in s.items() if k not in ("name", "start", "end")}
            events.append({
                "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
                "ts": s["start"] / 1000.0, "dur": (s["end"] - s["start"]) / 1000.0,
                "args": args,
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def load(path) -> list[dict]:
    """Spans of a dumped trace, as dicts with ``dur_s`` and ``self_s``."""
    with open(path, "r", encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    spans = {}
    for e in events:
        s = dict(e["args"], name=e["name"], dur_s=e["dur"] / 1e6)
        spans[s["id"]] = s
    child_s: dict[int, float] = {}
    for s in spans.values():
        if s["parent"] in spans:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["dur_s"]
    for s in spans.values():
        s["self_s"] = s["dur_s"] - child_s.get(s["id"], 0.0)
        s["fit_site"] = _ancestor_site(s, spans, "gbdt.fit")
    return sorted(spans.values(), key=lambda s: s["id"])


def _ancestor_site(span: dict, spans: dict, name: str) -> str | None:
    """Site of the nearest enclosing span called ``name`` (or of the span)."""
    while span is not None:
        if span["name"] == name:
            return span["site"]
        span = spans.get(span["parent"])
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(spans: list[dict]) -> list[dict]:
    """Per (name, site) totals: calls, total and self seconds, p50 in ms."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for s in spans:
        groups.setdefault((s["name"], s["site"]), []).append(s)
    rows = []
    for (name, site), members in groups.items():
        durations = [m["dur_s"] for m in members]
        rows.append({
            "name": name, "site": site, "calls": len(members),
            "s": sum(durations), "self_s": sum(m["self_s"] for m in members),
            "p50_ms": percentile(durations, 50) * 1e3,
            "max_rss_mb": max(m["maxrss_kb"] for m in members) / 1024.0,
        })
    return sorted(rows, key=lambda r: -r["s"])
