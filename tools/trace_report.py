#!/usr/bin/env python
"""Render exported request traces (JSON-lines) as per-request span trees.

The serving stack's tracer (``repro.obs``) exports one JSON object per
sampled-in trace — see ``JsonLinesTraceSink``.  This tool turns that file
back into something a human can read during an incident: one block per
trace, spans indented under their parents, with per-span start offset,
duration, status, and the interesting attributes inline::

    trace t-000017  root=dispatcher.dispatch  12.41ms  kept=slow
      dispatcher.dispatch                      0.00ms +12.410ms
        dispatcher.queue_wait                 -1.92ms  +1.920ms session_id=sess-000003
        engine.recommend_many                  0.03ms +12.300ms sessions=4
          engine.provision                     0.05ms  +9.100ms sessions=4 sampled=1
            pool.fill                          0.40ms  +8.600ms worker_pid=19865
          search.topk                          9.20ms  +2.000ms pools=1 k=3
          engine.serve_round                  11.25ms  +0.250ms session_id=sess-000003

Negative start offsets are real: backdated spans (queue waits) begin before
the root span opened.  Orphaned spans (parent not in the trace) are listed
at the root level rather than dropped.

Usage::

    python tools/trace_report.py traces.jsonl          # render a trace file
    python tools/trace_report.py --selftest            # CI: emit + render + verify

``--selftest`` builds a representative trace through the real tracer,
renders it, and verifies the tree shape — the docs CI job runs it so this
tool cannot drift from the export format.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Span attributes surfaced inline (everything else stays in the file).
INTERESTING_ATTRS = (
    "session_id",
    "sessions",
    "pool_key",
    "key",
    "sampled",
    "maintained",
    "refill",
    "adapted",
    "pools",
    "k",
    "worker_pid",
    "rows",
    "unique_rows",
    "dedup_rate",
    "items_accessed",
    "batch_size",
    "kind",
)


def format_span(span, depth):
    attrs = span.get("attrs", {})
    shown = " ".join(
        f"{name}={attrs[name]}" for name in INTERESTING_ATTRS if name in attrs
    )
    status = "" if span.get("status") == "ok" else f" [{span.get('status')}]"
    indent = "  " * (depth + 1)
    name = f"{indent}{span['name']}"
    timing = f"{span['start_ms']:>9.2f}ms +{span['duration_ms']:.3f}ms"
    return f"{name:<44}{timing}{status}" + (f"  {shown}" if shown else "")


def render_trace(trace):
    """One formatted block (list of lines) for a single trace object."""
    lines = [
        f"trace {trace['trace_id']}  root={trace['root']}  "
        f"{trace['duration_ms']:.2f}ms  kept={trace['kept_because']}"
    ]
    spans = trace.get("spans", [])
    known = {span["span_id"] for span in spans}
    children = {}
    roots = []
    for span in spans:
        parent = span.get("parent_id")
        if parent in known:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)  # the root span, plus any orphans

    def walk(span, depth):
        lines.append(format_span(span, depth))
        for child in children.get(span["span_id"], []):
            walk(child, depth + 1)

    for span in roots:
        walk(span, 0)
    return lines


def render_file(path, out=sys.stdout):
    """Render every trace in a JSON-lines file; returns the trace count."""
    count = 0
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                trace = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(
                    f"error: {path}:{number} is not valid JSON: {exc}"
                )
            if count:
                print(file=out)
            print("\n".join(render_trace(trace)), file=out)
            count += 1
    return count


def selftest():
    """Emit a representative trace through the real tracer and verify it."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.obs import JsonLinesTraceSink, Tracer

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traces.jsonl")
        sink = JsonLinesTraceSink(path)
        tracer = Tracer(sink, slow_ms=0.0, sample_every=1)
        with tracer.span("dispatcher.dispatch", batch_size=2):
            tracer.record_child(
                "dispatcher.queue_wait", 0.002, session_id="sess-000001"
            )
            with tracer.span("engine.recommend_many", sessions=2):
                with tracer.span("engine.provision", sessions=2, sampled=1):
                    tracer.record_child("pool.fill", 0.004, worker_pid=4242)
                with tracer.span("search.topk", pools=1, k=3):
                    pass
        sink.close()

        import io

        buffer = io.StringIO()
        count = render_file(path, out=buffer)
        text = buffer.getvalue()
        print(text)
        assert count == 1, f"expected 1 trace, rendered {count}"
        for needle in (
            "root=dispatcher.dispatch",
            "dispatcher.queue_wait",
            "engine.recommend_many",
            "pool.fill",
            "worker_pid=4242",
            "sampled=1",
            "pools=1 k=3",
        ):
            assert needle in text, f"selftest output missing {needle!r}"
        # The fill span must be indented under engine.provision (depth 3 →
        # 8 leading spaces), proving parent links drive the layout.
        fill_line = next(l for l in text.splitlines() if "pool.fill" in l)
        assert fill_line.startswith(" " * 8), fill_line
    print("trace_report selftest passed")
    return 0


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    if argv[0] == "--selftest":
        return selftest()
    path = argv[0]
    if not os.path.exists(path):
        print(f"error: trace file not found: {path}", file=sys.stderr)
        return 2
    count = render_file(path)
    print(f"\n{count} trace(s) rendered from {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
