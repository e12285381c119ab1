"""ASCII sequence diagrams in the style of the paper's figures.

The paper's Figures 2-4 draw one time column per processor with events
and message arrows between them.  :func:`render_sequence_diagram` turns a
recorded :class:`~repro.harness.traces.TraceRecorder` stream for one
cache line into the same layout::

        time  P0                P1                P2
        ----  ----------------  ----------------  ----------------
          20  LL ->LPRFO
          32                    defer(P0)
          42  <~tearoff
          ...

Events are abbreviated; message-ish events carry an arrow marker
(``->`` outgoing request, ``<~`` speculative response, ``<=`` data
arrival).  This is a *renderer*: it never re-simulates, so it shows
exactly what happened.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.harness.traces import TraceRecorder
from repro.telemetry import TelemetryEvent

#: event kind -> short label template (info fields in {braces})
_LABELS: Dict[str, str] = {
    "ll": "LL={value}",
    "sc": "SC {ok}",
    "store": "ST={value}",
    "swap": "SWAP",
    "enqolb": "EnQOLB={value}",
    "deqolb": "DeQOLB",
    "defer": "defer(P{requester})",
    "tearoff": "~>tearoff(P{to})",
    "tearoff_recv": "<~tearoff",
    "handoff": "=>P{to} [{reason}]",
    "fill": "<=fill({state})",
    "queued": "queued",
    "successor": "succ=P{successor}",
    "squash": "squash!",
    "queue_breakdown": "breakdown!",
    "timeout": "TIMEOUT",
    "release": "release",
    "loan": "loan->P{to}",
    "loan_return": "return->P{to}",
    "loan_back": "<=returned",
    "push": "push->P{to}",
    "push_recv": "<=push",
    "evict_handoff": "evict=>P{to}",
}


def _label(event: TelemetryEvent) -> str:
    template = _LABELS.get(event.kind)
    if template is None:
        if event.kind.startswith("bus:"):
            return f"->{event.kind[4:]}"
        return event.kind
    info = dict(event.info)
    if event.kind == "sc":
        info["ok"] = "ok" if info.get("success") else "FAIL"
    try:
        return template.format(**info)
    except (KeyError, IndexError):
        return event.kind


def render_sequence_diagram(
    recorder: TraceRecorder,
    line_addr: int,
    n_processors: int,
    column_width: int = 18,
    limit: Optional[int] = None,
    collapse_spins: bool = True,
) -> str:
    """Render the recorded events for one line as per-processor columns.

    ``collapse_spins`` folds runs of identical spin events (repeated LLs
    of the same value on one node) into a single ``... xN`` row, which is
    what makes IQOLB's local-spinning phases legible.
    """
    events = recorder.filtered(line_addr=line_addr)
    if limit is not None:
        events = events[:limit]

    rows: List[tuple] = []  # (time, node, label)
    spin_run = 0
    previous_key = None
    for event in events:
        label = _label(event)
        key = (event.node, event.kind, label)
        if collapse_spins and key == previous_key and event.kind in ("ll", "enqolb"):
            spin_run += 1
            continue
        if spin_run:
            last_time, last_node, last_label = rows[-1]
            rows[-1] = (last_time, last_node, f"{last_label} x{spin_run + 1}")
            spin_run = 0
        rows.append((event.time, event.node, label))
        previous_key = key
    if spin_run and rows:
        last_time, last_node, last_label = rows[-1]
        rows[-1] = (last_time, last_node, f"{last_label} x{spin_run + 1}")

    header = "time".rjust(8) + "  " + "  ".join(
        f"P{p}".ljust(column_width) for p in range(n_processors)
    )
    rule = "-" * 8 + "  " + "  ".join("-" * column_width for _ in range(n_processors))
    lines = [header, rule]
    for time, node, label in rows:
        cells = [" " * column_width] * n_processors
        if 0 <= node < n_processors:
            cells[node] = label[:column_width].ljust(column_width)
        lines.append(f"{time:>8}  " + "  ".join(cells))
    return "\n".join(lines)
