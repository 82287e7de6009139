"""Self-time arithmetic: from recorded spans to per-layer tables.

Spans of one operation (a grid repetition, a fleet run, one service
request) share a request id. Within a thread a span's parent is the
span that enclosed it. A span that opened with nothing enclosing it on
its own thread -- a pool worker's chunk, the server side of a request --
is linked to the deepest span of the same request in the root's
process whose interval contains it, or else to the operation's root.

A layer's self time is its span's interval minus the union of its child
intervals, children in other processes included. Where children run in
parallel (two pool workers), their wall time is split evenly among the
spans active at each instant, so the table of one operation always
sums to the operation's wall time: it says where the wall time went.

An orchestration span (``run_grid``) whose children ran in pool workers
reports its self time as ``engine.dispatch``: forking, pickling and
waiting on the pool, plus the bookkeeping around it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from spans import Span

ROOT = "op"
OTHER = "op.other"
ORCHESTRATION = "engine.orchestration"
DISPATCH = "engine.dispatch"


class OpTree:
    """One operation's spans, linked into a tree under its root."""

    def __init__(self, root: Span, members: List[Span], parent: Dict[str, str]):
        self.root = root
        self.members = members
        self.parent = parent  # span id -> parent span id
        self.by_id = {s.id: s for s in members}
        #: Spans with children in another process (pool workers).
        self.pooled = {
            p for s in members
            if (p := parent.get(s.id)) is not None and self.by_id[p].pid != s.pid
        }

    @property
    def wall(self) -> float:
        return self.root.duration

    def layer(self, span: Span) -> str:
        """The table row a span is charged to."""
        if span.name == ROOT:
            return OTHER
        if span.name == ORCHESTRATION and span.id in self.pooled:
            return DISPATCH
        return span.name


def build_trees(spans: Iterable[Span]) -> List[OpTree]:
    """Group spans by request id and link each group under its root.

    Request ids are inherited along in-thread parents; groups without
    an ``op`` root (warm-up traffic, set-up) are dropped.
    """
    spans = sorted(spans, key=lambda s: (s.start, -s.end))
    by_id = {s.id: s for s in spans}
    for span in spans:  # parents start before their children
        if span.rid is None and span.parent in by_id:
            span.rid = by_id[span.parent].rid
    groups: Dict[object, List[Span]] = defaultdict(list)
    for span in spans:
        if span.rid is not None:
            groups[span.rid].append(span)
    trees = []
    for members in groups.values():
        roots = [s for s in members if s.name == ROOT]
        if len(roots) == 1:
            trees.append(_link(roots[0], members))
    trees.sort(key=lambda tree: tree.root.start)
    return trees


def _link(root: Span, members: List[Span]) -> OpTree:
    """Parent links for one request: in-thread first, else containment."""
    ids = {s.id for s in members}
    parent: Dict[str, str] = {}
    stacks: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in members:  # sorted by (start, -end)
        key = (span.pid, span.tid)
        own = stacks[key]
        while own and own[-1].end <= span.start:
            own.pop()
        if span is not root:
            if span.parent in ids:
                parent[span.id] = span.parent
            else:
                best: Optional[Span] = None
                for other_key, other in stacks.items():
                    # Callers live in the root's process: one pool
                    # worker's span never encloses another's work.
                    if other_key == key or other_key[0] != root.pid:
                        continue
                    while other and other[-1].end < span.start:
                        other.pop()
                    for candidate in reversed(other):
                        if candidate.end >= span.end:
                            if best is None or candidate.start > best.start:
                                best = candidate
                            break
                parent[span.id] = (best or root).id
        own.append(span)
    return OpTree(root, members, parent)


def self_times(tree: OpTree) -> Dict[str, float]:
    """Seconds of the root's wall time attributed to each layer.

    Sweeps the span boundaries inside the root interval; between two
    boundaries the elapsed time is split evenly among the active spans
    that have no active child. Sums to the root's duration.
    """
    r0, r1 = tree.root.start, tree.root.end
    events = []
    for span in tree.members:
        a, b = max(span.start, r0), min(span.end, r1)
        if b > a or span is tree.root:
            events.append((a, 1, -b, span))
            events.append((b, 0, -a, span))
    events.sort(key=lambda e: e[:3])

    totals: Dict[str, float] = defaultdict(float)
    active_children: Dict[str, int] = defaultdict(int)
    active = set()
    leaves: Dict[str, Span] = {}
    t_prev = r0
    for t, is_start, _, span in events:
        if leaves and t > t_prev:
            share = (t - t_prev) / len(leaves)
            for leaf in leaves.values():
                totals[tree.layer(leaf)] += share
        t_prev = max(t_prev, t)
        p = tree.parent.get(span.id)
        if is_start:
            active.add(span.id)
            leaves[span.id] = span
            if p in active:
                active_children[p] += 1
                leaves.pop(p, None)
        else:
            active.discard(span.id)
            leaves.pop(span.id, None)
            if p in active:
                active_children[p] -= 1
                if active_children[p] == 0:
                    leaves[p] = tree.by_id[p]
    return dict(totals)


def counts(tree: OpTree) -> Dict[str, float]:
    """Per-operation call counts and summed span attributes.

    ``<layer>.calls`` for every layer, plus ``<layer>.<attr>`` sums of
    numeric attributes (``bytes``, ``hit``, ``chunks``).
    """
    out: Dict[str, float] = defaultdict(float)
    for span in tree.members:
        name = tree.layer(span)
        out[f"{name}.calls"] += 1
        for key, value in span.attrs.items():
            out[f"{name}.{key}"] += float(value)
    return dict(out)


def child_busy_frac(tree: OpTree) -> Optional[float]:
    """Pool-worker busy share of the orchestration interval.

    Summed span time of the worker processes divided by (workers that
    ran x orchestration interval); ``None`` without pool workers.
    """
    busy = interval = 0.0
    pids = set()
    for span in tree.members:
        if tree.layer(span) != DISPATCH:
            continue
        interval += span.duration
        for child in tree.members:
            if tree.parent.get(child.id) == span.id and child.pid != span.pid:
                busy += child.duration
                pids.add(child.pid)
    if not pids:
        return None
    return busy / (len(pids) * interval)


def chrome_trace(spans: Sequence[Span], path: Path,
                 process_names: Optional[Dict[int, str]] = None) -> None:
    """Write ``spans`` as one Chrome trace (``chrome://tracing``/Perfetto)."""
    origin = min((s.start for s in spans), default=0.0)
    events: List[Dict[str, object]] = []
    for pid, name in (process_names or {}).items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
    for span in spans:
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": span.pid,
            "tid": span.tid,
            "args": {"rid": str(span.rid), **span.attrs},
        })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
