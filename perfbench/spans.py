"""Span recorder for traced passes, and the per-layer numbers derived from it.

hopfcalc itself is not changed.  ``Tracer.install`` replaces the public
functions listed in ``WRAPPED`` on the module objects whose code calls
them, so every call made through those names records a span; the
benchmark opens further spans around its own calls into a layer
(``Tracer.span``).  Spans stay in memory until the pass ends.

Self time is shared out by wall clock: at each instant the time is
split evenly between the open spans that have no open child, in any
thread.  The shares of all spans inside a pass therefore add up to the
pass wall time exactly, also when the ``table`` thread pool runs two
cells at once.  Time no layer span covers is ``unattributed_s``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module whose code makes the call, attribute, span name); the span name
# starts with the layer that owns the function
WRAPPED = (
    ("hopfcalc.hopf", "initial_rules", "rewrite.initial_rules"),
    ("hopfcalc.hopf", "knuth_bendix", "rewrite.knuth_bendix"),
    ("hopfcalc.hopf", "group_order", "rewrite.group_order"),
    ("hopfcalc.hopf", "reduce_with_allowance", "rewrite.reduce_with_allowance"),
    ("hopfcalc.hopf", "build_p_cover", "hopf.build_p_cover"),
    ("hopfcalc.fplinalg", "rank", "fplinalg.rank"),
    ("hopfcalc.fplinalg", "left_kernel_basis", "fplinalg.left_kernel_basis"),
    ("hopfcalc.oracle", "run_pipeline", "hopf.run_pipeline"),
    ("hopfcalc.oracle", "initial_rules", "rewrite.initial_rules"),
    ("hopfcalc.oracle", "knuth_bendix", "rewrite.knuth_bendix"),
    ("hopfcalc.oracle", "multiplication_table", "oracle.multiplication_table"),
    ("hopfcalc.oracle", "bar_h1", "oracle.bar_h1"),
    ("hopfcalc.oracle", "bar_h2", "oracle.bar_h2"),
    ("hopfcalc.cli", "run_pipeline", "hopf.run_pipeline"),
)
ROOT = "bench.pass"
SELF_LAYERS = ("rewrite", "hopf", "fplinalg", "oracle", "cli")


class Tracer:
    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self.reports: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        # identity, not equality: a presentation is a cover exactly when
        # it is the object build_p_cover returned
        self._covers: dict[int, object] = {}
        self._kinds: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        else:
            # a pool thread's first span belongs to the span that
            # was open in the main thread when the work was handed over
            try:
                parent = self._main_stack[-1]["id"]
            except IndexError:
                parent = None
        rec = {
            "pass": self.pass_id,
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "thread": threading.get_native_id(),
            **attrs,
        }
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, module_name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, site: str):
        after = getattr(self, "_after_" + name.split(".", 1)[1], None)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if after is not None:
                after(rec, site, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # counters read at the same boundaries as the spans

    def _after_build_p_cover(self, rec, site, args, result):
        self._covers[id(result)] = result
        rec["relators"] = len(result.relators)

    def _after_initial_rules(self, rec, site, args, result):
        if site == "hopfcalc.oracle":
            kind = "oracle"
        else:
            kind = "cover" if id(args[0]) in self._covers else "base"
        self._kinds[result] = kind
        rec["kind"] = kind

    def _after_knuth_bendix(self, rec, site, args, result):
        rec["kind"] = self._kinds.get(args[0], "unknown")
        rec["rules"] = len(result.rules)
        rec["steps"] = result.steps
        rec["confluent"] = result.confluent
        rec["max_lhs"] = max((len(lhs) for lhs, _ in result.rules.values()), default=0)

    def _after_group_order(self, rec, site, args, result):
        rec["order"] = result or 0

    def _after_rank(self, rec, site, args, result):
        rec["cells"] = int(np.size(args[0]))

    def _after_left_kernel_basis(self, rec, site, args, result):
        rec["cells"] = int(np.size(args[0]))

    def _after_run_pipeline(self, rec, site, args, result):
        rec["site"] = site
        self.reports.append(result.budget_report)

    def _after_multiplication_table(self, rec, site, args, result):
        rec["order"] = result.order

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in sorted(self.spans, key=lambda r: r["start"]):
                f.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# analysis


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    for v in kids.values():
        v.sort(key=lambda s: s["start"])
    return kids


def _add_synthetic(spans: list[dict], next_id) -> list[dict]:
    """Add the stages no public function marks, as spans of their own.

    ``hopf.search``: the spanning-set search, from the end of the rank
    call before a cell's first normal-form call to the start of the
    rank call after its last one.  ``cli.render``: the end of each
    ``cli.main`` after its last wrapped call returned.
    """
    spans = [dict(s) for s in spans]
    out = list(spans)
    kids = _children(spans)
    for parent_id, group in list(kids.items()):
        nfs = [s for s in group if s["name"] == "rewrite.reduce_with_allowance"]
        if not nfs:
            continue
        first = min(s["start"] for s in nfs)
        last = max(s["end"] for s in nfs)
        ranks = [s for s in group if s["name"] == "fplinalg.rank"]
        start = max((s["end"] for s in ranks if s["end"] <= first), default=first)
        end = min((s["start"] for s in ranks if s["start"] >= last), default=last)
        search = {
            "id": next_id(), "name": "hopf.search", "parent": parent_id,
            "thread": nfs[0]["thread"], "start": start, "end": end,
        }
        for s in group:
            if s["start"] >= start and s["end"] <= end:
                s["parent"] = search["id"]
        out.append(search)
    for s in spans:
        if s["name"] != "cli.main":
            continue
        inner = kids.get(s["id"], [])
        start = max((c["end"] for c in inner), default=s["start"])
        if start < s["end"]:
            out.append({
                "id": next_id(), "name": "cli.render", "parent": s["id"],
                "thread": s["thread"], "start": start, "end": s["end"],
            })
    return out


def _wall_shares(spans: list[dict], root: dict) -> dict[int, float]:
    """Each span's self time, splitting every instant between busy leaves."""
    parent = {s["id"]: s["parent"] for s in spans}
    events = []
    for s in spans:
        events.append((s["start"], 1, s["id"]))
        events.append((s["end"], 0, s["id"]))
    events.sort()
    share = defaultdict(float)
    open_kids = defaultdict(int)
    active: set[int] = set()
    prev = root["start"]
    for t, is_start, sid in events:
        if t > prev and active:
            leaves = [a for a in active if open_kids[a] == 0]
            for a in leaves:
                share[a] += (t - prev) / len(leaves)
        prev = max(prev, t)
        if is_start:
            active.add(sid)
            open_kids[parent[sid]] += 1
        else:
            active.discard(sid)
            open_kids[parent[sid]] -= 1
    return share


def layer_metrics(spans: list[dict], reports: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (spans of the pass root only)."""
    (root,) = [s for s in spans if s["name"] == ROOT]
    wall = root["end"] - root["start"]
    by_id = {s["id"]: s for s in spans}

    def under_root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s is root

    inside = [s for s in spans if under_root(s)]
    counter = itertools.count(max(by_id) + 1)
    inside = _add_synthetic(inside, lambda: next(counter))
    share = _wall_shares(inside, root)
    kids = _children(inside)

    def inclusive(s) -> float:
        return share[s["id"]] + sum(inclusive(c) for c in kids.get(s["id"], ()))

    def named(name, **match):
        return [
            s for s in inside
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]

    def total(name, **match) -> float:
        return sum(inclusive(s) for s in named(name, **match))

    layer_self = defaultdict(float)
    for s in inside:
        layer_self[s["name"].split(".", 1)[0]] += share[s["id"]]
    unattributed = layer_self.pop("bench", 0.0)

    def report_sum(key) -> int:
        return int(sum(r[key] for r in reports))

    def completion_s(kind) -> float:
        # the step counters include the interreduction done while the
        # initial rules are installed, so the time does too
        return total("rewrite.initial_rules", kind=kind) + total(
            "rewrite.knuth_bendix", kind=kind
        )

    kb_pipeline = named("rewrite.knuth_bendix", kind="base") + named(
        "rewrite.knuth_bendix", kind="cover"
    )
    kb_cover_s = completion_s("cover")
    kb_cover_steps = report_sum("cover_steps")
    nf = named("rewrite.reduce_with_allowance")
    removals = report_sum("removals")
    cells = [s for s in named("hopf.run_pipeline") if by_id[s["parent"]]["name"] == "cli.main"]
    bar_ids = {s["id"] for s in named("oracle.bar_h1") + named("oracle.bar_h2")}

    m = {
        "rewrite.kb_base_s": completion_s("base"),
        "rewrite.kb_base_steps": report_sum("base_steps"),
        "rewrite.kb_base_rules": report_sum("base_rules"),
        "rewrite.kb_cover_s": kb_cover_s,
        "rewrite.kb_cover_steps": kb_cover_steps,
        "rewrite.kb_cover_rules": report_sum("cover_rules"),
        "rewrite.kb_cover_us_per_step": 1e6 * kb_cover_s / max(kb_cover_steps, 1),
        "rewrite.kb_cover_max_lhs": max(
            (s["max_lhs"] for s in named("rewrite.knuth_bendix", kind="cover")), default=0
        ),
        "rewrite.kb_confluent_ratio": (
            sum(s["confluent"] for s in kb_pipeline) / len(kb_pipeline) if kb_pipeline else 0.0
        ),
        "rewrite.kb_oracle_s": completion_s("oracle"),
        "rewrite.order_s": total("rewrite.group_order"),
        "rewrite.order_elements": sum(s["order"] for s in named("rewrite.group_order")),
        "hopf.search_s": total("hopf.search"),
        "hopf.search_nf_calls": len(nf),
        "hopf.search_nf_s": sum(inclusive(s) for s in nf),
        "hopf.search_steps": report_sum("search_steps"),
        "hopf.search_removals": removals,
        "hopf.search_exhausted_cells": report_sum("search_exhausted"),
        "hopf.search_removals_per_nf": removals / len(nf) if nf else 0.0,
        "hopf.cover_s": total("hopf.build_p_cover"),
        "hopf.cover_relators": sum(s["relators"] for s in named("hopf.build_p_cover")),
        "fplinalg.rank_s": total("fplinalg.rank"),
        "fplinalg.rank_calls": len(named("fplinalg.rank")),
        "fplinalg.rank_cells": sum(s["cells"] for s in named("fplinalg.rank")),
        "fplinalg.kernel_s": total("fplinalg.left_kernel_basis"),
        "oracle.checks": len(named("oracle.check")),
        "oracle.table_s": total("oracle.multiplication_table"),
        "oracle.bar_s": total("oracle.bar_h1") + total("oracle.bar_h2"),
        "oracle.bar_matrix_entries": sum(
            s["cells"] for s in named("fplinalg.rank") if s["parent"] in bar_ids
        ),
        "cli.threads": len({s["thread"] for s in cells}),
        "cli.cells_in_flight": sum(s["end"] - s["start"] for s in cells) / wall,
        "cli.render_s": total("cli.render"),
    }
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = layer_self.pop(layer, 0.0)
    if layer_self:
        raise ValueError(f"spans of unknown layers: {sorted(layer_self)}")
    m["unattributed_s"] = unattributed
    m["trace.pass_wall_s"] = wall
    m["trace.spans"] = len(inside)
    accounted = sum(m[f"{layer}.self_s"] for layer in SELF_LAYERS) + unattributed
    if abs(accounted - wall) > 1e-6 * max(wall, 1.0):
        raise ArithmeticError(f"self times add up to {accounted}, pass wall is {wall}")
    return m
