"""In-memory span tracing around the public boundaries of the nihoval layers.

Wrappers replace module globals and class attributes, so internal calls that
resolve through those names (classify_bent -> are_equivalent, _search ->
geometry.normalize_codes_v, kmul_v -> self.fmul_v) are recorded too.  Each
span keeps its name, start, end, parent, op id, thread and a few counts taken
from its arguments or result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

import numpy as np


def _elems(args, kwargs, result):
    return {"elems": int(np.size(result))}


def _stabilizer_info(args, kwargs, result):
    params, points = args[0], args[1]
    n = len(points)
    return {"quadrangles": params.m * n * (n - 1) * (n - 2) * (n - 3),
            "hits": int(result.stabilizer_order),
            "threads": int(kwargs.get("threads", 1))}


def _equivalent_info(args, kwargs, result):
    return {"found": int(result is not None)}


def _walsh_info(args, kwargs, result):
    return {"points": int(np.size(result.values))}


def _evaluate_info(args, kwargs, result):
    return {"terms": len(args[0].terms)}


# (module, owner attribute or None, function name, span name, count extractor)
BOUNDARIES = (
    ("gf2m", "FieldParams", "fmul_v", "gf2m.fmul_v", _elems),
    ("gf2m", "FieldParams", "finv_v", "gf2m.finv_v", _elems),
    ("gf2m", "FieldParams", "kmul_v", "gf2m.kmul_v", _elems),
    ("gf2m", "FieldParams", "kpow_v", "gf2m.kpow_v", _elems),
    ("gf2m", "FieldParams", "bform_v", "gf2m.bform_v", _elems),
    ("geometry", None, "normalize_codes_v", "geometry.normalize_codes_v", _elems),
    ("geometry", None, "no_three_collinear", "geometry.no_three_collinear", None),
    ("geometry", None, "is_line_oval", "geometry.is_line_oval", None),
    ("opoly", None, "opoly_table", "opoly.opoly_table", None),
    ("opoly", None, "is_opolynomial", "opoly.is_opolynomial", None),
    ("gfun", None, "g_catalog", "gfun.g_catalog", None),
    ("gfun", None, "fix_zeros", "gfun.fix_zeros", None),
    ("gfun", None, "g_shift", "gfun.g_shift", None),
    ("gfun", None, "validate_g", "gfun.validate_g", None),
    ("bent", None, "bent_from_g", "bent.bent_from_g", None),
    ("bent", None, "walsh_spectrum", "bent.walsh_spectrum", _walsh_info),
    ("bent", None, "f_univariate", "bent.f_univariate", None),
    ("bent", None, "f_shift", "bent.f_shift", None),
    ("bent", "NihoPolynomial", "evaluate", "bent.niho_evaluate", _evaluate_info),
    ("equiv", None, "stabilizer", "equiv.stabilizer", _stabilizer_info),
    ("equiv", None, "are_equivalent", "equiv.are_equivalent", _equivalent_info),
    ("equiv", None, "classify_bent", "equiv.classify_bent", None),
)
# The chunk worker of the quadrangle search is private; it is traced when it
# exists (for equiv.kernel_busy_frac) and reported as absent otherwise.
OPTIONAL_BOUNDARIES = (
    ("equiv", None, "_process_chunk", "equiv.chunk", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "info")

    def __init__(self, name, parent, op, thread):
        self.name, self.start, self.end = name, 0.0, 0.0
        self.parent, self.op, self.thread, self.info = parent, op, thread, None


class Tracer:
    """Records spans while installed; restores every wrapped name on remove()."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self.absent: list[str] = []
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, info):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span belongs to the span that fanned out
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and tid != tracer._main else None
            span = Span(name, parent, tracer.op, tid)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        self.absent = []
        for optional, table in ((False, BOUNDARIES), (True, OPTIONAL_BOUNDARIES)):
            for mod_name, owner_name, attr, name, info in table:
                mod = importlib.import_module(f"nihoval.{mod_name}")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = vars(owner).get(attr)
                if fn is None:
                    if not optional:
                        raise AttributeError(f"nihoval.{mod_name} has no {attr}")
                    self.absent.append(name)
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, info))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def dump(self, path) -> None:
        ids = {id(s): k for k, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": ids.get(id(s.parent)),
                                     "op": s.op, "thread": s.thread,
                                     "info": s.info}) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _under(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over every recorded span (set-up and ops)."""
    spans = tracer.spans
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def self_time(s: Span) -> float:
        kids = children.get(id(s), [])
        return (s.end - s.start) - _covered([(c.start, c.end) for c in kids],
                                            s.start, s.end)

    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        secs[s.name] = secs.get(s.name, 0.0) + (s.end - s.start)
        if s.name in ("equiv.stabilizer", "equiv.classify_bent"):
            selfs[s.name] = selfs.get(s.name, 0.0) + self_time(s)
        for key, v in (s.info or {}).items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + v

    stabs = [s for s in spans if s.name == "equiv.stabilizer"]
    quadrangles = counts.get("equiv.stabilizer.quadrangles", 0)
    hits = counts.get("equiv.stabilizer.hits", 0)
    images = sum(s.info["elems"] for s in spans
                 if s.name == "geometry.normalize_codes_v" and _under(s, "equiv.stabilizer"))
    busy = wall = 0.0
    for st in stabs:
        chunks = [s for s in spans if s.name == "equiv.chunk" and s.parent is st]
        by_thread: dict[int, list] = {}
        for c in chunks:
            by_thread.setdefault(c.thread, []).append((c.start, c.end))
        busy += sum(_covered(iv, st.start, st.end) for iv in by_thread.values())
        wall += st.info["threads"] * (st.end - st.start)
    found = counts.get("equiv.are_equivalent.found", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "gf2m.fmul_v.elems": counts.get("gf2m.fmul_v.elems", 0),
        "gf2m.fmul_v.s": secs.get("gf2m.fmul_v", 0.0),
        "gf2m.finv_v.elems": counts.get("gf2m.finv_v.elems", 0),
        "gf2m.kmul_v.elems": counts.get("gf2m.kmul_v.elems", 0),
        "gf2m.kpow_v.elems": counts.get("gf2m.kpow_v.elems", 0),
        "gf2m.kpow_v.s": secs.get("gf2m.kpow_v", 0.0),
        "gf2m.bform_v.calls": calls.get("gf2m.bform_v", 0),
        "gf2m.bform_v.s": secs.get("gf2m.bform_v", 0.0),
        "geometry.normalize_codes_v.elems": counts.get("geometry.normalize_codes_v.elems", 0),
        "geometry.normalize_codes_v.s": secs.get("geometry.normalize_codes_v", 0.0),
        "geometry.no_three_collinear.s": secs.get("geometry.no_three_collinear", 0.0),
        "geometry.is_line_oval.s": secs.get("geometry.is_line_oval", 0.0),
        "equiv.stabilizer.calls": calls.get("equiv.stabilizer", 0),
        "equiv.stabilizer.s": secs.get("equiv.stabilizer", 0.0),
        "equiv.stabilizer.self_s": selfs.get("equiv.stabilizer", 0.0),
        "equiv.quadrangles": quadrangles,
        "equiv.hits": hits,
        "equiv.hit_ratio": ratio(hits, quadrangles),
        "equiv.images_per_quadrangle": ratio(images, quadrangles),
        "equiv.are_equivalent.calls": calls.get("equiv.are_equivalent", 0),
        "equiv.are_equivalent.s": secs.get("equiv.are_equivalent", 0.0),
        "equiv.are_equivalent.found": found,
        "equiv.are_equivalent.exhausted": calls.get("equiv.are_equivalent", 0) - found,
        "equiv.classify_bent.self_s": selfs.get("equiv.classify_bent", 0.0),
        "equiv.kernel_busy_frac": ratio(busy, wall),
        "gfun.g_catalog.s": secs.get("gfun.g_catalog", 0.0),
        "gfun.fix_zeros.s": secs.get("gfun.fix_zeros", 0.0),
        "gfun.fix_zeros.shifts_tried": sum(1 for s in spans if s.name == "gf2m.bform_v"
                                           and _under(s, "gfun.fix_zeros")),
        "gfun.g_shift.calls": calls.get("gfun.g_shift", 0),
        "gfun.g_shift.s": secs.get("gfun.g_shift", 0.0),
        "gfun.validate_g.s": secs.get("gfun.validate_g", 0.0),
        "bent.bent_from_g.calls": calls.get("bent.bent_from_g", 0),
        "bent.bent_from_g.s": secs.get("bent.bent_from_g", 0.0),
        "bent.walsh_spectrum.calls": calls.get("bent.walsh_spectrum", 0),
        "bent.walsh_spectrum.points": counts.get("bent.walsh_spectrum.points", 0),
        "bent.walsh_spectrum.s": secs.get("bent.walsh_spectrum", 0.0),
        "bent.f_univariate.s": secs.get("bent.f_univariate", 0.0),
        "bent.f_shift.s": secs.get("bent.f_shift", 0.0),
        "bent.niho_evaluate.terms": counts.get("bent.niho_evaluate.terms", 0),
        "bent.niho_evaluate.s": secs.get("bent.niho_evaluate", 0.0),
        "opoly.opoly_table.s": secs.get("opoly.opoly_table", 0.0),
        "opoly.is_opolynomial.s": secs.get("opoly.is_opolynomial", 0.0),
    }


def uncovered(tracer: Tracer, required) -> list[str]:
    """Boundaries a workload names that recorded no call in this run."""
    seen = {s.name for s in tracer.spans}
    missing = [name for name in required if name not in seen]
    for name in missing:
        print(f"coverage: {name} recorded no call", file=sys.stderr)
    return missing
