"""Span recording around the public functions of each odmwatch layer.

``instrument`` rebinds those functions, from this file only, to wrappers
that record one span per call: name, start, end, parent span, thread id
and run id, plus counts read off the arguments and result after the
clock stops. Spans stay in memory until the benchmark writes them out.

A worker thread has no open span of its own when the pool starts it, so
its first span takes as parent the innermost open span of the thread that
installed the recorder (``detect_day`` waiting on the pool).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._next_id = 1

    def begin(self, name: str) -> tuple[int, str, int | None, float]:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = self._stacks.get(self._main)
                parent = main_stack[-1] if main_stack else None
            span_id = self._next_id
            self._next_id += 1
            stack.append(span_id)
        return span_id, name, parent, time.perf_counter()

    def end(self, token: tuple[int, str, int | None, float]) -> Span:
        end = time.perf_counter()
        span_id, name, parent, start = token
        thread = threading.get_ident()
        span = Span(span_id, name, start, end, parent, thread, self.run)
        with self._lock:
            self._stacks[thread].pop()
            self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable, *args, **kwargs):
        token = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(token)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), separators=(",", ":")) + "\n")


# -- what each wrapped call counts ---------------------------------------


def _date_bytes(root: Path, date: str) -> int:
    """Bytes of every stored file whose path under ``root`` names ``date``."""
    return sum(
        p.stat().st_size
        for p in root.rglob("*")
        if p.is_file() and date in str(p.relative_to(root))
    )


def _count_parse(counts, args, result):
    counts["rows"] = sum(len(snapshot) for snapshot in result)
    counts["input_bytes"] = os.path.getsize(args[0])


def _count_put(counts, args, result):
    store, _source, snapshot = args[:3]
    counts["bytes"] = _date_bytes(Path(store.root), snapshot.window.date.isoformat())


def _count_snapshot(counts, args, result):
    counts["cells"] = 0 if result is None else len(result)


def _count_encode(counts, args, result):
    counts["cells"] = len(result.codes)


def _count_engine(counts, args, result):
    counts["stats_s"] = result.timings["stats"]
    counts["threshold_s"] = result.timings["threshold"]
    counts["classify_s"] = result.timings["detect"]
    counts["universe_cells"] = len(result.cell_codes)
    counts["current_cells"] = len(args[0].codes)
    counts["keys"] = sum(len(block) for _, _, block in result.blocks())


def _count_window(counts, args, result):
    counts["outcomes"] = len(result.outcomes)


def _count_serialize(counts, args, result):
    counts["rows"] = sum(len(w.outcomes) for w in args[0].window_reports)


def _count_day(counts, args, result):
    counts["windows"] = len(result.window_reports)


def _targets():
    from odmwatch import _engine, detector, ingestion
    from odmwatch.store import HistoryStore

    return [
        (ingestion, "parse_file", "parse", _count_parse),
        (HistoryStore, "put_snapshot", "store_write", _count_put),
        (HistoryStore, "windows_for", "store_read.windows_for", None),
        (HistoryStore, "get_snapshot", "store_read.get_snapshot", _count_snapshot),
        (HistoryStore, "fetch_history", "store_read.fetch_history", None),
        (HistoryStore, "get_profile", "store_read.get_profile", None),
        (HistoryStore, "day_digest", "store_read.day_digest", None),
        (_engine, "columnar_from_entries", "encode", _count_encode),
        (_engine, "evaluate_window", "engine", _count_engine),
        (detector, "run_window", "materialize", _count_window),
        (detector, "write_day_report_jsonl", "serialize", _count_serialize),
        (detector, "write_day_report_csv", "serialize", _count_serialize),
        (detector, "detect_day", "detect_day", _count_day),
    ]


def _wrap(recorder: Recorder, name: str, fn: Callable, count) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = recorder.end(token)
        if count is not None:
            # A program whose results no longer have the counted shape raises
            # here, inside the command, so the command fails its checks.
            count(span.counts, args, result)
        return result

    return wrapper


def instrument(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer function wherever odmwatch binds it; return the undo.

    Raises ``AttributeError``, wrapping nothing, when the program lacks one
    of them: a layer that is no longer timed must not read as a layer that
    takes no time.
    """
    targets = _targets()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if not hasattr(owner, attr)]
    if missing:
        raise AttributeError(f"odmwatch has no {', '.join(missing)}; the traced run cannot time it")
    undo = []
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "odmwatch"]
    for owner, attr, name, count in targets:
        fn = getattr(owner, attr)
        wrapper = _wrap(recorder, name, fn, count)
        holders = [owner] + [m for m in modules if m is not owner and vars(m).get(attr) is fn]
        for holder in holders:
            undo.append((holder, attr, fn))
            setattr(holder, attr, wrapper)

    def restore() -> None:
        for holder, attr, fn in reversed(undo):
            setattr(holder, attr, fn)

    return restore


# -- arithmetic over a span tree -----------------------------------------


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children on other threads may overlap each other; the union counts once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.seconds - covered(s.start, s.end, children.get(s.id, [])) for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one replay (ingest commands plus detect)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def matches(s: Span, prefix: str) -> bool:
        return s.name == prefix or s.name.startswith(prefix + ".")

    def total(prefix: str) -> float:
        """Wall seconds in spans under ``prefix``; a matching span nested in
        another matching span (get_snapshot inside fetch_history) counts once."""

        def outermost(s: Span) -> bool:
            parent = by_id.get(s.parent)
            while parent is not None:
                if matches(parent, prefix):
                    return False
                parent = by_id.get(parent.parent)
            return True

        return sum(s.seconds for s in spans if matches(s, prefix) and outermost(s))

    def spans_of(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def count(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in spans_of(name))

    detect_runs = {s.run for s in spans_of("command.detect")}
    detect_threads = {s.thread for s in spans if s.run in detect_runs}
    input_bytes = count("parse", "input_bytes")
    metrics = {
        "parse.s": total("parse"),
        "parse.rows": count("parse", "rows"),
        "parse.input_bytes": input_bytes,
        "store_write.s": total("store_write"),
        "store_write.calls": len(spans_of("store_write")),
        "store_write.bytes": count("store_write", "bytes"),
        "store_write.bytes_per_input_byte": count("store_write", "bytes") / input_bytes
        if input_bytes
        else 0.0,
        "store_read.s": total("store_read"),
        "store_read.windows_for.s": total("store_read.windows_for"),
        "store_read.get_snapshot.s": total("store_read.get_snapshot"),
        "store_read.get_snapshot.calls": len(spans_of("store_read.get_snapshot")),
        "store_read.cells_returned": count("store_read.get_snapshot", "cells"),
        "encode.s": total("encode"),
        "encode.cells": count("encode", "cells"),
        "engine.s": total("engine"),
        "materialize.s": sum(own[s.id] for s in spans_of("materialize")),
        "materialize.outcomes": count("materialize", "outcomes"),
        "serialize.s": total("serialize"),
        "serialize.rows": count("serialize", "rows"),
        "detect_day.self_s": sum(own[s.id] for s in spans_of("detect_day")),
        "detect_day.windows": count("detect_day", "windows"),
        "detect_day.threads": len(detect_threads),
        "ingest.wall_s": total("command.ingest"),
        "detect.wall_s": total("command.detect"),
    }
    for key in ("stats_s", "threshold_s", "classify_s", "universe_cells", "current_cells", "keys"):
        metrics[f"engine.{key}"] = count("engine", key)
    return metrics
