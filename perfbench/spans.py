"""In-process tracing of one CLI call, from outside the library.

The library is not instrumented.  Instead, for the duration of a traced
call, each traced function is replaced by a wrapper at every place a
``supercyclic`` module holds a reference to it: the defining module and
every module that imported it by name (``verifier.check_condition`` and
``classify.check_condition`` are separate import sites).  Generators are
wrapped so that each ``next()`` is one span.

Spans live in memory as ``[name, start_ns, end_ns, parent]`` and are written
out once the call ends.  A span's self time is its duration minus the time
its child spans cover; spans nest strictly because the call runs on one
thread with ``--jobs 1``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator

_now = time.perf_counter_ns


class Tracer:
    """Span stack plus outcome counters for one traced call."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _now(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - covered) / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")


# -- wrappers ---------------------------------------------------------------

def _call_span(tracer: Tracer, name: str | Callable[..., str], fn,
               outcome: Callable[..., None] | None = None):
    """Wrap ``fn`` so that each call is one span.

    ``name`` may be a function of the call's arguments (the condition
    check is split by mode).  ``outcome(span_name, result, args, kwargs)``
    records counters after the call returns.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name(*args, **kwargs) if callable(name) else name
        idx = tracer.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if outcome is not None:
            outcome(span, result, args, kwargs)
        return result
    return wrapper


class _TracedIterator:
    """Each ``next()`` is one span; yielded items are counted."""

    def __init__(self, tracer: Tracer, name: str, it: Iterator) -> None:
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        idx = self._tracer.begin(self._name)
        try:
            item = next(self._it)
        finally:
            self._tracer.end(idx)
        self._tracer.counts[self._name + ".items"] += 1
        return item


def _iter_span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TracedIterator(tracer, name, iter(fn(*args, **kwargs)))
    return wrapper


def _wrappers(tracer: Tracer) -> dict[tuple[str, str], Callable]:
    """(module, function) -> factory of its traced replacement."""
    counts = tracer.counts

    def passed(span, result, args, kwargs):
        counts[span + ".passed"] += bool(result.passed)

    def found(span, result, args, kwargs):
        counts[span + ".found"] += result is not None

    def saved(span, result, args, kwargs):
        path = kwargs["path"] if "path" in kwargs else args[0]
        counts[span + ".bytes"] += os.path.getsize(path)

    def condition_name(g, mode="full"):
        return f"condition.check_condition.{mode}"

    def span(name, outcome=None):
        return lambda fn: _call_span(tracer, name, fn, outcome)

    return {
        ("cli", "main"): span("cli.main"),
        ("generators", "enumerate_bigraphs"):
            lambda fn: _iter_span(tracer, "generators.enumerate_bigraphs", fn),
        ("generators", "random_bigraph"): span("generators.random_bigraph"),
        ("condition", "check_condition"): span(condition_name, passed),
        ("condition", "min_deficiency"): span("condition.min_deficiency"),
        ("condition", "degree_hypothesis"): span("condition.degree_hypothesis"),
        ("cycles", "find_based_cycle"): span("cycles.find_based_cycle", found),
        ("cycles", "is_super_cyclic"): span("cycles.is_super_cyclic", passed),
        ("cycles", "is_k_cyclic"): span("cycles.is_k_cyclic", passed),
        ("classify", "is_critical"): span("classify.is_critical", passed),
        ("formats", "iter_records"):
            lambda fn: _iter_span(tracer, "formats.iter_records", fn),
        ("formats", "serialize_bigraph"): span("formats.serialize_bigraph"),
        ("verifier", "verify_degree_theorem"): span("verifier.campaign"),
        ("verifier", "verify_k_cyclic"): span("verifier.campaign"),
        ("verifier", "hunt_counterexample"): span("verifier.campaign"),
        ("verifier_checkpoint", "save_checkpoint"):
            span("verifier_checkpoint.save_checkpoint", saved),
    }


class traced:
    """Context manager: install the wrappers, restore the originals on exit.

    A traced function the library no longer defines is reported on stderr,
    and its metrics read zero instead of the run failing.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "traced":
        importlib.import_module("supercyclic.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "supercyclic" or n.startswith("supercyclic.")]
        missing = []
        for (mod_name, attr), make in _wrappers(self.tracer).items():
            original = getattr(sys.modules.get(f"supercyclic.{mod_name}"),
                               attr, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            replacement = make(original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, value))
                        setattr(m, key, replacement)
        cls = getattr(sys.modules.get("supercyclic.bigraph"), "Bigraph", None)
        if cls is None:
            missing.append("bigraph.Bigraph")
        else:
            init = cls.__init__
            counts = self.tracer.counts

            @functools.wraps(init)
            def counted_init(obj, *args, **kwargs):
                counts["bigraph.Bigraph.constructed"] += 1
                init(obj, *args, **kwargs)

            self._undo.append((cls, "__init__", init))
            cls.__init__ = counted_init
        if missing:
            print(f"trace: not in the library, reading zero: "
                  f"{', '.join(missing)}", file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()
