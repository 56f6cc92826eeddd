"""Per-layer tracing installed from outside the program.

:meth:`Tracer.install` wraps the public entry point of each layer: class
methods on their class, module-level functions at every module that
imported them (a function bound by ``from … import`` elsewhere would
escape a wrapper placed only on its defining module).  Each wrapped call
records one span — name, start, end, parent span and the id of the
request it serves — in memory; :meth:`Tracer.write` writes them out once
the run is over.  A span's *self time* is its duration minus the time
its child spans cover.  :meth:`Tracer.uninstall` puts every original
back.
"""

from __future__ import annotations

import functools
import gzip
import json
import pathlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.pipeline
import repro.editor.session
import repro.lang.diff
import repro.lang.program
import repro.serve.cache
from repro.core.pipeline import SyncPipeline
from repro.editor.session import LiveSession
from repro.lang.compile import CompiledEvaluation
from repro.lang.program import Program
from repro.serve.cache import CompileCache
from repro.serve.protocol import ServeApp
from repro.zones.triggers import MouseTrigger

# Span fields: name, start, end, parent index (-1 for a root), request id,
# and an outcome tag some layers attach (replay hit, escalation, …).
NAME, START, END, PARENT, REQUEST, TAG = range(6)

Tag = Optional[Callable[[tuple, dict, object], object]]


def _replay_hit(args, kwargs, result) -> bool:
    return result is not None


def _escalated(args, kwargs, result) -> bool:
    """A non-structural change went in and a structural one came out: a
    guard flipped (or replay failed) and the step re-ran from scratch."""
    change = args[1] if len(args) > 1 else kwargs.get("change")
    return change is not None and not change.structural \
        and result.structural


def _solve_outcomes(args, kwargs, result) -> Tuple[int, int]:
    return (sum(not outcome.solved for outcome in result.outcomes),
            len(result.outcomes))


def _diff_kind(args, kwargs, result) -> str:
    return result.kind


#: ``(class, method, span name, tag)``: every layer entered through a method.
METHODS = [
    (ServeApp, "handle", "serve.protocol", None),
    (CompileCache, "compile", "serve.cache.compile", None),
    (LiveSession, "snapshot", "serve.manager.snapshot", None),
    (LiveSession, "restore", "serve.manager.restore", None),
    (SyncPipeline, "eval_stage", "core.pipeline.eval", _escalated),
    (SyncPipeline, "canvas_stage", "core.pipeline.canvas", None),
    (SyncPipeline, "assign_stage", "core.pipeline.assign", None),
    (SyncPipeline, "trigger_stage", "core.pipeline.trigger", None),
    (SyncPipeline, "slider_stage", "core.pipeline.slider", None),
    (CompiledEvaluation, "replay", "lang.compile.replay", _replay_hit),
    (Program, "substitute", "lang.program.substitute", None),
    (Program, "unparse", "lang.program.unparse", None),
    (MouseTrigger, "__call__", "zones.triggers.solve", _solve_outcomes),
]

#: ``(function, span name, tag, modules that call it by a bare name)``.
#: The parser is wrapped at ``parse_top_level``, its entry point, which
#: both ``parse_program`` and the edit path's ``diff_source`` call.
FUNCTIONS = [
    ("parse_top_level", "lang.parser.parse", None,
     [repro.lang.program, repro.lang.diff]),
    ("record_evaluation", "lang.incremental.record", None,
     [repro.core.pipeline, repro.serve.cache]),
    ("ensure_compiled", "lang.compile.specialize", None,
     [repro.core.pipeline]),
    ("render_canvas", "svg.render", None, [repro.core.pipeline]),
    ("diff_source", "lang.diff", _diff_kind, [repro.editor.session]),
]


class Tracer:
    """Span recorder for one traced pass (single-threaded client)."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request = 0
        self._request = None
        self._originals: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn, tag: Tag):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if tag is not None:
                span[TAG] = tag(args, kwargs, result)
            return result

        return traced

    def exchange(self, app: ServeApp, body: bytes) -> bytes:
        """The client's request round trip, with the JSON decode and
        encode as ``serve.json`` spans under one ``bench.request`` root."""
        self.request += 1
        return self._request(app, body)

    def install(self) -> None:
        for cls, attr, name, tag in METHODS:
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__,
                                                 tag))
            else:
                wrapped = self._wrap(name, original, tag)
            self._originals.append((cls, attr, original))
            setattr(cls, attr, wrapped)
        for attr, name, tag, modules in FUNCTIONS:
            original = getattr(modules[0], attr)
            wrapped = self._wrap(name, original, tag)
            for module in modules:
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{module.__name__}.{attr} is not "
                                       f"the function the tracer wraps")
                self._originals.append((module, attr, original))
                setattr(module, attr, wrapped)
        decode = self._wrap("serve.json", json.loads, None)
        encode = self._wrap("serve.json",
                            lambda response: json.dumps(response)
                            .encode("utf-8"), None)
        self._request = self._wrap(
            "bench.request",
            lambda app, body: encode(app.handle(decode(body))), None)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self, scale: Callable[[int], float] = lambda request: 1.0
                   ) -> Dict[str, Tuple[float, int]]:
        """Per span name: total self time in ms, each span's scaled by
        ``scale(request id)``, and the call count."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for span, children in zip(spans, covered):
            entry = totals[span[NAME]]
            entry[0] += (span[END] - span[START] - children) * 1000.0 \
                * scale(span[REQUEST])
            entry[1] += 1
        return {name: (ms, int(calls)) for name, (ms, calls) in totals.items()}

    def tags(self, name: str) -> list:
        return [span[TAG] for span in self.spans if span[NAME] == name]

    def write(self, path: pathlib.Path) -> None:
        """Every span as one tab-separated line (times in µs from the
        first span's start), gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart_us\tend_us\tparent\trequest\ttag\n")
            for span in self.spans:
                out.write(f"{span[NAME]}\t"
                          f"{(span[START] - origin) * 1e6:.1f}\t"
                          f"{(span[END] - origin) * 1e6:.1f}\t"
                          f"{span[PARENT]}\t{span[REQUEST]}\t"
                          f"{'' if span[TAG] is None else span[TAG]}\n")
