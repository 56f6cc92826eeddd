"""The client side of the benchmark: the program pool, a closed-loop JSON
client, the three seeded workload scripts and the response oracle.

A workload is a script of requests that depends only on ``(workload,
seed)`` and on the service's (deterministic) answers: the client reads
session ids, sources and slider lists from responses, exactly as an
editor front end would, but every choice it makes comes from a
``random.Random`` seeded with the workload name and the seed.  Scripts
run a fixed number of rounds, never a time budget, so two commits send
the same request sequence.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
import re
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.run import run_source
from repro.editor import LiveSession
from repro.examples.registry import example_names, example_source
from repro.lang.errors import LittleError
from repro.serve import ServeApp
from repro.svg.importer import svg_to_little

from .hostspeed import HostSpeed

# -- the program pool ---------------------------------------------------------


@dataclass(frozen=True)
class PoolProgram:
    name: str
    source: str
    #: ``(shape, zone)`` of every Active zone of the freshly opened program.
    zones: Tuple[Tuple[int, str], ...]


def build_pool(root: pathlib.Path) -> List[PoolProgram]:
    """Every registered example and every non-quarantined SVG of
    ``tests/svg_corpus`` (converted with ``svg_to_little``) that has at
    least one Active zone.  The pool is fixed, never drawn from the
    seed: per-request cost spans two orders of magnitude across it."""
    texts = [(name, example_source(name)) for name in example_names()]
    for path in sorted((root / "tests" / "svg_corpus").glob("*.svg")):
        texts.append((path.stem,
                      svg_to_little(path.read_text(encoding="utf-8"))))
    pool = []
    for name, source in texts:
        zones = tuple(sorted(LiveSession(source).triggers))
        if zones:
            pool.append(PoolProgram(name, source, zones))
    return pool


# -- little literals, for client-side text edits ------------------------------

_NUMBER = re.compile(r"-?(?:\d+\.\d+|\d+\.?|\.\d+)")
_SYMBOL = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def literal_spans(source: str) -> List[Tuple[int, int]]:
    """Text spans of the numeric literals of a little program, in order.

    Comments, strings, identifiers and ``{lo-hi}`` slider ranges are
    skipped, so only literal *values* are reported.  Inserting a
    ``(def benchpadN 'pad')`` binding adds no literal, so literal ``k``
    names the same program location before and after it."""
    spans = []
    pos, end = 0, len(source)
    while pos < end:
        char = source[pos]
        if char == ";":
            newline = source.find("\n", pos)
            pos = end if newline == -1 else newline
        elif char == "'":
            pos = source.index("'", pos + 1) + 1
        elif char == "{":
            pos = source.index("}", pos) + 1
        elif char.isalpha() or char == "_":
            pos = _SYMBOL.match(source, pos).end()
        else:
            match = _NUMBER.match(source, pos)
            if match is not None and match.group() not in ("-", "."):
                spans.append(match.span())
                pos = match.end()
            else:
                pos += 1
    return spans


def format_literal(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def set_literal(source: str, index: int, value: float) -> str:
    start, stop = literal_spans(source)[index]
    return source[:start] + format_literal(value) + source[stop:]


def value_edits(program: PoolProgram, rng: random.Random,
                wanted: int = 3, tries: int = 12
                ) -> List[Tuple[int, float, float]]:
    """Seeded ``(literal, original value, edited value)`` candidates: a
    small tweak of one literal (integral literals stay integral) after
    which the program still runs and draws about as much — the same
    shapes, and SVG within a quarter of its size.  Edits that change how
    much is drawn (a loop count, a recursion depth) are left to the
    structural edits: one of them can cost 60 times the others, so a
    run's cost would hinge on which literals the seed picked.  The check
    runs here, in the client's preparation, so the script never sends an
    edit the program itself cannot evaluate."""

    def drawing(source: str) -> Tuple[int, int]:
        pipeline = run_source(source)
        return len(pipeline.canvas), len(pipeline.render())

    spans = literal_spans(program.source)
    shapes, size = drawing(program.source)
    candidates = []
    for index in rng.sample(range(len(spans)), min(tries, len(spans))):
        start, stop = spans[index]
        if program.source.startswith("{", stop):
            continue                    # sliders move through set_slider
        value = float(program.source[start:stop])
        step = max(1.0, round(abs(value) * 0.1))
        edited = value + rng.choice((-2, -1, 1, 2)) * step
        try:
            drawn, drawn_size = drawing(set_literal(program.source, index,
                                                    edited))
        except (LittleError, RecursionError):
            continue
        if drawn == shapes and abs(drawn_size - size) <= size / 4:
            candidates.append((index, value, edited))
            if len(candidates) == wanted:
                break
    return candidates


# -- the closed-loop client ---------------------------------------------------


class Sample(NamedTuple):
    verb: str
    #: Raw latency, and the host-speed epoch it was measured in.
    ms: float
    epoch: int
    ok: bool


class Client:
    """One closed-loop client: each request waits for the previous answer.

    Requests and responses cross as JSON bytes, encoded the way
    ``repro.serve.http`` encodes them; a request's latency runs from its
    request bytes to its response bytes.  ``exchange`` performs that
    round trip (the traced run substitutes a span-recording one).  The
    reference timings of :attr:`speed` scale latencies to a fixed host
    speed (:mod:`livebench.hostspeed`)."""

    def __init__(self, app: Optional[ServeApp],
                 exchange: Optional[Callable[[ServeApp, bytes],
                                             bytes]] = None):
        self.app = app
        self.exchange = exchange if exchange is not None else _exchange
        self.speed = HostSpeed()
        self.samples: List[Sample] = []
        #: ``ok: false`` answers.
        self.failed = 0
        self.resp_bytes = 0
        #: ``(verb, source, sha256 of svg)`` of every response the oracle
        #: checks.
        self.checks: List[Tuple[str, str, bytes]] = []

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def send(self, verb: str, request: dict, check: bool = False) -> dict:
        body = json.dumps(request).encode("utf-8")
        start = perf_counter()
        raw = self.exchange(self.app, body)
        elapsed = (perf_counter() - start) * 1000.0
        response = json.loads(raw)
        ok = bool(response.get("ok"))
        self.samples.append(Sample(verb, elapsed, self.speed.epoch, ok))
        self.speed.tick(elapsed)
        self.resp_bytes += len(raw)
        if not ok:
            self.failed += 1
        elif check:
            self.checks.append(
                (verb, response["source"],
                 hashlib.sha256(response["svg"].encode()).digest()))
        return response

    def nominal_ms(self, sample: Sample) -> float:
        """``sample``'s latency on the host at its nominal speed."""
        return sample.ms * self.speed.scale(sample.epoch)


def _exchange(app: ServeApp, body: bytes) -> bytes:
    return json.dumps(app.handle(json.loads(body))).encode("utf-8")


def oracle_mismatches(checks: List[Tuple[str, str, bytes]]) -> List[str]:
    """One line for every checked response whose SVG differs from a
    from-scratch run of the response's own source (the ROADMAP ground
    truth), or whose source does not run from scratch at all."""
    expected: Dict[str, object] = {}
    mismatches = []
    for verb, source, digest in checks:
        if source not in expected:
            try:
                svg = run_source(source).render()
                expected[source] = hashlib.sha256(svg.encode()).digest()
            except (LittleError, RecursionError) as error:
                expected[source] = f"source does not run from scratch: " \
                                   f"{error}"
        truth = expected[source]
        if isinstance(truth, str):
            mismatches.append(f"{verb}: {truth}")
        elif truth != digest:
            mismatches.append(f"{verb}: svg differs from a from-scratch run")
    return mismatches


Send = Callable[..., dict]
#: Fractional part of the golden ratio: successive multiples spread
#: evenly over [0, 1).
GOLDEN = 0.6180339887498949


def _path(angle: float, reach: float, out_steps: int, back: bool
          ) -> List[List[float]]:
    """Cumulative mouse offsets along a straight line at ``angle``, out
    to ``reach`` pixels and (optionally) back to the start."""
    fractions = [step / out_steps for step in range(1, out_steps + 1)]
    if back:
        fractions += fractions[-2::-1] + [0.0]
    return [[round(reach * f * math.cos(angle), 2),
             round(reach * f * math.sin(angle), 2)] for f in fractions]


def _reach(fraction: float) -> float:
    return 8.0 + 40.0 * fraction


def _hover(send: Send, sid: str, zone) -> bool:
    """Hover ``zone``; a gesture follows only if it is Active now (an
    earlier gesture on the session may have changed which zones are)."""
    shape, name = zone
    answer = send("hover", {"cmd": "hover", "session": sid,
                            "shape": shape, "zone": name})
    return bool(answer.get("ok") and answer["active"])


# -- workloads ----------------------------------------------------------------


class DragGesture:
    """The direct-manipulation loop: every pool program has a live session;
    each round hovers a seeded Active zone of every session, sends 12
    synchronous single-sample drags along a seeded out-and-back path and
    releases."""

    name = "drag_gesture"
    lead, follow = "drag", "release"
    #: Gestures between reopens: bounds the undo history each release
    #: snapshots, so latency does not grow with run length.
    REOPEN_AFTER = 4
    #: Share of drag responses the oracle checks (every release is).
    DRAG_CHECK = 1 / 16

    def __init__(self, pool: List[PoolProgram], seed: int, rounds: int):
        self.pool = pool
        self.rounds = rounds
        self.rng = random.Random(f"{self.name}:{seed}")

    def make_app(self) -> ServeApp:
        return ServeApp(max_sessions=len(self.pool))

    def setup(self, client: Client) -> None:
        send = client.send
        self.sessions = [send("open", {"cmd": "open",
                                       "source": program.source})["session"]
                         for program in self.pool]
        for sid, program in zip(self.sessions, self.pool):
            self._gesture(send, sid, program.zones[0],
                          _path(0.0, _reach(0.5), 1, back=True))
        # Staggered, so reopens spread over the rounds.
        self.since_open = [index % self.REOPEN_AFTER
                           for index in range(len(self.pool))]

    def _gesture(self, send: Send, sid: str, zone, path,
                 rng: Optional[random.Random] = None) -> None:
        """Hover, one synchronous drag per sample of ``path``, release;
        ``rng`` samples the drag responses the oracle checks."""
        if not _hover(send, sid, zone):
            return
        shape, name = zone
        for step in path:
            send("drag", {"cmd": "drag", "session": sid, "shape": shape,
                          "zone": name, "steps": [step]},
                 check=rng is not None and rng.random() < self.DRAG_CHECK)
        send("release", {"cmd": "release", "session": sid}, check=True)

    def run(self, client: Client) -> None:
        """Gestures are stratified over the rounds: each program starts
        at a seeded zone, direction and reach and steps through its
        zones, evenly spaced directions and well-spread reaches, so how
        many drags flip a guard varies little from seed to seed."""
        send = client.send
        rng = self.rng
        offsets = [(rng.randrange(len(program.zones)), rng.random(),
                    rng.random()) for program in self.pool]
        for turn in range(self.rounds):
            for index, program in enumerate(self.pool):
                if self.since_open[index] == self.REOPEN_AFTER:
                    send("close", {"cmd": "close",
                                   "session": self.sessions[index]})
                    self.sessions[index] = send(
                        "open", {"cmd": "open", "source": program.source},
                        check=True)["session"]
                    self.since_open[index] = 0
                zone, angle, reach = offsets[index]
                self._gesture(
                    send, self.sessions[index],
                    program.zones[(zone + turn) % len(program.zones)],
                    _path(2.0 * math.pi * (angle + turn / self.rounds),
                          _reach((reach + turn * GOLDEN) % 1.0), 6,
                          back=True), rng)
                self.since_open[index] += 1


class EditMix:
    """The programmatic half: one session per pool program; each round
    sends every session a value edit (one literal), a structural edit
    (insert or remove a ``(def benchpadN 'pad')`` binding), an identity
    edit (re-indented text), a ``set_slider`` on a reported slider and an
    ``undo`` when there is history."""

    name = "edit_mix"
    lead, follow = "edit", "undo"
    REOPEN_AFTER = 3                    # rounds; bounds undo history

    def __init__(self, pool: List[PoolProgram], seed: int, rounds: int):
        self.pool = pool
        self.rounds = rounds
        self.rng = random.Random(f"{self.name}:{seed}")
        self.edits = [value_edits(program, self.rng) for program in pool]

    def make_app(self) -> ServeApp:
        return ServeApp(max_sessions=len(self.pool))

    def _open(self, send: Send, index: int, check: bool) -> None:
        self._adopt(index, send("open", {"cmd": "open",
                                         "source": self.pool[index].source},
                                check=check))

    def _adopt(self, index: int, answer: dict) -> None:
        """Track what the editor shows: session, text, history, sliders."""
        if not answer.get("ok"):
            return
        self.sessions[index] = answer.get("session", self.sessions[index])
        self.sources[index] = answer["source"]
        self.history[index] = answer["history"]
        if "sliders" in answer:
            self.sliders[index] = answer["sliders"]

    def setup(self, client: Client) -> None:
        send = client.send
        count = len(self.pool)
        self.sessions: List[str] = [""] * count
        self.sources: List[str] = [""] * count
        self.history = [0] * count
        self.sliders: List[list] = [[] for _ in range(count)]
        self.pads = 0
        for index in range(count):
            self._open(send, index, check=False)
        # Warm-up: one value edit per session, so first-touch costs land
        # in set-up rather than in the first measured round.
        warmup = random.Random(f"{self.name}:warm-up")
        for index in range(count):
            self._value_edit(send, index, False, warmup)
        self.since_open = [index % self.REOPEN_AFTER for index in range(count)]

    def _edit(self, send: Send, index: int, text: str, check: bool) -> None:
        self._adopt(index, send("edit", {"cmd": "edit",
                                         "session": self.sessions[index],
                                         "source": text}, check=check))

    def _value_edit(self, send: Send, index: int, check: bool,
                    rng: random.Random) -> None:
        candidates = self.edits[index]
        if not candidates:
            return
        literal, original, edited = rng.choice(candidates)
        source = self.sources[index]
        start, stop = literal_spans(source)[literal]
        current = float(source[start:stop])
        self._edit(send, index,
                   set_literal(source, literal,
                               edited if current == original else original),
                   check)

    def _structural_edit(self, send: Send, index: int) -> None:
        source = self.sources[index]
        match = re.search(r"\(def benchpad\d+ 'pad'\)\n?", source)
        if match is None:
            self.pads += 1
            text = f"(def benchpad{self.pads} 'pad')\n" + source
        else:
            text = source[:match.start()] + source[match.end():]
        self._edit(send, index, text, check=True)

    def _identity_edit(self, send: Send, index: int) -> None:
        indent = " " * self.rng.choice((1, 2, 4))
        text = "\n".join(indent + line if line else line
                         for line in self.sources[index].split("\n"))
        self._edit(send, index, text, check=True)

    def _set_slider(self, send: Send, index: int) -> None:
        if not self.sliders[index]:
            return
        slider = self.rng.choice(self.sliders[index])
        value = round(self.rng.uniform(slider["lo"], slider["hi"]))
        answer = send("set_slider", {"cmd": "set_slider",
                                     "session": self.sessions[index],
                                     "loc": slider["loc"],
                                     "value": value}, check=True)
        self._adopt(index, answer)

    def _undo(self, send: Send, index: int, check: bool) -> None:
        if self.history[index]:
            self._adopt(index, send("undo",
                                    {"cmd": "undo",
                                     "session": self.sessions[index]},
                                    check=check))

    def run(self, client: Client) -> None:
        send = client.send
        for _ in range(self.rounds):
            for index in range(len(self.pool)):
                if self.since_open[index] == self.REOPEN_AFTER:
                    send("close", {"cmd": "close",
                                   "session": self.sessions[index]})
                    self._open(send, index, check=True)
                    self.since_open[index] = 0
                self._value_edit(send, index, True, self.rng)
                self._structural_edit(send, index)
                self._identity_edit(send, index)
                self._set_slider(send, index)
                self._undo(send, index, check=True)
                self.since_open[index] += 1


class SessionChurn:
    """The session lifecycle: a ring of open sessions twice the live
    budget.  Each step opens a program (alternately first-seen text, with
    a seeded comment so the compile cache misses, and the text opened
    just before, so it hits), renders it, revisits the oldest session,
    which must be rehydrated from its snapshot (``render``, hover of a
    seeded zone, a short ``"sync": false`` drag burst flushed by
    ``release``), and closes it.  A round is one pass over the pool in a
    seeded order: every program is opened twice."""

    name = "session_churn"
    lead, follow = "open", "revisit"
    LIVE = 16
    RING = 32

    def __init__(self, pool: List[PoolProgram], seed: int, rounds: int):
        self.pool = pool
        self.rounds = rounds
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.order = list(range(len(pool)))
        self.rng.shuffle(self.order)

    def make_app(self) -> ServeApp:
        return ServeApp(max_sessions=self.LIVE)

    def setup(self, client: Client) -> None:
        """Open every pool program once, in pool order (the same for
        every seed), keeping the last ``RING`` sessions open."""
        send = client.send
        self.ring: deque = deque()
        self.step = 0
        for index, program in enumerate(self.pool):
            sid = send("open", {"cmd": "open",
                                "source": program.source})["session"]
            send("render", {"cmd": "render", "session": sid})
            self.ring.append((sid, index))
            if len(self.ring) > self.RING:
                send("close", {"cmd": "close",
                               "session": self.ring.popleft()[0]})

    def _open(self, send: Send, check: bool) -> None:
        """Open the next program; odd steps reopen the previous text."""
        if self.step % 2 == 0:
            program = self.order[(self.step // 2) % len(self.order)]
            self.text = (self.pool[program].source
                         + f"\n; churn {self.seed} {self.step}\n")
            self.program = program
        answer = send("open", {"cmd": "open", "source": self.text},
                      check=check)
        self.step += 1
        if answer.get("ok"):
            sid = answer["session"]
            self.ring.append((sid, self.program))
            send("render", {"cmd": "render", "session": sid})

    def run(self, client: Client) -> None:
        send = client.send
        rng = self.rng
        for _ in range(self.rounds):
            for _ in range(2 * len(self.pool)):
                self._open(send, check=True)
                # The oldest session was last touched a ring ago, so its
                # revisit rehydrates it from its snapshot; then it closes.
                sid, program = self.ring[0]
                send("revisit", {"cmd": "render", "session": sid})
                zone = rng.choice(self.pool[program].zones)
                if _hover(send, sid, zone):
                    shape, name = zone
                    path = _path(rng.uniform(0.0, 2.0 * math.pi),
                                 _reach(rng.random()), 3, back=False)
                    send("drag", {"cmd": "drag", "session": sid,
                                  "shape": shape, "zone": name,
                                  "sync": False, "steps": path})
                    send("release", {"cmd": "release", "session": sid},
                         check=True)
                old, _ = self.ring.popleft()
                send("close", {"cmd": "close", "session": old})


WORKLOADS = {workload.name: workload
             for workload in (DragGesture, EditMix, SessionChurn)}
