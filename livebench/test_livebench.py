"""The benchmark's own checks: scripts are pure functions of
``(workload, seed)``, never send a request the protocol must refuse,
agree with the from-scratch oracle, and the traced counts match the
traffic sent."""

from __future__ import annotations

import json
import pathlib

import pytest

from livebench.run import end_to_end, per_layer
from livebench.tracing import Tracer
from livebench.workloads import (WORKLOADS, Client, build_pool,
                                 literal_spans, oracle_mismatches)
from repro.editor import LiveSession
from repro.serve import ServeApp

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Script rounds per workload for these checks.
ROUNDS = {"drag_gesture": 1, "edit_mix": 2, "session_churn": 3}


@pytest.fixture(scope="module")
def pool():
    return build_pool(ROOT)


@pytest.fixture(scope="module")
def small_pool(pool):
    """Examples and imported SVGs alike, including a slider program."""
    return pool[::20]


class RecordingClient(Client):
    """Records every request of the measured script, and checks each
    against the protocol state the responses reported so far."""

    def __init__(self, app):
        super().__init__(app)
        self.requests = []
        self.violations = []
        self.active = set()         # (session, shape, zone) hovered Active
        self.history = {}
        self.sliders = {}

    def send(self, verb, request, check=False):
        sid = request.get("session")
        cmd = request["cmd"]
        if cmd == "drag" and (sid, request["shape"],
                              request["zone"]) not in self.active:
            self.violations.append(("drag without an Active hover", request))
        if cmd == "undo" and not self.history.get(sid):
            self.violations.append(("undo without history", request))
        if cmd == "set_slider" and request["loc"] not in \
                self.sliders.get(sid, ()):
            self.violations.append(("unreported slider", request))
        response = super().send(verb, request, check)
        self.requests.append(request)
        if not response["ok"]:
            self.violations.append(("refused", request, response))
            return response
        sid = response.get("session", sid)
        if cmd == "hover":
            if response["active"]:
                self.active.add((sid, request["shape"], request["zone"]))
        elif cmd in ("release", "edit", "undo", "set_slider", "close"):
            self.active = {key for key in self.active if key[0] != sid}
        if "history" in response:
            self.history[sid] = response["history"]
        if "sliders" in response:
            self.sliders[sid] = {slider["loc"]
                                 for slider in response["sliders"]}
        return response


def play(cls, programs, seed, client_type=RecordingClient):
    workload = cls(programs, seed, ROUNDS[cls.name])
    app = workload.make_app()
    workload.setup(Client(app))
    client = client_type(app)
    workload.run(client)
    return client


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_script_is_a_pure_function_of_workload_and_seed(small_pool, name):
    cls = WORKLOADS[name]
    first = play(cls, small_pool, 7).requests
    assert play(cls, small_pool, 7).requests == first
    assert play(cls, small_pool, 8).requests != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_script_sends_only_requests_the_protocol_accepts(small_pool, name):
    client = play(WORKLOADS[name], small_pool, 3)
    assert client.violations == []
    assert client.failed == 0
    assert client.checks
    assert oracle_mismatches(client.checks) == []


def test_literal_edits_address_the_served_source(pool):
    """Value edits index literals in the served (unparsed) text by their
    position in the original text: both must list the same values."""
    for program in pool:
        served = LiveSession(program.source).source()
        values = [float(program.source[a:b])
                  for a, b in literal_spans(program.source)]
        assert [float(served[a:b]) for a, b in literal_spans(served)] \
            == values, program.name


def test_traced_counts_match_the_traffic(small_pool):
    cls = WORKLOADS["drag_gesture"]
    workload = cls(small_pool, 5, 1)
    app = workload.make_app()
    workload.setup(Client(app))
    tracer = Tracer()
    original = ServeApp.__dict__["handle"]
    drags = []

    class Counting(Client):
        def send(self, verb, request, check=False):
            response = super().send(verb, request, check)
            if verb == "drag" and response["bindings"]:
                drags.append(request)
            return response

    client = Counting(app, exchange=tracer.exchange)
    before = app.manager.stats()
    tracer.install()
    try:
        workload.run(client)
    finally:
        tracer.uninstall()
    assert ServeApp.__dict__["handle"] is original
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = per_layer(tracer, client, before, app.manager.stats(), 0.0)
    assert list(layers) == [metric["name"]
                            for metric in declared["per_layer"]]
    assert list(end_to_end(cls, client, 1.0, 1.0, 0)) == [
        metric["name"] for metric in declared["end_to_end"]]
    times = tracer.self_times()
    assert times["serve.protocol"][1] == client.attempted
    assert times["bench.request"][1] == client.attempted
    hits = sum(tracer.tags("lang.compile.replay"))
    escalations = sum(tracer.tags("core.pipeline.eval"))
    assert drags and hits + escalations == len(drags)
