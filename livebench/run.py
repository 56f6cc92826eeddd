"""Live-sync service benchmark.

    python3 livebench/run.py --workload drag_gesture --seed 1 --seconds 12 --trace 0

One process drives :meth:`repro.serve.ServeApp.handle` in-process as a
single closed-loop client: an editor front end waits for each
synchronous answer before it sends the next request, and the service
runs requests one at a time, so latency under load follows from the
service times measured here.  The socket transport is left out; requests
and responses still cross as JSON bytes, encoded the way
``repro.serve.http`` encodes them.

A run builds the program pool, sets the service up ``SETUPS`` times
(``setup_s`` is the median) and plays the workload's fixed script once,
untraced, for the end-to-end metrics.  With ``--trace 1`` it then plays
the same script again with every layer wrapped (``tracing.py``) and
reports per-layer self times and counts instead, plus the throughput the
tracing cost.  Afterwards the oracle re-runs the source of every checked
response from scratch and compares SVG bytes.  Times are scaled to a
fixed host speed (``hostspeed.py``); the raw ones are printed alongside
per verb, with the host's fingerprint.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run it from the repository root; it needs only the
standard library and ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not __package__:
    sys.path.insert(0, str(ROOT))       # run as a script

from livebench.hostspeed import NOMINAL_MS  # noqa: E402

#: One 60 Hz frame: an interactive answer must arrive within it.
FRAME_MS = 1000.0 / 60.0

#: Script rounds per requested second, per workload: a run measures
#: about ``--seconds`` on a 2-core x86-64 host.  The count derives from
#: the argument, never from the clock, so two commits send the same
#: script.
ROUNDS_PER_SECOND = {"drag_gesture": 0.65, "edit_mix": 0.33,
                     "session_churn": 0.34}
SETUPS = 3


def percentile(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def set_up(workloads, cls, pool, seed: int, rounds: int, repeats: int):
    """Set the service up ``repeats`` times; keep the last, return it with
    the median set-up time (at nominal host speed)."""
    workload = cls(pool, seed, rounds)
    durations = []
    for _ in range(repeats):
        client = None
        gc.collect()
        client = workloads.Client(None)
        start = perf_counter()
        client.app = workload.make_app()
        workload.setup(client)
        elapsed = perf_counter() - start - client.speed.spent_s
        client.speed.close()
        durations.append(elapsed * client.speed.mean_scale())
        if client.failed:
            raise RuntimeError(f"set-up of {cls.name} failed "
                               f"{client.failed} request(s)")
    gc.collect()
    return workload, client.app, statistics.median(durations)


def end_to_end(workload, client, setup_s: float, peak_rss_mb: float,
               failed: int) -> dict:
    """The user-visible metrics; times in milliseconds on the host at
    its nominal speed (``hostspeed.py``)."""
    every = [(sample.verb, client.nominal_ms(sample), sample.ok)
             for sample in client.samples]

    def verb(name):
        return [ms for sent, ms, _ in every if sent == name]

    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(every) / (sum(ms for _, ms, _ in every)
                                         / 1000.0), "1/s"),
        "ok_frac": ((client.attempted - failed) / client.attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "in_frame_frac": (sum(ok and ms <= FRAME_MS for _, ms, ok in every)
                          / len(every), "frac"),
        "lead_p50_ms": (statistics.median(verb(workload.lead)), "ms"),
        "lead_mean_ms": (statistics.fmean(verb(workload.lead)), "ms"),
        "follow_p50_ms": (statistics.median(verb(workload.follow)), "ms"),
    }


def per_layer(tracer, client, stats_before: dict, stats_after: dict,
              overhead: float) -> dict:
    """Self times (at nominal host speed) and counts of every layer."""
    times = tracer.self_times(
        lambda request: client.speed.scale(client.samples[request - 1].epoch))

    def ms(name):
        return (times.get(name, (0.0, 0))[0], "ms")

    def calls(name):
        return (times.get(name, (0.0, 0))[1], "count")

    def delta(key):
        return stats_after[key] - stats_before[key]

    replays = tracer.tags("lang.compile.replay")
    solves = tracer.tags("zones.triggers.solve")
    outcomes = sum(total for _, total in solves)
    kinds = tracer.tags("lang.diff")
    cache_before = stats_before["compile_cache"]
    cache_after = stats_after["compile_cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    specializations = delta("specializations")
    return {
        "lang.compile.replay_ms": ms("lang.compile.replay"),
        "lang.compile.replay_calls": (len(replays), "count"),
        "lang.compile.replay_hit_frac":
            (sum(replays) / len(replays) if replays else 0.0, "frac"),
        "lang.compile.specialize_ms": ms("lang.compile.specialize"),
        "lang.compile.specializations": (specializations, "count"),
        "lang.compile.replays_per_specialization":
            (len(replays) / max(1, specializations), "ratio"),
        "svg.render.render_ms": ms("svg.render"),
        "svg.render.calls": calls("svg.render"),
        "lang.program.unparse_ms": ms("lang.program.unparse"),
        "lang.program.unparse_calls": calls("lang.program.unparse"),
        "core.pipeline.assign_ms": ms("core.pipeline.assign"),
        "core.pipeline.trigger_ms": ms("core.pipeline.trigger"),
        "core.pipeline.slider_ms": ms("core.pipeline.slider"),
        "lang.incremental.record_ms": ms("lang.incremental.record"),
        "lang.incremental.record_calls": calls("lang.incremental.record"),
        "core.pipeline.eval_ms": ms("core.pipeline.eval"),
        "core.pipeline.canvas_ms": ms("core.pipeline.canvas"),
        "core.pipeline.escalations":
            (sum(bool(tag) for tag in tracer.tags("core.pipeline.eval")),
             "count"),
        "zones.triggers.solve_ms": ms("zones.triggers.solve"),
        "zones.triggers.calls": (len(solves), "count"),
        "zones.triggers.unsolved_frac":
            (sum(unsolved for unsolved, _ in solves) / outcomes
             if outcomes else 0.0, "frac"),
        "lang.program.substitute_ms": ms("lang.program.substitute"),
        "lang.diff.diff_ms": ms("lang.diff"),
        "lang.diff.value": (kinds.count("value"), "count"),
        "lang.diff.structural": (kinds.count("structural"), "count"),
        "lang.diff.identity": (kinds.count("identity"), "count"),
        "lang.diff.full": (kinds.count("full"), "count"),
        "lang.parser.parse_ms": ms("lang.parser.parse"),
        "lang.parser.calls": calls("lang.parser.parse"),
        "serve.cache.compile_ms": ms("serve.cache.compile"),
        "serve.cache.hit_frac": (hits / lookups if lookups else 0.0,
                                 "frac"),
        "serve.manager.snapshot_ms": ms("serve.manager.snapshot"),
        "serve.manager.restore_ms": ms("serve.manager.restore"),
        "serve.manager.evictions": (delta("evicted"), "count"),
        "serve.manager.rehydrations": (delta("rehydrated"), "count"),
        "serve.protocol.self_ms": ms("serve.protocol"),
        "serve.json.self_ms": ms("serve.json"),
        "serve.json.resp_bytes": (client.resp_bytes / client.attempted,
                                  "B/req"),
        "trace.overhead_frac": (overhead, "frac"),
    }


def describe(client) -> None:
    """Per-verb latencies over the whole run, for every verb sent: raw
    and at nominal host speed; then the host-speed timings."""
    for verb in sorted({sample.verb for sample in client.samples}):
        samples = [sample for sample in client.samples if sample.verb == verb]
        raw = [sample.ms for sample in samples]
        nominal = [client.nominal_ms(sample) for sample in samples]
        line = (f"  {verb}_p50_ms = {statistics.median(nominal):.4f} ms"
                f" (raw {statistics.median(raw):.4f})")
        if len(samples) >= 1000:
            line += (f", {verb}_p99_ms = {percentile(nominal, 0.99):.4f} ms"
                     f" (raw {percentile(raw, 0.99):.4f})")
        print(f"{line}, n={len(samples)}")
    refs = client.speed.refs
    print(f"host speed: reference loop {statistics.median(refs):.3f} ms "
          f"median, {min(refs):.3f}-{max(refs):.3f} ms over {len(refs)} "
          f"timings (nominal {NOMINAL_MS} ms)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir() \
            or not (ROOT / "tests" / "svg_corpus").is_dir():
        print(f"livebench: {ROOT} holds no repro checkout (src/repro and "
              f"tests/svg_corpus are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from livebench import workloads
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"livebench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rounds = max(1, round(args.seconds * ROUNDS_PER_SECOND[cls.name]))
    print(f"host: python {platform.python_version()}, nproc "
          f"{os.cpu_count()}, {platform.platform()}")

    clock = [perf_counter()]

    def lap() -> float:
        clock.append(perf_counter())
        return clock[-1] - clock[-2]

    pool = workloads.build_pool(ROOT)
    pool_s = lap()
    workload, app, setup_s = set_up(workloads, cls, pool, args.seed, rounds,
                                    SETUPS)
    setups_s = lap()
    client = workloads.Client(app)
    workload.run(client)
    client.speed.close()
    run_s = lap()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del workload, app
    mismatches = workloads.oracle_mismatches(client.checks)
    failed = client.failed + len(mismatches)
    print(f"{cls.name}: seed {args.seed}, {rounds} rounds, "
          f"{client.attempted} requests, {len(client.checks)} checked, "
          f"{len(mismatches)} oracle mismatches, {client.failed} failed")
    for mismatch in mismatches[:5]:
        print(f"  oracle mismatch: {mismatch}")
    print(f"wall: pool {pool_s:.1f} s, {SETUPS} set-ups {setups_s:.1f} s, "
          f"script {run_s:.1f} s, oracle {lap():.1f} s")
    describe(client)
    untraced = end_to_end(cls, client, setup_s, peak_rss_mb, failed)
    attempted = client.attempted

    if args.trace:
        from livebench.tracing import Tracer
        workload, app, _ = set_up(workloads, cls, pool, args.seed, rounds, 1)
        tracer = Tracer()
        traced = workloads.Client(app, exchange=tracer.exchange)
        before = app.manager.stats()
        tracer.install()
        try:
            workload.run(traced)
        finally:
            tracer.uninstall()
        traced.speed.close()
        after = app.manager.stats()
        attempted += traced.attempted
        failed += traced.failed
        overhead = 1.0 - end_to_end(cls, traced, setup_s, peak_rss_mb, 0)[
            "requests_per_s"][0] / untraced["requests_per_s"][0]
        metrics = per_layer(tracer, traced, before, after, overhead)
        out = ROOT / "livebench" / "out" \
            / f"spans-{cls.name}-{args.seed}.tsv.gz"
        tracer.write(out)
        print(f"traced: {len(tracer.spans)} spans written to "
              f"{out.relative_to(ROOT)}")
    else:
        metrics = untraced
    for name, (value, unit) in {**untraced, **metrics}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
