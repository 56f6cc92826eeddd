"""Host-speed normalization for a shared, noisy host.

On the 2-vCPU host this benchmark was defined on, the speed of one
interpreter thread flips between two states about 1.65x apart every few
seconds (a neighbour competing for the physical core), so raw run-to-run
spreads reach 20-40% whatever the run length.  The benchmark therefore
times a fixed reference loop — standard library only, independent of the
code under test — every ``PERIOD_MS`` of measured work, and scales each
request's latency by ``NOMINAL_MS`` over the reference time around it:
reported times read as milliseconds on the host in its fast state.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

#: The reference loop's time on an uncontended core of the host the
#: benchmark was defined on (2-vCPU x86-64 VM, Python 3.11).
NOMINAL_MS = 1.15
#: Measured request time between two reference timings.
PERIOD_MS = 100.0


def _build(depth: int, seed: int):
    if depth == 0:
        return ("num", float(seed % 7 + 1))
    return ("add" if seed % 3 else "mul", _build(depth - 1, 2 * seed),
            _build(depth - 1, 2 * seed + 1))


def _evaluate(node, env) -> float:
    if node[0] == "num":
        return node[1] + env["x"]
    left, right = _evaluate(node[1], env), _evaluate(node[2], env)
    return left + right if node[0] == "add" else (left * right) % 1000.0


def reference() -> float:
    """Fixed interpreter-bound work like the service's own: build and
    evaluate small expression trees, format and sort strings."""
    total = 0.0
    for seed in range(4):
        total += _evaluate(_build(9, seed), {"x": seed * 0.5})
    return total + len(sorted(f"w{(j * 7919) % 1000}" for j in range(300)))


def reference_ms() -> float:
    """The reference loop's time now: the median of three timings."""
    times = []
    for _ in range(3):
        start = perf_counter()
        reference()
        times.append((perf_counter() - start) * 1000.0)
    return statistics.median(times)


class HostSpeed:
    """Reference timings taken along a run; requests made between two
    timings belong to the *epoch* of the first."""

    def __init__(self):
        self.refs: List[float] = [reference_ms()]
        self._since = 0.0
        #: Wall time spent timing the reference after the first timing.
        self.spent_s = 0.0

    @property
    def epoch(self) -> int:
        return len(self.refs) - 1

    def tick(self, ms: float) -> None:
        """Account ``ms`` of measured work; time the reference once a
        period has accumulated (outside any request's timing)."""
        self._since += ms
        if self._since >= PERIOD_MS:
            self._time()
            self._since = 0.0

    def close(self) -> None:
        """Time the reference once more, bounding the last epoch."""
        self._time()

    def _time(self) -> None:
        start = perf_counter()
        self.refs.append(reference_ms())
        self.spent_s += perf_counter() - start

    def scale(self, epoch: int) -> float:
        """Factor from raw to nominal-host milliseconds for ``epoch``:
        the reference time is the mean of the timings bounding it."""
        bounds = self.refs[epoch:epoch + 2]
        return NOMINAL_MS / (sum(bounds) / len(bounds))

    def mean_scale(self) -> float:
        return NOMINAL_MS / statistics.fmean(self.refs)
