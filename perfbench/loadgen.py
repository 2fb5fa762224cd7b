"""Open-loop Poisson load generation and capacity search for served workloads.

An open loop sends on a schedule whatever the system does, so a stall
shows as queueing instead of as a slower client. Each request is timed
from its *due* time (when the schedule said to send it), so the wait a
stall imposes on later requests counts in their latency; how late the
generator itself sent each request is recorded as its lag.

All timestamps are ``loop.time()`` (``time.monotonic``), the clock the
service stamps its own latency slices with, so client-side and
service-side times can be subtracted.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

#: Lead time between building the schedule and its first due time.
_LEAD_S = 0.01


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def poisson_schedule(seed: int, rate: float, duration: float) -> List[float]:
    """Due offsets (seconds) of a seeded Poisson arrival process on ``[0, duration)``.

    One seed gives one sequence of unit-rate gaps, scaled by ``1 / rate``,
    so schedules that share a seed replay the same arrival pattern,
    only faster or slower.
    """
    rng = random.Random(seed)
    offsets = []
    t = rng.expovariate(1.0) / rate
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(1.0) / rate
    return offsets


@dataclass
class Outcome:
    """One request's life as the client saw it."""

    op: str
    due: float
    sent: float
    done: float = math.nan
    seq: int = -1
    error: Optional[str] = None
    #: (payload, result) kept only for requests the oracle will check.
    kept: Optional[Tuple[Any, Any]] = None
    wrong: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.wrong

    @property
    def latency_ms(self) -> float:
        """Due-to-resolution time; a failed or wrong request is ``inf``."""
        return (self.done - self.due) * 1e3 if self.ok else math.inf

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1e3


@dataclass
class Phase:
    """All requests of one open-loop phase at one offered rate."""

    rate: float
    duration: float
    outcomes: List[Outcome] = field(default_factory=list)
    #: Time the generator spent building and sending requests.
    generator_busy_s: float = 0.0

    @property
    def latencies_ms(self) -> List[float]:
        return [o.latency_ms for o in self.outcomes]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def backlog_grew(self, limit_ms: float) -> bool:
        """Whether latency climbed across the phase (the queue kept growing).

        Compares the median latency of the last quarter of requests, in
        due order, with that of the first quarter; a rise of more than a
        quarter of the latency limit means arrivals outpaced service.
        """
        lat = self.latencies_ms
        quarter = len(lat) // 4
        if quarter < 2:
            return False
        first = percentile(lat[:quarter], 50)
        last = percentile(lat[-quarter:], 50)
        return last > first + limit_ms / 4.0

    def passes(self, limit_ms: float) -> bool:
        """Capacity criterion: no failures, p99 under the limit, no growing backlog."""
        return (
            bool(self.outcomes)
            and self.failed == 0
            and percentile(self.latencies_ms, 99) < limit_ms
            and not self.backlog_grew(limit_ms)
        )


#: ``make_request(index) -> (op, payload, keep)``; ``keep`` marks the
#: request for the oracle sample.
RequestFactory = Callable[[int], Tuple[str, Any, bool]]


async def open_loop(
    submit: Callable[[str, Any], Any],
    make_request: RequestFactory,
    offsets: List[float],
    rate: float,
    duration: float,
) -> Phase:
    """Send one request at each due offset of a ``rate``/``duration`` schedule.

    ``submit(op, payload)`` returns the awaitable response. Returns once
    every request has resolved.
    """
    loop = asyncio.get_running_loop()
    phase = Phase(rate=rate, duration=duration)
    completions = itertools.count()
    tasks = []

    async def one(outcome: Outcome, payload: Any, keep: bool) -> None:
        try:
            result = await submit(outcome.op, payload)
        except Exception as exc:  # shed, failed: counted, never dropped
            outcome.error = f"{type(exc).__name__}: {exc}"
        else:
            if keep:
                outcome.kept = (payload, result)
        outcome.done = loop.time()
        outcome.seq = next(completions)

    start = loop.time() + _LEAD_S
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        busy_from = time.perf_counter()
        op, payload, keep = make_request(index)
        outcome = Outcome(op=op, due=due, sent=loop.time())
        phase.outcomes.append(outcome)
        tasks.append(loop.create_task(one(outcome, payload, keep)))
        phase.generator_busy_s += time.perf_counter() - busy_from
    await asyncio.gather(*tasks)
    return phase


async def find_capacity(
    run_phase: Callable[[float], Any],
    guess: float,
    limit_ms: float,
    probes: int,
    step: float = 1.25,
    tries: int = 1,
) -> Tuple[float, List[Phase]]:
    """Highest offered rate that passes :meth:`Phase.passes`, in ``probes`` probes.

    Starts at ``guess`` and steps the rate geometrically by ``step`` (up
    while probes pass, down while they fail) until the edge is
    bracketed, then bisects the bracket geometrically with the probes
    left. A rate passes when any of up to ``tries`` probes at it passes:
    when every probe replays one arrival pattern, a retry differs from
    the first try only by the host, and contention from other tenants
    can fail a probe but never pass one. Returns the highest passing
    rate (0.0 if none passed) and every probe run.
    """
    runs: List[Phase] = []

    async def probe(rate: float) -> bool:
        for _ in range(tries):
            phase = await run_phase(rate)
            runs.append(phase)
            if phase.passes(limit_ms):
                return True
            if len(runs) >= probes:
                break
        return False

    lo: Optional[float] = None
    hi: Optional[float] = None
    rate = guess
    while len(runs) < probes and (lo is None or hi is None):
        if await probe(rate):
            lo = rate
            rate = rate * step
        else:
            hi = rate
            rate = rate / step
    while len(runs) < probes and lo is not None and hi is not None:
        mid = math.sqrt(lo * hi)
        if await probe(mid):
            lo = mid
        else:
            hi = mid
    return (lo or 0.0), runs
