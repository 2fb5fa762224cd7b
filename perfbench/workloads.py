"""The benchmark's workloads: one served traffic mix and one in-process loop.

Every workload builds its inputs from the seed alone and hands the
program only those inputs, through public entry points:
``ReproService.submit`` for the served mix and
``RnsPolynomialRing.encode/mul/add`` for the RNS loop. Operands are
distinct per request, so a result cache would have nothing to hit.

The fixed offered rates and latency limits are constants, set once at
about half the capacity this repository had when the benchmark was
defined; they are never recomputed from a run.
"""

from __future__ import annotations

import asyncio
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import layers
from awake import cpus_kept_awake
from loadgen import Phase, find_capacity, open_loop, percentile, poisson_schedule
from oracle import check_rns_mac, check_served, corrupted, self_check

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Pool workers for the served workloads.
WORKERS = 2
#: Distinct random operand vectors drawn per run; each request copies two
#: of them and redraws ``_PERTURB`` coefficients, so no two requests
#: share an operand.
POOL_SIZE = 16
_PERTURB = 4
#: Share of ``--seconds`` spent at the fixed rate; the rest goes to the
#: capacity search. Both are split into ``CAPACITY_PROBES`` equal
#: pieces; probes start at the workload's ``capacity_guess``, and each
#: rate gets up to ``PROBE_TRIES`` of them.
FIXED_SHARE = 0.5
CAPACITY_PROBES = 8
PROBE_TRIES = 2
#: Every capacity probe, in every run, replays this one Poisson arrival
#: pattern scaled to its rate. A probe of a few seconds near saturation
#: cannot average out the luck of its draw; with one pattern, verdicts
#: differ by rate and by the program, not by the draw. The seed still
#: sets every operand and the fixed-rate schedule.
PROBE_PATTERN_SEED = 0
#: A phase is invalid when building and sending requests alone took
#: this share of its wall time: then the generator, not the program,
#: set the pace.
GENERATOR_BUSY_LIMIT = 0.25


@dataclass
class RunResult:
    """What one benchmark run hands back to the printer."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Extra context for the stamped record (sample counts, constants).
    info: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ServedWorkload:
    """An open-loop traffic mix sent to :class:`repro.serve.ReproService`."""

    name: str
    n: int
    q_bits: int
    ops: Tuple[str, ...]
    fixed_rate: float
    limit_ms: float
    #: Where the capacity search starts: the capacity this repository had
    #: when the benchmark was defined.
    capacity_guess: float
    sample_share: float

    @property
    def q(self) -> int:
        from repro.arith.primes import find_ntt_prime

        return find_ntt_prime(self.q_bits, 2 * self.n)


SERVE_POLYMUL = ServedWorkload(
    name="serve-polymul",
    n=4096,
    q_bits=100,
    ops=("polymul",),
    fixed_rate=18.0,
    limit_ms=500.0,
    capacity_guess=45.0,
    sample_share=0.02,
)


def _peak_rss_mb(pids: Sequence[int] = ()) -> float:
    """Sum of the high-water resident sizes of this process and ``pids``.

    Forked workers share pages with the parent; each process's high-water
    mark counts them, so the sum over-states the machine's peak and is
    steady run to run.
    """
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += float(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def _clear_plan_caches() -> None:
    """Drop process-wide twiddle and modulus caches, so each set-up is cold."""
    from repro.fast.modular import FastModulus
    from repro.ntt.twiddles import TwiddleTable

    TwiddleTable.clear_cache()
    FastModulus.clear_cache()


def _median_of(slices, stat) -> float:
    """Median over a run's time slices of one statistic of each slice.

    Reported instead of the statistic over the pooled run, so that one
    slice caught by a burst of host contention does not move the value.
    """
    return statistics.median(stat(s) for s in slices)


def _lower_quartile_of(slices, latency) -> float:
    """Lower quartile over a run's time slices of one latency of each slice.

    Served requests cross processes, and other tenants of a shared host
    delay those crossings in bursts of seconds; a burst can only make a
    slice slower, while a change to the program moves every slice. So
    the lower quartile follows the program and ignores bursts that
    cover up to three quarters of the run, where a median moves once
    they cover half of it.
    """
    return statistics.quantiles([latency(s) for s in slices], n=4)[0]


def _perturbed(base: List[int], rng: random.Random, q: int) -> List[int]:
    out = list(base)
    for _ in range(_PERTURB):
        out[rng.randrange(len(out))] = rng.randrange(q)
    return out


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------


async def _start_service(spec: ServedWorkload, q: int, warm: List[Tuple[list, list]]):
    """One set-up: cold caches, service and pool start, plan build, warm-up."""
    from repro.serve.service import ReproService, ServeConfig

    _clear_plan_caches()
    service = ReproService(config=ServeConfig(workers=WORKERS))
    await service.start()
    # The first round builds plans and starts the pool; the second
    # runs with every worker's plan cache warm.
    for _ in range(2):
        await asyncio.gather(*(
            service.submit(op, pair, spec.n, q) for op in spec.ops for pair in warm
        ))
    return service


async def _served(spec: ServedWorkload, seed: int, seconds: float, trace: bool) -> RunResult:
    q = spec.q
    rng = random.Random(seed)
    warm = [
        ([rng.randrange(q) for _ in range(spec.n)], [rng.randrange(q) for _ in range(spec.n)])
        for _ in range(2 * WORKERS)
    ]
    setups = []
    service = None
    for _ in range(SETUPS):
        if service is not None:
            await service.close()
        started = time.perf_counter()
        service = await _start_service(spec, q, warm)
        setups.append(time.perf_counter() - started)

    pool = [[rng.randrange(q) for _ in range(spec.n)] for _ in range(POOL_SIZE)]
    sample_rng = random.Random(seed ^ 0x5EED)
    sampled_ops = set()

    def make_request(_index: int):
        op = spec.ops[0] if len(spec.ops) == 1 else rng.choice(spec.ops)
        x = _perturbed(pool[rng.randrange(POOL_SIZE)], rng, q)
        y = _perturbed(pool[rng.randrange(POOL_SIZE)], rng, q)
        keep = op not in sampled_ops or sample_rng.random() < spec.sample_share
        sampled_ops.add(op)
        return op, (x, y), keep

    def submit(op, payload):
        return service.submit(op, payload, spec.n, q)

    def poisson(rate: float, duration: float, schedule_seed: int):
        offsets = poisson_schedule(schedule_seed, rate, duration)
        return open_loop(submit, make_request, offsets, rate, duration)

    result = RunResult()
    phases: List[Phase] = []
    try:
        if not trace:
            # Fixed-rate segments alternate with capacity probes, so both
            # measurements sample the host across the whole run.
            segment_s = seconds * FIXED_SHARE / CAPACITY_PROBES
            probe_s = seconds * (1.0 - FIXED_SHARE) / CAPACITY_PROBES
            segments: List[Phase] = []
            rss_mb: List[float] = []

            async def segment_then_probe(rate: float) -> Phase:
                segments.append(await poisson(
                    spec.fixed_rate, segment_s, CAPACITY_PROBES * seed + len(segments)
                ))
                if not rss_mb:
                    # Memory at the fixed operating point, before any
                    # probe overloads the service on purpose.
                    rss_mb.append(_peak_rss_mb(service.executor.worker_pids()))
                return await poisson(rate, probe_s, PROBE_PATTERN_SEED)

            capacity, probes = await find_capacity(
                segment_then_probe, spec.capacity_guess, spec.limit_ms,
                CAPACITY_PROBES, tries=PROBE_TRIES,
            )
            fixed = Phase(
                rate=spec.fixed_rate,
                duration=segment_s * len(segments),
                outcomes=[o for s in segments for o in s.outcomes],
                generator_busy_s=sum(s.generator_busy_s for s in segments),
            )
            phases = [fixed] + probes
            result.info["fixed_segments"] = [
                {"p50_ms": percentile(s.latencies_ms, 50),
                 "p90_ms": percentile(s.latencies_ms, 90), "requests": len(s.outcomes)}
                for s in segments
            ]
            result.info["capacity_probes"] = [
                {"rate": round(p.rate, 3), "requests": len(p.outcomes),
                 "p99_ms": percentile(p.latencies_ms, 99), "pass": p.passes(spec.limit_ms)}
                for p in probes
            ]
        else:
            from repro.obs import observing

            # Untraced quarters flank the traced half, so a steady drift
            # of host speed cancels out of the tracing overhead.
            before = await poisson(spec.fixed_rate, seconds / 4, 3 * seed)
            with observing() as session:
                loop = asyncio.get_running_loop()
                started = loop.time()
                fixed = await poisson(spec.fixed_rate, seconds / 2, 3 * seed + 1)
                wall = loop.time() - started
                result.metrics.update(layers.serve_layers(
                    session, fixed, wall, WORKERS, service.config.max_batch
                ))
            after = await poisson(spec.fixed_rate, seconds / 4, 3 * seed + 2)
            phases = [before, fixed, after]
    finally:
        await service.close()

    _check_served(spec, q, phases, result)
    for p in phases:
        if p.generator_busy_s > GENERATOR_BUSY_LIMIT * p.duration:
            raise InvalidRun(
                f"{spec.name}: the generator was busy {p.generator_busy_s:.2f} s "
                f"of a {p.duration:.2f} s phase at {p.rate:.1f}/s"
            )
    lat = fixed.latencies_ms
    lag_p99 = percentile([o.lag_ms for o in fixed.outcomes], 99)
    result.info.update({
        "fixed_rate_rps": spec.fixed_rate,
        "latency_limit_ms": spec.limit_ms,
        "fixed_requests": len(lat),
        "p99_ms": percentile(lat, 99),
        "loadgen_lag_p99_ms": lag_p99,
        "setup_samples_s": setups,
    })
    if not trace:
        result.info["p90_ms"] = _lower_quartile_of(
            segments, lambda s: percentile(s.latencies_ms, 90)
        )
        result.metrics.update({
            "p50_ms": _lower_quartile_of(segments, lambda s: percentile(s.latencies_ms, 50)),
            "capacity_rps": capacity,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb[0],
        })
    else:
        all_outcomes = [o for p in phases for o in p.outcomes]
        result.metrics.update({
            "loadgen.lag_ms.p99": percentile([o.lag_ms for o in all_outcomes], 99),
            "loadgen.sent": float(len(all_outcomes)),
            "loadgen.completed": float(sum(1 for o in all_outcomes if o.error is None)),
            "obs.trace_overhead_frac": percentile(lat, 50)
            / percentile(before.latencies_ms + after.latencies_ms, 50) - 1.0,
        })
        result.metrics.update(layers.kernel_layers(spec.n, q, seed))
    return result


def _check_served(spec: ServedWorkload, q: int, phases: List[Phase], result: RunResult) -> None:
    """Run the oracle over the kept sample, off the clock; tally outcomes."""
    outcomes = [o for p in phases for o in p.outcomes]
    kept = [o for o in outcomes if o.kept is not None]
    for o in kept:
        payload, response = o.kept
        o.wrong = not check_served(o.op, payload, response, q)
    checked_ops = {o.op for o in kept}
    first = kept[0] if kept else None
    oracle_live = first is not None and (
        first.wrong or self_check(first.op, first.kept[0], first.kept[1], q)
    )
    result.attempted = len(outcomes)
    result.failed = sum(1 for o in outcomes if not o.ok)
    result.correct = (
        oracle_live
        and checked_ops == set(spec.ops)
        and not any(o.wrong for o in kept)
    )
    completed = sum(1 for o in outcomes if o.error is None)
    result.metrics["oracle.sample_frac"] = len(kept) / completed if completed else 0.0
    result.info["oracle_checked"] = len(kept)


class InvalidRun(RuntimeError):
    """The measurement itself is unusable (not a failure of the program)."""


# ----------------------------------------------------------------------
# In-process RNS multiply-accumulate
# ----------------------------------------------------------------------

RNS_N = 4096
RNS_PRIMES = 8
RNS_PRIME_BITS = 50
#: MAC calls whose product and accumulation the oracle checks: the
#: first call of each loop plus seeded picks among its first
#: ``_RNS_SAMPLE_SPAN`` calls (a fixed count keeps memory steady).
RNS_SAMPLES = 3
_RNS_SAMPLE_SPAN = 40
#: Equal time slices of the closed loop; latency and throughput are the
#: median over slices. A compute loop that never waits is slowed by
#: other tenants evenly rather than in bursts, so the lower quartile
#: the served workload uses would only add the noise of fewer samples.
RNS_SLICES = 6


def rns_primes() -> List[int]:
    """Eight distinct 50-bit primes ``= 1 mod 2n`` (one-limb r52 range)."""
    from repro.arith.primes import is_prime

    order = 2 * RNS_N
    primes = []
    candidate = ((1 << RNS_PRIME_BITS) - 1) // order * order + 1
    while len(primes) < RNS_PRIMES:
        if is_prime(candidate):
            primes.append(candidate)
        candidate -= order
    return primes


def _mac_loop(ring, polys, acc, rng, duration):
    """Closed loop of ``acc = ring.add(acc, ring.mul(f, g))`` for ``duration``."""
    mul_s, add_s, total_s, ends, kept = [], [], [], [], []
    sample_at = {0} | set(rng.sample(range(1, _RNS_SAMPLE_SPAN), RNS_SAMPLES - 1))
    started = time.perf_counter()
    deadline = started + duration
    while time.perf_counter() < deadline:
        f = polys[rng.randrange(len(polys))]
        g = polys[rng.randrange(len(polys))]
        t0 = time.perf_counter()
        prod = ring.mul(f, g)
        t1 = time.perf_counter()
        new_acc = ring.add(acc, prod)
        t2 = time.perf_counter()
        mul_s.append(t1 - t0)
        add_s.append(t2 - t1)
        total_s.append(t2 - t0)
        ends.append(t2 - started)
        if len(total_s) - 1 in sample_at:
            kept.append((f, g, prod, acc, new_acc))
        acc = new_acc
    elapsed = time.perf_counter() - started
    width = elapsed / RNS_SLICES
    slices = [[] for _ in range(RNS_SLICES)]
    for end, seconds in zip(ends, total_s):
        slices[min(int(end / width), RNS_SLICES - 1)].append(seconds * 1e3)
    return {"mul": mul_s, "add": add_s, "total": total_s, "kept": kept,
            "elapsed": elapsed, "acc": acc, "slices": slices}


def _rns_mac(seed: int, seconds: float, trace: bool) -> RunResult:
    from repro.kernels import get_backend
    from repro.rns.basis import RnsBasis
    from repro.rns.poly import RnsPolynomialRing

    primes = rns_primes()
    modulus = math.prod(primes)
    rng = random.Random(seed)
    coefficients = [[rng.randrange(modulus) for _ in range(RNS_N)] for _ in range(POOL_SIZE // 2)]

    setups, encode_s = [], []
    for _ in range(SETUPS):
        started = time.perf_counter()
        _clear_plan_caches()
        ring = RnsPolynomialRing(
            RNS_N, RnsBasis(primes), get_backend("avx512"), engine="fast"
        )
        polys = []
        for coeffs in coefficients:
            t0 = time.perf_counter()
            polys.append(ring.encode(coeffs))
            encode_s.append(time.perf_counter() - t0)
        acc = ring.add(ring.zero(), ring.mul(polys[0], polys[1]))
        setups.append(time.perf_counter() - started)

    result = RunResult()
    if not trace:
        run = _mac_loop(ring, polys, acc, rng, seconds)
        runs = [run]
    else:
        from repro.obs import observing

        # Untraced quarters flank the traced half (see the served twin).
        head = _mac_loop(ring, polys, acc, rng, seconds / 4)
        with observing() as session:
            run = _mac_loop(ring, polys, head["acc"], rng, seconds / 2)
            degraded = layers.counter(session.metrics, "resil.degraded")
        tail = _mac_loop(ring, polys, run["acc"], rng, seconds / 4)
        runs = [head, run, tail]
    rss_mb = _peak_rss_mb()

    kept = [k for r in runs for k in r["kept"]]
    wrong = sum(
        1 for f, g, prod, before, after in kept
        if not check_rns_mac(primes, f.residues, g.residues, prod.residues,
                             before.residues, after.residues)
    )
    # The oracle must flag a product with one corrupted coefficient.
    f, g, prod, before, after = kept[0]
    bad = [corrupted(prod.residues[0], RNS_N // 2, primes[0])] + prod.residues[1:]
    oracle_live = not check_rns_mac(
        primes, f.residues, g.residues, bad, before.residues, after.residues
    )
    calls = sum(len(r["total"]) for r in runs)
    result.attempted = calls
    result.failed = wrong
    result.correct = oracle_live and wrong == 0
    lat_ms = [s * 1e3 for s in run["total"]]
    result.info.update({
        "calls": len(lat_ms),
        "p99_ms": percentile(lat_ms, 99),
        "oracle_checked": len(kept),
        "setup_samples_s": setups,
    })
    result.metrics["oracle.sample_frac"] = len(kept) / calls
    if not trace:
        slices = [s for s in run["slices"] if s]
        result.info["p90_ms"] = _median_of(slices, lambda s: percentile(s, 90))
        result.metrics.update({
            "p50_ms": _median_of(slices, lambda s: percentile(s, 50)),
            # Calls per second of calling time: a whole-call count per
            # slice would step by a few percent.
            "capacity_rps": _median_of(slices, lambda s: 1e3 * len(s) / sum(s)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
        })
    else:
        # Layer timers come from the untraced quarters.
        untraced = [head, tail]
        untraced_ops_per_s = sum(len(r["total"]) for r in untraced) / sum(
            r["elapsed"] for r in untraced
        )
        result.metrics.update({
            "rns.mul_ms.p50": percentile(head["mul"] + tail["mul"], 50) * 1e3,
            "rns.add_ms.p50": percentile(head["add"] + tail["add"], 50) * 1e3,
            "rns.encode_ms.p50": percentile(encode_s, 50) * 1e3,
            "loadgen.lag_ms.p99": 0.0,
            "loadgen.sent": float(calls),
            "loadgen.completed": float(calls),
            "obs.trace_overhead_frac":
                untraced_ops_per_s / (len(run["total"]) / run["elapsed"]) - 1.0,
            "resil.degraded": degraded,
        })
        result.metrics.update(layers.kernel_layers(RNS_N, primes[0], seed))
    return result


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Per-layer metric prefixes each workload bypasses; they read 0.
BYPASSED = {
    "serve-polymul": ("rns.",),
    "rns-mac": ("serve.", "par."),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    if name == SERVE_POLYMUL.name:
        # Served requests cross processes, so idle CPUs must wake for
        # each of them; the in-process loop below never leaves one idle.
        with cpus_kept_awake() as spinners:
            result = asyncio.run(_served(SERVE_POLYMUL, seed, seconds, trace))
        result.info["awake_spinners"] = spinners
        return result
    if name == "rns-mac":
        return _rns_mac(seed, seconds, trace)
    raise KeyError(name)
