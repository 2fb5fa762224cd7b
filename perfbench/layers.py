"""Per-layer metrics: read from the program's own ``repro.obs`` record, or
timed by the benchmark around public kernel entry points.

Nothing here adds instrumentation to the program. Serve, par and resil
numbers come from the spans, counters and histograms an ``observing()``
session already collects; the ``fast.*`` kernel numbers come from
benchmark-side timers around :mod:`repro.fast` calls on resident limb
arrays, at the workload's own ``(n, q)``.

Which end-to-end metric each layer metric should move (all served
metrics are measured on serve-polymul, the kernel metrics on both
workloads at their own ``(n, q)``)::

    loadgen.lag_ms.p99, .sent, .completed   none: run validity
    serve.coalesce_wait_ms.*                p50_ms
    serve.queue_wait_ms.*                   p90_ms, capacity_rps
    serve.compute_ms.p50, .batches,
      .batch_fill                           capacity_rps
    serve.shed, .failed,
      .latency_residual_frac                failed_frac
    par.dispatch_ms.p50, .collect_ms.p50,
      .shards_per_batch                     p50_ms
    par.worker.busy_frac                    capacity_rps
    par.worker.map_shm_ms, .checksum_ms,
      par.arena.reuse_rate                  p50_ms, peak_rss_mb
    par.retries, .fallbacks,
      .workers.restarted, resil.degraded    failed_frac, p90_ms
    fast.polymul/.chain_polymul/.ntt        capacity_rps on both
    fast.blas_*/.to_limbs/.from_limbs       capacity_rps on rns-mac
    fast.r52.carry_flushes (per polymul),
      fast.ntt.bytes_computed (per call)    none: exact counts
    rns.mul_ms/.add_ms.p50                  capacity_rps on rns-mac
    rns.encode_ms.p50                       setup_s on rns-mac
    obs.trace_overhead_frac                 none: cost of tracing

A layer a workload never enters (``rns.*`` on serve-polymul, ``serve.*``
and ``par.*`` on rns-mac) reads 0.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from typing import Callable, Dict, List, Sequence

from loadgen import Phase, percentile
from oracle import blas_reference, negacyclic_product

#: Interleaved repetitions per kernel; the median is reported.
KERNEL_REPS = 15
#: Shortest timed sample; fast kernels loop inside one sample to reach it.
_MIN_SAMPLE_S = 0.002


def counter(metrics, name: str) -> float:
    metric = metrics.get(name)
    return float(metric.value) if metric is not None else 0.0


def _hist_values(metrics, name: str) -> List[float]:
    metric = metrics.get(name)
    return list(metric.values) if metric is not None else []


def _p_ms(values: Sequence[float], pct: float) -> float:
    return percentile(list(values), pct) * 1e3 if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def serve_layers(
    session, phase: Phase, wall_s: float, workers: int, max_batch: int
) -> Dict[str, float]:
    """``serve.*``, ``par.*`` and ``resil.*`` metrics of one traced phase.

    Also prints each request's latency split into the service's three
    recorded slices (coalesce wait, queue wait, compute) plus the
    residual the slices do not cover (generator lag, submit path, the
    hop back to the event loop), so the four parts sum to the latency.
    """
    m = session.metrics
    ops = sorted({o.op for o in phase.outcomes})
    slices = {
        part: {op: _hist_values(m, f"serve.{part}_s.{op}") for op in ops}
        for part in ("coalesce_wait", "queue_wait", "compute")
    }
    total_latency = total_residual = 0.0
    unpaired = 0
    print("request waterfall (ms): latency = coalesce + queue + compute + residual",
          file=sys.stderr)
    for op in ops:
        # The service records slices in resolution order on its single
        # dispatcher thread, and futures wake their awaiting tasks in the
        # same order, so the k-th completion of ``op`` owns slice k.
        done = sorted((o for o in phase.outcomes if o.op == op and o.ok),
                      key=lambda o: o.seq)
        parts = [slices[p][op] for p in ("coalesce_wait", "queue_wait", "compute")]
        if any(len(values) != len(done) for values in parts):
            unpaired += len(done)
            continue
        for o, c, q, x in zip(done, *parts):
            latency = o.latency_ms
            residual = latency - (c + q + x) * 1e3
            # The service's clock starts after the due time and stops
            # before the client wakes, so a correct pairing never goes
            # negative.
            if residual < 0:
                unpaired += 1
            total_latency += latency
            total_residual += residual
            print(f"  {op:16s} {latency:9.3f} = {c * 1e3:8.3f} + {q * 1e3:8.3f}"
                  f" + {x * 1e3:8.3f} + {residual:8.3f}", file=sys.stderr)
    print(f"waterfall: {len(phase.outcomes)} requests, {unpaired} unpaired",
          file=sys.stderr)

    def merged(part: str) -> List[float]:
        return [v for op in ops for v in slices[part][op]]

    batch_sizes = _hist_values(m, "serve.batch.size")
    runs = [r for r in session.spans.records if r.name == "par.run"]

    def span_ms(name: str) -> float:
        return _p_ms([r.duration_s for r in session.spans.records if r.name == name], 50)

    return {
        "serve.coalesce_wait_ms.p50": _p_ms(merged("coalesce_wait"), 50),
        "serve.coalesce_wait_ms.p99": _p_ms(merged("coalesce_wait"), 99),
        "serve.queue_wait_ms.p50": _p_ms(merged("queue_wait"), 50),
        "serve.queue_wait_ms.p99": _p_ms(merged("queue_wait"), 99),
        "serve.compute_ms.p50": _p_ms(merged("compute"), 50),
        "serve.batches": counter(m, "serve.batches"),
        "serve.batch_fill": _ratio(statistics.fmean(batch_sizes), max_batch)
        if batch_sizes else 0.0,
        "serve.shed": counter(m, "serve.shed"),
        "serve.failed": counter(m, "serve.requests.failed"),
        "serve.latency_residual_frac": _ratio(total_residual, total_latency),
        "par.dispatch_ms.p50": span_ms("par.dispatch"),
        "par.collect_ms.p50": span_ms("par.collect"),
        "par.shards_per_batch": _ratio(counter(m, "par.shards.dispatched"), len(runs)),
        "par.worker.busy_frac": _ratio(
            sum(_hist_values(m, "par.worker.compute_s")), wall_s * workers
        ),
        "par.worker.map_shm_ms": _p_ms(_hist_values(m, "par.worker.map_shm_s"), 50),
        "par.worker.checksum_ms": _p_ms(_hist_values(m, "par.worker.checksum_s"), 50),
        "par.arena.reuse_rate": _ratio(
            counter(m, "par.arena.reuses"), counter(m, "par.arena.leases")
        ),
        "par.retries": counter(m, "par.retries"),
        "par.fallbacks": counter(m, "par.fallbacks"),
        "par.workers.restarted": counter(m, "par.workers.restarted"),
        "resil.degraded": counter(m, "resil.degraded"),
    }


def _time_interleaved(kernels: Dict[str, Callable[[], object]]) -> Dict[str, float]:
    """Median seconds per call of each kernel, sampled round-robin."""
    inner = {}
    for name, fn in kernels.items():
        started = time.perf_counter()
        fn()
        once = time.perf_counter() - started
        inner[name] = max(1, int(_MIN_SAMPLE_S / max(once, 1e-7)))
    samples: Dict[str, List[float]] = {name: [] for name in kernels}
    for _ in range(KERNEL_REPS):
        for name, fn in kernels.items():
            reps = inner[name]
            started = time.perf_counter()
            for _ in range(reps):
                fn()
            samples[name].append((time.perf_counter() - started) / reps)
    return {name: statistics.median(values) for name, values in samples.items()}


def kernel_layers(n: int, q: int, seed: int) -> Dict[str, float]:
    """``fast.*`` metrics at ``(n, q)`` on one resident row of limbs.

    One row is what the workloads hand the engine: the served batches
    at the fixed rate hold about one request, and the RNS ring calls the
    engine once per prime. Raises ``RuntimeError`` if a kernel's output
    disagrees with the oracle.
    """
    from repro.fast import FastBlasPlan, FastNegacyclic, limbs_from_ints, limbs_to_ints
    from repro.fast.chain import NEGACYCLIC_MUL_STEPS, run_chain
    from repro.obs import observing

    rng = random.Random(seed)
    x_ints = [[rng.randrange(q) for _ in range(n)]]
    y_ints = [[rng.randrange(q) for _ in range(n)]]
    neg = FastNegacyclic(n, q)
    ntt = neg.plan
    blas = FastBlasPlan(q)
    xa = limbs_from_ints(x_ints)
    ya = limbs_from_ints(y_ints)

    def chain():
        return run_chain(NEGACYCLIC_MUL_STEPS, {"x": xa, "y": ya}, ntt, neg=neg)

    kernels = {
        "fast.polymul.ns_per_elem": lambda: neg.multiply(xa, ya),
        "fast.chain_polymul.ns_per_elem": chain,
        "fast.ntt.ns_per_elem": lambda: ntt.forward(xa),
        "fast.blas_mul.ns_per_elem": lambda: blas.vector_mul(xa, ya),
        "fast.blas_add.ns_per_elem": lambda: blas.vector_add(xa, ya),
        "fast.to_limbs.ns_per_elem": lambda: limbs_from_ints(x_ints),
        "fast.from_limbs.ns_per_elem": lambda: limbs_to_ints(xa),
    }
    # Outputs are checked against the oracle before anything is timed.
    product = negacyclic_product(x_ints[0], y_ints[0], q)
    checks = {
        "polymul": limbs_to_ints(neg.multiply(xa, ya))[0] == product,
        "chain": limbs_to_ints(chain())[0] == product,
        "blas_mul": limbs_to_ints(blas.vector_mul(xa, ya))[0]
        == blas_reference("blas.vector_mul", x_ints[0], y_ints[0], q),
        "blas_add": limbs_to_ints(blas.vector_add(xa, ya))[0]
        == blas_reference("blas.vector_add", x_ints[0], y_ints[0], q),
        "limbs": limbs_to_ints(limbs_from_ints(x_ints)) == x_ints,
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise RuntimeError(f"kernel outputs disagree with the oracle: {bad}")

    per_call = _time_interleaved(kernels)
    out = {name: seconds * 1e9 / n for name, seconds in per_call.items()}

    with observing() as session:
        neg.multiply(xa, ya)
        flushes = counter(session.metrics, "engine.fast.r52.carry_flushes")
    out["fast.r52.carry_flushes"] = flushes
    out["fast.ntt.bytes_computed"] = float(ntt_bytes(n, ntt.mod))
    return out


def ntt_bytes(n: int, mod) -> int:
    """Bytes one forward NTT of ``n`` residues moves, computed, not measured.

    Each of the ``log2 n`` stages reads and writes every residue once and
    reads ``n / 2`` twiddles. A residue is ``L`` 8-byte limb planes on
    the r52 substrate (twiddles carry a Shoup companion, so ``2L``) and
    two 8-byte words on double-word (twiddles likewise two words).
    """
    stages = n.bit_length() - 1
    if mod.r52 is not None:
        residue = 8 * mod.r52.limbs
        twiddle = 2 * residue
    else:
        residue = twiddle = 16
    return stages * (2 * n * residue + (n // 2) * twiddle)
