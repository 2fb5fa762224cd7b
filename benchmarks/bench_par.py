"""Benchmark: sharded process-pool engine vs the in-process fast engine.

Times the workloads ``repro.par`` shards — a batched forward NTT, a
batched negacyclic polynomial multiply, and a fused multi-limb RNS ring
multiply — on both ``engine="fast"`` (sequential, in-process) and
``engine="parallel"`` (process pool), verifies the outputs are
bit-identical, and records everything into ``BENCH_par.json`` via the
``repro.obs.snapshot`` store.

Two families of keys:

* the original smoke keys (``par.ntt_batch`` / ``par.polymul_batch`` /
  ``par.rns_mul``, batch 8 at a 124-bit modulus) — correctness-gated
  always, speedup recorded;
* the **large-batch** keys (``par.ntt_large`` / ``par.polymul_large``,
  batch 32 at a 60-bit r52 modulus) — the arena + fused-shard sweet
  spot where the pool is expected to *win*; these are what an explicit
  ``--min-speedup`` floor gates. ``par.polymul_add`` additionally times
  the fused multiply-accumulate chain against its unfused two-dispatch
  form (``fusion_gain``), a win that does not need extra cores.

The fast baseline is the in-process fused chain: ``FastNegacyclic`` and
``FastNtt`` run the same step lists (:mod:`repro.fast.chain`) a pool
worker runs, so a speedup here measures parallelism alone, not fusion.

Correctness is the gate: outputs must match and no shard may have needed
a retry or an in-process fallback. Speedup is *recorded* but only
enforced when ``--min-speedup`` is passed, because the pool can only win
on a multi-core host (on one core the shards serialize and the shared
memory + coordination overhead makes the pool strictly slower; CI
containers are frequently single-core).

Runs two ways:

* ``python benchmarks/bench_par.py [--workers N] [--min-speedup X]``
  — the CI smoke (non-zero exit on mismatch, fallback, or a missed
  explicit speedup floor on the large-batch keys);
* ``pytest benchmarks/bench_par.py`` — the same correctness checks as
  a test.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path

from repro.arith.primes import find_ntt_prime
from repro.fast.blas import FastBlasPlan
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.kernels import get_backend
from repro.par import ParBlasPlan, ParNegacyclic, ParNtt, ParallelExecutor
from repro.obs.snapshot import SnapshotStore
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomialRing

#: Default snapshot file for pool-engine numbers, at the repo root.
DEFAULT_SNAPSHOT = Path(__file__).resolve().parent.parent / "BENCH_par.json"

NTT_N = 4096
BATCH = 8
#: Large-batch keys: enough rows that per-shard compute dominates the
#: pool's dispatch/collect envelope (the --min-speedup gate's target).
LARGE_BATCH = 32
RNS_LIMBS = 8
RNS_N = 1024

#: Keys an explicit --min-speedup floor gates (the rest are recorded).
GATED_KEYS = ("ntt_large", "polymul_large")


def _best_of(fn, rounds: int):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run(workers=None, rounds: int = 3) -> dict:
    """Time fast vs parallel on the sharded workloads; verify bit-exactness."""
    q = find_ntt_prime(124, 2 * NTT_N)
    rng = random.Random(2025)
    values = {"par.workers": float(workers or os.cpu_count() or 1)}

    with ParallelExecutor(workers=workers) as pool:
        # --- batched forward NTT (BATCH x NTT_N rows) ------------------
        batch = [[rng.randrange(q) for _ in range(NTT_N)] for _ in range(BATCH)]
        fast_plan = FastNtt(NTT_N, q)
        par_plan = ParNtt(NTT_N, q, executor=pool)
        par_plan.forward(batch)  # warm the pool + per-worker plan caches
        fast_s, fast_out = _best_of(lambda: fast_plan.forward(batch), rounds)
        par_s, par_out = _best_of(lambda: par_plan.forward(batch), rounds)
        if par_out != fast_out:
            raise AssertionError("parallel and fast NTT outputs differ")
        values["par.ntt_batch.fast_s"] = fast_s
        values["par.ntt_batch.par_s"] = par_s
        values["par.ntt_batch.speedup"] = fast_s / par_s

        # --- batched negacyclic polynomial multiply --------------------
        f = [[rng.randrange(q) for _ in range(NTT_N)] for _ in range(BATCH)]
        g = [[rng.randrange(q) for _ in range(NTT_N)] for _ in range(BATCH)]
        fast_neg = FastNegacyclic(NTT_N, q)
        par_neg = ParNegacyclic(NTT_N, q, executor=pool)
        par_neg.multiply(f, g)
        fast_s, fast_out = _best_of(lambda: fast_neg.multiply(f, g), rounds)
        par_s, par_out = _best_of(lambda: par_neg.multiply(f, g), rounds)
        if par_out != fast_out:
            raise AssertionError("parallel and fast polymul outputs differ")
        values["par.polymul_batch.fast_s"] = fast_s
        values["par.polymul_batch.par_s"] = par_s
        values["par.polymul_batch.speedup"] = fast_s / par_s

        # --- fused RNS ring multiply (RNS_LIMBS residue channels) ------
        backend = get_backend("mqx")
        basis = RnsBasis.generate(RNS_LIMBS, 60, 2 * RNS_N)
        ring_fast = RnsPolynomialRing(RNS_N, basis, backend, engine="fast")
        ring_par = RnsPolynomialRing(RNS_N, basis, backend, engine="parallel")
        coeffs_f = [rng.randrange(basis.modulus) for _ in range(RNS_N)]
        coeffs_g = [rng.randrange(basis.modulus) for _ in range(RNS_N)]
        pf_fast, pg_fast = ring_fast.encode(coeffs_f), ring_fast.encode(coeffs_g)
        pf_par, pg_par = ring_par.encode(coeffs_f), ring_par.encode(coeffs_g)
        ring_par.mul(pf_par, pg_par)
        fast_s, fast_out = _best_of(lambda: ring_fast.mul(pf_fast, pg_fast), rounds)
        par_s, par_out = _best_of(lambda: ring_par.mul(pf_par, pg_par), rounds)
        if par_out.residues != fast_out.residues:
            raise AssertionError("parallel and fast RNS mul outputs differ")
        values["par.rns_mul.fast_s"] = fast_s
        values["par.rns_mul.par_s"] = par_s
        values["par.rns_mul.speedup"] = fast_s / par_s

        # --- large-batch keys (60-bit r52 modulus, batch 32) -----------
        # The arena/fusion/adaptive sweet spot: per-shard compute is
        # large relative to dispatch, and staging reuses pooled
        # segments. These are the keys a --min-speedup floor gates.
        q60 = find_ntt_prime(60, 2 * NTT_N)
        big = [
            [rng.randrange(q60) for _ in range(NTT_N)]
            for _ in range(LARGE_BATCH)
        ]
        fast_plan = FastNtt(NTT_N, q60)
        par_plan = ParNtt(NTT_N, q60, executor=pool)
        par_plan.forward(big)  # warm caches + adaptive compute history
        fast_s, fast_out = _best_of(lambda: fast_plan.forward(big), rounds)
        par_s, par_out = _best_of(lambda: par_plan.forward(big), rounds)
        if par_out != fast_out:
            raise AssertionError("parallel and fast large-NTT outputs differ")
        values["par.ntt_large.fast_s"] = fast_s
        values["par.ntt_large.par_s"] = par_s
        values["par.ntt_large.speedup"] = fast_s / par_s

        bf = [
            [rng.randrange(q60) for _ in range(NTT_N)]
            for _ in range(LARGE_BATCH)
        ]
        bg = [
            [rng.randrange(q60) for _ in range(NTT_N)]
            for _ in range(LARGE_BATCH)
        ]
        fast_neg = FastNegacyclic(NTT_N, q60)
        par_neg = ParNegacyclic(NTT_N, q60, executor=pool)
        par_neg.multiply(bf, bg)
        fast_s, fast_out = _best_of(lambda: fast_neg.multiply(bf, bg), rounds)
        par_s, par_out = _best_of(lambda: par_neg.multiply(bf, bg), rounds)
        if par_out != fast_out:
            raise AssertionError(
                "parallel and fast large-polymul outputs differ"
            )
        values["par.polymul_large.fast_s"] = fast_s
        values["par.polymul_large.par_s"] = par_s
        values["par.polymul_large.speedup"] = fast_s / par_s

        # --- fused multiply-accumulate vs its unfused form -------------
        # fused: one chain dispatch per shard (product stays resident in
        # the worker); unfused: a multiply batch plus a BLAS add batch —
        # two dispatch round trips and a staged intermediate. The
        # fusion_gain ratio wins on dispatch collapse alone, so it holds
        # even on a single-core host.
        acc = [
            [rng.randrange(q60) for _ in range(NTT_N)]
            for _ in range(LARGE_BATCH)
        ]
        fast_blas = FastBlasPlan(q60)
        par_blas = ParBlasPlan(q60, executor=pool)
        par_neg.multiply_add(bf, bg, acc)
        fast_s, fast_out = _best_of(
            lambda: fast_blas.vector_add(fast_neg.multiply(bf, bg), acc),
            rounds,
        )
        fused_s, fused_out = _best_of(
            lambda: par_neg.multiply_add(bf, bg, acc), rounds
        )
        unfused_s, unfused_out = _best_of(
            lambda: par_blas.vector_add(par_neg.multiply(bf, bg), acc),
            rounds,
        )
        if fused_out != fast_out or unfused_out != fast_out:
            raise AssertionError(
                "fused multiply_add diverged from the fast engine"
            )
        values["par.polymul_add.fast_s"] = fast_s
        values["par.polymul_add.par_s"] = fused_s
        values["par.polymul_add.speedup"] = fast_s / fused_s
        values["par.polymul_add.unfused_par_s"] = unfused_s
        values["par.polymul_add.fusion_gain"] = unfused_s / fused_s

        values["par.stats.retries"] = float(pool.stats["retries"])
        values["par.stats.fallbacks"] = float(pool.stats["fallbacks"])
        values["par.stats.restarts"] = float(pool.stats["restarts"])
        arena = pool.arena.stats
        values["par.arena.reuse_rate"] = (
            arena["reuses"] / arena["leases"] if arena["leases"] else 0.0
        )
    return values


def record(values: dict, snapshot_path=DEFAULT_SNAPSHOT) -> None:
    """Append the measurements to the pool-engine snapshot history."""
    SnapshotStore(snapshot_path).record(values, label="bench_par")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snapshot", type=Path, default=DEFAULT_SNAPSHOT)
    parser.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cores)"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="enforce a parallel/fast speedup floor on the batched "
        "workloads (only meaningful on a multi-core host)",
    )
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    values = run(workers=args.workers, rounds=args.rounds)
    record(values, args.snapshot)

    cores = os.cpu_count() or 1
    print(f"host cores: {cores}, pool workers: {values['par.workers']:.0f}")
    for key in (
        "ntt_batch", "polymul_batch", "rns_mul",
        "ntt_large", "polymul_large", "polymul_add",
    ):
        gated = " (gated)" if key in GATED_KEYS else ""
        print(
            f"{key:14s} fast {values[f'par.{key}.fast_s'] * 1e3:8.2f}ms  "
            f"parallel {values[f'par.{key}.par_s'] * 1e3:8.2f}ms  "
            f"speedup {values[f'par.{key}.speedup']:5.2f}x{gated}"
        )
    print(
        f"fusion gain (unfused par / fused par): "
        f"{values['par.polymul_add.fusion_gain']:.2f}x  "
        f"arena reuse {values['par.arena.reuse_rate'] * 100:.0f}%"
    )
    print(
        f"retries {values['par.stats.retries']:.0f}  "
        f"fallbacks {values['par.stats.fallbacks']:.0f}  "
        f"restarts {values['par.stats.restarts']:.0f}"
    )
    print(f"snapshot recorded to {args.snapshot}")

    if values["par.stats.fallbacks"] or values["par.stats.retries"]:
        print("FAIL: shards needed retries or fallbacks", file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        # The floor applies to the large-batch keys only: the small
        # smoke keys measure the dispatch envelope, not the win.
        worst = min(values[f"par.{key}.speedup"] for key in GATED_KEYS)
        if worst < args.min_speedup:
            print(
                f"FAIL: worst large-batch speedup {worst:.2f}x is below "
                f"the {args.min_speedup:.1f}x floor",
                file=sys.stderr,
            )
            return 1
    elif cores == 1:
        print("note: single-core host; speedup recorded but not enforced")
    return 0


def test_parallel_engine_correctness(tmp_path):
    """Pytest form of the CI gate (isolated snapshot file)."""
    values = run(workers=2, rounds=1)
    record(values, tmp_path / "BENCH_par.json")
    assert values["par.stats.fallbacks"] == 0
    assert values["par.stats.retries"] == 0
    for key in (
        "ntt_batch", "polymul_batch", "rns_mul",
        "ntt_large", "polymul_large", "polymul_add",
    ):
        assert values[f"par.{key}.speedup"] > 0
    assert values["par.polymul_add.fusion_gain"] > 0
    assert values["par.arena.reuse_rate"] > 0


if __name__ == "__main__":
    sys.exit(main())
