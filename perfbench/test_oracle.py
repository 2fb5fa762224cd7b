"""Self-tests for the benchmark's oracle and load generator.

Run with ``python3 -m pytest perfbench/test_oracle.py`` or directly with
``python3 perfbench/test_oracle.py``. They need no program source: the
oracle is pure Python integers, and the capacity search is driven with
a synthetic system here.
"""

from __future__ import annotations

import asyncio
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from loadgen import (  # noqa: E402
    Outcome,
    Phase,
    find_capacity,
    percentile,
    poisson_schedule,
)
from oracle import (  # noqa: E402
    blas_reference,
    check_rns_mac,
    check_served,
    corrupted,
    negacyclic_product,
    schoolbook_negacyclic,
    self_check,
)

# One modulus per width class the workloads touch: tiny, one-limb r52,
# two-limb r52, double-word.
MODULI = (8191, (1 << 50) - 27, (1 << 100) - 15, (1 << 124) - 59)


def _vec(rng, n, q):
    return [rng.randrange(q) for _ in range(n)]


def test_kronecker_matches_schoolbook():
    rng = random.Random(0)
    for q in MODULI:
        for n in (1, 2, 8, 32):
            f, g = _vec(rng, n, q), _vec(rng, n, q)
            assert negacyclic_product(f, g, q) == schoolbook_negacyclic(f, g, q)
    # Extreme coefficients: every slot at its maximum must not carry.
    q = MODULI[-1]
    top = [q - 1] * 64
    assert negacyclic_product(top, top, q) == schoolbook_negacyclic(top, top, q)


def test_oracle_flags_one_corrupted_coefficient():
    rng = random.Random(1)
    q, n = MODULI[2], 64
    x, y = _vec(rng, n, q), _vec(rng, n, q)
    cases = {
        "polymul": schoolbook_negacyclic(x, y, q),
        "blas.vector_mul": blas_reference("blas.vector_mul", x, y, q),
        "blas.vector_add": blas_reference("blas.vector_add", x, y, q),
    }
    for op, good in cases.items():
        assert check_served(op, (x, y), good, q)
        assert self_check(op, (x, y), good, q)
        for index in (0, n // 2, n - 1):
            assert not check_served(op, (x, y), corrupted(good, index, q), q)


def test_rns_check_flags_product_and_accumulator():
    rng = random.Random(2)
    primes, n = [MODULI[0], MODULI[1]], 16
    f = [_vec(rng, n, p) for p in primes]
    g = [_vec(rng, n, p) for p in primes]
    before = [_vec(rng, n, p) for p in primes]
    prod = [schoolbook_negacyclic(a, b, p) for a, b, p in zip(f, g, primes)]
    after = [[(a + b) % p for a, b in zip(acc, pr)] for acc, pr, p in zip(before, prod, primes)]
    assert check_rns_mac(primes, f, g, prod, before, after)
    bad_prod = [prod[0], corrupted(prod[1], 3, primes[1])]
    assert not check_rns_mac(primes, f, g, bad_prod, before, after)
    bad_after = [corrupted(after[0], 0, primes[0]), after[1]]
    assert not check_rns_mac(primes, f, g, prod, before, bad_after)


def test_schedules():
    a = poisson_schedule(7, 100.0, 20.0)
    assert a == poisson_schedule(7, 100.0, 20.0)
    assert a != poisson_schedule(8, 100.0, 20.0)
    assert all(0 <= t < 20.0 for t in a) and a == sorted(a)
    assert 1800 < len(a) < 2200  # 2000 expected, sd ~45
    # Another rate replays the same arrival pattern, rescaled.
    slower = poisson_schedule(7, 50.0, 40.0)
    assert slower[:100] == [t * 2 for t in a[:100]]


def test_percentile_nearest_rank_and_failures():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values + [float("inf")], 100) == float("inf")


def _synthetic_phase(rate: float, capacity: float) -> Phase:
    """A phase whose latency explodes above ``capacity`` (a fake system)."""
    phase = Phase(rate=rate, duration=1.0)
    for i in range(100):
        latency = 0.01 if rate <= capacity else 0.01 + i * 0.01
        phase.outcomes.append(Outcome(op="x", due=i, sent=i, done=i + latency))
    return phase


def test_capacity_search_brackets_within_resolution():
    # Within one step of the guess, at most three probes bracket the
    # edge and the rest bisect it: three or more halvings of a 1.25x
    # bracket.
    for capacity in (41.0, 50.0, 61.0):
        async def run_phase(rate, capacity=capacity):
            return _synthetic_phase(rate, capacity)

        found, probes = asyncio.run(find_capacity(
            run_phase, 50.0, limit_ms=100.0, probes=6
        ))
        assert len(probes) == 6
        assert found <= capacity < found * 1.25 ** (1 / 8)


def test_capacity_search_retries_a_failed_probe():
    # A system that fails every first probe at a rate (a burst of host
    # contention) still reports its capacity when each rate gets two tries.
    seen = set()

    async def flaky(rate):
        first = rate not in seen
        seen.add(rate)
        return _synthetic_phase(rate, 0.0 if first else 50.0)

    found, probes = asyncio.run(find_capacity(
        flaky, 40.0, limit_ms=100.0, probes=8, tries=2
    ))
    assert len(probes) == 8
    assert found <= 50.0 < found * 1.25 ** (1 / 2)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
