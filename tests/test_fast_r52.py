"""The r52 substrate: bit-exactness vs arith.dwmod, mode plumbing, carries.

The 52-bit redundant-limb substrate (:mod:`repro.fast.r52`) must agree
bit for bit with the branch-structured double-word reference
(:mod:`repro.arith.dwmod`) at *every* supported width — in particular at
the limb-count boundaries (50/51, 102/103) where the representation
switches between one, two and three planes, and at the top of the range
(124 bits) where the Barrett intermediates use all the headroom the
limb-count rule guarantees.
"""

import os
import random

import pytest

pytest.importorskip("numpy")
import numpy as np

from repro.arith.doubleword import dw_from_int, dw_value
from repro.arith.dwmod import addmod128, mulmod128, submod128
from repro.arith.primes import find_ntt_prime
from repro.errors import ArithmeticDomainError, NttParameterError
from repro.fast.limbs import limbs_from_ints, limbs_to_ints, r52_join, r52_split
from repro.fast.modular import FastModulus
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.fast.r52 import (
    AUTO_MAX_BETA,
    FAST_MODE_ENV,
    MAX_DEFERRED_ADDS,
    STAGE_DEFERRED_ADDS,
    R52Modulus,
    R52Ntt,
    get_r52_modulus,
    limb_count,
    resolve_fast_mode,
)

#: Transform order every drawn prime supports (n <= 32 negacyclic).
ORDER = 64

#: The widths where the representation changes shape: the bottom of
#: the supported range, the one/two-limb boundary (50/51), the
#: two/three-limb boundary (102/103/104/105) and the top of the range.
BOUNDARY_WIDTHS = (13, 50, 51, 52, 53, 102, 103, 104, 105, 123, 124)


def _dwmod_reference(op, q, xs, ys):
    m = dw_from_int(q)
    return [dw_value(op(dw_from_int(x), dw_from_int(y), m)) for x, y in zip(xs, ys)]


def _boundary_operands(q, rng, count):
    """Reduced operands biased toward the carry-hazardous edges."""
    edges = sorted(
        {
            v % q
            for v in (
                0, 1, 2, q - 1, q - 2,
                (1 << 52) - 1, 1 << 52, (1 << 52) + 1,
                (1 << 104) - 1, 1 << 104,
                (1 << 64) - 1, 1 << 64,
            )
        }
    )
    out = list(edges[:count])
    while len(out) < count:
        out.append(rng.randrange(q))
    return out


class TestBitExactVersusDwmod:
    @pytest.mark.parametrize("bits", BOUNDARY_WIDTHS)
    def test_boundary_widths(self, bits):
        q = find_ntt_prime(bits, ORDER)
        rng = random.Random(bits)
        r = R52Modulus(q)
        xs = _boundary_operands(q, rng, 64)
        ys = list(reversed(_boundary_operands(q, rng, 64)))
        xa, ya = r.from_ints(xs), r.from_ints(ys)
        assert r.to_ints(r.mulmod(xa, ya)) == _dwmod_reference(mulmod128, q, xs, ys)
        assert r.to_ints(r.addmod(xa, ya)) == _dwmod_reference(addmod128, q, xs, ys)
        assert r.to_ints(r.submod(xa, ya)) == _dwmod_reference(submod128, q, xs, ys)

    @pytest.mark.parametrize("bits", BOUNDARY_WIDTHS)
    def test_limb_count_rule(self, bits):
        q = find_ntt_prime(bits, ORDER)
        r = R52Modulus(q)
        beta = q.bit_length()
        assert r.limbs == limb_count(beta)
        # The two spare bits: the lazy range and every Barrett
        # intermediate fit the radix.
        assert 4 * q < 1 << (52 * r.limbs)
        assert r.mu < 1 << (52 * r.limbs)

    def test_shoup_matches_plain(self):
        rng = random.Random(17)
        for bits in (51, 100, 104, 124):
            q = find_ntt_prime(bits, ORDER)
            r = R52Modulus(q)
            xs = _boundary_operands(q, rng, 32)
            xa = r.from_ints(xs)
            for w in (0, 1, q - 1, rng.randrange(q)):
                pair = r.shoup(w)
                assert r.to_ints(r.mulmod_shoup(xa, pair)) == [
                    w * x % q for x in xs
                ]

    def test_shoup_lazy_accepts_lazy_range_and_stays_below_2q(self):
        rng = random.Random(23)
        q = find_ntt_prime(100, ORDER)
        r = R52Modulus(q)
        lazy_vals = [rng.randrange(4 * q) for _ in range(64)] + [0, 4 * q - 1]
        planes = r.from_dw(limbs_from_ints(lazy_vals))
        w = rng.randrange(q)
        out = r.to_ints(r.mulmod_shoup_lazy(planes, r.shoup(w)))
        for val, got in zip(lazy_vals, out):
            assert got < 2 * q
            assert got % q == w * val % q

    def test_shoup_rejects_unreduced_multiplicand(self):
        q = find_ntt_prime(100, ORDER)
        r = R52Modulus(q)
        with pytest.raises(ArithmeticDomainError):
            r.shoup(q)


class TestSplitJoinRoundtrip:
    @pytest.mark.parametrize("limbs", (1, 2, 3))
    def test_roundtrip(self, limbs):
        rng = random.Random(limbs)
        # The dw side is 128-bit, so three limbs only ever see values
        # below 2^128 (plane 2 carries bits 104..128).
        top = min(1 << (52 * limbs), 1 << 128)
        values = [rng.randrange(top) for _ in range(37)] + [0, top - 1]
        arr = limbs_from_ints(values)
        planes = r52_split(arr, limbs)
        assert len(planes) == limbs
        for p in planes:
            assert p.dtype == np.uint64
            assert int(p.max(initial=0)) < 1 << 52
        assert limbs_to_ints(r52_join(planes)) == values


class TestNttModes:
    @pytest.mark.parametrize("bits", (60, 100, 104, 124))
    def test_r52_and_dw_transforms_agree(self, bits):
        n = 32
        q = find_ntt_prime(bits, 2 * n)
        rng = random.Random(bits)
        f = [rng.randrange(q) for _ in range(n)]
        g = [rng.randrange(q) for _ in range(n)]
        dw = FastNtt(n, q, mode="dw")
        r52 = FastNtt(n, q, mode="r52")
        assert r52.mode == "r52" and dw.mode == "dw"
        assert dw.forward(f) == r52.forward(f)
        assert r52.inverse(r52.forward(f)) == f
        assert dw.cyclic_multiply(f, g) == r52.cyclic_multiply(f, g)
        assert (
            FastNegacyclic(n, q, mode="dw").multiply(f, g)
            == FastNegacyclic(n, q, mode="r52").multiply(f, g)
        )

    def test_batched_rows(self):
        n, batch = 16, 5
        q = find_ntt_prime(100, 2 * n)
        rng = random.Random(5)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(batch)]
        dw = FastNtt(n, q, mode="dw")
        r52 = FastNtt(n, q, mode="r52")
        assert dw.forward(rows) == r52.forward(rows)
        assert r52.inverse(r52.forward(rows)) == rows


    def test_dw_chain_blas_step_records_no_r52_call(self):
        """A chain's BLAS step runs on the chain's own substrate."""
        from repro.fast.chain import blas_steps, run_chain
        from repro.obs import observing

        n = 16
        q = find_ntt_prime(50, 2 * n)  # auto would pick r52
        rng = random.Random(3)
        x = limbs_from_ints([rng.randrange(q) for _ in range(n)])
        y = limbs_from_ints([rng.randrange(q) for _ in range(n)])
        for op, a in (("vector_mul", None), ("axpy", 7)):
            with observing() as session:
                out = run_chain(
                    blas_steps(op, a), {"x": x, "y": y}, FastNtt(n, q, mode="dw")
                )
            assert session.metrics.names("engine.fast.r52.") == []
            xs, ys = limbs_to_ints(x), limbs_to_ints(y)
            expected = [
                (u * v if a is None else a * u + v) % q for u, v in zip(xs, ys)
            ]
            assert limbs_to_ints(out) == expected


def _width_primes(bits, order, count):
    """The ``count`` largest ``bits``-bit primes ``= 1 mod order``."""
    from repro.arith.primes import is_prime

    primes = []
    candidate = ((1 << bits) - 1) // order * order + 1
    while len(primes) < count:
        if is_prime(candidate):
            primes.append(candidate)
        candidate -= order
    return tuple(primes)


class TestChannelStacking:
    """Plans over a tuple of equal-width primes run every channel at once."""

    N = 16

    def _stack(self, primes, seed):
        rng = random.Random(seed)
        return [[rng.randrange(q) for _ in range(self.N)] for q in primes]

    def test_constants_gain_a_channel_axis(self):
        primes = _width_primes(50, 2 * self.N, 3)
        for mode in ("dw", "r52"):
            mod = FastModulus.get(primes, mode)
            assert mod.q == primes and len(mod.channels) == 3
            assert mod.m.shape == (3, 1, 2)
            assert limbs_to_ints(mod.m[:, 0]) == list(primes)
        r = FastModulus.get(primes, "r52").r52
        assert r.q == primes and r.limbs == 1
        assert r._q[0].shape == (3, 1) and r._qf[0].dtype == np.float64
        assert FastModulus.get(primes, "r52") is FastModulus.get(primes, "r52")

    @pytest.mark.parametrize("mode", ["dw", "r52"])
    @pytest.mark.parametrize("bits", [50, 100, 124])
    def test_stacked_plans_match_per_prime_plans(self, mode, bits):
        from repro.fast.blas import FastBlasPlan

        primes = _width_primes(bits, 2 * self.N, 3)
        f, g = self._stack(primes, bits), self._stack(primes, bits + 1)
        neg = FastNegacyclic(self.N, primes, mode=mode)
        ntt = FastNtt(self.N, primes, mode=mode)
        blas = FastBlasPlan(primes, mode=mode)
        assert neg.mode == ntt.mode == blas.mode == mode
        scalars = [q // 3 for q in primes]
        got = {
            "negacyclic": neg.multiply(f, g),
            "twisted": neg.forward(f),
            "cyclic": ntt.cyclic_multiply(f, g),
            "forward": ntt.forward(f),
            "inverse": ntt.inverse(f),
            "add": blas.vector_add(f, g),
            "sub": blas.vector_sub(f, g),
            "mul": blas.vector_mul(f, g),
            "axpy": blas.axpy(scalars, f, g),
        }
        for c, q in enumerate(primes):
            one_neg = FastNegacyclic(self.N, q, mode=mode)
            one_ntt = FastNtt(self.N, q, mode=mode)
            one_blas = FastBlasPlan(q, mode=mode)
            want = {
                "negacyclic": one_neg.multiply(f[c], g[c]),
                "twisted": one_neg.forward(f[c]),
                "cyclic": one_ntt.cyclic_multiply(f[c], g[c]),
                "forward": one_ntt.forward(f[c]),
                "inverse": one_ntt.inverse(f[c]),
                "add": one_blas.vector_add(f[c], g[c]),
                "sub": one_blas.vector_sub(f[c], g[c]),
                "mul": one_blas.vector_mul(f[c], g[c]),
                "axpy": one_blas.axpy(scalars[c], f[c], g[c]),
            }
            for name, rows in got.items():
                assert rows[c] == want[name], (name, c)

    def test_stacked_inverse_roundtrip(self):
        primes = _width_primes(60, 2 * self.N, 2)
        f = self._stack(primes, 5)
        neg = FastNegacyclic(self.N, primes)
        assert neg.inverse(neg.forward(f)) == f

    def test_mixed_widths_rejected(self):
        primes = (_width_primes(50, 2 * self.N, 1)[0],
                  _width_primes(60, 2 * self.N, 1)[0])
        with pytest.raises(ArithmeticDomainError):
            FastModulus.get(primes)

    def test_channel_count_and_reduction_checked(self):
        from repro.fast.blas import FastBlasPlan

        primes = _width_primes(50, 2 * self.N, 3)
        blas = FastBlasPlan(primes)
        f = self._stack(primes, 1)
        with pytest.raises(ArithmeticDomainError, match="3 channels"):
            blas.vector_add(f[:2], f[:2])
        with pytest.raises(ArithmeticDomainError, match="one value per channel"):
            blas.axpy([1, 2], f, f)
        bad = [list(row) for row in f]
        bad[2][5] = primes[2]
        with pytest.raises(ArithmeticDomainError, match=str(primes[2])):
            blas.vector_add(bad, f)
        with pytest.raises(NttParameterError):
            FastNegacyclic(self.N, primes).multiply(f[0], f[0])


class TestModeResolution:
    def test_auto_threshold(self):
        below = find_ntt_prime(AUTO_MAX_BETA, ORDER)
        above = find_ntt_prime(AUTO_MAX_BETA + 2, ORDER)
        assert resolve_fast_mode("auto", below) == "r52"
        assert resolve_fast_mode("auto", above) == "dw"
        assert resolve_fast_mode(None, None) == "auto"
        assert resolve_fast_mode("r52", above) == "r52"
        assert resolve_fast_mode("dw", below) == "dw"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ArithmeticDomainError):
            resolve_fast_mode("montgomery", 97)
        with pytest.raises(ArithmeticDomainError):
            FastModulus(97, mode="ifma")

    def test_env_override(self):
        old = os.environ.get(FAST_MODE_ENV)
        try:
            os.environ[FAST_MODE_ENV] = "dw"
            assert resolve_fast_mode(None, find_ntt_prime(100, ORDER)) == "dw"
            os.environ[FAST_MODE_ENV] = "r52"
            assert resolve_fast_mode(None, find_ntt_prime(124, ORDER)) == "r52"
            # Explicit kwarg wins over the environment.
            assert resolve_fast_mode("dw", find_ntt_prime(100, ORDER)) == "dw"
        finally:
            if old is None:
                os.environ.pop(FAST_MODE_ENV, None)
            else:
                os.environ[FAST_MODE_ENV] = old

    def test_forced_r52_still_exact_above_auto_range(self):
        q = find_ntt_prime(120, ORDER)
        rng = random.Random(9)
        fm = FastModulus(q, mode="r52")
        xs = [rng.randrange(q) for _ in range(16)]
        ys = [rng.randrange(q) for _ in range(16)]
        assert fm.mulmod_ints(xs, ys) == [x * y % q for x, y in zip(xs, ys)]


class TestModulusMemoization:
    def test_same_instance_returned(self):
        FastModulus.clear_cache()
        q = find_ntt_prime(100, ORDER)
        a = FastModulus.get(q)
        b = FastModulus.get(q)
        assert a is b
        # A different mode is a different cache entry.
        c = FastModulus.get(q, "dw")
        assert c is not a
        assert FastModulus.cache_size() == 2

    def test_r52_modulus_memoized_too(self):
        q = find_ntt_prime(90, ORDER)
        assert get_r52_modulus(q) is get_r52_modulus(q)

    def test_plans_share_the_modulus(self):
        from repro.fast.blas import FastBlasPlan

        FastModulus.clear_cache()
        q = find_ntt_prime(100, 2 * ORDER)
        ntt = FastNtt(ORDER, q)
        blas = FastBlasPlan(q)
        assert ntt.mod is blas.mod


class TestDeferredCarryBudget:
    """The redundancy arithmetic behind the lazy NTT's carry schedule."""

    def test_budget_constants(self):
        # A uint64 lane can absorb exactly 2^(64-52) canonical limbs
        # before wrapping...
        assert ((1 << 52) - 1) * MAX_DEFERRED_ADDS < 1 << 64
        assert ((1 << 52) - 1) * (MAX_DEFERRED_ADDS + 1) >= 1 << 64
        # ...and the lazy butterfly stays far inside that budget.
        assert STAGE_DEFERRED_ADDS <= MAX_DEFERRED_ADDS
        assert R52Ntt.CARRY_SCHEDULE["butterfly_deferred_adds"] == (
            STAGE_DEFERRED_ADDS
        )

    def test_max_depth_accumulation_is_exact(self):
        """Summing the budget's worth of max limbs must not wrap."""
        limb = np.uint64((1 << 52) - 1)
        acc = np.zeros(4, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for _ in range(STAGE_DEFERRED_ADDS):
                acc = acc + limb
        assert int(acc[0]) == STAGE_DEFERRED_ADDS * ((1 << 52) - 1)

    def test_normalize_flushes_deferred_adds(self):
        q = find_ntt_prime(100, ORDER)
        r = R52Modulus(q)
        rng = random.Random(31)
        vals = [rng.randrange(q) for _ in range(16)]
        planes = r.from_ints(vals)
        # Deferred limb-wise doubling: redundant planes, exact value.
        with np.errstate(over="ignore"):
            doubled = [p + p for p in planes]
        flushed = r.normalize(doubled)
        for p in flushed[:-1]:
            assert int(p.max()) < 1 << 52
        assert limbs_to_ints(r52_join(flushed)) == [2 * v for v in vals]


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def r52_case(draw):
        bits = draw(
            st.one_of(
                st.sampled_from(BOUNDARY_WIDTHS),
                st.integers(min_value=51, max_value=124),
            )
        )
        q = find_ntt_prime(bits, ORDER)
        edges = sorted(
            {
                v % q
                for v in (
                    0, 1, q - 1, q - 2,
                    (1 << 52) - 1, 1 << 52,
                    (1 << 104) - 1, 1 << 104,
                )
            }
        )
        operand = st.one_of(
            st.sampled_from(edges), st.integers(min_value=0, max_value=q - 1)
        )
        return q, [draw(operand) for _ in range(8)]

    @settings(max_examples=50, deadline=None)
    @given(case=r52_case())
    def test_r52_matches_dwmod_under_hypothesis(case):
        q, operands = case
        r = R52Modulus(q)
        xs, ys = operands[:4], operands[4:]
        xa, ya = r.from_ints(xs), r.from_ints(ys)
        assert r.to_ints(r.mulmod(xa, ya)) == _dwmod_reference(
            mulmod128, q, xs, ys
        )
        assert r.to_ints(r.addmod(xa, ya)) == _dwmod_reference(
            addmod128, q, xs, ys
        )
        assert r.to_ints(r.submod(xa, ya)) == _dwmod_reference(
            submod128, q, xs, ys
        )

    @settings(max_examples=15, deadline=None)
    @given(case=r52_case())
    def test_fast_modulus_r52_path_matches_dw_path(case):
        q, operands = case
        xs, ys = operands[:4], operands[4:]
        dw = FastModulus(q, mode="dw")
        r52 = FastModulus(q, mode="r52")
        assert dw.mulmod_ints(xs, ys) == r52.mulmod_ints(xs, ys)

except ImportError:  # pragma: no cover - hypothesis is an extra
    pass
