"""Differential oracle: every engine, one strategy, the whole parameter space.

One hypothesis strategy draws ``(q, n, batch, seed)`` and every engine
computes the same op on the same operands:

* **faithful** — the ISA-simulated scalar backend (small ``n`` only);
* **fast-dw** / **fast-r52** — the NumPy engine pinned to each
  arithmetic substrate;
* **chain** — the in-process fused-chain runner
  (:func:`repro.fast.chain.run_chain`);
* **parallel** — the worker pool (one module-scoped executor).

The space: ``q`` from 13 to 124 bits, which takes in one-limb r52
(<= 50 bits), two-limb r52 and the double-word top of the range; ``n``
a power of two from 2 to 4096 with ``2n | q - 1``; batch 0, 1 (passed
as a flat vector) or odd. Products and BLAS results are also checked
against exact big-integer arithmetic, and transforms against their own
round trip, so a defect every engine shares cannot pass by agreeing
with itself.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.arith.primes import find_ntt_prime, is_prime, root_of_unity
from repro.blas.ops import BlasPlan
from repro.errors import ArithmeticDomainError
from repro.fast import chain as fast_chain
from repro.fast.blas import FastBlasPlan
from repro.fast.limbs import LIMB_DTYPE, limbs_from_ints, limbs_to_ints
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.kernels import get_backend
from repro.ntt.negacyclic import NegacyclicNtt
from repro.ntt.simd import SimdNtt
from repro.par import (
    ParallelExecutor,
    ParBlasPlan,
    ParChain,
    ParNegacyclic,
    ParNtt,
    parallel_rns_mul,
)
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial, RnsPolynomialRing

#: Largest ring the faithful (ISA-simulated) engine runs at.
FAITHFUL_MAX_N = 16

#: Widths where a representation changes shape: the bottom of the range,
#: the one/two-limb r52 boundary, the two/three-limb boundary, the top.
EDGE_WIDTHS = (13, 50, 51, 102, 103, 124)

#: Batch sizes: empty, one (passed as a flat vector), odd.
BATCHES = (0, 1, 3, 5)

#: Extra RNS channel widths: one-limb r52 and double-word.
RNS_WIDTHS = (50, 124)

FAST_MODES = ("dw", "r52")

BLAS_OPS = ("vector_add", "vector_sub", "vector_mul", "axpy")

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class Case(NamedTuple):
    q: int
    n: int
    batch: int
    seed: int


@st.composite
def cases(draw):
    bits = draw(st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(13, 124)))
    logn = draw(st.integers(1, min(12, bits - 3)))
    n = 1 << logn
    try:
        q = find_ntt_prime(bits, 2 * n)
    except ArithmeticDomainError:
        assume(False)
    batch = draw(st.sampled_from(BATCHES))
    return Case(q, n, batch, draw(st.integers(0, 2**32 - 1)))


#: Fixed corners every run covers: the extremes of q and n together.
CORNERS = (
    Case(find_ntt_prime(13, 4), 2, 3, 1),
    Case(find_ntt_prime(50, 2 * 4096), 4096, 3, 2),
    Case(find_ntt_prime(124, 2 * 4096), 4096, 1, 3),
    Case(find_ntt_prime(30, 32), 16, 0, 4),
)


def with_corners(test):
    """Add every corner as an explicit example."""
    for corner in CORNERS:
        test = example(case=corner)(test)
    return test


@pytest.fixture(scope="module")
def pool():
    executor = ParallelExecutor(workers=2, task_timeout=120.0)
    executor.start()
    yield executor
    executor.close()


# ---------------------------------------------------------------------------
# Operands, normalization and exact references
# ---------------------------------------------------------------------------


def _operand_rows(case: Case, rng: random.Random) -> List[List[int]]:
    edges = [0, 1, case.q - 1]
    rows = []
    for _ in range(case.batch):
        row = [rng.randrange(case.q) for _ in range(case.n)]
        row[: len(edges)] = edges[: case.n]
        rng.shuffle(row)
        rows.append(row)
    return rows


def _engine_input(case: Case, rows: List[List[int]]):
    """What an engine is handed: a limb array, a flat vector or a batch."""
    if case.batch == 0:
        return np.zeros((0, case.n, 2), dtype=LIMB_DTYPE)
    if case.batch == 1:
        return list(rows[0])
    return [list(row) for row in rows]


def _limbs(case: Case, rows: List[List[int]]) -> np.ndarray:
    if not rows:
        return np.zeros((0, case.n, 2), dtype=LIMB_DTYPE)
    return limbs_from_ints(rows)


def _rows(case: Case, out) -> List[List[int]]:
    """Normalize any engine's output to a list of coefficient rows."""
    if isinstance(out, np.ndarray):
        out = limbs_to_ints(out)
    if case.batch == 1 and out and isinstance(out[0], int):
        return [list(out)]
    return [list(row) for row in out]


def _convolve(f: List[int], g: List[int], q: int, sign: int) -> List[int]:
    """Exact ``f * g mod (x^n - sign, q)`` by Kronecker substitution."""
    n = len(f)
    slot = 2 * q.bit_length() + n.bit_length() + 1
    pack_f = sum(c << (slot * i) for i, c in enumerate(f))
    pack_g = sum(c << (slot * i) for i, c in enumerate(g))
    full = pack_f * pack_g
    mask = (1 << slot) - 1
    coeffs = [(full >> (slot * i)) & mask for i in range(2 * n)]
    return [(coeffs[i] + sign * coeffs[i + n]) % q for i in range(n)]


def _blas_exact(op: str, a: int, x: List[int], y: List[int], q: int) -> List[int]:
    if op == "vector_add":
        return [(u + v) % q for u, v in zip(x, y)]
    if op == "vector_sub":
        return [(u - v) % q for u, v in zip(x, y)]
    if op == "vector_mul":
        return [(u * v) % q for u, v in zip(x, y)]
    return [(a * u + v) % q for u, v in zip(x, y)]


def _assert_agree(results: Dict[str, List[List[int]]], label: str) -> None:
    names = list(results)
    anchor = names[0]
    for name in names[1:]:
        assert results[name] == results[anchor], (
            f"{label}: engine {name!r} disagrees with {anchor!r}"
        )


def _faithful(case: Case) -> bool:
    return case.n <= FAITHFUL_MAX_N


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


@SETTINGS
@given(case=cases())
@with_corners
def test_transforms(case, pool):
    rng = random.Random(case.seed)
    rows = _operand_rows(case, rng)
    root = root_of_unity(case.n, case.q)
    backend = get_backend("scalar")
    for direction in ("forward", "inverse"):
        for natural in (True, False):
            label = f"ntt.{direction} natural={natural} {case}"
            results = {}
            for mode in FAST_MODES:
                plan = FastNtt(case.n, case.q, root=root, mode=mode)
                method = getattr(plan, direction)
                results[f"fast-{mode}"] = _rows(
                    case, method(_engine_input(case, rows), natural_order=natural)
                )
            step = {"kind": "ntt", "direction": direction, "natural": natural,
                    "src": "x", "dst": "out"}
            results["chain"] = _rows(case, fast_chain.run_chain(
                [step], {"x": _limbs(case, rows)},
                FastNtt(case.n, case.q, root=root),
            ))
            par = ParNtt(case.n, case.q, root=root, executor=pool)
            results["parallel"] = _rows(case, getattr(par, direction)(
                _engine_input(case, rows), natural_order=natural
            ))
            if _faithful(case):
                faithful = SimdNtt(case.n, case.q, backend, root=root)
                results["faithful"] = [
                    getattr(faithful, direction)(row, natural_order=natural)
                    for row in rows
                ]
            _assert_agree(results, label)
    # Anchor: the transforms invert each other (both orders).
    plan = FastNtt(case.n, case.q, root=root)
    for natural in (True, False):
        spectrum = plan.forward(_limbs(case, rows), natural_order=natural)
        back = plan.inverse(spectrum, natural_order=natural)
        assert limbs_to_ints(back) == rows


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


@SETTINGS
@given(case=cases())
@with_corners
def test_cyclic_product(case, pool):
    rng = random.Random(case.seed)
    f_rows, g_rows = _operand_rows(case, rng), _operand_rows(case, rng)
    root = root_of_unity(case.n, case.q)
    f, g = _engine_input(case, f_rows), _engine_input(case, g_rows)
    results = {"exact": [
        _convolve(a, b, case.q, +1) for a, b in zip(f_rows, g_rows)
    ]}
    for mode in FAST_MODES:
        plan = FastNtt(case.n, case.q, root=root, mode=mode)
        results[f"fast-{mode}"] = _rows(case, plan.cyclic_multiply(f, g))
    results["chain"] = _rows(case, fast_chain.run_chain(
        fast_chain.CYCLIC_MUL_STEPS,
        {"x": _limbs(case, f_rows), "y": _limbs(case, g_rows)},
        FastNtt(case.n, case.q, root=root),
    ))
    par = ParNtt(case.n, case.q, root=root, executor=pool)
    results["parallel"] = _rows(case, par.cyclic_multiply(f, g))
    if _faithful(case):
        faithful = SimdNtt(case.n, case.q, get_backend("scalar"), root=root)
        out = []
        for a, b in zip(f_rows, g_rows):
            fa = faithful.forward(a, natural_order=False)
            ga = faithful.forward(b, natural_order=False)
            prod = [u * v % case.q for u, v in zip(fa, ga)]
            out.append(faithful.inverse(prod, natural_order=False))
        results["faithful"] = out
    _assert_agree(results, f"cyclic {case}")


@SETTINGS
@given(case=cases())
@with_corners
def test_negacyclic_product_and_twisted_transforms(case, pool):
    rng = random.Random(case.seed)
    f_rows, g_rows = _operand_rows(case, rng), _operand_rows(case, rng)
    psi = root_of_unity(2 * case.n, case.q)
    f, g = _engine_input(case, f_rows), _engine_input(case, g_rows)
    products = {"exact": [
        _convolve(a, b, case.q, -1) for a, b in zip(f_rows, g_rows)
    ]}
    twisted = {}
    untwisted = {}
    for mode in FAST_MODES:
        neg = FastNegacyclic(case.n, case.q, psi=psi, mode=mode)
        products[f"fast-{mode}"] = _rows(case, neg.multiply(f, g))
        twisted[f"fast-{mode}"] = _rows(case, neg.forward(f))
        untwisted[f"fast-{mode}"] = _rows(case, neg.inverse(f))
    neg = FastNegacyclic(case.n, case.q, psi=psi)
    products["chain"] = _rows(case, fast_chain.run_chain(
        fast_chain.NEGACYCLIC_MUL_STEPS,
        {"x": _limbs(case, f_rows), "y": _limbs(case, g_rows)},
        neg.plan, neg=neg,
    ))
    par = ParNegacyclic(case.n, case.q, psi=psi, executor=pool)
    products["parallel"] = _rows(case, par.multiply(f, g))
    twisted["parallel"] = _rows(case, par.forward(f))
    untwisted["parallel"] = _rows(case, par.inverse(f))
    chain = ParChain(case.n, case.q, psi=psi, executor=pool)
    products["parallel-chain"] = _rows(
        case, chain.run(fast_chain.NEGACYCLIC_MUL_STEPS, x=f, y=g)
    )
    if _faithful(case):
        faithful = NegacyclicNtt(case.n, case.q, get_backend("scalar"), psi=psi)
        products["faithful"] = [
            faithful.multiply(a, b) for a, b in zip(f_rows, g_rows)
        ]
        twisted["faithful"] = [faithful.forward(a) for a in f_rows]
        untwisted["faithful"] = [faithful.inverse(a) for a in f_rows]
    _assert_agree(products, f"negacyclic {case}")
    _assert_agree(twisted, f"negacyclic forward {case}")
    _assert_agree(untwisted, f"negacyclic inverse {case}")


@SETTINGS
@given(case=cases())
@with_corners
def test_multiply_add(case, pool):
    rng = random.Random(case.seed)
    f_rows, g_rows, z_rows = (_operand_rows(case, rng) for _ in range(3))
    psi = root_of_unity(2 * case.n, case.q)
    f, g, z = (_engine_input(case, r) for r in (f_rows, g_rows, z_rows))
    results = {"exact": [
        [(p + c) % case.q for p, c in zip(_convolve(a, b, case.q, -1), acc)]
        for a, b, acc in zip(f_rows, g_rows, z_rows)
    ]}
    for mode in FAST_MODES:
        neg = FastNegacyclic(case.n, case.q, psi=psi, mode=mode)
        blas = FastBlasPlan(case.q, mode=mode)
        prod = neg.multiply(_limbs(case, f_rows), _limbs(case, g_rows))
        results[f"fast-{mode}"] = _rows(
            case, blas.vector_add(prod, _limbs(case, z_rows))
        )
    neg = FastNegacyclic(case.n, case.q, psi=psi)
    results["chain"] = _rows(case, fast_chain.run_chain(
        fast_chain.NEGACYCLIC_MUL_ADD_STEPS,
        {name: _limbs(case, r)
         for name, r in (("x", f_rows), ("y", g_rows), ("z", z_rows))},
        neg.plan, neg=neg,
    ))
    par = ParNegacyclic(case.n, case.q, psi=psi, executor=pool)
    results["parallel"] = _rows(case, par.multiply_add(f, g, z))
    if _faithful(case):
        backend = get_backend("scalar")
        faithful = NegacyclicNtt(case.n, case.q, backend, psi=psi)
        blas = BlasPlan(case.q, backend)
        results["faithful"] = [
            blas.vector_add(faithful.multiply(a, b), acc)
            for a, b, acc in zip(f_rows, g_rows, z_rows)
        ]
    _assert_agree(results, f"multiply_add {case}")


# ---------------------------------------------------------------------------
# BLAS
# ---------------------------------------------------------------------------


@SETTINGS
@given(case=cases())
@with_corners
def test_blas(case, pool):
    rng = random.Random(case.seed)
    x_rows, y_rows = _operand_rows(case, rng), _operand_rows(case, rng)
    a = rng.randrange(case.q)
    x, y = _engine_input(case, x_rows), _engine_input(case, y_rows)
    backend = get_backend("scalar")
    for op in BLAS_OPS:
        scalar = (a,) if op == "axpy" else ()
        results = {"exact": [
            _blas_exact(op, a, u, v, case.q) for u, v in zip(x_rows, y_rows)
        ]}
        for mode in FAST_MODES:
            plan = FastBlasPlan(case.q, mode=mode)
            results[f"fast-{mode}"] = _rows(
                case, getattr(plan, op)(*scalar, x, y)
            )
        step = {"kind": "blas", "blas_op": op, "x": "x", "y": "y",
                "dst": "out", "a": a}
        results["chain"] = _rows(case, fast_chain.run_chain(
            [step], {"x": _limbs(case, x_rows), "y": _limbs(case, y_rows)},
            FastNtt(case.n, case.q),
        ))
        par = ParBlasPlan(case.q, executor=pool)
        results["parallel"] = _rows(case, getattr(par, op)(*scalar, x, y))
        if _faithful(case):
            faithful = BlasPlan(case.q, backend)
            results["faithful"] = [
                getattr(faithful, op)(*scalar, u, v)
                for u, v in zip(x_rows, y_rows)
            ]
        _assert_agree(results, f"blas.{op} {case}")


# ---------------------------------------------------------------------------
# RNS ring operations
# ---------------------------------------------------------------------------


def _width_primes(bits: int, order: int, count: int) -> List[int]:
    """The ``count`` largest ``bits``-bit primes ``= 1 mod order``."""
    primes = []
    candidate = ((1 << bits) - 1) // order * order + 1
    while len(primes) < count:
        if is_prime(candidate):
            primes.append(candidate)
        candidate -= order
    return primes


@SETTINGS
@given(case=cases())
@with_corners
def test_rns_mul(case, pool):
    """Ring mul/add/sub/scalar_mul on every engine against exact references.

    Two distinct primes of each extra width give every case a stacked
    channel group of at least two different moduli.
    """
    primes = list(dict.fromkeys(
        [case.q] + [p for bits in RNS_WIDTHS
                    for p in _width_primes(bits, 2 * case.n, 2)]
    ))
    basis = RnsBasis(primes)
    rng = random.Random(case.seed)
    f_res = [[rng.randrange(p) for _ in range(case.n)] for p in primes]
    g_res = [[rng.randrange(p) for _ in range(case.n)] for p in primes]
    a = rng.randrange(basis.modulus)
    f_coeffs = [basis.from_rns(column) for column in zip(*f_res)]
    elementwise = {
        "add": {"exact": [[(u + v) % p for u, v in zip(fr, gr)]
                          for fr, gr, p in zip(f_res, g_res, primes)]},
        "sub": {"exact": [[(u - v) % p for u, v in zip(fr, gr)]
                          for fr, gr, p in zip(f_res, g_res, primes)]},
        "scalar_mul": {"exact": [[a * u % p for u in fr]
                                 for fr, p in zip(f_res, primes)]},
    }
    backend = get_backend("scalar")
    engines = [("fast", mode) for mode in FAST_MODES] + [("parallel", None)]
    if _faithful(case):
        engines.append(("faithful", None))
    for negacyclic in (True, False):
        sign = -1 if negacyclic else +1
        products = {"exact": [
            _convolve(u, v, p, sign) for u, v, p in zip(f_res, g_res, primes)
        ]}
        for engine, mode in engines:
            label = f"{engine}-{mode}" if mode else engine
            ring = RnsPolynomialRing(
                case.n, basis, backend, negacyclic=negacyclic,
                engine=engine, fast_mode=mode,
            )
            f, g = RnsPolynomial(ring, f_res), RnsPolynomial(ring, g_res)
            assert f == ring.encode(f_coeffs), label
            ring_label = f"{label} negacyclic={negacyclic}"
            elementwise["add"][ring_label] = ring.add(f, g).residues
            elementwise["sub"][ring_label] = ring.sub(f, g).residues
            elementwise["scalar_mul"][ring_label] = (
                ring.scalar_mul(a, f).residues
            )
            if engine == "parallel":
                # The ring's own mul would dispatch to the process-default
                # pool; the module pool runs the same fused batch.
                products["parallel"] = parallel_rns_mul(
                    ring, f_res, g_res, executor=pool
                )
                products["parallel-stack"] = limbs_to_ints(parallel_rns_mul(
                    ring, f.limbs, g.limbs, executor=pool
                ))
            else:
                products[label] = ring.mul(f, g).residues
        _assert_agree(products, f"rns.mul negacyclic={negacyclic} {case}")
    for op, results in elementwise.items():
        _assert_agree(results, f"rns.{op} {case}")
