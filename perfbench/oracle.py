"""Exact, engine-independent correctness oracle for the benchmark.

Nothing here imports :mod:`repro`: every reference value is computed
from Python integers alone, so a defect shared by all of the program's
engines (faithful, fast, parallel) cannot hide by agreeing with itself.

* Negacyclic products use Kronecker substitution: pack each coefficient
  vector into one big integer with slots wide enough that no slot of the
  full product carries into the next, multiply once, unpack, and fold
  the upper half back with a sign flip (``x^n = -1``).
* BLAS results are checked element-wise with ``%``.
* RNS results are checked per prime against the same negacyclic product
  of the operands' residues, and accumulations element-wise.
"""

from __future__ import annotations

from typing import List, Sequence


def negacyclic_product(f: Sequence[int], g: Sequence[int], q: int) -> List[int]:
    """``f * g mod (x^n + 1, q)`` by Kronecker substitution.

    Coefficients must lie in ``[0, q)``. Each slot of the full product
    holds a sum of at most ``n`` products below ``q^2``, so
    ``2 * bits(q) + bits(n)`` bits per slot cannot overflow; the width
    is rounded up to whole bytes so packing is a byte join.
    """
    n = len(f)
    if len(g) != n:
        raise ValueError(f"operand lengths differ: {n} vs {len(g)}")
    slot_bytes = (2 * (q - 1).bit_length() + n.bit_length() + 7) // 8
    pack_f = int.from_bytes(
        b"".join(c.to_bytes(slot_bytes, "little") for c in f), "little"
    )
    pack_g = int.from_bytes(
        b"".join(c.to_bytes(slot_bytes, "little") for c in g), "little"
    )
    raw = (pack_f * pack_g).to_bytes(2 * n * slot_bytes, "little")
    full = [
        int.from_bytes(raw[i * slot_bytes:(i + 1) * slot_bytes], "little")
        for i in range(2 * n)
    ]
    return [(full[i] - full[i + n]) % q for i in range(n)]


def schoolbook_negacyclic(f: Sequence[int], g: Sequence[int], q: int) -> List[int]:
    """Quadratic reference for :func:`negacyclic_product` (small n only)."""
    n = len(f)
    out = [0] * n
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            k = i + j
            if k < n:
                out[k] += a * b
            else:
                out[k - n] -= a * b
    return [c % q for c in out]


def blas_reference(op: str, x: Sequence[int], y: Sequence[int], q: int) -> List[int]:
    """Element-wise reference for the served BLAS ops."""
    if op == "blas.vector_mul":
        return [(a * b) % q for a, b in zip(x, y)]
    if op == "blas.vector_add":
        return [(a + b) % q for a, b in zip(x, y)]
    raise ValueError(f"no BLAS reference for {op!r}")


def check_served(op: str, payload, result, q: int) -> bool:
    """Whether one served response equals the exact reference."""
    x, y = payload
    if op == "polymul":
        expected = negacyclic_product(x, y, q)
    else:
        expected = blas_reference(op, x, y, q)
    return list(result) == expected


def check_rns_mac(primes, f, g, prod, acc_before, acc_after) -> bool:
    """Check one RNS multiply-accumulate ``acc' = acc + f * g``.

    All arguments after ``primes`` are per-prime residue lists (the
    ``residues`` of :class:`repro.rns.poly.RnsPolynomial`). The product
    is checked per prime against :func:`negacyclic_product`; the
    accumulation element-wise.
    """
    for k, p in enumerate(primes):
        if list(prod[k]) != negacyclic_product(f[k], g[k], p):
            return False
        expected = [(a + b) % p for a, b in zip(acc_before[k], prod[k])]
        if list(acc_after[k]) != expected:
            return False
    return True


def corrupted(values: Sequence[int], index: int, q: int) -> List[int]:
    """A copy of ``values`` with one coefficient changed (still in range)."""
    bad = list(values)
    bad[index] = (bad[index] + 1) % q
    return bad


def self_check(op: str, payload, result, q: int) -> bool:
    """The oracle accepts ``result`` and flags a one-coefficient corruption.

    Run on a checked response each run, so a broken oracle (one that
    accepts everything) cannot report a run as correct.
    """
    index = len(result) // 2
    return check_served(op, payload, result, q) and not check_served(
        op, payload, corrupted(result, index, q), q
    )
