"""The paper's four BLAS operations on the fast engine.

Same semantics as :mod:`repro.blas.ops` — point-wise modular add, sub,
mul, and ``axpy`` — but each call is a constant number of whole-vector
NumPy passes instead of a Python loop over SIMD blocks. Inputs may be
flat vectors or ``(batch, n)`` stacks (the RNS pipeline's residue
channels); the scalar ``a`` of ``axpy`` broadcasts exactly like the
backends' hoisted ``broadcast_dw`` register.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ArithmeticDomainError
from repro.fast.limbs import limbs_from_ints, limbs_to_ints, r52_join, r52_split
from repro.fast.modular import FastModulus
from repro.obs.hooks import engine_run_span, record_engine_call, record_r52_call

IntMatrix = Union[Sequence[int], Sequence[Sequence[int]], np.ndarray]


class FastBlasPlan:
    """Reusable per-modulus binding for vectorized BLAS calls.

    The fast-engine counterpart of :class:`repro.blas.ops.BlasPlan`:
    precomputes the Barrett constants once (shared process-wide via
    :meth:`FastModulus.get`), then serves add/sub/mul/axpy over
    arbitrarily long (and batched) vectors. ``mode`` selects the
    arithmetic substrate for the multiplicative ops (see
    :class:`FastModulus`); on r52 and native, ``axpy`` additionally
    derives a Shoup constant for its scalar and runs the cheaper
    precomputed-multiplicand product.

    A tuple ``q`` of primes of one bit length gives the channel-stacked
    plan: operands are ``(k, m)`` stacks, one row per prime, and the
    ``axpy`` scalar is one value per channel.
    """

    def __init__(
        self, q: Union[int, Tuple[int, ...]], mode: Optional[str] = None
    ) -> None:
        self.q = q
        self.mod = FastModulus.get(q, mode)
        self.mode = self.mod.mode

    @classmethod
    def on(cls, mod: FastModulus) -> "FastBlasPlan":
        """The plan over an already-resolved modulus (any substrate)."""
        plan = cls.__new__(cls)
        plan.q = mod.q
        plan.mod = mod
        plan.mode = mod.mode
        return plan

    def _coerce_pair(self, x: IntMatrix, y: IntMatrix):
        xa = limbs_from_ints(x)
        ya = limbs_from_ints(y)
        if xa.shape != ya.shape:
            raise ArithmeticDomainError(
                f"vector length mismatch: {xa.shape[:-1]} vs {ya.shape[:-1]}"
            )
        self.mod.check_reduced(xa, "x")
        self.mod.check_reduced(ya, "y")
        as_ints = not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray))
        return xa, ya, as_ints

    def vector_add(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x + y) mod q``.

        Double-word even on r52 plans: a 128-bit add is two NumPy
        passes, cheaper than the repack either side would cost.
        """
        return self._run("vector_add", x, y)

    def vector_sub(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x - y) mod q`` (double-word path, like add)."""
        return self._run("vector_sub", x, y)

    def vector_mul(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x * y) mod q``."""
        return self._run("vector_mul", x, y)

    def axpy(self, a: int, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """``(a * x + y) mod q`` for scalar ``a`` (broadcast over lanes).

        On the r52 substrate the scalar gets a runtime Shoup constant
        (one big-int division), turning the broadcast product into the
        precomputed-multiplicand form — two limb-plane multiplies and
        one correction instead of a full Barrett reduction per lane.
        """
        return self._run("axpy", x, y, a)

    def _run(self, op: str, x: IntMatrix, y: IntMatrix, a=None) -> IntMatrix:
        mod = self.mod
        a_block = mod.constant(a, "a") if op == "axpy" else None
        xa, ya, as_ints = self._coerce_pair(x, y)
        size = xa.size // 2
        record_engine_call("fast", f"blas.{op}", size)
        if mod.r52 is not None and op in ("vector_mul", "axpy"):
            record_r52_call(f"blas.{op}", size)
        with engine_run_span("fast", f"blas.{op}", size, mode=self.mode):
            if mod.native is not None:
                words = self._native(op, a_block, mod.words(xa), mod.words(ya))
                out = mod.from_words(words)
            elif op == "vector_add":
                out = mod.addmod(xa, ya)
            elif op == "vector_sub":
                out = mod.submod(xa, ya)
            elif op == "vector_mul":
                out = mod.mulmod(xa, ya)
            elif mod.r52 is not None:
                r = mod.r52
                prod = r.mulmod_shoup(r52_split(xa, r.limbs), r.shoup(a))
                out = r52_join(r.addmod(prod, r52_split(ya, r.limbs)))
            else:
                out = mod.addmod(mod.mulmod(xa, a_block), ya)
        return limbs_to_ints(out) if as_ints else out

    def run_words(self, op: str, *args) -> np.ndarray:
        """One BLAS op on native word planes (a chain's resident registers).

        ``args`` is ``(x, y)``, or ``(a, x, y)`` for ``axpy``, with
        ``x``/``y`` contiguous ``(..., m)`` uint64 words. The operands
        are range-checked like every other entry point's.
        """
        *scalar, x, y = args
        if x.shape != y.shape:
            raise ArithmeticDomainError(
                f"vector length mismatch: {x.shape} vs {y.shape}"
            )
        mod = self.mod
        a_block = mod.constant(scalar[0], "a") if op == "axpy" else None
        mod.check_words(x, "x")
        mod.check_words(y, "y")
        record_engine_call("fast", f"blas.{op}", x.size)
        with engine_run_span("fast", f"blas.{op}", x.size, mode=self.mode):
            return self._native(op, a_block, x, y)

    def _native(self, op: str, a_block, x: np.ndarray, y: np.ndarray):
        """The compiled kernel for ``op`` on checked word planes."""
        mod = self.mod
        if op == "axpy":
            scalars = mod.words(a_block).reshape(-1)
            return mod.native.axpy(scalars, x, y, mod.qwords)
        return mod.native.binary(_NATIVE_OPS[op], x, y, mod.qwords)


#: Native kernel of each element-wise BLAS op.
_NATIVE_OPS = {
    "vector_add": "addmod",
    "vector_sub": "submod",
    "vector_mul": "mulmod",
}


def fast_vector_add(x: IntMatrix, y: IntMatrix, q: int) -> Union[List[int], list]:
    """One-shot point-wise modular vector addition (fast engine)."""
    return FastBlasPlan(q).vector_add(x, y)


def fast_vector_sub(x: IntMatrix, y: IntMatrix, q: int) -> Union[List[int], list]:
    """One-shot point-wise modular vector subtraction (fast engine)."""
    return FastBlasPlan(q).vector_sub(x, y)


def fast_vector_mul(x: IntMatrix, y: IntMatrix, q: int) -> Union[List[int], list]:
    """One-shot point-wise modular vector multiplication (fast engine)."""
    return FastBlasPlan(q).vector_mul(x, y)


def fast_axpy(a: int, x: IntMatrix, y: IntMatrix, q: int) -> Union[List[int], list]:
    """One-shot modular ``axpy`` (fast engine)."""
    return FastBlasPlan(q).axpy(a, x, y)
