"""Full-vector Pease NTT on the fast engine (plus negacyclic polymul).

Where :class:`repro.ntt.simd.SimdNtt` walks each stage one SIMD block at
a time through an ISA simulator, :class:`FastNtt` runs the *same*
constant-geometry dataflow — read ``x[i]`` and ``x[i + n/2]``, butterfly,
write the pair to ``2i``/``2i + 1`` — on entire ``(n,)`` vectors of
128-bit limb pairs at once: one vectorized ``mulmod`` / ``addmod`` /
``submod`` triple per stage and a strided scatter for the interleave.
Twiddle tables come from the same :class:`~repro.ntt.twiddles.TwiddleTable`
the faithful path uses, so the two engines agree bit for bit.

The plans here hold the precomputed state (twiddles, bit-reversal
permutation, psi twists, r52 Shoup pairs); every public op coerces its
operands and runs a step list through :func:`repro.fast.chain.run_chain`,
which owns the stage ordering, the twists and the r52 repacking.

The batched API accepts ``(batch, n)`` inputs, transforming every row in
the same NumPy operations. A plan built over a *tuple* of primes of one
bit length is channel-stacked: its operands are ``(k, n)`` stacks (row
``c`` reduced mod ``q[c]``), its modulus constants and twiddle, twist
and ``1/n`` tables carry a leading channel axis, and the same step
chains run all ``k`` RNS residue channels in each NumPy pass (see
:class:`repro.rns.poly.RnsPolynomialRing`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arith.primes import root_of_unity
from repro.errors import NttParameterError
from repro.fast import chain
from repro.fast.limbs import IntVector, limbs_from_ints, limbs_to_ints
from repro.fast.modular import FastModulus
from repro.fast.r52 import R52Modulus, R52Ntt
from repro.ntt.twiddles import ChannelTwiddles, TwiddleTable
from repro.obs.hooks import engine_run_span, record_engine_call, record_r52_call
from repro.util.checks import check_power_of_two

IntMatrix = Union[List[int], List[List[int]], np.ndarray]
IntModuli = Union[int, Tuple[int, ...]]


def _bitrev_indices(n: int) -> np.ndarray:
    """The bit-reversal permutation of ``range(n)`` as an index array."""
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.intp)
    rev = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


class FastNtt:
    """An ``n``-point NTT over ``Z_q`` computed on whole uint64 vectors.

    Args:
        n: Transform size (power of two, at least 2).
        q: NTT-friendly modulus (``n | q - 1``, at most 124 bits), or a
            tuple of such primes of one bit length for a channel-stacked
            plan whose operands are ``(k, n)`` stacks.
        root: Optional explicit primitive ``n``-th root of unity (one
            per channel when stacked).
        table: Optional pre-built twiddle table to share with a faithful
            plan (guarantees both engines use identical twiddles); a
            :class:`~repro.ntt.twiddles.ChannelTwiddles` when stacked.
        mode: Arithmetic substrate — ``"dw"`` (128-bit schoolbook),
            ``"r52"`` (52-bit redundant limbs with Harvey-lazy stages,
            see :mod:`repro.fast.r52`) or ``"auto"``/``None`` (r52
            whenever the modulus fits its fast range; overridable via
            the ``REPRO_FAST_MODE`` env var). Bit-identical either way.
    """

    def __init__(
        self,
        n: int,
        q: IntModuli,
        root: Union[None, int, Sequence[int]] = None,
        table: Union[None, TwiddleTable, ChannelTwiddles] = None,
        mode: Optional[str] = None,
    ) -> None:
        if table is not None:
            if table.n != n or table.q != q:
                raise NttParameterError(
                    f"twiddle table is for ({table.n}, {table.q}), "
                    f"not ({n}, {q})"
                )
            self.table = table
        elif isinstance(q, tuple):
            self.table = ChannelTwiddles.get(n, q, root)
        else:
            self.table = TwiddleTable.get(n, q, root or 0)
        self.mod = FastModulus.get(q, mode)
        self.mode = self.mod.mode
        self._r52 = (
            R52Ntt(self.table, self.mod.r52)
            if self.mod.r52 is not None
            else None
        )
        self._bitrev = _bitrev_indices(n)
        self._n_inv = self.mod.constant(self.table.n_inverse)
        self._stage_tw: dict = {}
        self._r52_n_inv: Optional[tuple] = None

    @property
    def n(self) -> int:
        """Transform size."""
        return self.table.n

    @property
    def q(self) -> IntModuli:
        """Modulus (the tuple of channel primes when stacked)."""
        return self.table.q

    # ------------------------------------------------------------------
    # Public transforms
    # ------------------------------------------------------------------

    def forward(self, values: IntMatrix, natural_order: bool = True) -> IntMatrix:
        """Forward NTT; batched when given ``(batch, n)`` input.

        Bit-exact with :meth:`repro.ntt.simd.SimdNtt.forward` on every
        kernel backend (raw bit-reversed output unless ``natural_order``).
        """
        steps = chain.ntt_steps("forward", natural_order)
        return self._run("ntt.forward", steps, {"x": values})

    def inverse(self, values: IntMatrix, natural_order: bool = True) -> IntMatrix:
        """Inverse NTT including the ``1/n`` scaling (batched-aware)."""
        steps = chain.ntt_steps("inverse", natural_order)
        return self._run("ntt.inverse", steps, {"x": values})

    def pointwise_mul(self, f: IntMatrix, g: IntMatrix) -> IntMatrix:
        """Element-wise spectral product (the convolution-theorem middle)."""
        return self._run("ntt.pointwise", chain.POINTWISE_STEPS, {"x": f, "y": g})

    def cyclic_multiply(self, f: IntMatrix, g: IntMatrix) -> IntMatrix:
        """Length-``n`` cyclic convolution via the transform."""
        return self._run("ntt.cyclic_mul", chain.CYCLIC_MUL_STEPS, {"x": f, "y": g})

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _run(
        self,
        op: str,
        steps: Sequence[dict],
        operands: Dict[str, IntMatrix],
        neg: Optional["FastNegacyclic"] = None,
    ) -> IntMatrix:
        """Coerce ``operands`` (register name -> value) and run ``steps``."""
        arrays, returns_ints = self._coerce_operands(operands)
        elements = arrays["x"].size // 2
        record_engine_call("fast", op, elements)
        if self._r52 is not None:
            record_r52_call(op, elements)
        with engine_run_span("fast", op, elements, mode=self.mode):
            out = chain.run_chain(steps, arrays, self, neg=neg)
        return limbs_to_ints(out) if returns_ints else out

    def _coerce_operands(
        self, operands: Dict[str, IntMatrix]
    ) -> Tuple[Dict[str, np.ndarray], bool]:
        """Coerce named operands; the first decides the return form.

        Python ints in, Python ints out; limb arrays in, limb arrays out.
        """
        coerced = {name: self._coerce(value) for name, value in operands.items()}
        arrays = {name: arr for name, (arr, _) in coerced.items()}
        return arrays, next(iter(coerced.values()))[1]

    def _coerce(self, values: IntMatrix) -> Tuple[np.ndarray, bool]:
        as_ints = not isinstance(values, np.ndarray)
        arr = limbs_from_ints(values)
        ranks = (2, 3) if self.mod.channels is None else (3, 4)
        if arr.ndim not in ranks or arr.shape[-2] != self.n:
            got = arr.shape[-2] if arr.ndim >= 2 else 0
            raise NttParameterError(f"expected {self.n} values, got {got}")
        self.mod.check_reduced(arr)
        return arr, as_ints

    def _r52_n_inv_pair(self) -> tuple:
        """Cached Shoup pair for ``1/n`` on the r52 substrate.

        Lets the chain runner apply the inverse transform's scaling
        without leaving limb-plane form.
        """
        if self._r52_n_inv is None:
            self._r52_n_inv = self.mod.r52.shoup(self.table.n_inverse)
        return self._r52_n_inv

    def _stage_twiddles(self, stage: int, inverse: bool) -> np.ndarray:
        key = (stage, inverse)
        cached = self._stage_tw.get(key)
        if cached is None:
            cached = limbs_from_ints(
                self.table.pease_stage_twiddles(stage, inverse)
            )
            self._stage_tw[key] = cached
        return cached

    def _run_stages(self, x: np.ndarray, inverse: bool) -> np.ndarray:
        """The double-word Pease stages (r52 plans use ``self._r52``)."""
        half = self.n // 2
        for stage in range(self.table.stages):
            tw = self._stage_twiddles(stage, inverse)
            top = x[..., :half, :]
            bottom = x[..., half:, :]
            t = self.mod.mulmod(bottom, tw)
            out = np.empty_like(x)
            out[..., 0::2, :] = self.mod.addmod(top, t)
            out[..., 1::2, :] = self.mod.submod(top, t)
            x = out
        return x


class FastNegacyclic:
    """Negacyclic polynomial multiplication on the fast engine.

    The same psi-twist formulation as :class:`repro.ntt.negacyclic.NegacyclicNtt`
    (twist by powers of a primitive ``2n``-th root, cyclic convolve,
    untwist). The twist tables come from the plan's twiddle table (shared
    with the faithful plan) and are held in the substrate's form —
    limb arrays or r52 Shoup pairs — so the whole product is a handful
    of vectorized passes. A tuple ``q`` (one ``psi`` per channel) gives
    the channel-stacked plan (see :class:`FastNtt`).
    """

    def __init__(
        self,
        n: int,
        q: IntModuli,
        psi: Union[None, int, Sequence[int]] = None,
        plan: Optional[FastNtt] = None,
        mode: Optional[str] = None,
    ) -> None:
        check_power_of_two(n, "n")
        stacked = isinstance(q, tuple)
        primes = q if stacked else (q,)
        for p in primes:
            if (p - 1) % (2 * n):
                raise NttParameterError(
                    f"negacyclic multiplication needs 2n | q - 1; "
                    f"got n={n}, q={p}"
                )
        if not psi:
            psis = tuple(root_of_unity(2 * n, p) for p in primes)
        else:
            psis = tuple(psi) if stacked else (psi,)
        if len(psis) != len(primes):
            raise NttParameterError(
                f"expected one psi per channel ({len(primes)}), got {len(psis)}"
            )
        for p, s in zip(primes, psis):
            if pow(s, 2 * n, p) != 1 or pow(s, n, p) == 1:
                raise NttParameterError(
                    f"{s} is not a primitive {2 * n}-th root of unity mod {p}"
                )
        self.n = n
        self.q = q
        self.psi = psis if stacked else psis[0]
        omegas = tuple(s * s % p for p, s in zip(primes, psis))
        self.plan = plan or FastNtt(
            n, q, root=omegas if stacked else omegas[0], mode=mode
        )
        self.mode = self.plan.mode
        self._twists: Dict[Tuple[bool, bool], object] = {}

    def _twist_table(self, untwist: bool, r52: Optional[R52Modulus] = None):
        """The psi (``untwist``: psi^-1) powers in substrate form, cached.

        A limb array for the double-word substrate, or the Shoup-vector
        pair for the r52 modulus ``r52``.
        """
        key = (untwist, r52 is not None)
        table = self._twists.get(key)
        if table is None:
            powers = self.plan.table.twist_powers(self.psi, inverse=untwist)
            table = (
                r52.shoup_vector(powers) if r52 is not None
                else limbs_from_ints(powers)
            )
            self._twists[key] = table
        return table

    def forward(self, values: IntMatrix) -> IntMatrix:
        """Twisted forward transform (raw bit-reversed order)."""
        return self.plan._run(
            "ntt.forward", chain.TWISTED_FORWARD_STEPS, {"x": values}, self
        )

    def inverse(self, values: IntMatrix) -> IntMatrix:
        """Inverse of :meth:`forward` (untwist and ``1/n`` included)."""
        return self.plan._run(
            "ntt.inverse", chain.TWISTED_INVERSE_STEPS, {"x": values}, self
        )

    def multiply(self, f: IntMatrix, g: IntMatrix) -> IntMatrix:
        """Negacyclic product ``f * g mod (x^n + 1, q)`` (batched-aware)."""
        return self.plan._run(
            "ntt.polymul", chain.NEGACYCLIC_MUL_STEPS, {"x": f, "y": g}, self
        )


def fast_negacyclic_polymul(
    f: IntVector, g: IntVector, q: int
) -> Union[List[int], List[List[int]]]:
    """One-shot negacyclic polynomial multiplication on the fast engine."""
    f = list(f)
    g = list(g)
    if not f or len(f) != len(g):
        raise NttParameterError(
            "negacyclic multiplication needs equal, non-empty lengths"
        )
    n = len(f) if isinstance(f[0], int) else len(f[0])
    return FastNegacyclic(n, q).multiply(f, g)
