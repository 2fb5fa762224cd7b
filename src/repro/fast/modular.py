"""Vectorized double-word modular arithmetic (the fast engine's core).

:class:`FastModulus` is the NumPy analogue of a kernel backend's
:class:`~repro.kernels.backend.ModulusContext`: one precomputation of
the Barrett constants per modulus, then whole-vector ``addmod`` /
``submod`` / ``mulmod`` over ``(..., 2)`` uint64 limb arrays. Every
operation runs the *same algorithm* as the ISA-faithful path —
Listing 1's carry structure for addition, Equation 7's borrow/add-back
for subtraction, and the shift-refined Barrett reduction of
:func:`repro.arith.dwmod.mulmod128` (wide product, quotient estimate,
``mullo``/subtract, two conditional corrections) — so the results agree
bit for bit with :mod:`repro.arith.dwmod` and with all four kernel
backends for any modulus up to 124 bits.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.arith.barrett import BarrettParams
from repro.arith.dwmod import check_modulus_128
from repro.errors import ArithmeticDomainError
from repro.fast import native
from repro.fast.limbs import (
    IntVector,
    add128_nocarry,
    geq128,
    limbs_from_ints,
    limbs_to_ints,
    mullo128,
    r52_join,
    r52_split,
    select128,
    shift_right_256,
    sub128,
    wide_mul_128,
)
from repro.fast.r52 import R52Modulus, get_r52_modulus, resolve_fast_mode
from repro.obs.hooks import record_fastmod_eviction
from repro.util.checks import check_reduced

#: Process-wide memoized moduli, keyed by ``(q, resolved_mode)`` and
#: LRU-bounded like the twiddle cache (see ``FastModulus.get``): an RNS
#: ring cycling through many channel primes must not re-derive Barrett
#: and r52 constants at every plan construction, nor grow without limit.
_MODULUS_CACHE: "OrderedDict[Tuple[int, str], FastModulus]" = OrderedDict()
_MODULUS_LOCK = threading.Lock()

#: Default bound on cached FastModulus instances.
DEFAULT_CACHE_CAPACITY = 64


class FastModulus:
    """Per-modulus state for vectorized modular arithmetic (``q <= 2^124``).

    ``mode`` picks the arithmetic substrate for ``mulmod``: ``"dw"``
    runs the 128-bit schoolbook path below, ``"r52"`` routes through
    the 52-bit redundant-limb substrate (:mod:`repro.fast.r52`), and
    ``"auto"``/``None`` (optionally via the ``REPRO_FAST_MODE`` env
    var) resolves to ``"native"`` — the compiled word-size kernels of
    :mod:`repro.fast.native` — when ``q < 2^62`` and they loaded, else
    to r52 whenever the modulus fits its two-limb fast range. Results
    are bit-identical either way. On r52 ``addmod``/``submod`` stay
    double-word (the repack would cost more than carry chains on an
    add). On native this class binds the kernels (:attr:`native`,
    :attr:`qwords`) and range-checks through them; the chain runner and
    :class:`~repro.fast.blas.FastBlasPlan` call them on word planes,
    while the element-wise methods here stay double-word. The public
    array layout is ``(..., 2)`` uint64 regardless.

    A *channel-stacked* modulus (``FastModulus.get`` with a tuple of
    primes of one bit length) serves ``k`` RNS channels at once:
    operands are ``(k, m, 2)`` stacks, ``q``/``params`` are per-channel
    tuples and ``m``/``mu`` are ``(k, 1, 2)``, so each channel reduces
    by its own prime in the same whole-array passes. The Barrett shifts
    depend only on the shared bit length.

    Attributes:
        q: The modulus (Python int), or the tuple of channel primes.
        params: The shared :class:`~repro.arith.barrett.BarrettParams`
            (one per channel when stacked).
        m: The modulus as a ``(2,)`` limb array (broadcasts over vectors).
        mu: Barrett ``mu`` as a ``(2,)`` limb array.
        mode: The resolved substrate, ``"native"``, ``"r52"`` or ``"dw"``.
        r52: The bound :class:`~repro.fast.r52.R52Modulus` (or ``None``).
        native: The bound :class:`~repro.fast.native.NativeKernels` (or
            ``None``).
        qwords: On native, the channel primes as a ``(k,)`` uint64 array
            (``k = 1`` unstacked), the modulus argument of the kernels.
        channels: The per-channel moduli when stacked, else ``None``.
    """

    channels: Optional[Tuple["FastModulus", ...]] = None

    def __init__(self, q: int, mode: Optional[str] = None) -> None:
        check_modulus_128(q)
        self.q = q
        self.params = BarrettParams(q)
        self.params.check_width(128)
        self.beta = self.params.beta
        self.m = limbs_from_ints(q)
        self.mu = limbs_from_ints(self.params.mu)
        self.mode = resolve_fast_mode(mode, q)
        self.r52 = get_r52_modulus(q) if self.mode == "r52" else None
        self.native = native.library() if self.mode == "native" else None
        self.qwords = (
            np.array(self.primes, dtype=np.uint64)
            if self.native is not None else None
        )

    @classmethod
    def get(
        cls, q: Union[int, Tuple[int, ...]], mode: Optional[str] = None
    ) -> "FastModulus":
        """The process-wide memoized modulus for ``(q, mode)``.

        Mirrors :meth:`repro.ntt.twiddles.TwiddleTable.get`: every fast
        plan constructs its modulus through this cache, so repeated
        ``RnsPolynomialRing`` channel construction shares one Barrett /
        r52 precomputation per prime. A tuple ``q`` returns the
        channel-stacked modulus over those primes (see :meth:`stack`).
        Evictions bump the ``fastmod.evictions`` counter.
        """
        if isinstance(q, tuple):
            channels = [cls.get(p, mode) for p in q]
            key = (q, channels[0].mode)
        else:
            key = (q, resolve_fast_mode(mode, q))
        with _MODULUS_LOCK:
            mod = _MODULUS_CACHE.get(key)
            if mod is not None:
                _MODULUS_CACHE.move_to_end(key)
                return mod
        mod = cls.stack(channels) if isinstance(q, tuple) else cls(q, mode)
        with _MODULUS_LOCK:
            mod = _MODULUS_CACHE.setdefault(key, mod)
            _MODULUS_CACHE.move_to_end(key)
            while len(_MODULUS_CACHE) > DEFAULT_CACHE_CAPACITY:
                _MODULUS_CACHE.popitem(last=False)
                record_fastmod_eviction()
        return mod

    @classmethod
    def clear_cache(cls) -> None:
        """Drop all memoized moduli (tests, long-lived processes)."""
        with _MODULUS_LOCK:
            _MODULUS_CACHE.clear()

    @classmethod
    def cache_size(cls) -> int:
        """Number of cached ``(q, mode)`` entries."""
        with _MODULUS_LOCK:
            return len(_MODULUS_CACHE)

    @classmethod
    def stack(cls, channels: Sequence["FastModulus"]) -> "FastModulus":
        """One modulus over ``k`` channel primes of equal bit length."""
        first = channels[0]
        if any(
            ch.beta != first.beta or ch.mode != first.mode or ch.channels
            for ch in channels
        ):
            raise ArithmeticDomainError(
                "stacked channels must be single primes of one bit length "
                "and one substrate"
            )
        stacked = copy.copy(first)
        stacked.channels = tuple(channels)
        stacked.q = tuple(ch.q for ch in channels)
        stacked.params = tuple(ch.params for ch in channels)
        stacked.m = np.stack([ch.m for ch in channels])[:, None, :]
        stacked.mu = np.stack([ch.mu for ch in channels])[:, None, :]
        if first.native is not None:
            stacked.qwords = np.array(stacked.primes, dtype=np.uint64)
        if first.r52 is not None:
            stacked.r52 = R52Modulus.stack([ch.r52 for ch in channels])
        return stacked

    @property
    def primes(self) -> Tuple[int, ...]:
        """The channel primes (one entry when not stacked)."""
        return self.q if self.channels is not None else (self.q,)

    def __repr__(self) -> str:
        return f"FastModulus(q={self.q}, mode={self.mode!r})"

    # ------------------------------------------------------------------
    # Input handling
    # ------------------------------------------------------------------

    def to_limbs(self, values: IntVector, name: str = "values") -> np.ndarray:
        """Pack and range-check operands: every element must be in [0, q)."""
        arr = limbs_from_ints(values)
        self.check_reduced(arr, name)
        return arr

    def check_reduced(self, arr: np.ndarray, name: str = "values") -> None:
        """Vectorized reduced-operand check (mirrors ``check_reduced``).

        A stacked modulus also requires the channel axis (``-3``) to
        hold exactly one row per channel.
        """
        self._check_channels(arr.shape[:-1], name)
        if self.native is not None:
            flat = self.native.first_unreduced(arr, self.qwords)
            if flat >= 0:
                self._unreduced(np.unravel_index(flat, arr.shape[:-1] or (1,)), name)
            return
        bad = geq128(arr, self.m)
        if bad.any():
            self._unreduced(np.argwhere(np.atleast_1d(bad))[0], name)

    def check_words(self, words: np.ndarray, name: str = "values") -> None:
        """:meth:`check_reduced` for native word planes (``(..., m)``)."""
        self._check_channels(words.shape, name)
        q = self.qwords if self.channels is None else self.qwords[:, None]
        bad = words >= q
        if bad.any():
            self._unreduced(np.argwhere(np.atleast_1d(bad))[0], name)

    def _check_channels(self, shape: tuple, name: str) -> None:
        if self.channels is not None and (
            len(shape) < 2 or shape[-2] != len(self.channels)
        ):
            raise ArithmeticDomainError(
                f"{name} must stack {len(self.channels)} channels on axis "
                f"-3, got shape {shape}"
            )

    def _unreduced(self, index, name: str) -> None:
        q = self.q if self.channels is None else self.q[index[-2]]
        raise ArithmeticDomainError(
            f"{name}[{', '.join(str(i) for i in index)}] is not reduced "
            f"modulo {q}"
        )

    def constant(self, value, name: str = "value") -> np.ndarray:
        """A reduced constant as a limb array that broadcasts over operands.

        One int (``(2,)`` array), or for a stacked modulus one int per
        channel (``(k, 1, 2)``).
        """
        if self.channels is None:
            return limbs_from_ints(check_reduced(value, self.q, name))
        values = list(value)
        if len(values) != len(self.channels):
            raise ArithmeticDomainError(
                f"{name} needs one value per channel ({len(self.channels)}), "
                f"got {len(values)}"
            )
        for v, q in zip(values, self.q):
            check_reduced(v, q, name)
        return limbs_from_ints(values)[:, None, :]

    # ------------------------------------------------------------------
    # Modular operations (bit-exact against repro.arith.dwmod)
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # Native word planes (q < 2^62: one uint64 word per residue)
    # ------------------------------------------------------------------

    @staticmethod
    def words(arr: np.ndarray) -> np.ndarray:
        """Reduced ``(..., 2)`` limbs as contiguous ``(...)`` words.

        Exact for any modulus below ``2^64``: the high limb of a reduced
        operand is zero.
        """
        return np.ascontiguousarray(arr[..., 0])

    @staticmethod
    def from_words(words: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`words`: ``(...)`` words as ``(..., 2)`` limbs."""
        out = np.zeros(words.shape + (2,), dtype=np.uint64)
        out[..., 0] = words
        return out

    def addmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(a + b) mod q`` element-wise on limb arrays.

        The sum of two reduced operands is below ``2q < 2^125``, so the
        128-bit add cannot carry out (the paper's carry elision) and one
        trial subtraction finishes the job.
        """
        total = add128_nocarry(a, b)
        diff, borrow = sub128(total, self.m)
        return select128(~borrow, diff, total)

    def submod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(a - b) mod q`` element-wise: borrow then conditional add-back."""
        diff, borrow = sub128(a, b)
        fixed = add128_nocarry(diff, self.m)
        return select128(borrow, fixed, diff)

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(a * b) mod q`` element-wise via Barrett reduction.

        Steps (identical to :func:`repro.arith.dwmod.mulmod128` and
        :meth:`repro.kernels.backend.Backend.mulmod`):

        1. ``t = a * b`` (256-bit schoolbook),
        2. quotient estimate ``((t >> (beta-1)) * mu) >> (beta+1)``,
        3. ``c = t - estimate * q`` modulo ``2^128``,
        4. two conditional subtractions of ``q``.

        When the r52 substrate is active the same product runs over
        52-bit redundant limbs instead (identical results, fewer
        whole-vector passes); the repack happens at this boundary.
        """
        if self.r52 is not None:
            r = self.r52
            out = r.mulmod(r52_split(a, r.limbs), r52_split(b, r.limbs))
            return r52_join(out)
        t_words = wide_mul_128(a, b)
        t_shifted = shift_right_256(t_words, self.beta - 1)
        g_words = wide_mul_128(t_shifted, self.mu)
        estimate = shift_right_256(g_words, self.beta + 1)
        est_q_low = mullo128(estimate, self.m)
        c, _ = sub128(t_words[..., :2], est_q_low)
        c = self._cond_sub(c)
        c = self._cond_sub(c)
        return c

    def _cond_sub(self, x: np.ndarray) -> np.ndarray:
        """One Barrett correction: ``x - q`` where ``x >= q``."""
        diff, borrow = sub128(x, self.m)
        return select128(~borrow, diff, x)

    # ------------------------------------------------------------------
    # Int-level conveniences (the engine's scalar escape hatch)
    # ------------------------------------------------------------------

    def addmod_ints(self, x: IntVector, y: IntVector) -> Union[int, list]:
        """``(x + y) mod q`` on Python-int inputs (packs, computes, unpacks)."""
        return limbs_to_ints(self.addmod(self.to_limbs(x, "x"), self.to_limbs(y, "y")))

    def submod_ints(self, x: IntVector, y: IntVector) -> Union[int, list]:
        """``(x - y) mod q`` on Python-int inputs."""
        return limbs_to_ints(self.submod(self.to_limbs(x, "x"), self.to_limbs(y, "y")))

    def mulmod_ints(self, x: IntVector, y: IntVector) -> Union[int, list]:
        """``(x * y) mod q`` on Python-int inputs."""
        return limbs_to_ints(self.mulmod(self.to_limbs(x, "x"), self.to_limbs(y, "y")))
