"""RNS polynomial rings: the FHE workload layer.

A polynomial over ``Z_Q`` (``Q`` = product of the basis primes) is held as
one residue polynomial per prime, all ``k`` of them in one ``(k, n, 2)``
uint64 limb stack (:mod:`repro.fast.limbs` layout; row ``i`` is the
residues mod ``primes[i]``). The stack stays resident between ring ops.

On the fast and parallel engines every ring op is one whole-stack call:
the primes are grouped by bit length and each group runs one
channel-stacked plan (see :class:`repro.fast.ntt.FastNtt`), so one
chain runs every channel of a group in each NumPy pass. The faithful
engine keeps one ISA-simulated pipeline per prime (cyclic or negacyclic
NTT convolutions, BLAS vector ops), reading the list view
:attr:`RnsPolynomial.residues` — so an entire FHE-style polynomial
multiply exercises exactly the pipeline the paper accelerates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.blas.ops import BlasPlan
from repro.errors import ArithmeticDomainError, NttParameterError
from repro.fast.blas import FastBlasPlan
from repro.fast.limbs import LIMB_DTYPE, geq128, limbs_from_ints, limbs_to_ints
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.kernels.backend import Backend
from repro.ntt.negacyclic import NegacyclicNtt
from repro.ntt.simd import ENGINES, SimdNtt
from repro.rns.basis import RnsBasis
from repro.util.checks import check_power_of_two

Residues = Union[Sequence[Sequence[int]], np.ndarray]


class RnsPolynomial:
    """A degree < n polynomial over ``Z_Q`` in per-prime residue form.

    ``residues`` is ``k`` rows of ``n`` ints (row ``i`` reduced modulo
    ``primes[i]``) or the same values as a ``(k, n, 2)`` uint64 limb
    stack; either is validated against the ring. The limb stack
    (:attr:`limbs`, read-only) is the authoritative form; :attr:`residues`
    is a list-of-lists view built on first use and cached.
    """

    def __init__(self, ring: "RnsPolynomialRing", residues: Residues) -> None:
        limbs = ring.as_stack(residues)
        if limbs is residues:
            limbs = limbs.copy()
        self._bind(ring, limbs)

    @classmethod
    def _wrap(cls, ring: "RnsPolynomialRing", limbs: np.ndarray) -> "RnsPolynomial":
        """Adopt a stack the ring computed itself (already valid, unshared)."""
        poly = cls.__new__(cls)
        poly._bind(ring, limbs)
        return poly

    def _bind(self, ring: "RnsPolynomialRing", limbs: np.ndarray) -> None:
        limbs.flags.writeable = False
        self.ring = ring
        self._limbs = limbs
        self._residues: Optional[List[List[int]]] = None

    @property
    def limbs(self) -> np.ndarray:
        """The ``(k, n, 2)`` uint64 residue stack (read-only)."""
        return self._limbs

    @property
    def residues(self) -> List[List[int]]:
        """``residues[i]`` = coefficients mod ``primes[i]``, as Python ints.

        Built from :attr:`limbs` on first access and cached; the lists
        are shared between callers, so treat them as read-only.
        """
        if self._residues is None:
            self._residues = limbs_to_ints(self._limbs)
        return self._residues

    def coefficients(self) -> List[int]:
        """CRT-reconstruct the big-integer coefficient vector."""
        basis = self.ring.basis
        residues = self.residues
        return [
            basis.from_rns([row[i] for row in residues])
            for i in range(self.ring.n)
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RnsPolynomial):
            return NotImplemented
        return self.ring is other.ring and np.array_equal(
            self._limbs, other._limbs
        )

    def __repr__(self) -> str:
        return f"RnsPolynomial(n={self.ring.n}, limbs={len(self.ring.basis)})"


class _ChannelGroup:
    """The basis primes of one bit length and their channel-stacked plans."""

    def __init__(
        self, ring: "RnsPolynomialRing", rows: List[int], fast_mode: Optional[str]
    ) -> None:
        self.rows = np.array(rows, dtype=np.intp)
        self.primes = tuple(ring.basis.primes[i] for i in rows)
        self.blas = FastBlasPlan(self.primes, mode=fast_mode)
        if ring.negacyclic:
            self.neg = FastNegacyclic(ring.n, self.primes, mode=fast_mode)
            self.ntt = self.neg.plan
        else:
            self.neg = None
            self.ntt = FastNtt(ring.n, self.primes, mode=fast_mode)

    def channel_params(self) -> List[dict]:
        """Per-channel ``(q, root[, psi])``, as a pool worker rebuilds them."""
        params = [
            {"q": q, "root": root}
            for q, root in zip(self.primes, self.ntt.table.root)
        ]
        if self.neg is not None:
            for entry, psi in zip(params, self.neg.psi):
                entry["psi"] = psi
        return params


class RnsPolynomialRing:
    """``Z_Q[x] / (x^n -+ 1)`` with per-prime residue channels.

    Args:
        n: Ring dimension (power of two).
        basis: The RNS prime basis (every prime must support the ring:
            ``n | q - 1`` for cyclic, ``2n | q - 1`` for negacyclic).
        backend: Kernel backend of the faithful per-prime pipelines.
        negacyclic: ``True`` for the RLWE ring ``x^n + 1`` (default),
            ``False`` for the cyclic ring ``x^n - 1``.
        engine: ``"faithful"`` (ISA-simulated, traceable, one pipeline
            per prime), ``"fast"`` (NumPy-vectorized, bit-identical
            results: each op is one call per group of equal-width
            primes on the whole residue stack) or ``"parallel"`` (as
            fast, but ``mul`` dispatches every residue channel to the
            :mod:`repro.par` worker pool as one fused batch; the
            element-wise ops stay in-process, where one stacked pass
            costs less than a pool round trip). See docs/PERFORMANCE.md.
        fast_mode: Arithmetic substrate for the fast/parallel engines
            (``"dw"``/``"r52"``/``"auto"``, see
            :class:`repro.fast.modular.FastModulus`) — with ``"auto"``
            each group of primes picks r52 exactly when its width fits
            the fast range. Ignored by the faithful engine.
    """

    def __init__(
        self,
        n: int,
        basis: RnsBasis,
        backend: Backend,
        negacyclic: bool = True,
        engine: str = "faithful",
        fast_mode: Optional[str] = None,
    ) -> None:
        check_power_of_two(n, "n")
        self.n = n
        self.basis = basis
        self.backend = backend
        self.negacyclic = negacyclic
        if engine not in ENGINES:
            raise NttParameterError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        # Resolve the availability cascade once for the whole ring (so
        # k primes don't emit k degradation warnings, and ``mul`` only
        # dispatches the fused pool batch when the pool can run).
        if engine in ("fast", "parallel"):
            from repro.resil.degrade import resolve_engine

            engine = resolve_engine(engine, site="RnsPolynomialRing")
        self.engine = engine
        required = 2 * n if negacyclic else n
        for q in basis.primes:
            if (q - 1) % required:
                raise NttParameterError(
                    f"prime {q} does not support a "
                    f"{'negacyclic' if negacyclic else 'cyclic'} ring of "
                    f"dimension {n}"
                )
        #: ``(k, 1, 2)`` limb column of the primes, for range checks.
        self._moduli = limbs_from_ints(list(basis.primes))[:, None, :]
        self._blas: Dict[int, BlasPlan] = {}
        self._ntt: Dict[int, object] = {}
        self._groups: List[_ChannelGroup] = []
        if engine == "faithful":
            for q in basis.primes:
                self._blas[q] = BlasPlan(q, backend)
                self._ntt[q] = (
                    NegacyclicNtt(n, q, backend) if negacyclic
                    else SimdNtt(n, q, backend)
                )
        else:
            widths: Dict[int, List[int]] = {}
            for i, q in enumerate(basis.primes):
                widths.setdefault(q.bit_length(), []).append(i)
            self._groups = [
                _ChannelGroup(self, rows, fast_mode) for rows in widths.values()
            ]

    # ------------------------------------------------------------------
    # Encoding and validation
    # ------------------------------------------------------------------

    def as_stack(self, residues: Residues) -> np.ndarray:
        """``residues`` as a validated ``(k, n, 2)`` limb stack.

        Rows must number one per prime, each ``n`` long and reduced by
        its prime; anything else raises :class:`ArithmeticDomainError`.
        A limb-array argument is returned as-is (not copied).
        """
        k = len(self.basis)
        if not isinstance(residues, np.ndarray):
            rows = list(residues)
            if len(rows) != k:
                raise ArithmeticDomainError(
                    f"expected {k} residue rows (one per prime), got {len(rows)}"
                )
            try:
                residues = limbs_from_ints(rows)
            except TypeError as exc:
                raise ArithmeticDomainError(
                    f"residue rows must be sequences of ints: {exc}"
                ) from exc
        arr = limbs_from_ints(residues)
        if arr.shape != (k, self.n, 2):
            raise ArithmeticDomainError(
                f"expected {k} residue rows of {self.n} coefficients, "
                f"got shape {arr.shape[:-1]}"
            )
        bad = geq128(arr, self._moduli)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise ArithmeticDomainError(
                f"residues[{row}][{col}] is not reduced modulo "
                f"{self.basis.primes[row]}"
            )
        return arr

    def encode(self, coefficients: Sequence[int]) -> RnsPolynomial:
        """Decompose big-integer coefficients into per-prime residues."""
        if len(coefficients) != self.n:
            raise ArithmeticDomainError(
                f"expected {self.n} coefficients, got {len(coefficients)}"
            )
        for c in coefficients:
            if not 0 <= c < self.basis.modulus:
                raise ArithmeticDomainError(
                    "coefficients must be reduced modulo Q"
                )
        rows = [[c % q for c in coefficients] for q in self.basis.primes]
        return RnsPolynomial._wrap(self, limbs_from_ints(rows))

    def zero(self) -> RnsPolynomial:
        """The zero polynomial."""
        shape = (len(self.basis), self.n, 2)
        return RnsPolynomial._wrap(self, np.zeros(shape, dtype=LIMB_DTYPE))

    def one(self) -> RnsPolynomial:
        """The multiplicative identity."""
        coeffs = [1] + [0] * (self.n - 1)
        return self.encode(coeffs)

    # ------------------------------------------------------------------
    # Ring operations
    # ------------------------------------------------------------------

    def _check_membership(self, *polys: RnsPolynomial) -> None:
        for poly in polys:
            if poly.ring is not self:
                raise ArithmeticDomainError(
                    "polynomial belongs to a different ring"
                )

    def _per_group(
        self, op: Callable[..., np.ndarray], *polys: RnsPolynomial
    ) -> RnsPolynomial:
        """``op(group, *stacks)`` on each equal-width group's rows."""
        stacks = [poly.limbs for poly in polys]
        if len(self._groups) == 1:
            out = op(self._groups[0], *stacks)
        else:
            out = np.empty_like(stacks[0])
            for group in self._groups:
                out[group.rows] = op(group, *(s[group.rows] for s in stacks))
        return RnsPolynomial._wrap(self, out)

    def _per_prime(self, rows: List[List[int]]) -> RnsPolynomial:
        """Adopt the faithful engine's per-prime result rows."""
        poly = RnsPolynomial._wrap(self, limbs_from_ints(rows))
        poly._residues = rows
        return poly

    def add(self, f: RnsPolynomial, g: RnsPolynomial) -> RnsPolynomial:
        """``f + g``: point-wise modular addition of every channel."""
        self._check_membership(f, g)
        if self.engine == "faithful":
            return self._per_prime([
                self._blas[q].vector_add(fr, gr)
                for q, fr, gr in zip(self.basis.primes, f.residues, g.residues)
            ])
        return self._per_group(lambda grp, x, y: grp.blas.vector_add(x, y), f, g)

    def sub(self, f: RnsPolynomial, g: RnsPolynomial) -> RnsPolynomial:
        """``f - g``: point-wise modular subtraction of every channel."""
        self._check_membership(f, g)
        if self.engine == "faithful":
            return self._per_prime([
                self._blas[q].vector_sub(fr, gr)
                for q, fr, gr in zip(self.basis.primes, f.residues, g.residues)
            ])
        return self._per_group(lambda grp, x, y: grp.blas.vector_sub(x, y), f, g)

    def scalar_mul(self, a: int, f: RnsPolynomial) -> RnsPolynomial:
        """``a * f`` for a big-integer scalar ``a``: per-channel axpy."""
        self._check_membership(f)
        if self.engine == "faithful":
            zeros = [0] * self.n
            return self._per_prime([
                self._blas[q].axpy(a % q, fr, zeros)
                for q, fr in zip(self.basis.primes, f.residues)
            ])

        def axpy(group: _ChannelGroup, x: np.ndarray) -> np.ndarray:
            scalars = [a % q for q in group.primes]
            return group.blas.axpy(scalars, x, np.zeros_like(x))

        return self._per_group(axpy, f)

    def mul(self, f: RnsPolynomial, g: RnsPolynomial) -> RnsPolynomial:
        """``f * g`` in the ring: an NTT convolution of every channel.

        Negacyclic rings multiply directly at dimension ``n`` (via the
        psi-twisted transform); cyclic rings compute the length-``n``
        cyclic convolution. The fast engine runs one fused chain per
        group of equal-width primes; ``engine="parallel"`` dispatches
        all residue channels to the worker pool as one fused batch.
        """
        self._check_membership(f, g)
        if self.engine == "parallel":
            from repro.par.api import parallel_rns_mul

            return RnsPolynomial._wrap(
                self, parallel_rns_mul(self, f.limbs, g.limbs)
            )
        if self.engine == "faithful":
            return self._per_prime([
                self._ntt[q].multiply(fr, gr) if self.negacyclic
                else self._cyclic_mul(q, fr, gr)
                for q, fr, gr in zip(self.basis.primes, f.residues, g.residues)
            ])
        if self.negacyclic:
            return self._per_group(lambda grp, x, y: grp.neg.multiply(x, y), f, g)
        return self._per_group(
            lambda grp, x, y: grp.ntt.cyclic_multiply(x, y), f, g
        )

    def _cyclic_mul(self, q: int, f: List[int], g: List[int]) -> List[int]:
        """Faithful cyclic convolution of one channel."""
        plan: SimdNtt = self._ntt[q]  # type: ignore[assignment]
        fa = plan.forward(f, natural_order=False)
        ga = plan.forward(g, natural_order=False)
        backend = self.backend
        lanes = backend.lanes
        prod: List[int] = []
        for base in range(0, self.n, lanes):
            a = backend.load_block(fa[base : base + lanes])
            b = backend.load_block(ga[base : base + lanes])
            prod.extend(backend.store_block(backend.mulmod(a, b, plan.ctx)))
        return plan.inverse(prod, natural_order=False)

    def channel_params(self) -> List[dict]:
        """Per-prime ``{"q", "root"[, "psi"]}`` in basis order.

        What a pool worker needs to rebuild each channel's transform
        (see :func:`repro.par.api.parallel_rns_mul`).
        """
        if self.engine == "faithful":
            params = []
            for q in self.basis.primes:
                plan = self._ntt[q]
                if self.negacyclic:
                    params.append({"q": q, "root": plan.plan.table.root,
                                   "psi": plan.psi})
                else:
                    params.append({"q": q, "root": plan.table.root})
            return params
        params: List[Optional[dict]] = [None] * len(self.basis)
        for group in self._groups:
            for row, entry in zip(group.rows, group.channel_params()):
                params[row] = entry
        return params  # type: ignore[return-value]

    @property
    def ntt_count_per_mul(self) -> int:
        """Independent NTT invocations per ring multiplication.

        2 forward + 1 inverse per prime - the batch-parallel workload
        behind the Section 6 scaling argument.
        """
        return 3 * len(self.basis)
