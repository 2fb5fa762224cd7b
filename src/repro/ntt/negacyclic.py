"""Negacyclic NTT: multiplication in ``Z_q[x] / (x^n + 1)``.

RLWE-based FHE schemes (the paper's motivating application) work in the
*negacyclic* ring, not the cyclic one: wrap-around coefficients re-enter
negated. The standard technique is twisting by a primitive ``2n``-th root
of unity ``psi`` (with ``psi^2 = omega``):

    negacyclic(f, g) = untwist( cyclic( twist(f), twist(g) ) )

where ``twist(f)[i] = f[i] * psi^i`` and ``untwist`` multiplies by
``psi^-i``. The twist/untwist passes are plain point-wise modular
multiplications, so they run on the same kernel backends as everything
else; the cyclic convolution in the middle is the Pease SIMD NTT.

Requires ``2n | q - 1`` (all the library's default primes satisfy this).
"""

from __future__ import annotations

from typing import List, Optional

from repro.arith.primes import root_of_unity
from repro.errors import NttParameterError
from repro.kernels.backend import Backend
from repro.ntt.simd import SimdNtt
from repro.obs.hooks import record_engine_call
from repro.util.checks import check_power_of_two, check_reduced


class NegacyclicNtt:
    """Multiplication plan for ``Z_q[x] / (x^n + 1)`` on one backend.

    Precomputes the twist tables (powers of ``psi`` and ``psi^-1``) and an
    ``n``-point cyclic NTT plan. The negacyclic product of two length-``n``
    coefficient vectors needs only ``n``-point transforms (no zero
    padding), which is why FHE implementations prefer this formulation.
    """

    def __init__(
        self,
        n: int,
        q: int,
        backend: Backend,
        algorithm: str = "schoolbook",
        psi: Optional[int] = None,
        engine: str = "faithful",
        fast_mode: Optional[str] = None,
    ) -> None:
        check_power_of_two(n, "n")
        if (q - 1) % (2 * n):
            raise NttParameterError(
                f"negacyclic multiplication needs 2n | q - 1; "
                f"got n={n}, q={q}"
            )
        self.n = n
        self.q = q
        self.backend = backend
        self.psi = psi or root_of_unity(2 * n, q)
        if pow(self.psi, 2 * n, q) != 1 or pow(self.psi, n, q) == 1:
            raise NttParameterError(
                f"{self.psi} is not a primitive {2 * n}-th root of unity mod {q}"
            )
        # Resolve the availability cascade here (not just in the inner
        # SimdNtt): the twist plans below must agree with the engine
        # that will actually run. Invalid names pass through unchanged
        # and fail SimdNtt's validation as before.
        from repro.resil.degrade import resolve_engine

        if engine in ("fast", "parallel"):
            engine = resolve_engine(engine, site="NegacyclicNtt")
        # The cyclic plan uses omega = psi^2, keeping the rings consistent.
        omega = self.psi * self.psi % q
        self.plan = SimdNtt(
            n, q, backend, algorithm=algorithm, root=omega, engine=engine,
            fast_mode=fast_mode,
        )
        self.engine = engine

        self._twist = self.plan.table.twist_powers(self.psi)
        self._untwist = self.plan.table.twist_powers(self.psi, inverse=True)
        if engine in ("fast", "parallel"):
            from repro.fast.ntt import FastNegacyclic

            #: Vectorized twin sharing this plan's psi and twiddle table.
            self.fast_plan = FastNegacyclic(
                n, q, psi=self.psi, plan=self.plan.fast_plan
            )
        else:
            self.fast_plan = None
        if engine == "parallel":
            from repro.par.api import ParNegacyclic

            #: Pool-sharded wrapper: ``multiply`` on a batch splits the
            #: rows across the active ParallelExecutor's workers.
            self.par_plan = ParNegacyclic.from_plan(self.fast_plan)
        else:
            self.par_plan = None

    def _pointwise(self, values: List[int], table: List[int]) -> List[int]:
        """Point-wise multiply by a precomputed table, on the backend."""
        backend = self.backend
        lanes = backend.lanes
        out: List[int] = []
        for base in range(0, self.n, lanes):
            a = backend.load_block(values[base : base + lanes])
            b = backend.load_block(table[base : base + lanes])
            out.extend(backend.store_block(backend.mulmod(a, b, self.plan.ctx)))
        return out

    def forward(self, values: List[int]) -> List[int]:
        """Twisted forward transform (negacyclic evaluation form).

        Output order is the raw bit-reversed order of the cyclic plan -
        point-wise operations don't care, and the matching
        :meth:`inverse` undoes it.
        """
        if self.fast_plan is not None:
            return self.fast_plan.forward(values)
        if len(values) != self.n:
            raise NttParameterError(f"expected {self.n} values, got {len(values)}")
        for i, value in enumerate(values):
            check_reduced(value, self.q, f"values[{i}]")
        twisted = self._pointwise(values, self._twist)
        return self.plan.forward(twisted, natural_order=False)

    def inverse(self, values: List[int]) -> List[int]:
        """Inverse of :meth:`forward` (includes untwisting and 1/n)."""
        if self.fast_plan is not None:
            return self.fast_plan.inverse(values)
        if len(values) != self.n:
            raise NttParameterError(f"expected {self.n} values, got {len(values)}")
        cyclic = self.plan.inverse(values, natural_order=False)
        return self._pointwise(cyclic, self._untwist)

    def multiply(self, f: List[int], g: List[int]) -> List[int]:
        """Negacyclic product: ``f * g mod (x^n + 1, q)``."""
        if self.par_plan is not None:
            return self.par_plan.multiply(f, g)
        if self.fast_plan is not None:
            return self.fast_plan.multiply(f, g)
        record_engine_call("faithful", "ntt.polymul", self.n)
        fa = self.forward(f)
        ga = self.forward(g)
        backend = self.backend
        lanes = backend.lanes
        prod: List[int] = []
        for base in range(0, self.n, lanes):
            a = backend.load_block(fa[base : base + lanes])
            b = backend.load_block(ga[base : base + lanes])
            prod.extend(backend.store_block(backend.mulmod(a, b, self.plan.ctx)))
        return self.inverse(prod)


def negacyclic_polymul(
    f: List[int],
    g: List[int],
    q: int,
    backend: Backend,
    algorithm: str = "schoolbook",
    engine: str = "faithful",
) -> List[int]:
    """One-shot negacyclic polynomial multiplication."""
    if len(f) != len(g):
        raise NttParameterError("negacyclic multiplication needs equal lengths")
    plan = NegacyclicNtt(len(f), q, backend, algorithm=algorithm, engine=engine)
    return plan.multiply(f, g)
