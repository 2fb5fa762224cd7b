"""User-facing parallel plans: the fast-engine API, sharded over workers.

:class:`ParNtt`, :class:`ParNegacyclic`, :class:`ParBlasPlan`,
:class:`ParChain` and :func:`parallel_rns_mul` mirror their
:mod:`repro.fast` twins — same coercion, same validation, same
bit-exact results. Each one only builds a step list (see
:mod:`repro.fast.chain`) and hands it to one shared helper,
:func:`_run_steps`, which stages the operands into shared memory, cuts
axis 0 into contiguous shards and dispatches every shard as one
``op="chain"`` task to a :class:`~repro.par.executor.ParallelExecutor`,
whose workers keep their plan and twiddle caches warm across calls.

Two axes of parallelism are exposed:

* **batch sharding** — a ``(batch, n)`` stack of transforms, or the
  flattened ``(elements, 2)`` array of a BLAS op, is cut into
  ``workers`` contiguous pieces of axis 0;
* **residue-channel fan-out** — :func:`parallel_rns_mul` dispatches the
  per-prime convolutions of one RNS ring multiplication as independent
  one-row shards of a single batch, each with its own ``(q, psi,
  root)`` (this is the paper's observation that RNS limbs are
  embarrassingly parallel, applied at the process level).

Plans accept an explicit executor; otherwise they dispatch to the
process default (see :func:`~repro.par.executor.default_executor`),
which a ``with ParallelExecutor(...)`` block temporarily replaces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import NttParameterError
from repro.fast import chain as fast_chain
from repro.fast.blas import FastBlasPlan, IntMatrix
from repro.fast.limbs import LIMB_DTYPE, limbs_to_ints
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.ntt.twiddles import TwiddleTable
from repro.obs.hooks import record_engine_call, record_fused_chain
from repro.obs.spans import span
from repro.par.executor import ParallelExecutor, default_executor
from repro.util.checks import check_reduced


def shard_bounds(total: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into balanced contiguous ``[start, stop)``.

    At most ``min(shards, total)`` non-empty pieces, sizes differing by
    at most one — the unit of work handed to each pool worker. An empty
    range has no shards: ``total=0`` returns ``[]`` (callers
    early-return before staging anything).
    """
    if total <= 0:
        return []
    shards = max(1, min(int(shards), int(total)))
    base, extra = divmod(int(total), shards)
    bounds = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _run_steps(
    executor: Optional[ParallelExecutor],
    op: str,
    steps: Sequence[dict],
    arrays: Dict[str, np.ndarray],
    as_ints: bool,
    params: dict,
    flat: bool = False,
    shard_params: Optional[Sequence[dict]] = None,
):
    """Stage coerced operands, run ``steps`` sharded over axis 0, collect.

    ``arrays`` maps the chain's input registers to operands already
    coerced and range-checked by the fast twin, all of one shape.
    Transform operands are staged as ``(rows, n, 2)`` (a flat ``(n,)``
    vector is one row); with ``flat`` (BLAS) they are flattened to
    ``(elements, 2)`` so every element is a row. ``params`` (``q``, plus
    ``n``/``root``/``psi`` as the steps need) go into every shard's spec;
    ``shard_params`` instead gives one dict per row and makes each row
    its own shard (RNS: one prime per row). ``op`` names the call for
    the engine counters and the ``par.batch`` span. The result has the
    operands' shape, as Python ints when ``as_ints``.

    Staging goes through the executor's :class:`~repro.par.shm.ArenaPool`:
    segments are leased for the batch and returned to the pool's free
    lists afterwards (even when execution raises), so steady-state
    batches reuse the same segments (and the workers' attachment caches)
    with zero shm syscalls. The ``par.batch`` span brackets staging +
    run + collection, so a profile separates shared-memory copy overhead
    from pool time.
    """
    first = next(iter(arrays.values()))
    shape = first.shape
    for name, arr in arrays.items():
        if arr.shape != shape:
            raise NttParameterError(
                f"operand {name!r} has shape {arr.shape[:-1]}, "
                f"expected {shape[:-1]}"
            )
    record_engine_call("parallel", op, first.size // 2)
    rows = (-1, 2) if flat else (-1,) + shape[-2:]
    staged_shape = first.reshape(rows).shape
    total = staged_shape[0]
    if total <= 0:
        # Empty batch: the identity-shaped result, with no segment
        # staging and no pool round trip for zero work.
        out = np.zeros(shape, dtype=LIMB_DTYPE)
        return limbs_to_ints(out) if as_ints else out
    executor = executor or default_executor()
    meta = dict(
        params,
        op="chain",
        steps=[dict(step) for step in steps],
        inputs=list(arrays),
    )
    with span("par.batch", op=op, total=int(total)):
        segments = []
        try:
            names = {}
            for name, arr in arrays.items():
                seg, view = executor.arena.lease(staged_shape)
                view[...] = arr.reshape(rows)
                del view
                segments.append(seg)
                names[name] = seg.name
            out_seg, out_view = executor.arena.lease(staged_shape)
            segments.append(out_seg)
            if shard_params is None:
                shards = executor.suggest_shards(meta, total)
                bounds = shard_bounds(total, shards)
            else:
                bounds = [(row, row + 1) for row in range(total)]
            sums_name = None
            if executor.integrity:
                # One CRC-32 slot per shard, written by the worker right
                # after its payload and re-verified by the executor on
                # collection (see repro.resil.integrity).
                sums_seg, sums_view = executor.arena.lease((len(bounds),))
                del sums_view
                segments.append(sums_seg)
                sums_name = sums_seg.name
            specs = []
            for index, (start, stop) in enumerate(bounds):
                spec = dict(meta)
                spec.update(names)
                if shard_params is not None:
                    spec.update(shard_params[index])
                spec["shape"] = list(staged_shape)
                spec["rows"] = [start, stop]
                spec["out"] = out_seg.name
                if sums_name is not None:
                    spec["shard_index"] = index
                    spec["sums"] = sums_name
                    spec["sums_len"] = len(bounds)
                specs.append(spec)
            record_fused_chain(len(meta["steps"]), len(bounds))
            executor.run(specs)
            executor.audit(specs)
            out = np.array(out_view, copy=True).reshape(shape)
            del out_view
        finally:
            for seg in segments:
                executor.arena.release(seg)
    return limbs_to_ints(out) if as_ints else out


def _plan_params(ntt: FastNtt, neg: Optional[FastNegacyclic] = None) -> dict:
    """The spec parameters a worker rebuilds ``ntt`` (and ``neg``) from."""
    params = {"n": ntt.n, "q": ntt.q, "root": ntt.table.root}
    if neg is not None:
        params["psi"] = neg.psi
    return params


class ParNtt:
    """A batched NTT whose rows are computed across the worker pool.

    Same contract as :class:`repro.fast.ntt.FastNtt` (bit-exact with the
    faithful engine); a ``(batch, n)`` input is sharded into contiguous
    row ranges, one per worker. Flat ``(n,)`` inputs degenerate to a
    single shard — correct, but all the parallelism lives in the batch.
    """

    def __init__(
        self,
        n: int,
        q: int,
        root: Optional[int] = None,
        table: Optional[TwiddleTable] = None,
        executor: Optional[ParallelExecutor] = None,
    ) -> None:
        self.plan = FastNtt(n, q, root=root, table=table)
        self.executor = executor

    @classmethod
    def from_plan(
        cls, plan: FastNtt, executor: Optional[ParallelExecutor] = None
    ) -> "ParNtt":
        """Wrap an existing fast plan (shares its twiddle table)."""
        self = cls.__new__(cls)
        self.plan = plan
        self.executor = executor
        return self

    @property
    def n(self) -> int:
        """Transform size."""
        return self.plan.n

    @property
    def q(self) -> int:
        """Modulus."""
        return self.plan.q

    def forward(self, values, natural_order: bool = True):
        """Forward NTT, row-sharded when given ``(batch, n)`` input."""
        steps = fast_chain.ntt_steps("forward", natural_order)
        return self._run("ntt.forward", steps, x=values)

    def inverse(self, values, natural_order: bool = True):
        """Inverse NTT including the ``1/n`` scaling (row-sharded)."""
        steps = fast_chain.ntt_steps("inverse", natural_order)
        return self._run("ntt.inverse", steps, x=values)

    def pointwise_mul(self, f, g):
        """Element-wise spectral product (in-process: one vector pass)."""
        return self.plan.pointwise_mul(f, g)

    def cyclic_multiply(self, f, g):
        """Length-``n`` cyclic convolution, row-sharded over the pool."""
        return self._run("ntt.cyclic_mul", fast_chain.CYCLIC_MUL_STEPS, x=f, y=g)

    def _run(self, op: str, steps, **operands):
        arrays, as_ints = self.plan._coerce_operands(operands)
        return _run_steps(
            self.executor, op, steps, arrays, as_ints, _plan_params(self.plan)
        )


class ParNegacyclic:
    """Negacyclic polynomial multiplication sharded across the pool.

    Mirrors :class:`repro.fast.ntt.FastNegacyclic`; ``multiply`` on a
    ``(batch, n)`` stack cuts the batch into per-worker row ranges.
    """

    def __init__(
        self,
        n: int,
        q: int,
        psi: Optional[int] = None,
        executor: Optional[ParallelExecutor] = None,
    ) -> None:
        self.fast = FastNegacyclic(n, q, psi=psi)
        self.executor = executor

    @classmethod
    def from_plan(
        cls, plan: FastNegacyclic, executor: Optional[ParallelExecutor] = None
    ) -> "ParNegacyclic":
        """Wrap an existing fast negacyclic plan (shares psi + twiddles)."""
        self = cls.__new__(cls)
        self.fast = plan
        self.executor = executor
        return self

    @property
    def n(self) -> int:
        """Ring dimension."""
        return self.fast.n

    @property
    def q(self) -> int:
        """Modulus."""
        return self.fast.q

    @property
    def psi(self) -> int:
        """The primitive ``2n``-th root used for twisting."""
        return self.fast.psi

    def forward(self, values):
        """Twisted forward transform (in-process on the fast engine)."""
        return self.fast.forward(values)

    def inverse(self, values):
        """Inverse of :meth:`forward` (in-process on the fast engine)."""
        return self.fast.inverse(values)

    def multiply(self, f, g):
        """Negacyclic product ``f * g mod (x^n + 1, q)``, row-sharded."""
        return self._run(
            "ntt.polymul", fast_chain.NEGACYCLIC_MUL_STEPS, x=f, y=g
        )

    def multiply_add(self, f, g, acc):
        """Fused ``f * g + acc mod (x^n + 1, q)`` — one dispatch per shard.

        The keyswitch-shaped multiply-accumulate: the product never
        leaves the worker, so this costs one pool round trip instead of
        a ``multiply`` batch plus a BLAS ``vector_add`` batch.
        """
        return self._run(
            "ntt.polymul_add",
            fast_chain.NEGACYCLIC_MUL_ADD_STEPS,
            x=f, y=g, z=acc,
        )

    def _run(self, op: str, steps, **operands):
        arrays, as_ints = self.fast.plan._coerce_operands(operands)
        params = _plan_params(self.fast.plan, self.fast)
        return _run_steps(self.executor, op, steps, arrays, as_ints, params)


class ParChain:
    """User-specified fused op chains dispatched as single pool tasks.

    A chain (see :mod:`repro.fast.chain`) composes NTT / twist /
    pointwise / BLAS steps over named registers; the whole program runs
    worker-side against resident planes, so an NTT→pointwise→INTT
    pipeline costs **one** dispatch round trip instead of three. With an
    r52 modulus the intermediates additionally stay in 52-bit limb-plane
    form across steps.

    ``psi`` (or ``negacyclic=True``) enables twist steps; chains without
    twists only need ``n``/``q`` (and optionally ``root``).
    """

    def __init__(
        self,
        n: int,
        q: int,
        psi: Optional[int] = None,
        negacyclic: Optional[bool] = None,
        root: Optional[int] = None,
        executor: Optional[ParallelExecutor] = None,
    ) -> None:
        if negacyclic is None:
            negacyclic = psi is not None
        if negacyclic:
            self.neg: Optional[FastNegacyclic] = FastNegacyclic(n, q, psi=psi)
            self.ntt = self.neg.plan
        else:
            self.neg = None
            self.ntt = FastNtt(n, q, root=root)
        self.executor = executor

    @property
    def n(self) -> int:
        """Transform size."""
        return self.ntt.n

    @property
    def q(self) -> int:
        """Modulus."""
        return self.ntt.q

    def run(self, steps: Sequence[dict], **inputs):
        """Execute ``steps`` over the named ``inputs``, row-sharded.

        Input registers are ``(batch, n)`` stacks (or flat ``(n,)``
        vectors) coerced exactly like the fast engine's operands; the
        chain's ``"out"`` register is returned in the same form. The
        chain is validated in-process before any staging, so a
        malformed program raises immediately rather than through a
        worker error.
        """
        steps = [dict(step) for step in steps]
        needed = fast_chain.chain_input_names(steps)
        fast_chain.validate_steps(steps, needed)
        if self.neg is None and any(
            step.get("kind") == "twist" for step in steps
        ):
            raise NttParameterError(
                "chain has twist steps but this ParChain has no psi "
                "(construct it with psi=... or negacyclic=True)"
            )
        missing = [name for name in needed if name not in inputs]
        if missing:
            raise NttParameterError(
                f"chain reads input registers {missing} that were not "
                f"provided (got {sorted(inputs)})"
            )
        arrays, as_ints = self.ntt._coerce_operands(
            {name: inputs[name] for name in needed}
        )
        params = _plan_params(self.ntt, self.neg)
        return _run_steps(self.executor, "chain", steps, arrays, as_ints, params)


class ParBlasPlan:
    """The four BLAS operations sharded over the element axis.

    Mirrors :class:`repro.fast.blas.FastBlasPlan`: operands are coerced
    and validated in-process (so errors surface immediately with the
    fast engine's messages), then flattened to ``(elements, 2)`` and cut
    along axis 0 into one contiguous piece per worker.
    """

    def __init__(
        self,
        q: int,
        executor: Optional[ParallelExecutor] = None,
        plan: Optional[FastBlasPlan] = None,
    ) -> None:
        self.q = q
        self.fast = plan or FastBlasPlan(q)
        self.executor = executor

    def vector_add(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x + y) mod q``."""
        return self._sharded("vector_add", x, y)

    def vector_sub(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x - y) mod q``."""
        return self._sharded("vector_sub", x, y)

    def vector_mul(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x * y) mod q``."""
        return self._sharded("vector_mul", x, y)

    def axpy(self, a: int, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """``(a * x + y) mod q`` for scalar ``a``."""
        check_reduced(a, self.q, "a")
        return self._sharded("axpy", x, y, a=a)

    def _sharded(self, blas_op: str, x, y, a: Optional[int] = None):
        xa, ya, as_ints = self.fast._coerce_pair(x, y)
        return _run_steps(
            self.executor,
            f"blas.{blas_op}",
            fast_chain.blas_steps(blas_op, a),
            {"x": xa, "y": ya},
            as_ints,
            {"q": self.q},
            flat=True,
        )


def parallel_rns_mul(
    ring,
    f_residues: Union[List[List[int]], np.ndarray],
    g_residues: Union[List[List[int]], np.ndarray],
    executor: Optional[ParallelExecutor] = None,
):
    """One RNS ring multiplication with all residue channels fused.

    Stages the ``(k, n, 2)`` residue stacks of both operands into single
    shared segments and dispatches ``k`` one-row convolution shards
    (negacyclic or cyclic, matching the ring), each carrying its own
    prime's ``(q, psi, root)``, in a single pool batch — every prime's
    NTTs run concurrently instead of one after another in-process.

    ``ring`` is an :class:`repro.rns.poly.RnsPolynomialRing`. Operands
    are ``k`` residue rows of Python ints (the result is then rows of
    ints) or ``(k, n, 2)`` limb stacks, taken as-is with no list packing
    (the result is then a stack). Both are validated in-process against
    the ring — one row per prime, each reduced — so a bad operand fails
    fast with :class:`~repro.errors.ArithmeticDomainError` instead of a
    retried worker failure.
    """
    as_ints = not isinstance(f_residues, np.ndarray)
    fa = ring.as_stack(f_residues)
    ga = ring.as_stack(g_residues)
    steps = (
        fast_chain.NEGACYCLIC_MUL_STEPS if ring.negacyclic
        else fast_chain.CYCLIC_MUL_STEPS
    )
    return _run_steps(
        executor,
        "rns.mul",
        steps,
        {"x": fa, "y": ga},
        as_ints,
        {"n": ring.n},
        shard_params=ring.channel_params(),
    )
