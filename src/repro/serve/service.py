"""The asyncio serving front door over the engine cascade.

:class:`ReproService` is what turns the engine stack into a system: an
asyncio layer that accepts many small client requests (negacyclic
polymuls, BLAS ops, RNS ring multiplications), coalesces them per
``(op, n, q)`` into engine-sized batches (:mod:`repro.serve.coalesce`),
and dispatches each batch through the existing cascade — parallel pool
when healthy, fast engine when degraded, faithful as the last resort —
with the PR-4 resilience policies in front:

* **Admission control** (:mod:`repro.serve.admission`): queue-depth
  shedding plus per-tenant token-bucket quotas. A rejected request gets
  a typed :class:`~repro.errors.ServeOverloadError` and a
  ``serve.shed.<reason>`` metric bump — overload is never silent.
* **Breaker-aware dispatch**: an open :class:`CircuitBreaker` on the
  pool either degrades the batch to the in-process fast engine
  (``breaker_mode="degrade"``, the default — results stay bit-exact)
  or sheds it explicitly (``"shed"``); it never hard-fails.
* **Deadline propagation**: the earliest per-request deadline in a
  batch becomes the executor's ``batch_deadline_s``, so an expiring
  batch short-circuits to in-process fallback instead of waiting out
  retries. Requests that expire *before* dispatch fail individually
  with :class:`~repro.errors.ServeDeadlineError` without poisoning
  their batchmates.
* **Graceful shutdown**: ``close(drain=True)`` dispatches everything
  queued, waits for in-flight batches, and rejects new work with
  ``ServeOverloadError(reason="shutting_down")``.

Threading model: the asyncio event loop owns admission + coalescing;
all engine work runs on one dedicated dispatcher thread (a
``ThreadPoolExecutor(max_workers=1)``), so every ``serve.*`` span and
the ``par.*`` spans nested under it live on a single thread — the span
sink's stack is per-session, not per-thread, and a single dispatcher
keeps the request → coalesce → shard → worker story on one coherent
Perfetto timeline.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import ServeDeadlineError, ServeError, ServeOverloadError
from repro.obs.hooks import (
    record_serve_admitted,
    record_serve_batch,
    record_serve_completed,
    record_serve_degraded,
    record_serve_failed,
    record_serve_latency_slices,
    record_serve_queue_depth,
    record_serve_shed,
)
from repro.obs.session import current as obs_current
from repro.obs.slo import SloTracker
from repro.obs.spans import span
from repro.serve.admission import AdmissionController
from repro.serve.coalesce import SERVE_OPS, Coalescer, Request

_ENGINES = ("parallel", "fast", "faithful")


@dataclass
class ServeConfig:
    """Tuning knobs for one :class:`ReproService`.

    ``max_wait_s`` is the coalesce window — the latency a sparse key
    pays to fill a batch; ``max_batch`` caps how much traffic one
    dispatch carries (see docs/SERVING.md for tuning guidance).
    ``breaker_mode`` picks what an open pool breaker does to admitted
    batches: ``"degrade"`` (in-process fast engine, bit-exact) or
    ``"shed"`` (explicit ``ServeOverloadError(reason="breaker_open")``).

    ``slo_p99_ms`` declares the latency objective: when set, every
    completed request feeds an :class:`~repro.obs.slo.SloTracker` that
    windows tail latency per op/tenant (``slo_window_s`` wide windows),
    publishes ``serve.slo.*`` gauges, and — after ``slo_burn_windows``
    consecutive breached windows — raises the flight recorder's
    ``slo_burn`` incident trigger. ``slo_error_budget`` is the allowed
    violation fraction the burn rate is measured against.
    """

    engine: str = "parallel"
    max_batch: int = 32
    max_wait_s: float = 0.002
    max_queue_depth: int = 1024
    default_deadline_s: Optional[float] = None
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[float] = None
    breaker_mode: str = "degrade"
    workers: Optional[int] = None
    slo_p99_ms: Optional[float] = None
    slo_window_s: float = 1.0
    slo_burn_windows: int = 3
    slo_error_budget: float = 0.01

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ServeError(
                f"engine must be one of {_ENGINES}, got {self.engine!r}"
            )
        if self.breaker_mode not in ("degrade", "shed"):
            raise ServeError(
                f"breaker_mode must be 'degrade' or 'shed', "
                f"got {self.breaker_mode!r}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ServeError("default_deadline_s must be positive when set")
        if self.slo_p99_ms is not None and self.slo_p99_ms <= 0:
            raise ServeError("slo_p99_ms must be positive when set")
        if self.slo_window_s <= 0:
            raise ServeError("slo_window_s must be positive")
        if self.slo_burn_windows < 1:
            raise ServeError("slo_burn_windows must be >= 1")
        if not 0 < self.slo_error_budget <= 1:
            raise ServeError("slo_error_budget must be in (0, 1]")


class ReproService:
    """Async batching service over the engine cascade (see module docs).

    Args:
        executor: A started-or-lazy :class:`~repro.par.executor.ParallelExecutor`
            for ``engine="parallel"``; one is created (and owned —
            closed on ``close()``) when omitted.
        config: A :class:`ServeConfig`; defaults throughout.
        clock: Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        executor: Optional[Any] = None,
        config: Optional[ServeConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServeConfig()
        self._clock = clock
        self._executor = executor
        self._own_executor = executor is None
        self._admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            clock=clock,
        )
        self._coalescer = Coalescer(
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_wait_s,
            clock=clock,
        )
        #: Sliding-window SLO accounting; publishes ``serve.slo.*``
        #: through the live obs session and raises the ``slo_burn``
        #: flight trigger on sustained breaches (docs/OBSERVABILITY.md).
        self.slo = SloTracker(
            slo_p99_ms=self.config.slo_p99_ms,
            window_s=self.config.slo_window_s,
            burn_windows=self.config.slo_burn_windows,
            error_budget=self.config.slo_error_budget,
            clock=clock,
        )
        # ONE dispatcher thread, on purpose: every serve.*/par.* span of
        # every batch nests on a single thread's span stack (the sink is
        # not thread-safe) and pool dispatch is serialized, which is the
        # batching model anyway.
        self._dispatcher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._flush_task: Optional[asyncio.Task] = None
        self._pending: set = set()
        self._rings: Dict[Tuple[int, Hashable], Any] = {}
        self._plans: Dict[Tuple[str, str, int, Hashable], Any] = {}
        self._state = "new"
        # Admitted-but-unresolved requests (coalescing + dispatched).
        # This — not the coalescer depth alone — is what admission
        # bounds: batches leave the coalescer the moment they fill, so
        # under overload the backlog lives in front of the dispatcher,
        # and an unbounded backlog is exactly unbounded p99. Mutated
        # only on the event-loop thread (resolutions arrive via
        # call_soon_threadsafe), so no lock is needed.
        self._backlog = 0
        #: Lifetime tallies. Invariants the load generator asserts:
        #: ``submitted == admitted + shed`` and (once idle)
        #: ``admitted == completed + failed`` — no request is ever
        #: dropped without being accounted somewhere.
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "admitted": 0,
            "shed": 0,
            "completed": 0,
            "failed": 0,
            "batches": 0,
            "degraded": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def executor(self):
        """The pool executor (lazily created for ``engine="parallel"``)."""
        if self._executor is None and self.config.engine == "parallel":
            from repro.par.executor import ParallelExecutor

            self._executor = ParallelExecutor(workers=self.config.workers)
        return self._executor

    async def start(self) -> "ReproService":
        """Bind to the running loop and start the flush task (idempotent)."""
        if self._state == "running":
            return self
        if self._state != "new":
            raise ServeError(f"cannot start a {self._state} service")
        self._loop = asyncio.get_running_loop()
        self._state = "running"
        self._flush_task = self._loop.create_task(self._flush_loop())
        return self

    async def close(self, drain: bool = True) -> None:
        """Stop accepting work and shut the dispatcher down.

        ``drain=True`` (default) dispatches every queued request and
        waits for all in-flight batches; ``drain=False`` fails queued
        requests with ``ServeOverloadError(reason="shutting_down")``
        (metered as ``serve.failed.shutdown`` — they were admitted, so
        they are failed, not shed). Either way new ``submit`` calls are
        shed with reason ``"shutting_down"`` from the moment this is
        entered, and the owned executor (if any) is closed so its arena
        and shm segments are reclaimed.
        """
        if self._state in ("draining", "closed"):
            return
        self._state = "draining"
        if self._flush_task is not None:
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
            self._flush_task = None
        leftover = self._coalescer.drain()
        if drain:
            for batch in leftover:
                self._dispatch(batch)
        else:
            for batch in leftover:
                for req in batch:
                    self._resolve_error(
                        req,
                        ServeOverloadError("shutting_down", tenant=req.tenant),
                        kind="shutdown",
                    )
        if self._pending:
            await asyncio.gather(*list(self._pending), return_exceptions=True)
        await asyncio.get_running_loop().run_in_executor(
            None, self._dispatcher.shutdown
        )
        if self._own_executor and self._executor is not None:
            self._executor.close()
        self._state = "closed"

    async def __aenter__(self) -> "ReproService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(drain=exc_type is None)

    def register_ring(self, ring) -> None:
        """Register an :class:`~repro.rns.poly.RnsPolynomialRing` for ``rns.mul``.

        Requests then address it as ``op="rns.mul", n=ring.n,
        q=ring.basis.modulus`` with ``payload=(f_residues, g_residues)``.
        Only negacyclic rings are served (the RLWE shape the paper's
        kernels target).
        """
        if not getattr(ring, "negacyclic", False):
            raise ServeError("rns.mul serving requires a negacyclic ring")
        self._rings[(ring.n, ring.basis.modulus)] = ring

    # ------------------------------------------------------------------
    # Request path (event-loop thread)
    # ------------------------------------------------------------------

    async def submit(
        self,
        op: str,
        payload: Tuple[Any, ...],
        n: int,
        q: Hashable,
        tenant: str = "default",
        deadline_s: Optional[float] = None,
    ) -> Any:
        """Submit one request; resolves with the op result.

        Raises :class:`ServeOverloadError` when shed (quota, queue
        depth, shutdown, or breaker in ``"shed"`` mode),
        :class:`ServeDeadlineError` when the deadline expired before
        dispatch, or whatever the engine raised for a genuinely invalid
        operand.
        """
        if op not in SERVE_OPS:
            raise ServeError(f"unknown op {op!r}; serveable: {SERVE_OPS}")
        self.stats["submitted"] += 1
        if self._state != "running":
            exc = ServeOverloadError("shutting_down", tenant=tenant)
            self._count_shed(exc.reason)
            raise exc
        try:
            self._admission.admit(tenant, self._backlog)
        except ServeOverloadError as exc:
            self._count_shed(exc.reason)
            raise
        self.stats["admitted"] += 1
        self._backlog += 1
        record_serve_admitted(op)
        now = self._clock()
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        request = Request(
            op=op,
            n=n,
            q=q,
            payload=payload,
            tenant=tenant,
            enqueued_at=now,
            expires_at=(now + deadline_s) if deadline_s is not None else None,
            future=self._loop.create_future(),
        )
        full = self._coalescer.add(request)
        record_serve_queue_depth(self._backlog)
        if full is not None:
            self._dispatch(full)
        return await request.future

    async def flush(self) -> None:
        """Dispatch everything queued now (tests, checkpointing)."""
        for batch in self._coalescer.drain():
            self._dispatch(batch)
        record_serve_queue_depth(0)

    async def join(self) -> None:
        """Wait until every dispatched batch has finished."""
        while self._pending:
            await asyncio.gather(*list(self._pending), return_exceptions=True)

    def _count_shed(self, reason: str) -> None:
        self.stats["shed"] += 1
        record_serve_shed(reason)

    async def _flush_loop(self) -> None:
        tick = max(self.config.max_wait_s / 4.0, 1e-4)
        while self._state == "running":
            await asyncio.sleep(tick)
            for batch in self._coalescer.due():
                self._dispatch(batch)

    def _dispatch(self, batch: List[Request]) -> None:
        # Coalesce wait ends here: the batch leaves the coalescer for
        # the dispatcher queue. Dispatcher wait (the next slice) runs
        # until _run_batch picks the batch up on its own thread.
        dequeued_at = self._clock()
        for req in batch:
            req.dequeued_at = dequeued_at
        future = self._loop.run_in_executor(
            self._dispatcher, self._run_batch, batch
        )
        self._pending.add(future)
        future.add_done_callback(self._pending.discard)

    # ------------------------------------------------------------------
    # Batch path (dispatcher thread)
    # ------------------------------------------------------------------

    def _run_batch(self, batch: List[Request]) -> None:
        """Execute one coalesced batch; resolves every request future.

        Never raises: an unexpected error resolves every still-pending
        future so no caller is left hanging (the zero-dropped invariant).
        """
        try:
            self._run_batch_inner(batch)
        except BaseException as exc:  # noqa: BLE001 — must not lose requests
            for req in batch:
                if not req.future.done():
                    self._resolve_error(req, exc, kind="error")

    def _run_batch_inner(self, batch: List[Request]) -> None:
        now = self._clock()
        op = batch[0].op
        live: List[Request] = []
        for req in batch:
            if req.expires_at is not None and now >= req.expires_at:
                # Expired while coalescing: fail this request alone; its
                # batchmates still dispatch below.
                self._resolve_error(
                    req,
                    ServeDeadlineError(
                        f"deadline expired {now - req.expires_at:.4f}s "
                        f"before dispatch (op={op})"
                    ),
                    kind="deadline",
                )
            else:
                live.append(req)
        if not live:
            return
        self.stats["batches"] += 1
        wait_s = now - min(r.enqueued_at for r in live)
        record_serve_batch(op, len(live), wait_s)
        with span(
            "serve.batch",
            op=op,
            n=live[0].n,
            requests=len(live),
            wait_ms=round(wait_s * 1e3, 3),
        ):
            engine = self._resolve_batch_engine(live)
            if engine is None:
                return  # breaker_mode="shed" already resolved the futures
            with span("serve.dispatch", engine=engine, op=op):
                with self._propagate_deadline(engine, live, now):
                    try:
                        results = self._execute(
                            engine, op, live[0].n, live[0].q,
                            [r.payload for r in live],
                        )
                    except Exception:
                        # One bad operand must not poison the batch:
                        # rerun each request alone so only the guilty
                        # one fails.
                        self._run_individually(engine, live)
                        return
            done = self._clock()
            for req, result in zip(live, results):
                self._resolve_ok(req, result, done, started_at=now)

    def _resolve_batch_engine(self, live: List[Request]) -> Optional[str]:
        """The engine this batch runs on, after cascade + breaker checks.

        Returns ``None`` when ``breaker_mode="shed"`` shed the batch
        (every future already resolved).
        """
        from repro.resil.degrade import resolve_engine

        engine = self.config.engine
        # The service's own breaker check comes first: resolve_engine
        # peeks only at the process-default pool, which may not be the
        # executor this service dispatches to.
        if (
            engine == "parallel"
            and self._executor is not None
            and self._executor.breaker.state == "open"
        ):
            if self.config.breaker_mode == "shed":
                for req in live:
                    exc = ServeOverloadError("breaker_open", tenant=req.tenant)
                    self._count_shed(exc.reason)
                    self._resolve_error(req, exc, kind=None)
                return None
            self.stats["degraded"] += 1
            record_serve_degraded("breaker_open")
            engine = "fast"
        resolved = resolve_engine(engine, site="serve")
        if resolved != engine:
            self.stats["degraded"] += 1
            record_serve_degraded("engine_unavailable")
        return resolved

    @contextmanager
    def _propagate_deadline(self, engine: str, live: List[Request], now: float):
        """Temporarily narrow the executor's batch deadline to this batch.

        The earliest request deadline becomes ``batch_deadline_s``, so
        the pool short-circuits still-pending shards in-process before
        the clients give up. Single dispatcher thread ⇒ the temporary
        mutation cannot race another batch.
        """
        executor = self._executor
        deadlines = [r.expires_at for r in live if r.expires_at is not None]
        if engine != "parallel" or executor is None or not deadlines:
            yield
            return
        remaining = max(min(deadlines) - now, 1e-6)
        previous = executor.batch_deadline_s
        executor.batch_deadline_s = (
            min(remaining, previous) if previous is not None else remaining
        )
        try:
            yield
        finally:
            executor.batch_deadline_s = previous

    def _run_individually(self, engine: str, live: List[Request]) -> None:
        for req in live:
            started_at = self._clock()
            try:
                result = self._execute(
                    engine, req.op, req.n, req.q, [req.payload]
                )[0]
            except Exception as exc:  # noqa: BLE001 — per-request verdict
                self._resolve_error(req, exc, kind="error")
            else:
                self._resolve_ok(
                    req, result, self._clock(), started_at=started_at
                )

    # ------------------------------------------------------------------
    # Future resolution (marshalled back to the event loop)
    # ------------------------------------------------------------------

    def _resolve_ok(
        self,
        req: Request,
        result: Any,
        done_at: float,
        started_at: Optional[float] = None,
    ) -> None:
        self.stats["completed"] += 1
        total_s = max(0.0, done_at - req.enqueued_at)
        record_serve_completed(req.op, total_s)
        # Decompose end-to-end time: coalesce wait (enqueue → batch left
        # the coalescer), dispatcher-queue wait (→ compute start), and
        # compute (→ done). ``started_at`` is when the dispatcher thread
        # picked the batch up; a request resolved without dispatching
        # (dequeued_at == 0.0) records no slices.
        if req.dequeued_at and started_at is not None:
            record_serve_latency_slices(
                req.op,
                req.tenant,
                total_s,
                coalesce_wait_s=max(0.0, req.dequeued_at - req.enqueued_at),
                queue_wait_s=max(0.0, started_at - req.dequeued_at),
                compute_s=max(0.0, done_at - started_at),
            )
        self.slo.record(req.op, req.tenant, total_s, ok=True)
        self._loop.call_soon_threadsafe(self._finish, req.future, result, None)

    def _resolve_error(
        self, req: Request, exc: BaseException, kind: Optional[str]
    ) -> None:
        if kind is not None:
            self.stats["failed"] += 1
            record_serve_failed(req.op, kind)
            # Failures spend error budget: a deadline expiry or engine
            # error is an SLO violation even though it has no latency
            # sample to contribute.
            self.slo.record(
                req.op,
                req.tenant,
                max(0.0, self._clock() - req.enqueued_at),
                ok=False,
            )
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._finish, req.future, None, exc)
        else:
            self._backlog = max(0, self._backlog - 1)
            _set_exception(req.future, exc)

    def _finish(self, future, result, exc: Optional[BaseException]) -> None:
        """Event-loop side of resolution: backlog release + future wakeup."""
        self._backlog = max(0, self._backlog - 1)
        record_serve_queue_depth(self._backlog)
        if exc is not None:
            _set_exception(future, exc)
        else:
            _set_result(future, result)

    # ------------------------------------------------------------------
    # Engine dispatch
    # ------------------------------------------------------------------

    def _execute(
        self,
        engine: str,
        op: str,
        n: int,
        q: Hashable,
        payloads: List[Tuple[Any, ...]],
    ) -> List[Any]:
        """Run ``payloads`` as one engine batch; one result per payload."""
        if op == "rns.mul":
            return self._execute_rns(engine, n, q, payloads)
        if op == "polymul":
            plan = self._plan(engine, "polymul", n, q)
            if engine == "faithful":
                return [plan.multiply(f, g) for f, g in payloads]
            return plan.multiply(
                [p[0] for p in payloads], [p[1] for p in payloads]
            )
        if op == "ntt":
            plan = self._plan(engine, "ntt", n, q)
            if engine == "faithful":
                return [plan.forward(p[0]) for p in payloads]
            return plan.forward([p[0] for p in payloads])
        if op.startswith("blas."):
            plan = self._plan(engine, "blas", n, q)
            method = getattr(plan, op[len("blas."):])
            if engine == "faithful":
                return [method(x, y) for x, y in payloads]
            return method([p[0] for p in payloads], [p[1] for p in payloads])
        raise ServeError(f"unknown op {op!r}")  # unreachable (submit checks)

    def _execute_rns(
        self, engine: str, n: int, q: Hashable, payloads: List[Tuple[Any, ...]]
    ) -> List[Any]:
        ring = self._rings.get((n, q))
        if ring is None:
            raise ServeError(
                f"no ring registered for rns.mul n={n}, Q={q}; "
                f"call register_ring() first"
            )
        if engine == "parallel":
            from repro.par.api import parallel_rns_mul

            # Each rns.mul already fans its k residue channels out as
            # one fused pool batch; requests run back to back.
            return [
                parallel_rns_mul(ring, f, g, self._executor)
                for f, g in payloads
            ]
        from repro.rns.poly import RnsPolynomial

        # RnsPolynomial validates each operand (one reduced row of n
        # coefficients per prime), so a malformed request fails alone.
        return [
            ring.mul(RnsPolynomial(ring, f), RnsPolynomial(ring, g)).residues
            for f, g in payloads
        ]

    def _plan(self, engine: str, family: str, n: int, q: Hashable):
        """Cached per-(engine, family, n, q) plan construction."""
        key = (engine, family, n, q)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._build_plan(engine, family, n, q)
            self._plans[key] = plan
        return plan

    def _build_plan(self, engine: str, family: str, n: int, q: Hashable):
        if engine == "parallel":
            from repro.par.api import ParBlasPlan, ParNegacyclic, ParNtt

            if family == "polymul":
                return ParNegacyclic(n, q, executor=self.executor)
            if family == "ntt":
                return ParNtt(n, q, executor=self.executor)
            return ParBlasPlan(q, executor=self.executor)
        if engine == "fast":
            from repro.fast import FastBlasPlan, FastNegacyclic, FastNtt

            if family == "polymul":
                return FastNegacyclic(n, q)
            if family == "ntt":
                return FastNtt(n, q)
            return FastBlasPlan(q)
        from repro.blas.ops import BlasPlan
        from repro.kernels import get_backend
        from repro.ntt.negacyclic import NegacyclicNtt
        from repro.ntt.simd import SimdNtt

        backend = get_backend("avx512")
        if family == "polymul":
            return NegacyclicNtt(n, q, backend)
        if family == "ntt":
            return SimdNtt(n, q, backend)
        return BlasPlan(q, backend)


def _set_result(future, result) -> None:
    if not future.done():
        future.set_result(result)


def _set_exception(future, exc) -> None:
    if not future.done():
        future.set_exception(exc)
    else:  # pragma: no cover — late duplicate resolution
        pass
