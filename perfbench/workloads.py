"""The three benchmark workloads.

Each workload builds its deployment, issues a fixed number of operations
generated from the seed, and returns an :class:`Outcome` holding the raw
samples; :mod:`perfbench.run` turns outcomes into metrics.  The operation
count scales with ``seconds`` through a fixed per-workload rate, so the size
of every history (and so the checker's cost and the memory footprint) does
not depend on how fast the program runs.

* ``tcp-lucky`` — the paper's lucky case on the asyncio runtime over
  localhost TCP: one writer writes keys one after another, one reader reads
  each key right after its write completed.  Every operation is synchronous
  and contention-free, so the round-1 timer sets latency.
* ``tcp-busy`` — eight closed-loop callers (the writer and seven readers)
  saturate the event loop: Zipf-popular keys, mostly reads, SWMR writes, read
  leases on the hot keys, and a slice of multi-writer keys with writer leases
  on which the readers' clients also write and compare-and-swap.
* ``sim-churn`` — the sharded store on the simulator: a dynamic keyspace
  under a resident bound (create, write, read, revisit, drop), a Byzantine
  server forging timestamps, and a durable server crashed and recovered from
  its write-ahead log for the middle third of the run.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.runtime.cluster import ShardedAsyncCluster, sharded_tcp_cluster
from repro.sim.byzantine import ForgeHighTimestampStrategy
from repro.sim.failures import CrashRecoverySchedule
from repro.sim.topology import Topology
from repro.store.sim import ShardedSimStore
from repro.verify.history import History, OperationRecord
from repro.workload.generator import Workload, churn_workload, run_store_workload

from .trace import Tracer, traced

#: Times each run builds its deployment; ``setup_s`` is the median.  The TCP
#: counts give about a second of builds or more (one build takes 35 ms on
#: tcp-lucky and half a second on tcp-busy); the simulator's store builds in
#: a fraction of a millisecond.  The counts are fixed rather than timed so
#: that the garbage the builds leave, and so ``peak_rss_mb``, does not follow
#: the host's speed.
LUCKY_SETUP_REPEATS = 25
BUSY_SETUP_REPEATS = 5
SIM_SETUP_REPEATS = 1000
#: Per-operation limit on the asyncio runtime; a later completion is a failure.
OP_TIMEOUT_S = 30.0
#: Period of the event-loop lag probe.
LAG_PERIOD_S = 0.002


@contextlib.contextmanager
def settled() -> Iterator[None]:
    """Collect set-up garbage and freeze what survives for the timed window.

    A full collection scans every tracked object; the deployments hold
    enough of them that one takes about 100 ms, and whether it lands inside
    the window or just after it would flip the tail latencies from run to
    run.  Frozen set-up objects are skipped, so collections inside the
    window scan only what the window itself allocated.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def bench_config(num_readers: int) -> SystemConfig:
    """``t=2, b=1, fw=1, fr=0``: S = 6 servers; lucky writes survive one failure."""
    return SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=num_readers)


@dataclass
class Sample:
    """One completed operation of the timed window."""

    kind: str  # invocation kind: "read" or "write" (writes include CAS and RMW)
    wall_ms: float  # caller-observed wall-clock latency
    virtual: float  # latency in protocol time units
    fast: bool
    rounds: int
    lease: bool  # served under a read or writer lease
    cas: bool = False
    cas_failed: bool = False


@dataclass
class Outcome:
    """Raw result of one workload run."""

    setup_s: List[float]
    wall_s: float
    samples: List[Sample]
    attempted: int
    failed: int
    #: key -> (history, multi-writer?) for every register the run touched.
    histories: Dict[str, Tuple[History, bool]]
    #: Violations found by the workload's own value checks (tcp-lucky).
    mismatches: List[str] = field(default_factory=list)
    #: Counters read from the program after the run (frames, bytes, ...).
    counters: Dict[str, float] = field(default_factory=dict)
    lag_ms: List[float] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# asyncio runtime over localhost TCP
# --------------------------------------------------------------------------- #


def _sample(kind: str, completion: Any, time_scale: float, cas: bool) -> Sample:
    latency_s = completion.metadata["latency_s"]
    return Sample(
        kind=kind,
        wall_ms=latency_s * 1000.0,
        virtual=latency_s / time_scale,
        fast=bool(completion.fast),
        rounds=int(completion.rounds),
        lease=bool(completion.metadata.get("lease")),
        cas=cas,
        cas_failed=bool(completion.metadata.get("cas_failed")),
    )


class _Caller:
    """Bookkeeping of one closed-loop caller: attempts, failures, samples."""

    def __init__(self, store: ShardedAsyncCluster, tracer: Optional[Tracer]) -> None:
        self.store = store
        self.tracer = tracer
        self.samples: List[Sample] = []
        self.attempted = 0
        self.failed = 0

    async def call(self, kind: str, operation: Any, cas: bool = False) -> Optional[Any]:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id.set(self.tracer.next_op())
        try:
            completion = await asyncio.wait_for(operation, OP_TIMEOUT_S)
        except (asyncio.TimeoutError, RuntimeError, KeyError, ValueError):
            self.failed += 1
            return None
        self.samples.append(_sample(kind, completion, self.store.time_scale, cas))
        return completion


async def _lag_probe(stop: asyncio.Event, lags_ms: List[float]) -> None:
    """Record how late a periodic sleep wakes up: the event loop's backlog."""
    loop = asyncio.get_running_loop()
    while not stop.is_set():
        due = loop.time() + LAG_PERIOD_S
        await asyncio.sleep(LAG_PERIOD_S)
        lags_ms.append((loop.time() - due) * 1000.0)


async def _tcp_setup(
    build: Callable[[], ShardedAsyncCluster], warm_writers: List[str], repeats: int
) -> Tuple[ShardedAsyncCluster, List[float]]:
    """Build, start and warm the cluster *repeats* times; keep the last.

    The warm-up writes one key from *warm_writers* and reads it from every
    reader, which opens every lazily connected TCP pair (client to server and
    back) before the timed window starts.
    """
    times: List[float] = []
    while True:
        started = time.perf_counter()
        store = build()
        await store.start()
        for writer in warm_writers:
            await store.write("warm", f"warm-{writer}-{len(times)}", client_id=writer)
        for reader in store.config.reader_ids():
            await store.read("warm", reader)
        times.append(time.perf_counter() - started)
        if len(times) == repeats:
            return store, times
        await store.stop()


async def _tcp_window(
    store: ShardedAsyncCluster,
    callers: Callable[[], Awaitable[Any]],
    tracer: Optional[Tracer],
) -> Tuple[float, Dict[str, float], List[float]]:
    """Time ``callers()`` to completion: ``(seconds, counters, loop lags)``.

    The counters are differences over the window, so the warm-up's frames
    are not counted.
    """
    stop = asyncio.Event()
    lags: List[float] = []
    probe = asyncio.create_task(_lag_probe(stop, lags))
    before = _tcp_counters(store)
    with settled(), traced(tracer):
        started = time.perf_counter()
        await callers()
        wall = time.perf_counter() - started
    stop.set()
    await probe
    after = _tcp_counters(store)
    return wall, {name: after[name] - before[name] for name in after}, lags


def _tcp_counters(store: ShardedAsyncCluster) -> Dict[str, float]:
    nodes = list(store.server_nodes.values()) + list(store.client_nodes.values())
    return {
        "frames": store.transport.frames_sent,
        "bytes": store.transport.bytes_sent,
        "timers_cancelled": sum(node.timers_cancelled for node in nodes),
        "evictions": store.evictions,
        "rehydrations": store.rehydrations,
    }


def _tcp_histories(store: ShardedAsyncCluster) -> Dict[str, Tuple[History, bool]]:
    """Per-key histories with every record on one clock.

    Each client node stamps its records relative to its own construction time
    (``node.start_time``), and the nodes of one cluster are built tens of
    milliseconds apart, so ``store.histories()`` mixes clock origins and the
    checker would compare times that are not comparable.  Each record is
    shifted back onto the shared monotonic clock here.
    """
    origin = min(node.start_time for node in store.client_nodes.values())
    by_key: Dict[str, List[OperationRecord]] = {}
    for node in store.client_nodes.values():
        shift = node.start_time - origin
        for record in node.records:
            by_key.setdefault(record.metadata["register_id"], []).append(
                replace(
                    record,
                    invoked_at=record.invoked_at + shift,
                    completed_at=record.completed_at + shift,
                )
            )
    mwmr = set(store.mwmr_keys)
    return {key: (History(records), key in mwmr) for key, records in by_key.items()}


# tcp-lucky ----------------------------------------------------------------- #

#: Write+read pairs per second of requested run time.
LUCKY_PAIRS_PER_S = 190
LUCKY_KEYS = 512


def tcp_lucky(seed: int, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
    rng = random.Random(seed)
    pairs = max(1, round(LUCKY_PAIRS_PER_S * seconds))
    keys = [f"k{i:04d}" for i in range(LUCKY_KEYS)]
    rng.shuffle(keys)
    order = [keys[i % LUCKY_KEYS] for i in range(pairs)]
    values = [f"v{i}-{rng.getrandbits(32):08x}" for i in range(pairs)]
    config = bench_config(num_readers=1)
    reader_id = config.reader_ids()[0]

    async def main() -> Outcome:
        store, setup = await _tcp_setup(
            lambda: sharded_tcp_cluster(LuckyAtomicProtocol(config), keys + ["warm"]),
            [config.writer_id],
            LUCKY_SETUP_REPEATS,
        )
        writer, reader = _Caller(store, tracer), _Caller(store, tracer)
        written = 0  # writes completed so far
        read = 0  # reads completed so far
        progress = asyncio.Event()
        mismatches: List[str] = []

        async def wait_for(condition: Callable[[], bool]) -> None:
            while not condition():
                progress.clear()
                await progress.wait()

        async def write_loop() -> None:
            nonlocal written
            for i in range(pairs):
                # Never revisit a key the reader has not read yet: reads stay
                # contention-free by construction.
                await wait_for(lambda: read > i - LUCKY_KEYS)
                await writer.call("write", store.write(order[i], values[i]))
                written += 1
                progress.set()

        async def read_loop() -> None:
            nonlocal read
            for i in range(pairs):
                await wait_for(lambda: written > i)
                completion = await reader.call("read", store.read(order[i], reader_id))
                if completion is not None and completion.value != values[i]:
                    mismatches.append(
                        f"read {i} of {order[i]!r} returned {completion.value!r}, "
                        f"last written {values[i]!r}"
                    )
                read += 1
                progress.set()

        wall, counters, lags = await _tcp_window(
            store, lambda: asyncio.gather(write_loop(), read_loop()), tracer
        )
        await store.stop()
        return Outcome(
            setup_s=setup,
            wall_s=wall,
            samples=writer.samples + reader.samples,
            attempted=writer.attempted + reader.attempted,
            failed=writer.failed + reader.failed,
            histories=_tcp_histories(store),
            mismatches=mismatches,
            counters=counters,
            lag_ms=lags,
        )

    return asyncio.run(main())


# tcp-busy ------------------------------------------------------------------ #

#: Operations per second of requested run time, over all eight callers.
BUSY_OPS_PER_S = 400
BUSY_KEYS = 1024
BUSY_ZIPF = 0.6
#: The most popular keys carry read leases.
BUSY_LEASED = 16
#: Every MWMR_STRIDE-th key below the leased ones is multi-writer with
#: writer leases.
BUSY_MWMR_STRIDE = 2
#: Lease validity in protocol time units (1 unit = 1 ms on the runtime).
BUSY_LEASE_DURATION = 1000.0
#: What readers do on multi-writer keys, in turn.
BUSY_MWMR_KINDS = ("write", "read", "cas", "write")


def busy_keys() -> Tuple[List[str], List[str], List[str]]:
    """``(keys by popularity rank, read-leased keys, writer-leased MWMR keys)``."""
    keys = [f"k{i:04d}" for i in range(BUSY_KEYS)]
    leased = keys[:BUSY_LEASED]
    mwmr = keys[BUSY_LEASED::BUSY_MWMR_STRIDE]
    return keys, leased, mwmr


def _quotas(total: int, weights: List[float]) -> List[int]:
    """Split *total* in proportion to *weights* (largest remainder first)."""
    exact = [total * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in exact]
    remainders = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for index in remainders[: total - sum(counts)]:
        counts[index] += 1
    return counts


def busy_plan(seed: int, seconds: float, client_ids: List[str]) -> Dict[str, List[Tuple[str, str]]]:
    """Per-client ``(invocation, key)`` lists: the writer writes SWMR keys,
    readers read any key and also write or CAS the multi-writer ones.

    Each key gets its Zipf share of a client's operations exactly, and the
    seed shuffles their order: every seed puts the same load on every key, so
    history lengths (and the checker's cost) do not vary with the seed.
    """
    rng = random.Random(seed)
    keys, _leased, mwmr = busy_keys()
    mwmr_set = set(mwmr)
    weights = {key: 1.0 / (rank + 1) ** BUSY_ZIPF for rank, key in enumerate(keys)}
    per_client = max(1, round(BUSY_OPS_PER_S * seconds / len(client_ids)))

    def draw(candidates: List[str], plain: str) -> List[Tuple[str, str]]:
        counts = _quotas(per_client, [weights[key] for key in candidates])
        ops = []
        mwmr_ops = 0
        for key, count in zip(candidates, counts):
            for _ in range(count):
                if key in mwmr_set:
                    ops.append((BUSY_MWMR_KINDS[mwmr_ops % len(BUSY_MWMR_KINDS)], key))
                    mwmr_ops += 1
                else:
                    ops.append((plain, key))
        rng.shuffle(ops)
        return ops

    swmr = [key for key in keys if key not in mwmr_set]
    plan = {client_ids[0]: draw(swmr, "write")}
    for client in client_ids[1:]:
        plan[client] = draw(keys, "read")
    return plan


def tcp_busy(seed: int, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
    config = bench_config(num_readers=7)
    clients = config.client_ids()
    plan = busy_plan(seed, seconds, clients)
    keys, leased, mwmr = busy_keys()

    def build() -> ShardedAsyncCluster:
        return sharded_tcp_cluster(
            LuckyAtomicProtocol(config),
            keys + ["warm"],
            mwmr=mwmr + ["warm"],
            writer_leases=mwmr,
            leases=leased,
            lease_duration=BUSY_LEASE_DURATION,
        )

    async def main() -> Outcome:
        store, setup = await _tcp_setup(build, clients, BUSY_SETUP_REPEATS)
        callers = {client: _Caller(store, tracer) for client in clients}

        async def loop(client: str) -> None:
            caller = callers[client]
            seen: Dict[str, Any] = {}  # last value observed per key: CAS expectation
            for index, (kind, key) in enumerate(plan[client]):
                value = f"{client}-{index}"
                if kind == "read":
                    completion = await caller.call("read", store.read(key, client))
                    if completion is not None:
                        seen[key] = completion.value
                    continue
                if kind == "cas":
                    operation = store.compare_and_swap(key, seen.get(key), value, client)
                else:
                    operation = store.write(key, value, client)
                completion = await caller.call("write", operation, cas=kind == "cas")
                if completion is not None:
                    seen[key] = completion.value if completion.kind == "read" else value

        wall, counters, lags = await _tcp_window(
            store, lambda: asyncio.gather(*(loop(client) for client in clients)), tracer
        )
        await store.stop()
        return Outcome(
            setup_s=setup,
            wall_s=wall,
            samples=[s for caller in callers.values() for s in caller.samples],
            attempted=sum(caller.attempted for caller in callers.values()),
            failed=sum(caller.failed for caller in callers.values()),
            histories=_tcp_histories(store),
            counters=counters,
            lag_ms=lags,
        )

    return asyncio.run(main())


# --------------------------------------------------------------------------- #
# simulator
# --------------------------------------------------------------------------- #

#: Churned registers per second of requested run time.
CHURN_REGISTERS_PER_S = 400
#: Resident-register bound per server, well below the live keyspace.
CHURN_RESIDENT = 64


def _churn_store(seed: int, workload_span: float) -> ShardedSimStore:
    config = bench_config(num_readers=2)
    servers = config.server_ids()
    failures = CrashRecoverySchedule().crash(
        servers[1], at=workload_span / 3.0, recover_at=2.0 * workload_span / 3.0
    )
    return ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys=[],
        max_resident=CHURN_RESIDENT,
        byzantine={servers[-1]: ForgeHighTimestampStrategy},
        topology=Topology.profile(
            "lan", server_ids=servers, client_ids=config.client_ids()
        ),
        durable=True,
        failures=failures,
        seed=seed,
    )


def churn_inputs(seed: int, seconds: float) -> Workload:
    """The churn schedule: creates, writes, reads, revisits and drops."""
    registers = max(10, round(CHURN_REGISTERS_PER_S * seconds))
    return churn_workload(
        registers, readers=bench_config(num_readers=2).reader_ids(), seed=seed
    )


def sim_churn(seed: int, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
    workload = churn_inputs(seed, seconds)
    span = max(op.at for op in workload.operations)
    setup: List[float] = []
    for _ in range(SIM_SETUP_REPEATS):
        started = time.perf_counter()
        store = _churn_store(seed, span)
        setup.append(time.perf_counter() - started)

    # Stamp the wall clock at each simulated invocation and completion.
    invoked: Dict[int, float] = {}
    completed: Dict[int, float] = {}
    cluster = store.cluster
    pending = cluster._pending

    def stamped(start: Callable[..., Any]) -> Callable[..., Any]:
        def invoke(*args: Any, **kwargs: Any) -> Any:
            if tracer is None:
                handle = start(*args, **kwargs)
            else:
                token = tracer.op_id.set(tracer.next_op())
                try:
                    handle = start(*args, **kwargs)
                finally:
                    tracer.op_id.reset(token)
            invoked[id(handle)] = time.perf_counter()
            return handle

        return invoke

    complete = cluster._complete

    def complete_stamped(client_id: str, completion: Any) -> None:
        handle = pending.get((client_id, completion.metadata.get("register_id")))
        complete(client_id, completion)
        if handle is not None:
            completed[id(handle)] = time.perf_counter()

    store.start_write = stamped(store.start_write)  # type: ignore[method-assign]
    store.start_read = stamped(store.start_read)  # type: ignore[method-assign]
    cluster._complete = complete_stamped  # type: ignore[method-assign]

    with settled(), traced(tracer):
        started = time.perf_counter()
        handles = run_store_workload(store, workload)
        wall = time.perf_counter() - started

    samples = [
        Sample(
            kind="read" if handle.kind == "read" else "write",
            wall_ms=(completed[id(handle)] - invoked[id(handle)]) * 1000.0,
            virtual=handle.latency,
            fast=handle.fast,
            rounds=handle.rounds,
            lease=bool(handle.result.metadata.get("lease")),
        )
        for handle in handles
        if handle.done
    ]
    return Outcome(
        setup_s=setup,
        wall_s=wall,
        samples=samples,
        attempted=len(handles),
        failed=sum(1 for handle in handles if not handle.done),
        histories={key: (history, False) for key, history in store.histories().items()},
        counters={
            "frames": cluster.frames_sent,
            "messages": cluster.messages_sent,
            "bytes": cluster.bytes_sent,
            "events": cluster.events_processed,
            "trace_entries": len(cluster.trace.entries),
            "evictions": store.evictions,
            "rehydrations": store.rehydrations,
            "wal_records": store.wal_records,
            "recoveries": sum(
                store.incarnation(server) for server in store.config.server_ids()
            ),
            "virtual_span": store.now,
        },
    )


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "tcp-lucky": tcp_lucky,
    "tcp-busy": tcp_busy,
    "sim-churn": sim_churn,
}

