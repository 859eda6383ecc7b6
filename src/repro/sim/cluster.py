"""The discrete-event simulation cluster.

:class:`SimCluster` instantiates every process of a protocol suite, runs the
virtual-time event loop, injects crash and Byzantine failures, applies a delay
model per message, and records both a message trace and an operation history
(for the atomicity/regularity checkers).

Typical use::

    config = SystemConfig(t=2, b=1, fw=1, fr=0)
    cluster = SimCluster(LuckyAtomicProtocol(config))
    write = cluster.write("hello")          # blocking convenience helper
    read = cluster.read("r1")
    assert write.fast and read.value == "hello"

For concurrency experiments operations are *started* and the loop is advanced
explicitly::

    w = cluster.start_write("v2")
    cluster.run_for(0.5)                     # deliver only the first messages
    r = cluster.start_read("r1")             # READ concurrent with the WRITE
    cluster.run()                            # drain until both complete
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.automaton import Automaton, ClientAutomaton, Effects, OperationComplete
from ..core.messages import Batch, Message, iter_unbatched, make_envelope
from ..core.protocol import ProtocolSuite
from ..persist.durable import DurableServer, recover_server
from ..persist.snapshot import MemorySnapshot, SnapshotManager
from ..persist.wal import MemoryWAL
from ..verify.history import History, OperationRecord
from ..wire import Codec, get_codec
from .byzantine import ByzantineStrategy, MaliciousServer
from .events import DeliveryEvent, EventQueue, InvocationEvent, TimerEvent
from .failures import FailureSchedule
from .latency import DelayModel, FixedDelay
from .topology import Topology
from .trace import MessageTrace

#: Sentinel a message filter can return to drop a message entirely.
DROP = object()

#: Signature of a message filter: ``(source, destination, message, now)`` ->
#: ``None`` (use the delay model), a float (explicit delay) or :data:`DROP`.
MessageFilter = Callable[[str, str, Message, float], Union[None, float, object]]


class SimulationError(RuntimeError):
    """Raised when a run exceeds its event budget (likely livelock)."""


@dataclass
class OperationHandle:
    """A pending or completed client operation in the simulation.

    ``register_id`` is ``None`` for single-register deployments; sharded-store
    operations carry the key they target.  ``scheduled_at`` records when a
    workload *wanted* to invoke the operation, which can be earlier than
    ``invoked_at`` when the invocation was deferred behind an outstanding
    operation of the same client (the difference is the queueing delay).
    """

    client_id: str
    kind: str
    requested_value: Any = None
    invoked_at: float = 0.0
    completed_at: Optional[float] = None
    result: Optional[OperationComplete] = None
    register_id: Optional[str] = None
    scheduled_at: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.result is not None

    @property
    def value(self) -> Any:
        if self.result is None:
            raise RuntimeError("operation has not completed")
        return self.result.value

    @property
    def rounds(self) -> int:
        if self.result is None:
            raise RuntimeError("operation has not completed")
        return self.result.rounds

    @property
    def fast(self) -> bool:
        if self.result is None:
            raise RuntimeError("operation has not completed")
        return self.result.fast

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise RuntimeError("operation has not completed")
        return self.completed_at - self.invoked_at

    @property
    def queueing_delay(self) -> float:
        """Time spent deferred behind an earlier operation of the same client."""
        if self.scheduled_at is None:
            return 0.0
        return max(0.0, self.invoked_at - self.scheduled_at)

    def _metadata_extras(self) -> Dict[str, Any]:
        extras: Dict[str, Any] = {}
        if self.register_id is not None:
            extras["register_id"] = self.register_id
        if self.scheduled_at is not None:
            extras["scheduled_at"] = self.scheduled_at
            extras["queueing_delay"] = self.queueing_delay
        return extras

    def to_record(self) -> OperationRecord:
        """Convert to the checker's operation record."""
        if self.result is None:
            return OperationRecord(
                client_id=self.client_id,
                kind=self.kind,
                value=self.requested_value,
                invoked_at=self.invoked_at,
                completed_at=None,
                metadata=self._metadata_extras(),
            )
        if self.kind in ("cas", "rmw"):
            # A conditional op resolves its record kind at completion: a
            # successful CAS/RMW is a write of the new value, a failed CAS is
            # a read of the observed value.
            kind = self.result.kind
            value = self.result.value
        else:
            kind = self.kind
            value = (
                self.result.value if self.kind == "read" else self.requested_value
            )
        return OperationRecord(
            client_id=self.client_id,
            kind=kind,
            value=value,
            invoked_at=self.invoked_at,
            completed_at=self.completed_at,
            rounds=self.result.rounds,
            fast=self.result.fast,
            metadata=dict(self.result.metadata, **self._metadata_extras()),
        )


class SimCluster:
    """Drives a full deployment of a protocol suite under virtual time."""

    def __init__(
        self,
        suite: ProtocolSuite,
        delay_model: Optional[DelayModel] = None,
        failures: Optional[FailureSchedule] = None,
        byzantine: Optional[Dict[str, ByzantineStrategy]] = None,
        seed: int = 0,
        message_filter: Optional[MessageFilter] = None,
        auto_timer: bool = True,
        timer_margin: float = 0.5,
        max_events_per_run: int = 500_000,
        frame_overhead: float = 0.0,
        byte_cost: float = 0.0,
        codec: Union[str, Codec, None] = None,
        durable: bool = False,
        compact_every: Optional[int] = None,
        topology: Optional[Topology] = None,
        trace_entries: bool = False,
    ) -> None:
        if topology is not None and delay_model is not None:
            raise ValueError(
                "pass either a topology or a delay_model, not both: a "
                "topology owns all delay routing (wrap the model with "
                "Topology.from_delay_model to compose them)"
            )
        self.suite = suite
        self.config = suite.config
        self.delay_model = delay_model or FixedDelay(1.0)
        #: Every delay lookup routes through the topology's link layer —
        #: a flat ``delay_model`` is wrapped as the degenerate single-zone
        #: case, so partitions / gray failures / clock skew compose on top
        #: of any model.
        self.topology = topology or Topology.from_delay_model(self.delay_model)
        self.failures = failures or FailureSchedule.none()
        self.byzantine = dict(byzantine or {})
        self.rng = random.Random(seed)
        self.message_filter = message_filter
        self.max_events_per_run = max_events_per_run
        #: Per-frame transmission cost at the sender.  Frames leaving the same
        #: process serialize on its outgoing line, each occupying it for
        #: ``frame_overhead`` time units before the network delay starts — the
        #: per-message overhead that batching amortises (a batch is one frame).
        #: The default of 0 reproduces the classical charge-per-message model.
        self.frame_overhead = frame_overhead
        #: Bandwidth term of the line model: each frame occupies the sender's
        #: line for an *additional* ``byte_cost`` time units per encoded wire
        #: byte, charged on the frame's real encoded size under ``codec``.
        #: With the default of 0 the line model stays size-blind (frames cost
        #: ``frame_overhead`` regardless of payload), but ``bytes_sent`` is
        #: always maintained.
        self.byte_cost = byte_cost
        #: Wire codec frames are measured (and, with ``byte_cost``, charged)
        #: under — the same codec objects the asyncio transports speak.
        self.codec = get_codec(codec)
        #: Durability: with ``durable=True`` every server is wrapped in a
        #: :class:`~repro.persist.durable.DurableServer` logging its state to
        #: an in-memory WAL, which is what lets a crashed server *recover*
        #: (see :meth:`recover_server`) instead of counting against ``t``
        #: forever.  ``compact_every`` additionally snapshots + truncates the
        #: log once it holds that many records.
        self.durable = durable
        self.compact_every = compact_every
        self.wals: Dict[str, MemoryWAL] = {}
        self.snapshot_stores: Dict[str, MemorySnapshot] = {}

        self.now: float = 0.0
        self.queue = EventQueue()
        #: Message counters; ``trace_entries=True`` also keeps one entry per
        #: message for tests that assert communication patterns (the list
        #: grows with the run, so it is off by default).
        self.trace = MessageTrace(record_entries=trace_entries)
        #: Diagnostics: events dispatched, frames put on the wire, protocol
        #: messages carried by them (frames < messages when batching is on)
        #: and the encoded wire bytes of those frames under :attr:`codec`.
        #: ``events_processed`` counts *dispatched* events only: a timer an
        #: automaton cancelled before expiry is tombstoned in the queue (see
        #: :attr:`timers_cancelled`), never popped as an event.
        self.events_processed: int = 0
        self.frames_sent: int = 0
        self.messages_sent: int = 0
        self.bytes_sent: int = 0
        # Batching layer: per-source buffered sends awaiting their flush event,
        # plus the time each source's outgoing line is busy until.
        self._outbox: Dict[str, Dict[str, List[Message]]] = {}
        self._flush_scheduled: set = set()
        self._line_busy_until: Dict[str, float] = {}
        self.operations: List[OperationHandle] = []
        # Pending operations keyed by (client_id, register_id); register_id is
        # None for single-register deployments, so plain clients keep exactly
        # one slot while sharded clients get one slot per register.
        self._pending: Dict[Tuple[str, Optional[str]], OperationHandle] = {}
        # Sharded operations by register id, in invocation order: per-key
        # histories and drop archiving cost O(that key's operations), not
        # O(every operation of the run).
        self._by_register: Dict[str, List[OperationHandle]] = {}

        self.processes: Dict[str, Automaton] = {}
        self._build_processes()

        self._warned_timer_fallback = False
        if auto_timer:
            # Round-1 timers are per-process: each client's timer covers one
            # round trip over *its own* links (plus margin), so a client in a
            # far zone arms a longer timer than a quorum-local one.  The
            # degenerate delay-model topology reports one global timer, which
            # reproduces the pre-topology behaviour exactly.
            servers = self.config.server_ids()
            for process_id, process in self.processes.items():
                if isinstance(process, ClientAutomaton):
                    timer, used_fallback = self.topology.suggested_timer_for(
                        process_id, servers, timer_margin
                    )
                    if used_fallback:
                        self._warn_timer_fallback(timer)
                    process.timer_delay = timer

        unknown_byzantine = set(self.byzantine) - set(self.config.server_ids())
        if unknown_byzantine:
            raise ValueError(f"byzantine ids are not servers: {sorted(unknown_byzantine)}")
        if len(self.byzantine) > self.config.b:
            raise ValueError(
                f"{len(self.byzantine)} Byzantine servers exceed the model bound b={self.config.b}"
            )
        # With recovery in the schedule, the model bound applies to servers
        # down *simultaneously*: a durable server that recovered from its WAL
        # no longer counts against t, so the total number of distinct crashes
        # over the run may legitimately exceed it.
        peak_faulty = self.failures.max_simultaneous_faulty(
            self.config.server_ids(), always_faulty=set(self.byzantine)
        )
        if peak_faulty > self.config.t:
            raise ValueError(
                f"{peak_faulty} simultaneously faulty servers exceed the model "
                f"bound t={self.config.t}"
            )
        self._schedule_recoveries()

    # ----------------------------------------------------------------- build
    def _build_processes(self) -> None:
        for server_id in self.config.server_ids():
            server = self._build_server(server_id)
            if self.durable:
                wal = MemoryWAL()
                snapshot_store = MemorySnapshot()
                self.wals[server_id] = wal
                self.snapshot_stores[server_id] = snapshot_store
                snapshots = (
                    SnapshotManager(snapshot_store, wal, compact_every=self.compact_every)
                    if self.compact_every is not None
                    else None
                )
                server = DurableServer(server, wal, incarnation=0, snapshots=snapshots)
            self.processes[server_id] = server
        self.processes[self.config.writer_id] = self.suite.create_writer()
        for reader_id in self.config.reader_ids():
            self.processes[reader_id] = self.suite.create_reader(reader_id)

    def _build_server(self, server_id: str) -> Automaton:
        """A fresh (initial-state) server automaton, Byzantine-wrapped if set."""
        server = self.suite.create_server(server_id)
        strategy = self.byzantine.get(server_id)
        if strategy is not None:
            server = MaliciousServer(server, strategy)  # type: ignore[arg-type]
        return server

    def _schedule_recoveries(self) -> None:
        recoveries = self.failures.recovery_events()
        if not recoveries:
            return
        if not self.durable:
            raise ValueError(
                "the failure schedule recovers servers but the cluster is not "
                "durable; build it with durable=True so crashed servers have a "
                "WAL to recover from"
            )
        server_set = set(self.config.server_ids())
        for event in recoveries:
            if event.process_id not in server_set:
                raise ValueError(
                    f"only servers can recover from a WAL; {event.process_id!r} "
                    "is a client"
                )
            self.queue.push(
                event.at,
                InvocationEvent(
                    label=f"recover:{event.process_id}",
                    action=lambda e=event: self._scheduled_recovery(e),
                ),
            )

    def _scheduled_recovery(self, event) -> None:
        """Fire a schedule-driven recovery unless its window was closed early.

        A manual :meth:`recover_server` call rewrites the crash window to end
        at the manual recovery time; the originally queued event is then stale
        and must not fire — it would drop the *live* incarnation's WAL tail
        (records whose acks were already quorum-counted) and bump the
        incarnation a second time.
        """
        windows = getattr(self.failures, "windows", {}).get(event.process_id, ())
        if not any(window.recover_at == event.at for window in windows):
            return
        self.recover_server(event.process_id, lose_tail=event.lose_tail)

    # ------------------------------------------------------------ inspection
    @property
    def timers_cancelled(self) -> int:
        """Timers disarmed before expiry (their queue tuples are tombstones)."""
        return self.queue.timers_cancelled

    @property
    def writer(self) -> ClientAutomaton:
        return self.processes[self.config.writer_id]  # type: ignore[return-value]

    def reader(self, reader_id: str) -> ClientAutomaton:
        return self.processes[reader_id]  # type: ignore[return-value]

    def server(self, server_id: str) -> Automaton:
        return self.processes[server_id]

    def correct_servers(self) -> List[str]:
        """Servers that are neither Byzantine nor crashed-forever.

        A server that crashes but *recovers* (a durable cluster under a
        :class:`~repro.sim.failures.CrashRecoverySchedule`) counts as correct:
        it rejoins with its WAL state and serves quorums again.
        """
        crashed = self.failures.permanently_crashed()
        return [
            sid
            for sid in self.config.server_ids()
            if sid not in self.byzantine and sid not in crashed
        ]

    # -------------------------------------------------------------- failures
    def crash(self, process_id: str, at: Optional[float] = None) -> None:
        """Crash *process_id* at time *at* (default: immediately)."""
        self.failures.crash(process_id, self.now if at is None else at)

    def is_crashed(self, process_id: str) -> bool:
        return self.failures.is_crashed(process_id, self.now)

    def incarnation(self, server_id: str) -> int:
        """The current incarnation (recovery count) of *server_id*.

        Unknown process ids raise :class:`KeyError` — a typo must not be
        indistinguishable from a live server that simply never recovered.
        The ``0`` default is reserved for *existing* processes without an
        incarnation counter (live non-durable servers, clients).
        """
        try:
            process = self.processes[server_id]
        except KeyError:
            raise KeyError(
                f"unknown process {server_id!r}; known processes: "
                f"{sorted(self.processes)}"
            ) from None
        return getattr(process, "incarnation", 0)

    def recover_server(self, server_id: str, lose_tail: int = 0) -> None:
        """Rebuild *server_id* from its WAL (snapshot + suffix replay), now.

        The fresh automaton replaces the crashed one under a bumped
        incarnation, so in-flight acknowledgements of the pre-crash
        incarnation — whose state the lost tail may not cover — are rejected
        on delivery rather than counted into pending quorums.
        """
        if not self.durable:
            raise ValueError(
                "recover_server requires a durable cluster (durable=True)"
            )
        if self.failures.is_crashed(server_id, self.now) and not self.failures.mark_recovered(
            server_id, self.now
        ):
            raise ValueError(
                f"{server_id!r} is crashed under a schedule that cannot express "
                "recovery; crash servers you intend to recover through a "
                "CrashRecoverySchedule"
            )
        wal = self.wals[server_id]
        if lose_tail:
            wal.drop_tail(lose_tail)
        incarnation = getattr(self.processes[server_id], "incarnation", 0) + 1
        self.processes[server_id] = recover_server(
            self._build_server(server_id),
            wal,
            snapshot_store=self.snapshot_stores[server_id],
            incarnation=incarnation,
            compact_every=self.compact_every,
        )

    # ------------------------------------------------------------ invocation
    def _track(self, handle: OperationHandle) -> None:
        """Record an invoked operation: history, pending slot, register index."""
        self.operations.append(handle)
        self._pending[(handle.client_id, handle.register_id)] = handle
        if handle.register_id is not None:
            self._by_register.setdefault(handle.register_id, []).append(handle)

    def start_write(self, value: Any) -> OperationHandle:
        """Invoke a WRITE now; returns a handle that completes as the loop runs."""
        writer = self.writer
        # Invoke the automaton first: if it rejects the call (well-formedness),
        # no handle must be registered, or it would shadow the genuinely
        # pending one and corrupt the history.
        effects = writer.write(value)  # type: ignore[attr-defined]
        handle = OperationHandle(
            client_id=writer.process_id,
            kind="write",
            requested_value=value,
            invoked_at=self.now,
        )
        self._track(handle)
        self._apply_effects(writer.process_id, effects)
        return handle

    def start_read(self, reader_id: Optional[str] = None) -> OperationHandle:
        """Invoke a READ now on *reader_id* (default: the first reader)."""
        reader_id = reader_id or self.config.reader_ids()[0]
        reader = self.reader(reader_id)
        effects = reader.read()  # type: ignore[attr-defined]
        handle = OperationHandle(
            client_id=reader_id, kind="read", invoked_at=self.now
        )
        self._track(handle)
        self._apply_effects(reader_id, effects)
        return handle

    # ------------------------------------------------- sharded-store invocation
    def _sharded_client(self, client_id: str):
        client = self.processes[client_id]
        if not getattr(client, "sharded", False):
            raise TypeError(
                f"client {client_id!r} is not sharded; build the cluster with a "
                "repro.store.ShardedProtocol suite to use store operations"
            )
        return client

    def start_store_write(
        self, register_id: str, value: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke ``WRITE(value)`` on the register *register_id* now.

        ``client_id`` defaults to the configured writer; on a register the
        suite declared ``mwmr`` any client of the deployment may write, which
        is what multi-writer workloads pass here.
        """
        writer = self._sharded_client(client_id or self.config.writer_id)
        # Invoke first: an unknown register or a per-register well-formedness
        # violation must not leave a ghost handle behind.
        effects = writer.write(register_id, value)
        handle = OperationHandle(
            client_id=writer.process_id,
            kind="write",
            requested_value=value,
            invoked_at=self.now,
            register_id=register_id,
        )
        self._track(handle)
        self._apply_effects(writer.process_id, effects)
        return handle

    def start_store_read(
        self, register_id: str, reader_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke ``READ()`` on the register *register_id* now."""
        reader_id = reader_id or self.config.reader_ids()[0]
        reader = self._sharded_client(reader_id)
        effects = reader.read(register_id)
        handle = OperationHandle(
            client_id=reader_id,
            kind="read",
            invoked_at=self.now,
            register_id=register_id,
        )
        self._track(handle)
        self._apply_effects(reader_id, effects)
        return handle

    def start_store_cas(
        self,
        register_id: str,
        expected: Any,
        new: Any,
        client_id: Optional[str] = None,
    ) -> OperationHandle:
        """Invoke ``CAS(expected, new)`` on the register *register_id* now.

        The handle's record resolves at completion time: a successful CAS is a
        write of *new*, a failed CAS is a read of the observed value (the
        completion metadata carries ``cas_failed``).
        """
        client = self._sharded_client(client_id or self.config.writer_id)
        effects = client.compare_and_swap(register_id, expected, new)
        handle = OperationHandle(
            client_id=client.process_id,
            kind="cas",
            requested_value=new,
            invoked_at=self.now,
            register_id=register_id,
        )
        self._track(handle)
        self._apply_effects(client.process_id, effects)
        return handle

    def start_store_rmw(
        self,
        register_id: str,
        fn: Callable[[Any], Any],
        client_id: Optional[str] = None,
    ) -> OperationHandle:
        """Invoke ``RMW(fn)`` on the register *register_id* now."""
        client = self._sharded_client(client_id or self.config.writer_id)
        effects = client.read_modify_write(register_id, fn)
        handle = OperationHandle(
            client_id=client.process_id,
            kind="rmw",
            invoked_at=self.now,
            register_id=register_id,
        )
        self._track(handle)
        self._apply_effects(client.process_id, effects)
        return handle

    def store_write(
        self, register_id: str, value: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke a sharded WRITE and run the loop until it completes."""
        handle = self.start_store_write(register_id, value, client_id=client_id)
        self.run(until=lambda: handle.done)
        return handle

    def store_cas(
        self,
        register_id: str,
        expected: Any,
        new: Any,
        client_id: Optional[str] = None,
    ) -> OperationHandle:
        """Invoke a sharded CAS and run the loop until it completes."""
        handle = self.start_store_cas(register_id, expected, new, client_id=client_id)
        self.run(until=lambda: handle.done)
        return handle

    def store_rmw(
        self,
        register_id: str,
        fn: Callable[[Any], Any],
        client_id: Optional[str] = None,
    ) -> OperationHandle:
        """Invoke a sharded RMW and run the loop until it completes."""
        handle = self.start_store_rmw(register_id, fn, client_id=client_id)
        self.run(until=lambda: handle.done)
        return handle

    def store_read(
        self, register_id: str, reader_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke a sharded READ and run the loop until it completes."""
        handle = self.start_store_read(register_id, reader_id)
        self.run(until=lambda: handle.done)
        return handle

    def schedule_write(self, at: float, value: Any) -> "OperationHandle":
        """Schedule a WRITE invocation at virtual time *at*; returns its handle.

        The handle's ``invoked_at`` is fixed when the invocation actually runs.
        """
        handle = OperationHandle(
            client_id=self.config.writer_id,
            kind="write",
            requested_value=value,
            invoked_at=at,
        )

        def _invoke() -> None:
            effects = self.writer.write(value)  # type: ignore[attr-defined]
            handle.invoked_at = self.now
            self._track(handle)
            self._apply_effects(self.config.writer_id, effects)

        self.queue.push(at, InvocationEvent(label=f"write@{at}", action=_invoke))
        return handle

    def schedule_read(self, at: float, reader_id: Optional[str] = None) -> "OperationHandle":
        """Schedule a READ invocation at virtual time *at*; returns its handle."""
        reader_id = reader_id or self.config.reader_ids()[0]
        handle = OperationHandle(client_id=reader_id, kind="read", invoked_at=at)

        def _invoke() -> None:
            effects = self.reader(reader_id).read()  # type: ignore[attr-defined]
            handle.invoked_at = self.now
            self._track(handle)
            self._apply_effects(reader_id, effects)

        self.queue.push(at, InvocationEvent(label=f"read@{at}", action=_invoke))
        return handle

    # ------------------------------------------------------ blocking helpers
    def write(self, value: Any) -> OperationHandle:
        """Invoke a WRITE and run the loop until it completes."""
        handle = self.start_write(value)
        self.run(until=lambda: handle.done)
        return handle

    def read(self, reader_id: Optional[str] = None) -> OperationHandle:
        """Invoke a READ and run the loop until it completes."""
        handle = self.start_read(reader_id)
        self.run(until=lambda: handle.done)
        return handle

    # -------------------------------------------------------------- run loop
    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_time: float = math.inf,
        max_events: Optional[int] = None,
    ) -> None:
        """Process events until *until* holds, the queue drains, or limits hit."""
        budget = max_events if max_events is not None else self.max_events_per_run
        processed = 0
        while True:
            if until is not None and until():
                return
            item = self.queue.pop_due(max_time)
            if item is None:
                # Drained, or the next event lies beyond the horizon.
                if self.queue.peek_time() is None and until is not None and not until():
                    raise SimulationError(
                        "event queue drained before the run condition was met "
                        "(operation cannot complete under this failure/delay setup)"
                    )
                return
            event_time, event = item
            self.now = max(self.now, event_time)
            self._dispatch(event)
            processed += 1
            self.events_processed += 1
            if processed > budget:
                raise SimulationError(
                    f"exceeded event budget of {budget}; possible livelock"
                )

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Advance virtual time by *duration*, processing every due event.

        Events scheduled after the horizon stay queued; the clock is moved to
        the horizon so that operations invoked afterwards genuinely start later.
        """
        horizon = self.now + duration
        self.run(max_time=horizon, max_events=max_events)
        self.now = max(self.now, horizon)

    def run_until_quiescent(self) -> None:
        """Drain every pending event (all operations completed, timers fired)."""
        self.run()

    # -------------------------------------------------------------- plumbing
    def _dispatch(self, event: Any) -> None:
        if isinstance(event, DeliveryEvent):
            self._deliver(event)
        elif isinstance(event, TimerEvent):
            self._fire_timer(event)
        elif isinstance(event, InvocationEvent):
            event.action()
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown event type: {event!r}")

    def _deliver(self, event: DeliveryEvent) -> None:
        # A Batch envelope is one delivery event (the delay model charged one
        # network traversal for the whole frame) but its payload messages are
        # traced and handed to the automaton individually, so protocol logic
        # and per-kind message statistics never see the envelope.
        payload = iter_unbatched(event.message)
        if self.failures.is_crashed(event.destination, self.now):
            for message in payload:
                self.trace.record_drop(
                    event.source, event.destination, message, event.send_time, "crashed"
                )
            return
        process = self.processes.get(event.destination)
        if process is None:
            for message in payload:
                self.trace.record_drop(
                    event.source, event.destination, message, event.send_time, "unknown"
                )
            return
        if len(payload) > 1 and isinstance(process, DurableServer):
            # One WAL append (batch-grouped, one fsync on a file log) covers
            # every state change the whole frame provokes.
            with process.append_batch():
                self._deliver_messages(event, payload, process)
        else:
            self._deliver_messages(event, payload, process)

    def _deliver_messages(self, event: DeliveryEvent, payload, process) -> None:
        for message in payload:
            if self._stale_epoch(message):
                # The sender recovered since this acknowledgement was sent;
                # the recovered state may not cover what it acknowledged (a
                # torn WAL tail), so a pending operation must not count it
                # towards a quorum.  Dropping is indistinguishable from a
                # message lost to the crash — clients retry and the new
                # incarnation re-acknowledges under its own epoch.
                self.trace.record_drop(
                    event.source, event.destination, message, event.send_time, "stale-epoch"
                )
                continue
            self.trace.record_delivery(
                event.source, event.destination, message, event.send_time, self.now
            )
            effects = process.handle_message(message)
            self._apply_effects(event.destination, effects)

    def _stale_epoch(self, message: Message) -> bool:
        """Whether *message* was sent by a sender incarnation that has since
        recovered (its epoch is below the sender's current incarnation)."""
        sender = self.processes.get(message.sender)
        return message.epoch < getattr(sender, "incarnation", 0)

    def _fire_timer(self, event: TimerEvent) -> None:
        if self.failures.is_crashed(event.process_id, self.now):
            return
        process = self.processes.get(event.process_id)
        if process is None:
            return
        effects = process.on_timer(event.timer_id)
        self._apply_effects(event.process_id, effects)

    def _warn_timer_fallback(self, timer: float) -> None:
        """Warn once per cluster when unbounded links force the fallback timer."""
        if self._warned_timer_fallback:
            return
        self._warned_timer_fallback = True
        warnings.warn(
            f"network has no synchronous bound: client round-1 timers fall "
            f"back to {timer:g} (configure DelayModel.unbounded_fallback or "
            f"Topology(unbounded_fallback=...) to choose this value); the "
            f"timer only affects fast-path eligibility, never safety",
            RuntimeWarning,
            stacklevel=3,
        )

    def _apply_effects(self, source: str, effects: Effects) -> None:
        if self.failures.is_crashed(source, self.now):
            return
        batching = getattr(self.processes.get(source), "batching", False)
        for send in effects.sends:
            if batching:
                self._buffer_send(source, send.destination, send.message)
            else:
                self._send(source, send.destination, send.message)
        if effects.timers:
            # Clock skew scales the *duration* a process arms, not virtual
            # time itself: a fast local clock (scale < 1) fires round-1
            # timers before the synchrony bound is up, a slow one (> 1)
            # holds leases past their nominal expiry at the granters.
            scale = self.topology.timer_scale(source)
            for timer in effects.timers:
                self.queue.push_timer(self.now + timer.delay * scale, source, timer.timer_id)
        for timer_id in effects.cancels:
            # Cancellation is an O(1) armed-table removal; the dead heap
            # tuple is tombstone-counted when it surfaces, never dispatched,
            # so cancelled timers do not inflate ``events_processed``.
            self.queue.cancel_timer(source, timer_id)
        for completion in effects.completions:
            self._complete(source, completion)

    # ------------------------------------------------------------- batching
    def _buffer_send(self, source: str, destination: str, message: Message) -> None:
        """Queue *message* in the source's outbox for the next flush.

        The message filter runs now, per protocol message (never on the
        envelope): a dropped message simply leaves the batch, and an explicit
        per-message delay opts the message out of batching entirely, since the
        filter demands full control over its arrival time.
        """
        if self.message_filter is not None:
            verdict = self.message_filter(source, destination, message, self.now)
            if verdict is DROP:
                self.trace.record_drop(source, destination, message, self.now, "filtered")
                return
            if verdict is not None:
                self._push_explicit(source, destination, message, float(verdict))
                return
        self._outbox.setdefault(source, {}).setdefault(destination, []).append(message)
        if source not in self._flush_scheduled:
            self._flush_scheduled.add(source)
            # Flush when the outgoing line frees up (immediately when idle):
            # everything buffered while a previous frame occupied the line
            # coalesces into the next frame — batching under backpressure.
            flush_at = max(self.now, self._line_busy_until.get(source, 0.0))
            self.queue.push(
                flush_at,
                InvocationEvent(
                    label=f"flush:{source}", action=lambda s=source: self._flush(s)
                ),
            )

    def _flush(self, source: str) -> None:
        """Emit one frame per destination with buffered messages of *source*."""
        self._flush_scheduled.discard(source)
        pending = self._outbox.pop(source, None)
        if not pending:
            return
        if self.failures.is_crashed(source, self.now):
            for destination, messages in pending.items():
                for message in messages:
                    self.trace.record_drop(source, destination, message, self.now, "crashed")
            return
        for destination, messages in pending.items():
            self._transmit(source, destination, make_envelope(source, messages))

    def _send(self, source: str, destination: str, message: Message) -> None:
        delay: Union[None, float, object] = None
        if self.message_filter is not None:
            delay = self.message_filter(source, destination, message, self.now)
        if delay is DROP:
            self.trace.record_drop(source, destination, message, self.now, "filtered")
            return
        if delay is not None:
            self._push_explicit(source, destination, message, float(delay))
            return
        self._transmit(source, destination, message)

    def _frame_bytes(self, source: str, destination: str, message: Message) -> int:
        """Encoded wire size of one frame — what a real transport would write."""
        return self.codec.frame_size(source, destination, message)

    def _push_explicit(
        self, source: str, destination: str, message: Message, delay: float
    ) -> None:
        """Deliver with a filter-chosen delay: the filter retains full control
        of the arrival time, bypassing batching and the frame-overhead
        serialization (the message still counts as its own frame)."""
        self.frames_sent += 1
        # Count the protocol messages and wire bytes the frame carries,
        # exactly like ``_transmit``: a Batch pushed through the
        # explicit-delay path is one frame but ``len(batch)`` messages, so
        # the counters stay mutually consistent regardless of which send path
        # a frame took.
        self.messages_sent += len(message) if isinstance(message, Batch) else 1
        self.bytes_sent += self._frame_bytes(source, destination, message)
        self.queue.push(
            self.now + delay,
            DeliveryEvent(
                source=source,
                destination=destination,
                message=message,
                send_time=self.now,
            ),
        )

    def _transmit(self, source: str, destination: str, message: Message) -> None:
        """Put one frame on the wire, serializing on the source's line.

        The line is occupied for ``frame_overhead + byte_cost * size`` time
        units, where ``size`` is the frame's real encoded length under the
        configured codec — so with ``byte_cost`` set, big frames genuinely
        take longer to leave the sender than small ones.
        """
        size = self._frame_bytes(source, destination, message)
        occupancy = self.frame_overhead + self.byte_cost * size
        departure = self.now
        if occupancy > 0.0:
            departure = max(self.now, self._line_busy_until.get(source, 0.0))
            self._line_busy_until[source] = departure + occupancy
            departure += occupancy
        self.frames_sent += 1
        self.messages_sent += len(message) if isinstance(message, Batch) else 1
        self.bytes_sent += size
        delay = self.topology.delay(source, destination, departure, self.rng, size)
        if delay is None:
            # An active partition severs the link: the frame left the sender
            # (it is counted as sent) but dies in the network.  The sender's
            # timer-driven termination path covers the missing replies, just
            # as it covers a crashed responder.
            for inner in iter_unbatched(message):
                self.trace.record_drop(source, destination, inner, self.now, "partitioned")
            return
        self.queue.push(
            departure + float(delay),
            DeliveryEvent(
                source=source,
                destination=destination,
                message=message,
                send_time=self.now,
            ),
        )

    def _complete(self, client_id: str, completion: OperationComplete) -> None:
        register_id = completion.metadata.get("register_id")
        handle = self._pending.pop((client_id, register_id), None)
        if handle is None:
            return
        handle.result = completion
        handle.completed_at = self.now

    # --------------------------------------------------------------- history
    def history(self, register_id: Optional[str] = None) -> History:
        """The operation history of everything invoked so far.

        With *register_id*, only that register's operations are returned — the
        per-key history a single-register consistency checker understands.
        """
        if register_id is None:
            handles = self.operations
        else:
            handles = self._by_register.get(register_id, [])
        return History([handle.to_record() for handle in handles])

    def register_histories(self) -> Dict[str, History]:
        """Per-register histories of every sharded operation invoked so far."""
        return {
            register_id: History([handle.to_record() for handle in handles])
            for register_id, handles in sorted(self._by_register.items())
        }

    def archive_register(self, register_id: str, archive_id: str) -> None:
        """Re-key every operation recorded on *register_id* to *archive_id*.

        A dropped register's history stays checkable under its archive id,
        while a later register of the same name starts an empty history.
        """
        handles = self._by_register.pop(register_id, [])
        for handle in handles:
            handle.register_id = archive_id
        self._by_register.setdefault(archive_id, []).extend(handles)

    def completed_operations(self) -> List[OperationHandle]:
        return [handle for handle in self.operations if handle.done]
