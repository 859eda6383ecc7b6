"""Asyncio nodes hosting the sans-I/O automata.

A node owns one automaton and a mailbox.  Incoming messages are processed
strictly one at a time (preserving the atomic-step semantics of the model);
outgoing effects are translated into transport sends, ``loop.call_later``
timers and, for clients, resolution of the future associated with the pending
operation.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from ..core.automaton import Automaton, ClientAutomaton, Effects, OperationComplete
from ..core.messages import Message, iter_unbatched, make_envelope
from ..persist.durable import DurableServer, recover_server
from ..persist.snapshot import FileSnapshot, SnapshotManager, write_file_atomically
from ..persist.wal import WriteAheadLog
from ..verify.history import OperationRecord
from ..wire import Codec
from .transport import Transport


def make_durable(
    automaton: Automaton,
    wal_dir: str,
    compact_every: int = 512,
    codec: Union[str, Codec, None] = None,
) -> DurableServer:
    """Wrap a freshly built server automaton in file-backed durability.

    The WAL, snapshot and incarnation sidecar live under *wal_dir*, named
    after the process id.  When those files already hold state from a previous
    incarnation (a crashed or stopped node), the automaton is *recovered* —
    snapshot restored, WAL suffix replayed, torn tail truncated — and rejoins
    under a bumped incarnation; otherwise this is the first incarnation and
    the files are created empty.

    *codec* selects the payload encoding of new WAL frames and snapshots
    (binary by default); replay is codec-agnostic, so recovery works across a
    codec change.
    """
    os.makedirs(wal_dir, exist_ok=True)
    process_id = automaton.process_id
    wal_path = os.path.join(wal_dir, f"{process_id}.wal")
    epoch_path = os.path.join(wal_dir, f"{process_id}.epoch")
    snapshot_store = FileSnapshot(
        os.path.join(wal_dir, f"{process_id}.snapshot"), codec=codec
    )
    restarting = os.path.exists(epoch_path)
    wal = WriteAheadLog(wal_path, codec=codec)
    if restarting:
        # The sidecar is written atomically below, so its content is either a
        # previous incarnation number or the file does not exist at all —
        # never a torn write that would regress the epoch and make peers'
        # monotone fencing reject the recovered node forever.
        with open(epoch_path, encoding="utf-8") as fh:
            incarnation = int(fh.read().strip()) + 1
        node_server = recover_server(
            automaton,
            wal,
            snapshot_store=snapshot_store,
            incarnation=incarnation,
            compact_every=compact_every,
        )
    else:
        incarnation = 0
        node_server = DurableServer(
            automaton,
            wal,
            incarnation=0,
            snapshots=SnapshotManager(snapshot_store, wal, compact_every=compact_every),
        )
    write_file_atomically(epoch_path, str(incarnation).encode("utf-8"))
    return node_server


class AutomatonNode:
    """Hosts one automaton (server or client) on an asyncio event loop.

    When the automaton opts into batching (``automaton.batching`` is true —
    the sharded store's processes do), outgoing sends are buffered in a
    per-destination outbox and flushed one event-loop tick later: everything
    the node emitted during the tick towards the same destination leaves as a
    single :class:`~repro.core.messages.Batch` — one frame on the transport.
    Inbound batches are unwrapped here, so the automaton only ever sees
    protocol messages.
    """

    def __init__(
        self,
        automaton: Automaton,
        transport: Transport,
        time_scale: float = 0.001,
        crashed: bool = False,
        durable: bool = False,
        wal_dir: Optional[str] = None,
        compact_every: int = 512,
        codec: Union[str, Codec, None] = None,
    ) -> None:
        if durable:
            if wal_dir is None:
                raise ValueError("a durable node needs a wal_dir for its WAL files")
            automaton = make_durable(
                automaton, wal_dir, compact_every=compact_every, codec=codec
            )
        self.automaton = automaton
        self.transport = transport
        #: Conversion factor from automaton time units to wall-clock seconds
        #: (client timer delays are expressed in time units).
        self.time_scale = time_scale
        self.crashed = crashed
        self.batching = bool(getattr(automaton, "batching", False))
        self._mailbox: asyncio.Queue = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None
        # Live loop timers keyed by timer id.  Fired and cancelled handles
        # are pruned eagerly, so a long-lived node holds handles only for
        # timers genuinely pending (the old flat list grew without bound).
        self._timer_handles: Dict[str, set] = {}
        #: Diagnostics: timers disarmed by an automaton before they fired.
        self.timers_cancelled: int = 0
        # Monotone incarnation fencing: highest Message.epoch seen per sender.
        self._peer_epochs: Dict[str, int] = {}
        self._outbox: Dict[str, list] = {}
        self._flush_scheduled = False
        self._flush_lock = asyncio.Lock()
        self._flush_tasks: set = set()
        transport.register(self.process_id, self._on_transport_message)

    @property
    def process_id(self) -> str:
        return self.automaton.process_id

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        self._task = asyncio.create_task(self._run(), name=f"node-{self.process_id}")

    async def stop(self) -> None:
        for handles in self._timer_handles.values():
            for handle in handles:
                handle.cancel()
        self._timer_handles.clear()
        for task in list(self._flush_tasks):
            task.cancel()
        if self._flush_tasks:
            await asyncio.gather(*self._flush_tasks, return_exceptions=True)
        self._flush_tasks.clear()
        self._outbox.clear()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if isinstance(self.automaton, DurableServer):
            self.automaton.wal.close()

    def crash(self) -> None:
        """Stop reacting to anything (crash failure)."""
        self.crashed = True

    # ----------------------------------------------------------------- inputs
    async def _on_transport_message(self, source: str, message: Message) -> None:
        await self._mailbox.put(("message", message))

    def _on_timer_fired(self, timer_id: str) -> None:
        self._mailbox.put_nowait(("timer", timer_id))

    async def _run(self) -> None:
        while True:
            kind, payload = await self._mailbox.get()
            if self.crashed:
                continue
            if kind == "message":
                # One frame may carry a whole batch; the automaton processes
                # each inner message as its own atomic step.  With batching on,
                # applying effects never awaits (sends only fill the outbox),
                # so every reply the batch provokes lands in the same flush —
                # the batch boundary survives the hop.
                messages = [m for m in iter_unbatched(payload) if self._admit(m)]
                if (
                    len(messages) > 1
                    and self.batching
                    and isinstance(self.automaton, DurableServer)
                ):
                    # One WAL append (= one fsync) for the whole batch; the
                    # replies sit in the outbox until the next flush, so the
                    # log is durable before they reach the transport.
                    with self.automaton.append_batch():
                        for message in messages:
                            await self.apply_effects(
                                self.automaton.handle_message(message)
                            )
                else:
                    for message in messages:
                        await self.apply_effects(self.automaton.handle_message(message))
                continue
            effects = self.automaton.on_timer(payload)
            await self.apply_effects(effects)

    def _admit(self, message: Message) -> bool:
        """Monotone incarnation fencing against recovered senders.

        Once a message from incarnation ``n`` of a peer has been seen, any
        straggler from an earlier incarnation is rejected: the pre-crash
        incarnation may have acknowledged state its torn WAL tail lost, so a
        pending operation must not count it into a quorum.  Dropping is
        indistinguishable from a message lost to the crash — the sender's new
        incarnation re-acknowledges under its own epoch.
        """
        last = self._peer_epochs.get(message.sender, 0)
        if message.epoch < last:
            return False
        if message.epoch > last:
            self._peer_epochs[message.sender] = message.epoch
        return True

    # ---------------------------------------------------------------- effects
    async def apply_effects(self, effects: Effects) -> None:
        if self.crashed:
            return
        if self.batching:
            for send in effects.sends:
                self._outbox.setdefault(send.destination, []).append(send.message)
            if self._outbox and not self._flush_scheduled:
                self._flush_scheduled = True
                asyncio.get_running_loop().call_soon(self._start_flush)
        else:
            for send in effects.sends:
                await self.transport.send(self.process_id, send.destination, send.message)
        loop = asyncio.get_running_loop()
        for timer in effects.timers:
            self._arm_timer(loop, timer.timer_id, timer.delay * self.time_scale)
        for timer_id in effects.cancels:
            self._cancel_timer(timer_id)
        for completion in effects.completions:
            self._handle_completion(completion)

    def _arm_timer(self, loop: asyncio.AbstractEventLoop, timer_id: str, delay: float) -> None:
        handle: asyncio.TimerHandle

        def _fire() -> None:
            handles = self._timer_handles.get(timer_id)
            if handles is not None:
                handles.discard(handle)
                if not handles:
                    self._timer_handles.pop(timer_id, None)
            self._on_timer_fired(timer_id)

        handle = loop.call_later(delay, _fire)
        self._timer_handles.setdefault(timer_id, set()).add(handle)

    def _cancel_timer(self, timer_id: str) -> None:
        handles = self._timer_handles.pop(timer_id, None)
        if not handles:
            return
        for handle in handles:
            handle.cancel()
        self.timers_cancelled += len(handles)

    # --------------------------------------------------------------- batching
    def _start_flush(self) -> None:
        task = asyncio.ensure_future(self._flush_outbox())
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    async def _flush_outbox(self) -> None:
        # The lock serializes overlapping flushes so frames towards the same
        # destination keep their send order even when a flush blocks on the
        # transport (e.g. TCP drain) while the next one is already scheduled.
        async with self._flush_lock:
            self._flush_scheduled = False
            pending, self._outbox = self._outbox, {}
            if self.crashed:
                return
            for destination, messages in pending.items():
                await self.transport.send(
                    self.process_id, destination, make_envelope(self.process_id, messages)
                )

    def _handle_completion(self, completion: OperationComplete) -> None:
        """Server automata never complete operations; clients override this."""


def _record_completion(
    node, completion: OperationComplete, started: float, pending_value: Any
) -> None:
    """Stamp wall-clock latency on *completion* and append a history record.

    Shared by :class:`ClientNode` and :class:`ShardedClientNode`; *node* needs
    ``records`` and ``start_time``.
    """
    now = time.monotonic()
    # Expose the wall-clock latency both on the completion handed back to the
    # caller and on the recorded history entry.
    completion.metadata["latency_s"] = now - started
    node.records.append(
        OperationRecord(
            client_id=node.process_id,
            kind=completion.kind,
            value=completion.value if completion.kind == "read" else pending_value,
            invoked_at=started - node.start_time,
            completed_at=now - node.start_time,
            rounds=completion.rounds,
            fast=completion.fast,
            metadata=dict(completion.metadata),
        )
    )


class ClientNode(AutomatonNode):
    """A node hosting a client automaton; exposes awaitable operations.

    Records are stamped relative to ``start_time``; a cluster passes one
    origin to all of its client nodes so their records share one clock.
    """

    def __init__(
        self,
        automaton: ClientAutomaton,
        transport: Transport,
        time_scale: float = 0.001,
        *,
        start_time: float,
    ) -> None:
        super().__init__(automaton, transport, time_scale=time_scale)
        self._pending_future: Optional[asyncio.Future] = None
        self._pending_started: float = 0.0
        self._pending_kind: str = ""
        self._pending_value: Any = None
        self.records: list[OperationRecord] = []
        self.start_time = start_time

    # ------------------------------------------------------------- operations
    async def write(self, value: Any) -> OperationComplete:
        """Invoke WRITE(value) and await its completion."""
        return await self._invoke("write", value)

    async def read(self) -> OperationComplete:
        """Invoke READ() and await its completion."""
        return await self._invoke("read", None)

    async def _invoke(self, kind: str, value: Any) -> OperationComplete:
        if self._pending_future is not None:
            raise RuntimeError(
                f"client {self.process_id} already has a pending {self._pending_kind}"
            )
        loop = asyncio.get_running_loop()
        self._pending_future = loop.create_future()
        self._pending_started = time.monotonic()
        self._pending_kind = kind
        self._pending_value = value
        if kind == "write":
            effects = self.automaton.write(value)  # type: ignore[attr-defined]
        else:
            effects = self.automaton.read()  # type: ignore[attr-defined]
        await self.apply_effects(effects)
        return await self._pending_future

    def _handle_completion(self, completion: OperationComplete) -> None:
        # Release the slot unconditionally: the automaton has completed the
        # operation, so even when the caller's future was cancelled (e.g. a
        # wait_for timeout) the client must accept new invocations.
        future = self._pending_future
        self._pending_future = None
        if future is None or future.done():
            return
        _record_completion(self, completion, self._pending_started, self._pending_value)
        future.set_result(completion)


@dataclass
class _PendingStoreOperation:
    """One outstanding sharded-store operation of a :class:`ShardedClientNode`."""

    future: asyncio.Future
    started: float
    kind: str
    value: Any


class ShardedClientNode(AutomatonNode):
    """A node hosting a sharded client; one outstanding operation *per key*.

    The inner per-register automata still enforce the paper's per-register
    well-formedness; across registers the node multiplexes freely, which is
    what lets one asyncio client saturate many shards concurrently.
    """

    def __init__(
        self,
        automaton: Automaton,
        transport: Transport,
        time_scale: float = 0.001,
        *,
        start_time: float,
    ) -> None:
        super().__init__(automaton, transport, time_scale=time_scale)
        self._pending: Dict[str, _PendingStoreOperation] = {}
        self.records: list[OperationRecord] = []
        #: ``records`` by register id, so per-key histories and drops need
        #: not scan every record.
        self.records_by_register: Dict[str, List[OperationRecord]] = {}
        self.start_time = start_time

    def archive_register(self, register_id: str, archive_id: str) -> None:
        """Re-key every record of *register_id* to *archive_id*."""
        records = self.records_by_register.pop(register_id, [])
        for record in records:
            record.metadata["register_id"] = archive_id
        self.records_by_register.setdefault(archive_id, []).extend(records)

    # ------------------------------------------------------------- operations
    async def write(self, key: str, value: Any) -> OperationComplete:
        """Invoke WRITE(value) on register *key* and await its completion."""
        return await self._invoke(key, "write", value)

    async def read(self, key: str) -> OperationComplete:
        """Invoke READ() on register *key* and await its completion."""
        return await self._invoke(key, "read", None)

    async def compare_and_swap(
        self, key: str, expected: Any, new: Any
    ) -> OperationComplete:
        """Invoke CAS(expected, new) on register *key* and await its completion.

        The completion's ``kind`` distinguishes the outcomes: a successful
        swap completes as a write of *new*, a failed one as a read of the
        observed value.
        """
        return await self._invoke(key, "cas", (expected, new))

    async def read_modify_write(
        self, key: str, fn: "Callable[[Any], Any]"
    ) -> OperationComplete:
        """Invoke RMW(fn) on register *key* and await its completion."""
        return await self._invoke(key, "rmw", fn)

    async def _invoke(self, key: str, kind: str, value: Any) -> OperationComplete:
        if key in self._pending:
            raise RuntimeError(
                f"client {self.process_id} already has a pending "
                f"{self._pending[key].kind} on register {key!r}"
            )
        # Invoke the automaton before registering the pending slot: an unknown
        # register raises KeyError here, and a leftover slot would make every
        # later operation on that key fail with a misleading "already pending".
        if kind == "write":
            effects = self.automaton.write(key, value)  # type: ignore[attr-defined]
        elif kind == "cas":
            expected, new = value
            value = new
            effects = self.automaton.compare_and_swap(  # type: ignore[attr-defined]
                key, expected, new
            )
        elif kind == "rmw":
            effects = self.automaton.read_modify_write(  # type: ignore[attr-defined]
                key, value
            )
        else:
            effects = self.automaton.read(key)  # type: ignore[attr-defined]
        loop = asyncio.get_running_loop()
        pending = _PendingStoreOperation(
            future=loop.create_future(),
            started=time.monotonic(),
            kind=kind,
            value=value,
        )
        self._pending[key] = pending
        await self.apply_effects(effects)
        return await pending.future

    def _handle_completion(self, completion: OperationComplete) -> None:
        key = completion.metadata.get("register_id")
        pending = self._pending.pop(key, None)
        if pending is None or pending.future.done():
            return
        # An RMW's written value is only known at completion (fn ran against
        # the observed state inside the automaton), so take it from there.
        value = completion.value if pending.kind == "rmw" else pending.value
        _record_completion(self, completion, pending.started, value)
        self.records_by_register.setdefault(key, []).append(self.records[-1])
        pending.future.set_result(completion)
