"""Durability wrapper: a server automaton whose state survives crashes.

:class:`DurableServer` wraps any server automaton (a plain
:class:`~repro.core.server.StorageServer`, a Byzantine-wrapped one, or a
:class:`~repro.store.sharding.ShardedServer` hosting many registers) and logs
every change of the durable ``pw/w/vw`` fields to a write-ahead log *before*
the acknowledgement that reports the change leaves the process — the classic
write-ahead discipline.  Handling one input is one append batch, and since the
batching layer delivers a whole message batch per flush boundary, the file WAL
pays one fsync per batch.

Recovery (:func:`recover_server`) builds a fresh automaton, restores the
latest snapshot, replays the WAL suffix and returns a new :class:`DurableServer`
with a bumped *incarnation*.  Outgoing messages are stamped with the
incarnation (``Message.epoch``), which is what lets clients — and the
simulator on their behalf — reject acknowledgements a pre-crash incarnation
sent for state the torn WAL tail may have lost.

What is (and is not) write-ahead logged
---------------------------------------
The WAL carries only the three timestamp-value registers ``pw/w/vw`` — the
state quorum intersection arguments are built on.  The per-reader bookkeeping
(``read_ts``, ``frozen``) is captured by *snapshots* when compaction is
enabled but is not logged per message, and may therefore rewind on recovery.
That is safe: a recovered server's ``INITIAL_FROZEN`` entry carries a read
timestamp that cannot match any live READ's announced ``tsr`` (freeze entries
only count towards ``safeFrozen`` when their read timestamp matches exactly),
so a rewound server contributes *nothing* to a frozen candidate instead of a
wrong value; and readers re-announce their ``tsr`` on every slow round, so
``read_ts``/``newread`` regenerate.  The cost of the rewind is at worst extra
rounds for a concurrent slow READ — never a stale return value.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.automaton import Automaton, Effects
from ..core.messages import Message
from ..core.types import TimestampValue
from .snapshot import SnapshotManager, SnapshotStore
from .wal import WAL_FIELDS, WalLike, WalRecord


def storage_registers(server: Automaton) -> Dict[str, Automaton]:
    """Map register id → the underlying storage automaton of *server*.

    Unwraps wrapper layers (:class:`DurableServer` itself, or a
    :class:`~repro.sim.byzantine.MaliciousServer` — the honest inner automaton
    carries the durable state) and expands a sharded server into its
    per-register instances; a single-register server maps from the default
    register id ``""``.
    """
    server = _unwrap(server)
    registers = getattr(server, "registers", None)
    if registers is None:
        return {"": server}
    return {
        register_id: _unwrap(automaton) for register_id, automaton in registers.items()
    }


def _unwrap(automaton: Automaton) -> Automaton:
    while hasattr(automaton, "inner"):
        automaton = automaton.inner
    return automaton


def _ensure_hook(server: Automaton) -> Optional[Callable[[str], Optional[Automaton]]]:
    """The dynamic-keyspace admission hook of *server*'s router, if any.

    A :class:`~repro.store.sharding.ShardedServer` with a register factory
    exposes ``ensure_register``: recovery paths use it to *fault in* registers
    that exist in the WAL or a snapshot but are not resident (they were
    created dynamically, or evicted before the crash), instead of silently
    dropping their acknowledged state.
    """
    hook = getattr(_unwrap(server), "ensure_register", None)
    return hook if callable(hook) else None


def notify_recovered(server: Automaton) -> None:
    """Tell every wrapper layer of *server* it is a recovered incarnation.

    Walks the whole automaton tree (wrapper ``inner`` chains and sharded
    ``registers`` maps) and invokes ``notify_recovered()`` wherever a layer
    defines it.  The lease layer uses this to open its post-recovery grace
    period: its volatile lease table died with the crash, so the recovered
    server must stay silent for one lease duration instead of acknowledging
    writes its forgotten holders still guard against.
    """
    stack = [server]
    while stack:
        automaton = stack.pop()
        hook = getattr(automaton, "notify_recovered", None)
        if callable(hook):
            hook()
        inner = getattr(automaton, "inner", None)
        if inner is not None:
            stack.append(inner)
        registers = getattr(automaton, "registers", None)
        if registers:
            stack.extend(registers.values())


def export_server_state(server: Automaton) -> Dict[str, Dict[str, Any]]:
    """Snapshot every register's durable state: register id → state dict."""
    return {
        register_id: storage.export_state()
        for register_id, storage in storage_registers(server).items()
        if hasattr(storage, "export_state")
    }


def _resident_storage(router: Automaton, register_id: str) -> Optional[Automaton]:
    """The storage automaton for *register_id* in *router*'s live table.

    *router* is an unwrapped server: a sharded router with a ``registers``
    table, or a single-register server answering the default id ``""``.
    Registers that are not resident (never admitted, evicted, dropped) yield
    ``None``; nothing is faulted in.
    """
    table = getattr(router, "registers", None)
    if table is None:
        return router if register_id == "" else None
    inner = table.get(register_id)
    return _unwrap(inner) if inner is not None else None


def _live_storage(server: Automaton, register_id: str) -> Optional[Automaton]:
    """The storage automaton for *register_id*, faulting the register in
    through the dynamic-keyspace hook when it is not resident."""
    storage = _resident_storage(_unwrap(server), register_id)
    if storage is None:
        ensure = _ensure_hook(server)
        if ensure is not None:
            inner = ensure(register_id)
            storage = _unwrap(inner) if inner is not None else None
    return storage


def restore_server_state(server: Automaton, state: Dict[str, Dict[str, Any]]) -> None:
    """Adopt a snapshot produced by :func:`export_server_state`.

    Registers the snapshot knows but the (freshly built) server does not are
    admitted through the dynamic-keyspace hook when the server has one; an
    admission may rehydrate spilled state first, which is safe because
    ``restore_state`` merges monotonically.
    """
    for register_id, register_state in state.items():
        storage = _live_storage(server, register_id)
        if storage is not None and hasattr(storage, "restore_state"):
            storage.restore_state(register_state)


def _apply_to_storage(storage: Automaton, record: WalRecord) -> None:
    """Advance one storage field by *record* via the monotone ``update`` rule."""
    pair = TimestampValue(record.ts, record.value, record.writer_id)
    current = getattr(storage, record.field, None)
    if isinstance(current, TimestampValue):
        setattr(storage, record.field, current.replace_if_newer(pair))


def replay_records(server: Automaton, records: Sequence[WalRecord]) -> None:
    """Replay *records* in order; monotone updates make this idempotent.

    Like :func:`restore_server_state`, records for non-resident registers are
    applied through the dynamic-keyspace admission hook when the server has
    one — rehydration first, then the (newer) logged pairs on top.
    """
    for record in records:
        storage = _live_storage(server, record.register_id)
        if storage is not None:
            _apply_to_storage(storage, record)


class DurableServer(Automaton):
    """A server automaton whose ``pw/w/vw`` state is write-ahead logged."""

    def __init__(
        self,
        inner: Automaton,
        wal: WalLike,
        incarnation: int = 0,
        snapshots: Optional[SnapshotManager] = None,
    ) -> None:
        super().__init__(inner.process_id)
        self.inner = inner
        self.wal = wal
        self.incarnation = incarnation
        self.snapshots = snapshots
        self._router = _unwrap(inner)
        self._ensure = _ensure_hook(inner)
        # When set (inside an append_batch() scope), records accumulate here
        # and reach the WAL in one append — one fsync per message batch.
        self._buffered: Optional[List[WalRecord]] = None

    # ---------------------------------------------------------- passthrough
    @property
    def batching(self) -> bool:
        """Whether the wrapped server participates in message batching."""
        return bool(getattr(self.inner, "batching", False))

    # -------------------------------------------------------------- durable IO
    def handle_message(self, message: Message) -> Effects:
        register_id = getattr(message, "register_id", "")
        if self._ensure is not None and register_id:
            # Fault the register in *before* capturing its pre-state, so the
            # admission (and any rehydration) is not mistaken for a change
            # this message made — only genuine updates reach the WAL.
            self._ensure(register_id)
        storage = _resident_storage(self._router, register_id)
        before = self._capture(storage)
        effects = self.inner.handle_message(message)
        records = self._diff(register_id, storage, before)
        if records:
            if self._buffered is not None:
                # Inside an append_batch() scope: the whole message batch
                # reaches the WAL as one append when the scope closes.
                self._buffered.extend(records)
            else:
                # Write-ahead: the log reaches its durability point here,
                # before the acknowledgements below reach the transport.
                self._append(records)
        return self._stamp(effects)

    @contextmanager
    def append_batch(self) -> Iterator[None]:
        """Group the WAL appends of several messages into one fsync'd batch.

        The hosting runtime wraps the processing of a multi-message
        :class:`~repro.core.messages.Batch` frame in this scope; the records
        every inner message produced are appended (and fsync'd) together on
        exit — before the replies, which the batching layer buffers until the
        next flush boundary, reach the transport, so the write-ahead
        discipline is preserved.
        """
        if self._buffered is not None:  # nested scopes coalesce into one
            yield
            return
        self._buffered = []
        try:
            yield
        finally:
            records, self._buffered = self._buffered, None
            if records:
                self._append(records)

    def _append(self, records: List[WalRecord]) -> None:
        self.wal.append(records)
        if self.snapshots is not None:
            self.snapshots.maybe_compact(lambda: export_server_state(self.inner))

    def on_timer(self, timer_id: str) -> Effects:
        return self._stamp(self.inner.on_timer(timer_id))

    @staticmethod
    def _capture(storage: Optional[Automaton]) -> Optional[Tuple[Any, ...]]:
        if storage is None:
            return None
        pairs = tuple(getattr(storage, field, None) for field in WAL_FIELDS)
        if not all(isinstance(pair, TimestampValue) for pair in pairs):
            return None
        return pairs

    @staticmethod
    def _diff(
        register_id: str, storage: Optional[Automaton], before: Optional[Tuple[Any, ...]]
    ) -> List[WalRecord]:
        if storage is None or before is None:
            return []
        records = []
        for field, previous in zip(WAL_FIELDS, before, strict=True):
            current = getattr(storage, field)
            if current != previous:
                records.append(
                    WalRecord(
                        register_id=register_id,
                        field=field,
                        ts=current.ts,
                        writer_id=current.writer_id,
                        value=current.val,
                    )
                )
        return records

    def _stamp(self, effects: Effects) -> Effects:
        """Stamp outgoing messages with this incarnation's epoch."""
        if self.incarnation == 0:
            return effects
        stamped = Effects()
        for send in effects.sends:
            stamped.send(send.destination, send.message.with_epoch(self.incarnation))
        stamped.timers.extend(effects.timers)
        stamped.completions.extend(effects.completions)
        return stamped

    # ------------------------------------------------------------ inspection
    def describe(self) -> Dict[str, Any]:
        info = self.inner.describe()
        info["durable"] = {
            "incarnation": self.incarnation,
            "wal_records": self.wal.record_count,
        }
        return info


def recover_server(
    fresh: Automaton,
    wal: WalLike,
    snapshot_store: Optional[SnapshotStore] = None,
    incarnation: int = 1,
    compact_every: Optional[int] = None,
) -> DurableServer:
    """Rebuild a durable server from its snapshot + WAL suffix.

    *fresh* is a newly constructed (initial-state) server automaton for the
    same process id; the latest snapshot (if any) is restored into it, the
    surviving WAL records are replayed on top — tolerating a torn tail, which
    :meth:`~repro.persist.wal.WriteAheadLog.replay` truncates away — and the
    result is wrapped as a new incarnation that keeps logging to the same WAL.
    """
    if snapshot_store is not None:
        state = snapshot_store.load()
        if state is not None:
            restore_server_state(fresh, state)
    replay_records(fresh, wal.replay())
    notify_recovered(fresh)
    snapshots = None
    if snapshot_store is not None and compact_every is not None:
        snapshots = SnapshotManager(snapshot_store, wal, compact_every=compact_every)
    return DurableServer(fresh, wal, incarnation=incarnation, snapshots=snapshots)
