"""Sharding automata: route protocol messages to per-register instances.

A *shard* (register) is one complete instance of a base protocol — writer
state, per-reader state and per-server state — identified by a ``register_id``
string.  The classes here multiplex N such instances over one fleet of
*physical* processes:

* :class:`ShardedServer` hosts one inner server automaton per register and
  routes each incoming message by its ``register_id`` tag;
* :class:`ShardedClient` hosts one inner client automaton per register and
  lifts the one-outstanding-operation-per-client limit *across* registers
  (well-formedness is still enforced per register, which is all the paper's
  proofs need);
* :class:`ShardedProtocol` is a :class:`~repro.core.protocol.ProtocolSuite`
  building the sharded deployment out of any base suite, so the simulator and
  the asyncio runtime can drive it exactly like a single-register deployment.

Routing is purely syntactic: outgoing messages are tagged with the register
they belong to, timer identifiers are namespaced per register, and operation
completions carry their register in ``metadata["register_id"]`` so the hosting
cluster can resolve the right pending operation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Sequence, Union

from ..core.automaton import Automaton, ClientAutomaton, Effects
from ..core.protocol import ProtocolSuite
from ..lease.server import LeaseServer, WriterLeaseServer
from ..sim.byzantine import ByzantineStrategy, MaliciousServer
from .keyspace import (
    RegisterEvictionStore,
    export_register_state,
    restore_register_state,
)

#: A factory materializing the automaton for a register on demand, or ``None``
#: when the register does not (or no longer does) exist in the suite.
RegisterFactory = Callable[[str], Optional[Automaton]]

#: Separator between the register id and the inner timer id in namespaced
#: timer identifiers.  Register ids therefore must not contain it.
TIMER_SEPARATOR = "::"


def tag_effects(register_id: str, effects: Effects) -> Effects:
    """Tag every effect of one inner automaton step with its register.

    Sends get the ``register_id`` message tag, timers (and timer cancels) get
    a namespaced id and completions record the register in their metadata.
    """
    tagged = Effects()
    for send in effects.sends:
        tagged.send(send.destination, send.message.tagged(register_id))
    for timer in effects.timers:
        tagged.start_timer(
            f"{register_id}{TIMER_SEPARATOR}{timer.timer_id}", timer.delay
        )
    for timer_id in effects.cancels:
        tagged.cancel_timer(f"{register_id}{TIMER_SEPARATOR}{timer_id}")
    for completion in effects.completions:
        tagged.complete(
            replace(
                completion,
                metadata={**completion.metadata, "register_id": register_id},
            )
        )
    return tagged


def split_timer_id(timer_id: str) -> Optional[tuple]:
    """Split a namespaced timer id into ``(register_id, inner_id)``."""
    register_id, separator, inner_id = timer_id.partition(TIMER_SEPARATOR)
    if not separator:
        return None
    return register_id, inner_id


class _RegisterRouter:
    """Shared routing behaviour of sharded processes.

    Expects ``self.registers`` (register id → inner automaton) and
    ``self.process_id``.  Inputs for unknown registers are dropped (an honest
    process never sends them; a malicious one gains nothing, since clients
    ignore replies tagged with a register they have no pending operation on).

    ``batching`` marks the process as a participant in the message-batching
    layer: the hosting runtime (simulator or asyncio node) then buffers the
    sends this process emits and flushes everything travelling to the same
    destination as one :class:`~repro.core.messages.Batch` envelope per flush
    boundary (end of the current virtual-time instant / event-loop tick, or —
    under backpressure — the moment the outgoing line frees up).  Inbound
    batches are unwrapped by the runtime before reaching the router, so the
    per-register automata never see the envelope.
    """

    sharded = True
    #: Set by :class:`ShardedProtocol`; runtimes read it via ``getattr`` with a
    #: ``False`` default, so plain single-register automata are never batched.
    batching = False
    registers: Dict[str, Automaton]
    #: Dynamic keyspace: with a factory the router can *admit* registers on
    #: demand instead of dropping their messages.  Servers admit on message
    #: arrival (a cold key faults in); clients admit only at invocation time,
    #: so unsolicited replies for registers they never touched stay dropped.
    factory: Optional[RegisterFactory] = None
    #: Memory bound: with ``max_resident`` set (servers only), admitting a
    #: register past the bound evicts the least-recently-used evictable one
    #: into ``eviction_store``; a later message faults it back in.
    max_resident: Optional[int] = None
    eviction_store: Optional[RegisterEvictionStore] = None
    #: Predicate excluding registers from eviction (leased registers hold
    #: volatile grant state an eviction would forget, so suites pin them).
    evictable: Optional[Callable[[str], bool]] = None
    #: Whether a message for a non-resident register triggers admission.
    admit_on_message = False
    evictions = 0
    rehydrations = 0

    def handle_message(self, message) -> Effects:
        inner = self.registers.get(message.register_id)
        if inner is None:
            if not self.admit_on_message:
                return Effects()
            inner = self.ensure_register(message.register_id)
            if inner is None:
                return Effects()
        elif self.max_resident is not None:
            self._touch(message.register_id)
        return tag_effects(message.register_id, inner.handle_message(message))

    # ---------------------------------------------------- dynamic admission
    def ensure_register(self, register_id: str) -> Optional[Automaton]:
        """The automaton for *register_id*, faulting it in if necessary.

        A non-resident register is materialized through the suite's factory
        (``None`` when the suite does not know the id — e.g. it was dropped)
        and, if it was evicted earlier, rehydrated from the eviction store
        before use.  Admission past ``max_resident`` evicts the coldest
        evictable resident register.
        """
        inner = self.registers.get(register_id)
        if inner is not None:
            if self.max_resident is not None:
                self._touch(register_id)
            return inner
        if self.factory is None:
            return None
        inner = self.factory(register_id)
        if inner is None:
            return None
        if self.eviction_store is not None:
            state = self.eviction_store.load(register_id)
            if state is not None:
                restore_register_state(inner, state)
                self.rehydrations += 1
        self.registers[register_id] = inner
        self._evict_over_bound()
        return inner

    def _touch(self, register_id: str) -> None:
        """Move *register_id* to the MRU end (dict insertion order is the LRU)."""
        self.registers[register_id] = self.registers.pop(register_id)

    def _evict_over_bound(self) -> None:
        while (
            self.max_resident is not None
            and self.eviction_store is not None
            and len(self.registers) > self.max_resident
        ):
            victim = next(
                (
                    register_id
                    for register_id in self.registers
                    if self.evictable is None or self.evictable(register_id)
                ),
                None,
            )
            if victim is None:  # everything resident is pinned
                return
            self.evict_register(victim)

    def evict_register(self, register_id: str) -> bool:
        """Spill *register_id*'s state to the eviction store and drop it."""
        inner = self.registers.get(register_id)
        if inner is None or self.eviction_store is None:
            return False
        self.eviction_store.save(register_id, export_register_state(inner))
        del self.registers[register_id]
        self.evictions += 1
        return True

    def discard_register(self, register_id: str) -> None:
        """Forget *register_id* entirely (dropped keyspace entry, not eviction)."""
        self.registers.pop(register_id, None)
        if self.eviction_store is not None:
            self.eviction_store.discard(register_id)

    def on_timer(self, timer_id: str) -> Effects:
        split = split_timer_id(timer_id)
        if split is None:
            return Effects()
        register_id, inner_id = split
        inner = self.registers.get(register_id)
        if inner is None:
            return Effects()
        return tag_effects(register_id, inner.on_timer(inner_id))

    def describe(self) -> dict:
        return {
            "process_id": self.process_id,
            "registers": {
                register_id: inner.describe()
                for register_id, inner in self.registers.items()
            },
        }


class ShardedServer(_RegisterRouter, Automaton):
    """One physical server hosting per-register server automata.

    With a *factory* the server is a **dynamic keyspace** host: messages for
    registers it does not hold fault them in (admission), and with
    *max_resident* + *eviction_store* set the resident table is LRU-bounded,
    spilling cold registers as encoded snapshots and rehydrating them on
    access.
    """

    admit_on_message = True

    def __init__(
        self,
        server_id: str,
        registers: Dict[str, Automaton],
        factory: Optional[RegisterFactory] = None,
        max_resident: Optional[int] = None,
        eviction_store: Optional[RegisterEvictionStore] = None,
        evictable: Optional[Callable[[str], bool]] = None,
    ) -> None:
        super().__init__(server_id)
        if max_resident is not None:
            if max_resident < 1:
                raise ValueError("max_resident must be at least 1")
            if eviction_store is None:
                raise ValueError(
                    "a bounded register table needs an eviction store: "
                    "evicting without one would lose acknowledged state"
                )
        self.registers = dict(registers)
        self.factory = factory
        self.max_resident = max_resident
        self.eviction_store = eviction_store
        self.evictable = evictable
        self._evict_over_bound()


class ShardedClient(_RegisterRouter, ClientAutomaton):
    """One physical client hosting per-register client automata.

    The client may have one outstanding operation *per register* concurrently;
    each inner automaton still enforces the paper's per-register
    well-formedness (at most one outstanding operation on its register).

    With a *factory* the client participates in the dynamic keyspace: an
    invocation on a register it has no automaton for materializes one on
    demand (inheriting the client's timer delay).  Client tables are never
    evicted — a client automaton holds in-flight operation state and is tiny
    compared to a server's per-register storage.
    """

    def __init__(
        self,
        process_id: str,
        registers: Dict[str, ClientAutomaton],
        factory: Optional[RegisterFactory] = None,
    ) -> None:
        # The base constructor assigns ``timer_delay`` through our property
        # setter, which broadcasts to every inner register.  Keep ``registers``
        # empty until it has run: broadcasting a representative delay here
        # would silently clobber heterogeneous per-register timer delays.
        self.registers: Dict[str, ClientAutomaton] = {}
        inner = dict(registers)
        inner_delays = [automaton.timer_delay for automaton in inner.values()]
        super().__init__(process_id, timer_delay=inner_delays[0] if inner_delays else 10.0)
        self.registers = inner
        self.factory = factory

    # -------------------------------------------------------------- timer delay
    @property
    def timer_delay(self) -> float:
        """A representative delay (explicit assignment broadcasts uniformly)."""
        return self._timer_delay

    @timer_delay.setter
    def timer_delay(self, value: float) -> None:
        self._timer_delay = value
        for inner in self.registers.values():
            inner.timer_delay = value

    # ------------------------------------------------------------------- state
    def _register(self, register_id: str) -> ClientAutomaton:
        inner = self.registers.get(register_id)
        if inner is None and self.factory is not None:
            created = self.factory(register_id)
            if isinstance(created, ClientAutomaton):
                created.timer_delay = self._timer_delay
                self.registers[register_id] = created
                inner = created
        if inner is None:
            raise KeyError(
                f"client {self.process_id} has no register {register_id!r}; "
                f"known registers: {sorted(self.registers)}"
            )
        return inner

    def busy_on(self, register_id: str) -> bool:
        """Whether an operation is outstanding on *register_id*.

        Deliberately non-materializing: a register this client never touched
        (or one that was dropped) is simply not busy.
        """
        inner = self.registers.get(register_id)
        return inner.busy if inner is not None else False

    @property
    def busy(self) -> bool:
        """Whether any register has an outstanding operation."""
        return any(inner.busy for inner in self.registers.values())

    # -------------------------------------------------------------- invocation
    def write(self, register_id: str, value) -> Effects:
        """Invoke ``WRITE(value)`` on *register_id*; returns tagged effects."""
        inner = self._register(register_id)
        write = getattr(inner, "write", None)
        if write is None:
            raise TypeError(
                f"client {self.process_id} cannot write register {register_id!r}: "
                "the register is single-writer (declare it mwmr to let every "
                "client write it)"
            )
        return tag_effects(register_id, write(value))

    def read(self, register_id: str) -> Effects:
        """Invoke ``READ()`` on *register_id*; returns tagged effects."""
        inner = self._register(register_id)
        read = getattr(inner, "read", None)
        if read is None:
            raise TypeError(
                f"client {self.process_id} cannot read register {register_id!r}: "
                "in the SWMR model the writer never reads (declare the register "
                "mwmr to give every client both roles)"
            )
        return tag_effects(register_id, read())

    def compare_and_swap(self, register_id: str, expected, new) -> Effects:
        """Invoke ``CAS(expected, new)`` on *register_id*; returns tagged effects."""
        inner = self._register(register_id)
        cas = getattr(inner, "compare_and_swap", None)
        if cas is None:
            raise TypeError(
                f"client {self.process_id} cannot CAS register {register_id!r}: "
                "conditional operations need a multi-writer client (declare "
                "the register mwmr)"
            )
        return tag_effects(register_id, cas(expected, new))

    def read_modify_write(self, register_id: str, fn) -> Effects:
        """Invoke ``RMW(fn)`` on *register_id*; returns tagged effects."""
        inner = self._register(register_id)
        rmw = getattr(inner, "read_modify_write", None)
        if rmw is None:
            raise TypeError(
                f"client {self.process_id} cannot RMW register {register_id!r}: "
                "conditional operations need a multi-writer client (declare "
                "the register mwmr)"
            )
        return tag_effects(register_id, rmw(fn))


#: A factory producing a fresh strategy instance; strategies are stateful, so
#: each register of a malicious server gets its own.
StrategyFactory = Callable[[], ByzantineStrategy]


class ShardedProtocol(ProtocolSuite):
    """Suite multiplexing *base* over the registers *register_ids*.

    ``byzantine`` optionally maps server ids to strategy factories: the named
    servers then behave maliciously on *every* register (a faulty machine is
    faulty for all the shards it hosts — the fault-containment property is
    that it still cannot affect more than ``b`` servers of any shard's quorum
    system, so each register retains the paper's guarantees).

    ``batching`` (default on) marks every process of the deployment for the
    message-batching layer: co-flushed messages to the same destination travel
    as one :class:`~repro.core.messages.Batch` envelope.  Batching is purely a
    transport optimisation — a Byzantine server still forges *per-register*
    replies inside the envelope, and the receiving router drops anything
    tagged with a register it does not know, so a malicious batch cannot leak
    across co-batched registers.

    ``mwmr`` lifts the single-writer restriction *key by key*: pass ``True``
    to make every register multi-writer, or a collection of register ids to
    make just those MWMR.  On an MWMR register every client of the deployment
    (the config's writer and all its readers) hosts a
    :class:`~repro.core.mwmr.MultiWriterClient` — it can both read and write,
    a WRITE runs the ``(ts, writer_id)`` query-then-write protocol, and
    concurrent writers order their pairs lexicographically.  SWMR registers
    are untouched: their lone writer keeps the paper's one-round lucky WRITE.

    ``leases`` enables **read leases** key by key (``True`` for all keys, or a
    collection of register ids): the named registers' server automata are
    wrapped in a :class:`~repro.lease.server.LeaseServer` and their readers
    become :class:`~repro.core.reader.LeasedReader` instances serving
    contention-free reads locally in zero rounds (``lease_duration`` sets the
    validity window in protocol time units).  A write to a leased register
    revokes outstanding leases before its acknowledgements complete, so
    atomicity is untouched; sibling registers pay nothing.  Read leases and
    ``mwmr`` are mutually exclusive per key *unless* the key also has writer
    leases — hot multi-writer keys want *writer* leases, and once those are on
    the two lease layers compose (the server stack withholds a leased write's
    acknowledgement until conflicting read leases are revoked).

    ``writer_leases`` enables **writer leases** key by key (``True`` for all
    MWMR keys, or a collection of register ids — each must also be ``mwmr``):
    the named registers' server automata gain a
    :class:`~repro.lease.server.WriterLeaseServer` and every client becomes a
    :class:`~repro.core.mwmr.MultiWriterClient` with a
    :class:`~repro.core.writer.LeasedWriter` role, writing in one round (and
    deciding CAS/RMW locally) while its lease holds.
    """

    def __init__(
        self,
        base: ProtocolSuite,
        register_ids: Sequence[str],
        byzantine: Optional[Dict[str, StrategyFactory]] = None,
        batching: bool = True,
        mwmr: Union[bool, Sequence[str]] = (),
        leases: Union[bool, Sequence[str]] = (),
        lease_duration: float = 60.0,
        writer_leases: Union[bool, Sequence[str]] = (),
        max_resident: Optional[int] = None,
    ) -> None:
        super().__init__(base.config, timer_delay=base.timer_delay)
        # An empty initial keyspace is fine: the dynamic keyspace grows it at
        # runtime through create_register.
        if len(set(register_ids)) != len(register_ids):
            raise ValueError(f"duplicate register ids: {list(register_ids)}")
        for register_id in register_ids:
            self._validate_register_id(register_id)
        self.base = base
        self.register_ids = list(register_ids)
        # The membership set the admission factories consult; kept in sync by
        # create_register/drop_register so lazy admission is O(1) even with a
        # six-figure keyspace.
        self._register_id_set = set(register_ids)
        #: Memory bound on each server's resident register table (``None`` =
        #: unbounded, the pre-dynamic-keyspace behaviour).  Each server gets a
        #: persistent :class:`RegisterEvictionStore` (surviving crash/recovery
        #: rebuilds of the automaton) to spill cold registers into.
        if max_resident is not None and max_resident < 1:
            raise ValueError("max_resident must be at least 1")
        self.max_resident = max_resident
        self.eviction_stores: Dict[str, RegisterEvictionStore] = {}
        if isinstance(mwmr, str):
            # A bare string is one register id, not a sequence of
            # single-character ids (an easy typo for mwmr=["hot"]).
            mwmr = [mwmr]
        if mwmr is True:
            self.mwmr_registers = frozenset(self.register_ids)
        elif mwmr is False:
            self.mwmr_registers = frozenset()
        else:
            self.mwmr_registers = frozenset(mwmr)
            unknown_mwmr = self.mwmr_registers - set(self.register_ids)
            if unknown_mwmr:
                raise ValueError(
                    f"mwmr ids are not registers: {sorted(unknown_mwmr)}"
                )
        if isinstance(leases, str):
            leases = [leases]
        if leases is True:
            self.leased_registers = frozenset(self.register_ids)
        elif leases is False:
            self.leased_registers = frozenset()
        else:
            self.leased_registers = frozenset(leases)
            unknown_leases = self.leased_registers - set(self.register_ids)
            if unknown_leases:
                raise ValueError(
                    f"lease ids are not registers: {sorted(unknown_leases)}"
                )
        if isinstance(writer_leases, str):
            writer_leases = [writer_leases]
        if writer_leases is True:
            self.writer_leased_registers = self.mwmr_registers
        elif writer_leases is False:
            self.writer_leased_registers = frozenset()
        else:
            self.writer_leased_registers = frozenset(writer_leases)
            unknown_wl = self.writer_leased_registers - set(self.register_ids)
            if unknown_wl:
                raise ValueError(
                    f"writer-lease ids are not registers: {sorted(unknown_wl)}"
                )
        non_mwmr = self.writer_leased_registers - self.mwmr_registers
        if non_mwmr:
            raise ValueError(
                "writer leases only make sense on multi-writer keys (a SWMR "
                "writer already owns its timestamps); declare these mwmr too: "
                f"{sorted(non_mwmr)}"
            )
        conflicted = self.leased_registers & (
            self.mwmr_registers - self.writer_leased_registers
        )
        if conflicted:
            raise ValueError(
                "read leases and mwmr are mutually exclusive per key unless "
                "the key also has writer leases; both requested for: "
                f"{sorted(conflicted)}"
            )
        if lease_duration <= 0:
            raise ValueError("lease_duration must be positive")
        self.lease_duration = lease_duration
        self.name = f"sharded-{base.name}"
        self.consistency = base.consistency
        self.batching = bool(batching)
        self.byzantine = dict(byzantine or {})
        unknown = set(self.byzantine) - set(self.config.server_ids())
        if unknown:
            raise ValueError(f"byzantine ids are not servers: {sorted(unknown)}")
        if len(self.byzantine) > self.config.b:
            raise ValueError(
                f"{len(self.byzantine)} Byzantine servers exceed the model "
                f"bound b={self.config.b}"
            )

    # ---------------------------------------------------------- id validation
    @staticmethod
    def _validate_register_id(register_id: str) -> None:
        """Reject ids that cannot round-trip through the routing layer.

        A malformed id would otherwise surface only when a timer fires, as a
        silently misrouted (dropped) timer — ``split_timer_id`` cuts at the
        first separator, so an id containing it (or an empty id, whose
        namespaced timers alias a separator-prefixed inner id) can never
        round-trip.
        """
        if not isinstance(register_id, str):
            raise ValueError(
                f"register id {register_id!r} must be a string, "
                f"not {type(register_id).__name__}"
            )
        if not register_id:
            raise ValueError("register ids must be non-empty strings")
        if TIMER_SEPARATOR in register_id:
            raise ValueError(
                f"register id {register_id!r} must not contain {TIMER_SEPARATOR!r}"
            )

    # ----------------------------------------------------------- dynamic keys
    def create_register(
        self,
        register_id: str,
        mwmr: bool = False,
        leases: bool = False,
        writer_leases: bool = False,
    ) -> None:
        """Add *register_id* to the keyspace at runtime.

        Purely a membership change: no process materializes an automaton until
        the register is actually touched — clients build theirs at first
        invocation, servers fault theirs in when the first message arrives
        (the lazy ``StorageServer._ensure_reader`` admission pattern, lifted
        to whole registers).  Capability combinations obey the same rules as
        at construction time.
        """
        self._validate_register_id(register_id)
        if register_id in self._register_id_set:
            raise ValueError(f"register {register_id!r} already exists")
        if writer_leases and not mwmr:
            raise ValueError(
                "writer leases only make sense on multi-writer keys; declare "
                f"{register_id!r} mwmr too"
            )
        if leases and mwmr and not writer_leases:
            raise ValueError(
                "read leases and mwmr are mutually exclusive per key unless "
                f"the key also has writer leases; both requested for {register_id!r}"
            )
        self.register_ids.append(register_id)
        self._register_id_set.add(register_id)
        if mwmr:
            self.mwmr_registers |= {register_id}
        if leases:
            self.leased_registers |= {register_id}
        if writer_leases:
            self.writer_leased_registers |= {register_id}

    def drop_register(self, register_id: str) -> None:
        """Remove *register_id* from the keyspace.

        After the drop the admission factories return ``None`` for the id, so
        messages still in flight for it are dropped exactly like any
        unknown-register message.  The hosting store additionally discards
        resident automata from live processes; this suite-level method only
        owns membership and the spilled eviction state.
        """
        if register_id not in self._register_id_set:
            raise KeyError(f"register {register_id!r} does not exist")
        self._register_id_set.discard(register_id)
        self.register_ids.remove(register_id)
        self.mwmr_registers -= {register_id}
        self.leased_registers -= {register_id}
        self.writer_leased_registers -= {register_id}
        for store in self.eviction_stores.values():
            store.discard(register_id)

    def _evictable(self, register_id: str) -> bool:
        """Leased registers are pinned: their grant/withhold state is volatile
        and an eviction would silently forget outstanding leases."""
        return (
            register_id not in self.leased_registers
            and register_id not in self.writer_leased_registers
        )

    # -------------------------------------------------------------- factories
    def _create_register_server(
        self, server_id: str, register_id: str, strategy_factory: Optional[StrategyFactory]
    ) -> Automaton:
        server = self.base.create_server(server_id)
        if register_id in self.writer_leased_registers:
            # Innermost lease wrapper: the holder's 1-round PW passes
            # through here into the read-lease layer, whose withholding
            # discipline therefore still applies to leased writes.
            server = WriterLeaseServer(server, lease_duration=self.lease_duration)
        if register_id in self.leased_registers:
            server = LeaseServer(server, lease_duration=self.lease_duration)
        if strategy_factory is not None:
            # The malicious wrapper goes outside the lease layer: a faulty
            # machine does not honour the withholding contract, which is
            # exactly what the b-bounded quorum arithmetic tolerates.
            server = MaliciousServer(server, strategy_factory())  # type: ignore[arg-type]
        return server

    def _admit_server_register(self, server_id: str, register_id: str) -> Optional[Automaton]:
        """Admission factory for servers: fresh automaton, or ``None`` if the
        id is not (or no longer) part of the keyspace."""
        if register_id not in self._register_id_set:
            return None
        return self._create_register_server(
            server_id, register_id, self.byzantine.get(server_id)
        )

    def _admit_client_register(
        self, client_id: str, register_id: str
    ) -> Optional[ClientAutomaton]:
        if register_id not in self._register_id_set:
            return None
        return self._create_client_register(register_id, client_id)

    def _create_client_register(self, register_id: str, client_id: str) -> ClientAutomaton:
        if client_id == self.config.writer_id:
            if register_id in self.mwmr_registers:
                return self._create_mwmr_client_for(register_id, client_id)
            return self.base.create_writer()
        return self._create_reader_for(register_id, client_id)

    def create_server(self, server_id: str) -> ShardedServer:
        strategy_factory = self.byzantine.get(server_id)
        registers: Dict[str, Automaton] = {
            register_id: self._create_register_server(
                server_id, register_id, strategy_factory
            )
            for register_id in self.register_ids
        }
        eviction_store = None
        if self.max_resident is not None:
            # One spill store per server id, *owned by the suite*: a crashed
            # server's recovery rebuilds the automaton but keeps the store, so
            # registers evicted before the crash rehydrate after it.
            eviction_store = self.eviction_stores.setdefault(
                server_id, RegisterEvictionStore()
            )
        sharded = ShardedServer(
            server_id,
            registers,
            factory=lambda register_id, sid=server_id: self._admit_server_register(
                sid, register_id
            ),
            max_resident=self.max_resident,
            eviction_store=eviction_store,
            evictable=self._evictable,
        )
        sharded.batching = self.batching
        return sharded

    def create_writer(self) -> ShardedClient:
        writer_id = self.config.writer_id
        client = ShardedClient(
            writer_id,
            {
                register_id: self._create_client_register(register_id, writer_id)
                for register_id in self.register_ids
            },
            factory=lambda register_id: self._admit_client_register(
                writer_id, register_id
            ),
        )
        client.batching = self.batching
        return client

    def _create_mwmr_client_for(
        self, register_id: str, client_id: str
    ) -> ClientAutomaton:
        if register_id in self.writer_leased_registers:
            return self.base.create_leased_mwmr_client(
                client_id,
                writer_lease_duration=self.lease_duration,
                read_lease_duration=(
                    self.lease_duration
                    if register_id in self.leased_registers
                    else None
                ),
            )
        return self.base.create_mwmr_client(client_id)

    def create_reader(self, reader_id: str) -> ShardedClient:
        client = ShardedClient(
            reader_id,
            {
                register_id: self._create_reader_for(register_id, reader_id)
                for register_id in self.register_ids
            },
            factory=lambda register_id: self._admit_client_register(
                reader_id, register_id
            ),
        )
        client.batching = self.batching
        return client

    def _create_reader_for(self, register_id: str, reader_id: str) -> ClientAutomaton:
        if register_id in self.mwmr_registers:
            return self._create_mwmr_client_for(register_id, reader_id)
        if register_id in self.leased_registers:
            return self.base.create_leased_reader(
                reader_id, lease_duration=self.lease_duration
            )
        return self.base.create_reader(reader_id)

    def describe(self) -> dict:
        info = super().describe()
        info["registers"] = len(self.register_ids)
        info["base"] = self.base.name
        info["batching"] = self.batching
        info["mwmr_registers"] = sorted(self.mwmr_registers)
        info["leased_registers"] = sorted(self.leased_registers)
        info["writer_leased_registers"] = sorted(self.writer_leased_registers)
        info["max_resident"] = self.max_resident
        return info
