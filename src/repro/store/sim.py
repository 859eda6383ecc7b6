"""Virtual-time facade of the sharded store.

:class:`ShardedSimStore` runs a :class:`~repro.store.sharding.ShardedProtocol`
deployment on the deterministic simulator and exposes a key-value interface::

    store = ShardedSimStore(LuckyAtomicProtocol(config), keys=["k1", "k2"])
    store.write("k1", "a")           # blocking convenience helper
    read = store.read("k1")
    assert read.value == "a"
    assert store.verify_atomic()     # every per-key history checks out

Concurrency across keys uses the ``start_*`` variants plus the cluster's run
loop, exactly like :class:`~repro.sim.cluster.SimCluster`; keyed workloads are
driven by :func:`repro.workload.generator.run_store_workload`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.protocol import ProtocolSuite
from ..sim.cluster import OperationHandle, SimCluster
from ..verify.atomicity import CheckResult, check_atomicity
from ..verify.history import History
from .sharding import ShardedProtocol, StrategyFactory


def _find_router(process: Any) -> Any:
    """The register router inside *process*'s wrapper stack (or ``None``).

    Servers may be wrapped (``DurableServer`` and friends expose ``inner``);
    clients are routers directly.  Anything without a register table — e.g.
    a bare automaton — yields ``None``.
    """
    while not hasattr(process, "discard_register") and hasattr(process, "inner"):
        process = process.inner
    return process if hasattr(process, "discard_register") else None


class ShardedSimStore:
    """A sharded multi-register store on the discrete-event simulator.

    The store accepts the per-key capability declarations of
    :class:`~repro.store.sharding.ShardedProtocol` (``mwmr``, ``leases``,
    ``writer_leases``) and adds blocking conveniences over the cluster's
    run loop.  Conditional operations target multi-writer keys; a failed
    compare-and-swap completes as a read of the observed value:

    >>> from repro.core.config import SystemConfig
    >>> from repro.core.protocol import LuckyAtomicProtocol
    >>> store = ShardedSimStore(
    ...     LuckyAtomicProtocol(SystemConfig.balanced(t=1, b=0)),
    ...     keys=["k1", "k2"],
    ...     mwmr=["k2"],
    ...     writer_leases=["k2"],
    ... )
    >>> store.write("k1", "a").value
    'a'
    >>> store.read("k1").value
    'a'
    >>> store.compare_and_swap("k2", None, "b").result.kind
    'write'
    >>> store.compare_and_swap("k2", "stale", "c").result.kind
    'read'
    >>> store.read_modify_write("k2", lambda v: v + "!").value
    'b!'
    >>> store.verify_atomic()
    True
    """

    def __init__(
        self,
        base: ProtocolSuite,
        keys: Sequence[str],
        byzantine: Optional[Dict[str, StrategyFactory]] = None,
        batching: bool = True,
        mwmr: Any = (),
        leases: Any = (),
        writer_leases: Any = (),
        lease_duration: float = 60.0,
        max_resident: Optional[int] = None,
        **cluster_kwargs: Any,
    ) -> None:
        self.suite = ShardedProtocol(
            base,
            keys,
            byzantine=byzantine,
            batching=batching,
            mwmr=mwmr,
            leases=leases,
            writer_leases=writer_leases,
            lease_duration=lease_duration,
            max_resident=max_resident,
        )
        self.cluster = SimCluster(self.suite, **cluster_kwargs)
        #: How many times each key has been dropped — dead incarnations'
        #: operations are archived under ``key#N`` (see :meth:`drop_register`).
        self._drop_counts: Dict[str, int] = {}

    # ------------------------------------------------------------- inspection
    @property
    def keys(self) -> List[str]:
        return list(self.suite.register_ids)

    @property
    def mwmr_keys(self) -> List[str]:
        """The keys declared multi-writer (every client may write them)."""
        return sorted(self.suite.mwmr_registers)

    @property
    def leased_keys(self) -> List[str]:
        """The keys with read leases (zero-round contention-free reads)."""
        return sorted(self.suite.leased_registers)

    @property
    def writer_lease_keys(self) -> List[str]:
        """The keys with writer leases (one-round writes, local CAS)."""
        return sorted(self.suite.writer_leased_registers)

    def lease_writes(self, client_id: Optional[str] = None) -> int:
        """Writes completed in one round under a writer lease.

        Counts every writer-leased register of the named client (default: all
        clients of the deployment).
        """
        client_ids = (
            [client_id] if client_id is not None else self.config.client_ids()
        )
        total = 0
        for cid in client_ids:
            client = self.cluster.processes.get(cid)
            for register in getattr(client, "registers", {}).values():
                total += getattr(register, "lease_writes", 0)
        return total

    def lease_reads(self, reader_id: Optional[str] = None) -> int:
        """Reads served locally from a lease, summed over readers (or one).

        Counts every leased register of the named reader (default: all
        readers of the deployment).
        """
        reader_ids = (
            [reader_id] if reader_id is not None else self.config.reader_ids()
        )
        total = 0
        for rid in reader_ids:
            client = self.cluster.processes[rid]
            for register in getattr(client, "registers", {}).values():
                total += getattr(register, "lease_reads", 0)
        return total

    @property
    def config(self):
        return self.suite.config

    @property
    def topology(self):
        """The cluster's network topology (zones, links, partitions, skew)."""
        return self.cluster.topology

    @property
    def now(self) -> float:
        return self.cluster.now

    def client_busy(self, client_id: str, key: str) -> bool:
        """Whether *client_id* has an outstanding operation on *key*."""
        return self.cluster._sharded_client(client_id).busy_on(key)

    # ---------------------------------------------------------- dynamic keys
    def create_register(
        self,
        key: str,
        mwmr: bool = False,
        leases: bool = False,
        writer_leases: bool = False,
    ) -> None:
        """Add *key* to the live keyspace.

        No process allocates anything until the key is touched: clients build
        their automaton at first invocation, servers fault theirs in when the
        first message arrives.  Under a ``max_resident`` bound admission may
        evict the coldest resident register to the eviction store.
        """
        self.suite.create_register(
            key, mwmr=mwmr, leases=leases, writer_leases=writer_leases
        )

    def drop_register(self, key: str) -> None:
        """Remove *key* from the live keyspace and every process.

        Resident automata are discarded (not spilled) and spilled state is
        deleted; in-flight messages for the key then drop like any
        unknown-register message.  The key's recorded operations are archived
        under ``key#N`` (N = how many times the key has been dropped): they
        stay checkable as their own history, and a later ``create_register``
        of the same name starts a genuinely fresh register whose reads of
        bottom must not be judged against the dead incarnation's writes.
        """
        self.suite.drop_register(key)
        for process in self.cluster.processes.values():
            router = _find_router(process)
            if router is not None:
                router.discard_register(key)
        incarnation = self._drop_counts.get(key, 0) + 1
        self._drop_counts[key] = incarnation
        self.cluster.archive_register(key, f"{key}#{incarnation}")

    @property
    def max_resident(self) -> Optional[int]:
        """The per-server resident-register bound (``None`` = unbounded)."""
        return self.suite.max_resident

    @property
    def evictions(self) -> int:
        """Registers spilled to eviction stores across every server."""
        return sum(
            getattr(_find_router(p), "evictions", 0)
            for p in self.cluster.processes.values()
        )

    @property
    def rehydrations(self) -> int:
        """Registers faulted back in from eviction stores across every server."""
        return sum(
            getattr(_find_router(p), "rehydrations", 0)
            for p in self.cluster.processes.values()
        )

    def resident_registers(self, process_id: str) -> List[str]:
        """The registers with live automata on *process_id*, LRU order."""
        router = _find_router(self.cluster.processes[process_id])
        if router is None:
            return []
        return list(router.registers)

    def evicted_registers(self, server_id: str) -> List[str]:
        """The registers whose state currently lives in *server_id*'s spill."""
        store = self.suite.eviction_stores.get(server_id)
        return store.register_ids() if store is not None else []

    # ------------------------------------------------------------- operations
    def start_write(
        self, key: str, value: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        return self.cluster.start_store_write(key, value, client_id=client_id)

    def start_read(self, key: str, reader_id: Optional[str] = None) -> OperationHandle:
        return self.cluster.start_store_read(key, reader_id)

    def write(
        self, key: str, value: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        return self.cluster.store_write(key, value, client_id=client_id)

    def read(self, key: str, reader_id: Optional[str] = None) -> OperationHandle:
        return self.cluster.store_read(key, reader_id)

    def start_compare_and_swap(
        self, key: str, expected: Any, new: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        return self.cluster.start_store_cas(key, expected, new, client_id=client_id)

    def start_read_modify_write(
        self, key: str, fn: Callable[[Any], Any], client_id: Optional[str] = None
    ) -> OperationHandle:
        return self.cluster.start_store_rmw(key, fn, client_id=client_id)

    def compare_and_swap(
        self, key: str, expected: Any, new: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        """Write *new* iff the register currently holds *expected*.

        A successful swap completes as a write; a failed one completes as a
        read of the observed value (``handle.result.kind`` tells them apart).
        *key* must be a multi-writer register.
        """
        return self.cluster.store_cas(key, expected, new, client_id=client_id)

    def read_modify_write(
        self, key: str, fn: Callable[[Any], Any], client_id: Optional[str] = None
    ) -> OperationHandle:
        """Atomically replace the register's value with ``fn(current)``.

        ``fn`` receives ``None`` while the register still holds its initial
        bottom value.  *key* must be a multi-writer register.
        """
        return self.cluster.store_rmw(key, fn, client_id=client_id)

    # --------------------------------------------------------------- failures
    def crash(self, server_id: str, at: Optional[float] = None) -> None:
        """Crash *server_id* at time *at* (default: now)."""
        self.cluster.crash(server_id, at)

    def recover_server(self, server_id: str, lose_tail: int = 0) -> None:
        """Recover *server_id* from its WAL now (requires ``durable=True``)."""
        self.cluster.recover_server(server_id, lose_tail=lose_tail)

    def incarnation(self, server_id: str) -> int:
        """The current incarnation (recovery count) of *server_id*."""
        return self.cluster.incarnation(server_id)

    @property
    def wal_records(self) -> int:
        """Records appended across every server WAL (0 for non-durable stores)."""
        return sum(wal.records_appended for wal in self.cluster.wals.values())

    # --------------------------------------------------------------- run loop
    def run(self, **kwargs: Any) -> None:
        self.cluster.run(**kwargs)

    def run_for(self, duration: float) -> None:
        self.cluster.run_for(duration)

    def run_until_quiescent(self) -> None:
        self.cluster.run_until_quiescent()

    # -------------------------------------------------------------- histories
    def history(self, key: str) -> History:
        """The history of one register (feedable to any single-key checker)."""
        return self.cluster.history(register_id=key)

    def histories(self) -> Dict[str, History]:
        """Per-key histories of every operation invoked so far."""
        return self.cluster.register_histories()

    def check_atomicity(self) -> Dict[str, CheckResult]:
        """Run the fitting atomicity checker on every per-key history.

        SWMR keys go through the paper's four-property checker; MWMR keys go
        through the multi-writer checker, which orders writes by their
        ``(ts, writer_id)`` pairs instead of assuming one writer.
        """
        mwmr_keys = self.suite.mwmr_registers
        return {
            key: check_atomicity(history, mwmr=key in mwmr_keys)
            for key, history in self.histories().items()
        }

    def verify_atomic(self) -> bool:
        """Whether every per-key history is atomic; raises with details if not."""
        for key, result in self.check_atomicity().items():
            if not result.ok:
                details = "\n".join(str(v) for v in result.violations)
                raise AssertionError(f"register {key!r} violates atomicity:\n{details}")
        return True

    # -------------------------------------------------------------- reporting
    @property
    def batching(self) -> bool:
        return self.suite.batching

    @property
    def frames_sent(self) -> int:
        """Transport frames put on the wire (batches count once)."""
        return self.cluster.frames_sent

    @property
    def messages_sent(self) -> int:
        """Protocol messages sent (batched or not)."""
        return self.cluster.messages_sent

    @property
    def bytes_sent(self) -> int:
        """Encoded wire bytes of every frame sent, under the cluster's codec."""
        return self.cluster.bytes_sent

    def completed_operations(self) -> List[OperationHandle]:
        return self.cluster.completed_operations()

    def throughput(self) -> float:
        """Completed operations per unit of virtual time (aggregate, all keys)."""
        completed = self.completed_operations()
        if not completed:
            return 0.0
        start = min(handle.invoked_at for handle in completed)
        end = max(handle.completed_at for handle in completed)  # type: ignore[type-var]
        span = end - start
        return len(completed) / span if span > 0 else float("inf")
