"""Span tracer wrapped around the public entry points of each layer.

The program under test carries no tracing of its own: :func:`instrument`
replaces selected methods of the library's classes with wrappers that open a
span, call the original and close the span, and :meth:`Tracer.uninstall` puts
the originals back.  Every span records its name, start, end, parent span and
the operation id of the caller that caused it (``-1`` where none exists).

Parenting follows a :class:`contextvars.ContextVar`, so it is correct across
asyncio tasks: a task or callback inherits the span that was current when it
was scheduled, and a span that has closed by the time the callback runs is no
longer anyone's parent.  A span's self time is its duration minus the time
its children cover.  A span whose name equals its parent's (a subclass
calling ``super()``, a client delegating to its inner role) is not opened
again: the outer span already covers it.

Spans are held in memory as typed arrays and written out once, at the end,
by :meth:`Tracer.dump`; :func:`load_spans` reads such a file back.
"""

from __future__ import annotations

import array
import contextlib
import contextvars
import functools
import inspect
import json
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: The layers spans are grouped into; a span name is ``<layer>.<what>``.
LAYERS = ("core", "store", "sim", "wire", "runtime", "persist", "lease", "verify")

_FIELDS = (("id", "q"), ("name", "H"), ("start", "d"), ("end", "d"), ("parent", "q"), ("op", "q"))


class _Span:
    __slots__ = ("id", "name", "parent", "start", "child", "closed")

    def __init__(self, span_id: int, name: int, parent: Optional["_Span"]) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.closed = False
        self.start = 0.0


class Tracer:
    """Collects spans and per-name aggregates (count, total and self time)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.columns = {field: array.array(code) for field, code in _FIELDS}
        self.count: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        #: Span names whose duration includes waiting on other tasks (async
        #: wrappers); their self time is wall time, not busy time.
        self.async_names: set = set()
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.op_id: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_op", default=-1
        )
        self._next_id = 0
        self._next_op = 0
        #: Counts taken at a boundary without a span (see ``observe``).
        self.counters: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _name(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return index

    def _open(self, name: int) -> Optional[_Span]:
        parent = self.current.get()
        if parent is not None:
            if parent.closed:
                parent = None
            elif parent.name == name:
                return None
        span = _Span(self._next_id, name, parent)
        self._next_id += 1
        span.start = time.perf_counter()
        return span

    def _close(self, span: _Span) -> None:
        end = time.perf_counter()
        duration = end - span.start
        span.closed = True
        parent = span.parent
        if parent is not None and not parent.closed:
            parent.child += duration
        name = span.name
        self.count[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - span.child
        columns = self.columns
        columns["id"].append(span.id)
        columns["name"].append(name)
        columns["start"].append(span.start)
        columns["end"].append(end)
        columns["parent"].append(parent.id if parent is not None else -1)
        columns["op"].append(self.op_id.get())

    def next_op(self) -> int:
        """A fresh operation id for the caller to put in :attr:`op_id`."""
        self._next_op += 1
        return self._next_op

    # ------------------------------------------------------------- wrapping
    def wrap(
        self,
        owner: type,
        attribute: str,
        name: str,
        observe: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a wrapper recording span *name*.

        *observe*, if given, is called with the call's arguments before the
        original runs (for counts taken at the same boundary).
        """
        original = owner.__dict__[attribute]
        name_id = self._name(name)
        tracer = self
        if inspect.iscoroutinefunction(original):
            self.async_names.add(name)

            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                if observe is not None:
                    observe(*args, **kwargs)
                span = tracer._open(name_id)
                if span is None:
                    return await original(*args, **kwargs)
                token = tracer.current.set(span)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.current.reset(token)
                    tracer._close(span)

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:  # type: ignore[misc]
                if observe is not None:
                    observe(*args, **kwargs)
                span = tracer._open(name_id)
                if span is None:
                    return original(*args, **kwargs)
                token = tracer.current.set(span)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.current.reset(token)
                    tracer._close(span)

        functools.update_wrapper(wrapper, original)
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def wrap_all(self, owners: Iterable[type], attributes: Iterable[str], name: str) -> None:
        """Wrap every listed attribute that an owner defines itself."""
        attributes = tuple(attributes)
        for owner in owners:
            for attribute in attributes:
                if attribute in owner.__dict__:
                    self.wrap(owner, attribute, name)

    def uninstall(self) -> None:
        """Restore every wrapped method (in reverse order of wrapping)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # --------------------------------------------------------------- queries
    def spans(self) -> int:
        return len(self.columns["id"])

    def stat(self, name: str) -> Tuple[int, float, float]:
        """``(count, total seconds, self seconds)`` of span *name*."""
        index = self._name_ids.get(name)
        if index is None:
            return 0, 0.0, 0.0
        return self.count[index], self.total[index], self.self_time[index]

    def layer_self(self, layer: str) -> float:
        """Summed self time of the layer's synchronous spans (busy time)."""
        return sum(
            self.self_time[index]
            for index, name in enumerate(self.names)
            if name.split(".", 1)[0] == layer and name not in self.async_names
        )

    def busy_self(self) -> float:
        """Self time of every synchronous span: time spent inside a layer."""
        return sum(self.layer_self(layer) for layer in LAYERS)

    # ----------------------------------------------------------------- output
    def dump(self, path: str) -> None:
        """Write every span: one JSON header line, then the raw columns."""
        header = {
            "names": self.names,
            "async": sorted(self.async_names),
            "fields": [[field, code] for field, code in _FIELDS],
            "count": self.spans(),
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for field, _code in _FIELDS:
                self.columns[field].tofile(out)


def load_spans(path: str) -> Tuple[Dict[str, Any], Dict[str, array.array]]:
    """Read a file written by :meth:`Tracer.dump`: ``(header, columns)``."""
    with open(path, "rb") as source:
        header = json.loads(source.readline())
        columns = {}
        for field, code in header["fields"]:
            column = array.array(code)
            column.fromfile(source, header["count"])
            columns[field] = column
    return header, columns


@contextlib.contextmanager
def traced(tracer: Optional[Tracer]) -> Iterator[None]:
    """Instrument every layer for the duration of the block (no-op for ``None``)."""
    if tracer is None:
        yield
        return
    instrument(tracer)
    try:
        yield
    finally:
        tracer.uninstall()


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of ``repro``."""
    from repro.core.mwmr import MultiWriterClient
    from repro.core.reader import AtomicReader, LeasedReader
    from repro.core.server import StorageServer
    from repro.core.writer import AtomicWriter, LeasedWriter
    from repro.core.messages import Batch
    from repro.lease.server import LeaseServer, WriterLeaseServer
    from repro.persist.durable import DurableServer
    from repro.persist.wal import MemoryWAL
    from repro.runtime.transport import TcpTransport
    from repro.sim.cluster import SimCluster
    from repro.sim.topology import Topology
    from repro.sim.trace import MessageTrace
    from repro.store.keyspace import RegisterEvictionStore
    from repro.store.sharding import ShardedClient, ShardedProtocol, _RegisterRouter
    from repro.store.sim import ShardedSimStore
    from repro.wire.codec import BinaryCodec

    core_clients = (AtomicWriter, LeasedWriter, AtomicReader, LeasedReader, MultiWriterClient)
    invocations = ("write", "read", "compare_and_swap", "read_modify_write")
    tracer.wrap_all((StorageServer, *core_clients), ("handle_message",), "core.step")
    tracer.wrap_all(core_clients, ("on_timer",), "core.timer")
    tracer.wrap_all(core_clients, invocations, "core.invoke")

    tracer.wrap_all((_RegisterRouter,), ("handle_message", "on_timer"), "store.route")
    tracer.wrap_all((ShardedClient,), invocations, "store.route")
    tracer.wrap(ShardedProtocol, "create_register", "store.create")
    tracer.wrap(ShardedSimStore, "drop_register", "store.drop")
    tracer.wrap_all((RegisterEvictionStore,), ("save", "load"), "store.spill")

    tracer.wrap(SimCluster, "run", "sim.loop")
    tracer.wrap(Topology, "delay", "sim.topology")
    tracer.wrap_all((MessageTrace,), ("record_delivery", "record_drop"), "sim.trace")

    tracer.wrap(BinaryCodec, "frame_size", "wire.size")
    tracer.wrap(BinaryCodec, "encode_envelope_into", "wire.encode")
    tracer.wrap(BinaryCodec, "decode_envelope", "wire.decode")

    tracer.counters["runtime.messages"] = 0

    def count_messages(_transport: Any, _source: str, _destination: str, message: Any) -> None:
        tracer.counters["runtime.messages"] += len(message) if isinstance(message, Batch) else 1

    tracer.wrap(TcpTransport, "send", "runtime.send", observe=count_messages)

    tracer.wrap(MemoryWAL, "append", "persist.wal_append")
    tracer.wrap_all((DurableServer,), ("handle_message", "on_timer"), "persist.durable")
    tracer.wrap(SimCluster, "recover_server", "persist.recovery")

    tracer.wrap_all((LeaseServer, WriterLeaseServer), ("handle_message", "on_timer"), "lease.server")
