"""Message tracing and statistics for simulated runs.

Every delivered (and every dropped) message is counted by kind, destination
and drop reason, so the scalability benchmark can report message complexity
at a cost that does not grow with the run.  With ``record_entries`` the trace
also keeps one :class:`TraceEntry` per message, so tests can assert
communication patterns ("the fast READ exchanged exactly one round of
messages").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.messages import Message


@dataclass(frozen=True)
class TraceEntry:
    """One message transmission attempt."""

    source: str
    destination: str
    kind: str
    send_time: float
    deliver_time: Optional[float]
    dropped: bool = False
    drop_reason: str = ""


@dataclass
class MessageTrace:
    """Counts message deliveries and drops; optionally keeps every entry.

    The counters answer :meth:`summary`, :meth:`count_by_kind`,
    :meth:`count_by_destination`, :meth:`total_messages` and
    :meth:`count_drops_by_reason` whether or not entries are recorded.  The
    per-entry queries (:meth:`delivered`, :meth:`dropped`,
    :meth:`messages_between`) need ``record_entries=True`` and raise without
    it rather than answer from an empty list.
    """

    record_entries: bool = False
    entries: List[TraceEntry] = field(default_factory=list)
    _delivered_by_kind: Dict[str, int] = field(default_factory=dict, init=False, repr=False)
    _delivered_by_destination: Dict[str, int] = field(default_factory=dict, init=False, repr=False)
    _dropped_by_reason: Dict[str, int] = field(default_factory=dict, init=False, repr=False)

    def record_delivery(
        self, source: str, destination: str, message: Message, send_time: float, deliver_time: float
    ) -> None:
        kind = message.kind
        by_kind = self._delivered_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        by_destination = self._delivered_by_destination
        by_destination[destination] = by_destination.get(destination, 0) + 1
        if self.record_entries:
            self.entries.append(
                TraceEntry(
                    source=source,
                    destination=destination,
                    kind=kind,
                    send_time=send_time,
                    deliver_time=deliver_time,
                )
            )

    def record_drop(
        self, source: str, destination: str, message: Message, send_time: float, reason: str
    ) -> None:
        by_reason = self._dropped_by_reason
        by_reason[reason] = by_reason.get(reason, 0) + 1
        if self.record_entries:
            self.entries.append(
                TraceEntry(
                    source=source,
                    destination=destination,
                    kind=message.kind,
                    send_time=send_time,
                    deliver_time=None,
                    dropped=True,
                    drop_reason=reason,
                )
            )

    # ---------------------------------------------------------------- queries
    def _require_entries(self) -> List[TraceEntry]:
        if not self.record_entries:
            raise RuntimeError(
                "this trace keeps counters only; build the cluster with "
                "trace_entries=True to query individual messages"
            )
        return self.entries

    def delivered(self) -> List[TraceEntry]:
        return [entry for entry in self._require_entries() if not entry.dropped]

    def dropped(self) -> List[TraceEntry]:
        return [entry for entry in self._require_entries() if entry.dropped]

    def count_by_kind(self) -> Dict[str, int]:
        return dict(self._delivered_by_kind)

    def count_by_destination(self) -> Dict[str, int]:
        return dict(self._delivered_by_destination)

    def count_drops_by_reason(self) -> Dict[str, int]:
        return dict(self._dropped_by_reason)

    def messages_between(self, start: float, end: float) -> List[TraceEntry]:
        """Delivered messages sent within the half-open interval ``[start, end)``."""
        return [
            entry
            for entry in self.delivered()
            if start <= entry.send_time < end
        ]

    def total_messages(self) -> int:
        return sum(self._delivered_by_kind.values())

    def summary(self) -> Dict[str, int]:
        summary = {
            "delivered": self.total_messages(),
            "dropped": sum(self._dropped_by_reason.values()),
        }
        summary.update(self.count_by_kind())
        return summary
