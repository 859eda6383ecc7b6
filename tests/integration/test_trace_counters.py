"""The message trace's counters against its entries, over the S1–S8 sweeps.

Every simulated sweep runs twice, once with ``trace_entries`` on and once
off.  With entries on, each counter query must equal the same query computed
from the entries; across the two runs the counters and the cluster's wire
counters must be identical, because recording entries changes nothing else.
"""

from collections import Counter

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.cluster import SimCluster
from repro.store import bench


def _from_entries(trace):
    delivered = [entry for entry in trace.entries if not entry.dropped]
    dropped = [entry for entry in trace.entries if entry.dropped]
    by_kind = dict(Counter(entry.kind for entry in delivered))
    return {
        "summary": {"delivered": len(delivered), "dropped": len(dropped), **by_kind},
        "count_by_kind": by_kind,
        "count_by_destination": dict(Counter(entry.destination for entry in delivered)),
        "total_messages": len(delivered),
        "count_drops_by_reason": dict(Counter(entry.drop_reason for entry in dropped)),
    }


def _from_counters(cluster):
    trace = cluster.trace
    return {
        "summary": trace.summary(),
        "count_by_kind": trace.count_by_kind(),
        "count_by_destination": trace.count_by_destination(),
        "total_messages": trace.total_messages(),
        "count_drops_by_reason": trace.count_drops_by_reason(),
        "wire": (
            cluster.frames_sent,
            cluster.messages_sent,
            cluster.bytes_sent,
            cluster.events_processed,
        ),
    }


SWEEPS = {
    "S1": lambda: bench.sharded_throughput_sweep(shard_counts=(1, 4), num_operations=24),
    "S2": lambda: bench.batching_sweep(shard_counts=(1, 4), num_operations=24),
    "S3": lambda: bench.mwmr_sweep(shard_counts=(1, 2), num_operations=24),
    "S4": lambda: bench.recovery_sweep(num_shards=2, num_operations=40),
    "S5": lambda: bench.lease_sweep(num_keys=2, num_operations=40),
    "S7": lambda: bench.writer_lease_sweep(num_keys=2, num_operations=40),
    "S8": lambda: bench.topology_sweep(profiles=("wan-3dc",), num_operations=16),
    "S8-churn": lambda: bench.run_topology_churn("lan", num_registers=60, max_resident=8),
}


def _clusters_of(sweep, trace_entries, monkeypatch):
    """Every SimCluster *sweep* builds, in build order, with entries forced."""
    clusters = []
    original = SimCluster.__init__

    def init(self, *args, **kwargs):
        original(self, *args, trace_entries=trace_entries, **kwargs)
        clusters.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(SimCluster, "__init__", init)
        sweep()
    return clusters


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_counters_match_entries_and_entries_change_nothing(name, monkeypatch):
    traced = _clusters_of(SWEEPS[name], True, monkeypatch)
    counted = _clusters_of(SWEEPS[name], False, monkeypatch)
    assert traced and len(traced) == len(counted)
    for with_entries, without in zip(traced, counted, strict=True):
        assert with_entries.trace.entries
        assert without.trace.entries == []
        counters = _from_counters(with_entries)
        assert {key: counters[key] for key in counters if key != "wire"} == _from_entries(
            with_entries.trace
        )
        assert _from_counters(without) == counters


def test_entry_queries_refuse_a_counter_only_trace():
    cluster = SimCluster(LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0)))
    cluster.write("x")
    assert cluster.trace.total_messages() > 0
    for query in (cluster.trace.delivered, cluster.trace.dropped):
        with pytest.raises(RuntimeError, match="trace_entries=True"):
            query()
    with pytest.raises(RuntimeError, match="trace_entries=True"):
        cluster.trace.messages_between(0.0, 1.0)
