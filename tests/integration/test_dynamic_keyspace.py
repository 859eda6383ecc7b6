"""Integration tests for the dynamic keyspace and the bounded register table.

The write → evict → rehydrate → read round trip on both runtimes, register
creation/drop at runtime, durable recovery interleaved with eviction, and a
small churn-workload acceptance run (the scaled-up version is the S8
``--churn`` benchmark row).
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.types import is_bottom
from repro.runtime.cluster import ShardedAsyncCluster
from repro.store.sim import ShardedSimStore
from repro.verify.atomicity import check_atomicity
from repro.workload.generator import churn_workload, run_store_workload


def config(**kwargs):
    return SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2, **kwargs)


def bounded_store(max_resident=2, keys=(), **kwargs):
    return ShardedSimStore(
        LuckyAtomicProtocol(config()),
        list(keys),
        max_resident=max_resident,
        **kwargs,
    )


class TestDynamicMembership:
    def test_create_then_use_register_at_runtime(self):
        store = bounded_store(max_resident=None)
        assert store.keys == []
        store.create_register("users")
        store.write("users", "alice")
        assert store.read("users").value == "alice"
        assert store.verify_atomic()

    def test_drop_register_discards_state_everywhere(self):
        store = bounded_store(max_resident=None)
        store.create_register("tmp")
        store.write("tmp", "x")
        store.drop_register("tmp")
        assert "tmp" not in store.keys
        # Re-creating the key starts from bottom: the old state is gone from
        # every process and from the eviction spill space.
        store.create_register("tmp")
        assert is_bottom(store.read("tmp").value)
        assert store.verify_atomic()

    def test_dropped_key_history_is_archived_and_checkable(self):
        store = bounded_store(max_resident=None)
        store.create_register("tmp")
        store.write("tmp", "x")
        store.drop_register("tmp")
        # The dead incarnation's operations are archived under tmp#1 so they
        # stay checkable without shadowing a future register named tmp.
        histories = store.histories()
        assert "tmp" not in histories
        assert [r.value for r in histories["tmp#1"].writes()] == ["x"]
        assert store.verify_atomic()

    def test_unknown_key_still_raises(self):
        store = bounded_store(max_resident=None)
        with pytest.raises(KeyError):
            store.write("ghost", "x")


def _lifecycles(key="k", cycles=3):
    """Create, write, read and drop *key* *cycles* times, then create it again,
    with a second register used throughout so the index is not one list."""
    for cycle in range(cycles):
        yield "create", key, None
        yield "write", key, f"v{cycle}"
        yield "write", "other", f"o{cycle}"
        yield "read", key, None
        yield "drop", key, None
    yield "create", key, None
    yield "write", key, "last"
    yield "read", key, None


class TestDropArchiving:
    """Drops move only the dropped key's operations, and every history is the
    one a scan over all recorded operations gives."""

    def test_sim_archives_match_a_linear_scan(self):
        store = bounded_store(max_resident=None, keys=["other"])
        cluster = store.cluster
        archived = {}
        for step, key, value in _lifecycles():
            if step == "create":
                store.create_register(key)
            elif step == "write":
                store.write(key, value)
            elif step == "read":
                store.read(key)
            else:
                live = [h for h in cluster.operations if h.register_id == key]
                store.drop_register(key)
                archive_id = f"{key}#{len(archived) + 1}"
                assert all(h.register_id == archive_id for h in live)
                archived[archive_id] = live
        histories = store.histories()
        assert sorted(histories) == ["k", "k#1", "k#2", "k#3", "other"]
        for archive_id, handles in archived.items():
            assert len(handles) == 2
            assert histories[archive_id].records == [h.to_record() for h in handles]
        for key in histories:
            scanned = [h.to_record() for h in cluster.operations if h.register_id == key]
            assert histories[key].records == scanned
            assert cluster.history(key).records == scanned
        assert [r.value for r in histories["k"].writes()] == ["last"]
        assert store.verify_atomic()

    def test_asyncio_archives_match_a_linear_scan(self):
        base = LuckyAtomicProtocol(config())

        def scan(store, key):
            return [
                record
                for node in store.client_nodes.values()
                for record in node.records
                if record.metadata["register_id"] == key
            ]

        async def scenario(store):
            archived = {}
            for step, key, value in _lifecycles():
                if step == "create":
                    store.create_register(key)
                elif step == "write":
                    await store.write(key, value)
                elif step == "read":
                    await store.read(key)
                else:
                    live = scan(store, key)
                    store.drop_register(key)
                    archived[f"{key}#{len(archived) + 1}"] = live
            histories = store.histories()
            assert sorted(histories) == ["k", "k#1", "k#2", "k#3", "other"]
            for archive_id, records in archived.items():
                assert len(records) == 2
                assert histories[archive_id].records == records
            for key in histories:
                assert histories[key].records == scan(store, key)
            assert [r.value for r in histories["k"].writes()] == ["last"]
            for history in histories.values():
                check_atomicity(history).raise_if_violated()

        ShardedAsyncCluster.run_scenario(base, scenario, keys=["other"], message_delay_s=0.0005)


class TestEvictionRoundTrip:
    def test_write_evict_rehydrate_read(self):
        store = bounded_store(max_resident=2)
        for index in range(6):
            store.create_register(f"k{index}")
            store.write(f"k{index}", f"v{index}")
        assert store.evictions > 0
        # k0 went cold long ago; every server's resident table dropped it.
        for server_id in store.config.server_ids():
            assert "k0" not in store.resident_registers(server_id)
            assert "k0" in store.evicted_registers(server_id)
        # Reading it faults the state back in from the eviction snapshots.
        assert store.read("k0").value == "v0"
        assert store.rehydrations > 0
        assert store.verify_atomic()

    def test_resident_table_never_exceeds_bound_on_servers(self):
        store = bounded_store(max_resident=3)
        for index in range(10):
            store.create_register(f"k{index}")
            store.write(f"k{index}", str(index))
        for server_id in store.config.server_ids():
            assert len(store.resident_registers(server_id)) <= 3

    def test_lru_order_keeps_the_recently_touched(self):
        store = bounded_store(max_resident=2)
        for key in ("a", "b", "c"):
            store.create_register(key)
        store.write("a", "1")
        store.write("b", "2")
        store.read("a")  # touch a so b is now the coldest
        store.write("c", "3")  # evicts b, not a
        server = store.config.server_ids()[0]
        resident = store.resident_registers(server)
        assert "b" not in resident and "a" in resident and "c" in resident
        assert store.read("b").value == "2"  # still rehydratable

    def test_durable_recovery_mid_eviction(self):
        from repro.sim.failures import CrashRecoverySchedule

        store = bounded_store(
            max_resident=2, durable=True, failures=CrashRecoverySchedule()
        )
        for index in range(5):
            store.create_register(f"k{index}")
            store.write(f"k{index}", f"v{index}")
        assert store.evictions > 0
        crashed = store.config.server_ids()[0]
        store.cluster.crash(crashed)
        store.write("k4", "v4b")  # quorum still completes with one server down
        store.cluster.recover_server(crashed)
        # Evicted-then-recovered state must still rehydrate: the spill space
        # is owned by the suite, not by the server incarnation that died.
        assert store.read("k0").value == "v0"
        assert store.read("k4").value == "v4b"
        assert store.verify_atomic()


class TestSimChurnAcceptance:
    def test_churn_workload_is_atomic_under_a_tight_bound(self):
        store = bounded_store(max_resident=8)
        workload = churn_workload(60, readers=store.config.reader_ids(), seed=3)
        handles = run_store_workload(store, workload)
        assert handles and all(handle.done for handle in handles)
        assert store.evictions > 0 and store.rehydrations > 0
        results = store.check_atomicity()
        assert results and all(result.ok for result in results.values())


class TestAsyncioEvictionRoundTrip:
    def test_write_evict_rehydrate_read_and_drop(self):
        base = LuckyAtomicProtocol(config())

        async def scenario(store):
            for index in range(6):
                key = f"k{index}"
                store.create_register(key)
                await store.write(key, f"v{index}")
            assert store.evictions > 0
            # k0 is long cold: reading it rehydrates from the spill space.
            read = await store.read("k0")
            assert read.value == "v0"
            assert store.rehydrations > 0
            store.drop_register("k3")
            store.create_register("k3")
            fresh = await store.read("k3")
            assert is_bottom(fresh.value)
            for history in store.histories().values():
                check_atomicity(history).raise_if_violated()

        ShardedAsyncCluster.run_scenario(
            base, scenario, keys=[], max_resident=2, message_delay_s=0.0005
        )
