"""Unit tests for the benchmark harness utilities and the CLI."""

import pytest

from repro.bench.harness import ExperimentTable, build_cluster, lucky_write_read_cycle, summarize
from repro.cli import main
from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.byzantine import MuteStrategy


class TestExperimentTable:
    def test_rows_and_columns_render(self):
        table = ExperimentTable("T1", "demo", columns=["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a=True, b="x")
        text = table.format()
        assert "T1" in text and "demo" in text
        assert "2.500" in text
        assert "yes" in text

    def test_notes_are_rendered(self):
        table = ExperimentTable("T1", "demo", columns=["a"])
        table.add_note("remember this")
        assert "remember this" in table.format()

    def test_markdown_rendering(self):
        table = ExperimentTable("T1", "demo", columns=["a"])
        table.add_row(a=3)
        markdown = table.to_markdown()
        assert markdown.startswith("### T1")
        assert "| a |" in markdown

    def test_column_accessor(self):
        table = ExperimentTable("T1", "demo", columns=["a"])
        table.add_row(a=1)
        table.add_row(a=2)
        assert table.column("a") == [1, 2]


class TestSummarize:
    def test_empty_stats(self):
        stats = summarize([])
        assert stats.count == 0 and stats.fast_fraction == 0.0

    def test_statistics_over_handles(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0)
        cluster = build_cluster(LuckyAtomicProtocol(config))
        handles = [cluster.write("a"), cluster.write("b")]
        stats = summarize(handles)
        assert stats.count == 2
        assert stats.fast_fraction == 1.0
        assert stats.mean_rounds == 1.0
        assert stats.max_rounds == 1


class TestBuildCluster:
    def test_crashes_avoid_byzantine_servers(self):
        config = SystemConfig(t=2, b=1, fw=0, fr=0)
        cluster = build_cluster(
            LuckyAtomicProtocol(config), crash_servers=1, byzantine={"s6": MuteStrategy()}
        )
        assert "s6" not in cluster.failures.crash_times
        assert len(cluster.failures.crash_times) == 1

    def test_too_many_crashes_raise(self):
        config = SystemConfig(t=1, b=1, fw=0, fr=0)
        with pytest.raises(ValueError):
            build_cluster(LuckyAtomicProtocol(config), crash_servers=5)

    def test_cycle_produces_expected_counts(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0)
        cluster = build_cluster(LuckyAtomicProtocol(config))
        cycle = lucky_write_read_cycle(cluster, num_cycles=3)
        assert len(cycle["writes"]) == 3
        assert len(cycle["reads"]) == 3


class TestCli:
    def test_explain_command(self, capsys):
        assert main(["explain", "--t", "2", "--b", "1", "--fw", "1", "--fr", "0"]) == 0
        output = capsys.readouterr().out
        assert "round quorum" in output

    def test_demo_command(self, capsys):
        assert main(["demo", "--t", "1", "--b", "0"]) == 0
        output = capsys.readouterr().out
        assert "WRITE" in output and "READ" in output and "atomicity: OK" in output

    def test_run_experiment_command(self, capsys):
        assert main(["run-experiment", "E1"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run-experiment", "E99"])


class TestTopologySweep:
    """Small S8 smoke runs — the full-size sweep is the CI benchmark job."""

    def test_lan_healthy_is_all_fast(self):
        from repro.store.bench import run_topology_scenario

        row = run_topology_scenario("lan", "healthy", num_operations=12)
        assert row["completed"] == row["operations"] == 12
        assert float(row["fast_rate"]) >= 0.9
        assert row["drops"] == 0
        assert row["atomic"] == "yes"

    def test_wan_partition_degrades_without_collapsing(self):
        from repro.store.bench import run_topology_scenario

        row = run_topology_scenario("wan-3dc", "partition", num_operations=16)
        # Every operation still completes through the round quorum and the
        # history stays atomic; the severed zone only costs the fast path.
        assert row["completed"] == row["operations"] == 16
        assert row["drops"] > 0
        assert 0.0 < float(row["fast_rate"]) < 1.0
        assert row["atomic"] == "yes"

    def test_sweep_table_shape_and_churn_rows(self):
        from repro.store.bench import topology_sweep

        table = topology_sweep(
            profiles=("lan",),
            scenarios=("healthy", "gray"),
            num_operations=8,
            churn=True,
            churn_registers=40,
            churn_resident=8,
        )
        assert table.experiment_id == "S8"
        scenarios = [row["scenario"] for row in table.rows]
        assert scenarios[:2] == ["healthy", "gray"]
        # --churn appends one sim row and one asyncio-runtime row.
        assert len(scenarios) == 4
        assert all(label.startswith("churn") for label in scenarios[2:])
        assert all(row["atomic"] == "yes" for row in table.rows)
        assert all(row["completed"] == row["operations"] for row in table.rows)
        # The asyncio row reports wall-clock operations per second in its own
        # column, so the virtual-time throughput column never mixes units.
        assert table.rows[3]["profile"] == "asyncio"
        assert float(table.rows[3]["wall_ops_per_s"]) > 0.0
        assert "throughput" not in table.rows[3]
        assert "wall_ops_per_s" not in table.rows[2]
