"""Self-checks of the benchmark: determinism, tracing mechanics, result schema.

The file is named so that the repository's test suite does not collect it;
run it explicitly from the root of a checkout::

    python3 -m pytest -q perfbench/tests/check_perfbench.py
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run as bench_run  # noqa: E402
from perfbench.trace import Tracer, load_spans  # noqa: E402
from perfbench.workloads import churn_inputs, sim_churn  # noqa: E402


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def churn_fingerprint(seed: int) -> dict:
    outcome = sim_churn(seed, 1.0)
    virtual = [sample.virtual for sample in outcome.samples]
    counters = dict(outcome.counters)
    return {
        "sim.events": counters["events"],
        "wire.frames": counters["frames"],
        "wire.bytes": counters["bytes"],
        "persist.wal_records": counters["wal_records"],
        "store.evictions": counters["evictions"],
        "store.rehydrations": counters["rehydrations"],
        "persist.recoveries": counters["recoveries"],
        "fast_rate": sum(s.fast for s in outcome.samples) / len(outcome.samples),
        "virtual_p50": bench_run.percentile(virtual, 0.5),
        "virtual_p99": bench_run.percentile(virtual, 0.99),
    }


def test_sim_churn_counts_repeat_exactly():
    first, second = churn_fingerprint(7), churn_fingerprint(7)
    assert first == second
    assert first["store.rehydrations"] > 0
    assert first["persist.recoveries"] >= 1


def test_sim_churn_seed_changes_arrivals():
    arrivals = [
        [op.at for op in churn_inputs(seed, 1.0).sorted()] for seed in (1, 2)
    ]
    assert arrivals[0] != arrivals[1]


def test_self_time_excludes_children_across_tasks(tmp_path):
    tracer = Tracer()

    class Layer:
        def inner(self) -> None:
            time.sleep(0.01)

        def outer(self) -> None:
            time.sleep(0.01)
            self.inner()

        async def send(self) -> None:
            self.inner()
            await asyncio.sleep(0.01)

    tracer.wrap(Layer, "inner", "core.step")
    tracer.wrap(Layer, "outer", "store.route")
    tracer.wrap(Layer, "send", "runtime.send")

    async def main() -> None:
        layer = Layer()
        layer.outer()
        # A task inherits the current span; sends in two tasks stay apart.
        await asyncio.gather(layer.send(), layer.send())

    asyncio.run(main())
    tracer.uninstall()
    count, total, self_time = tracer.stat("store.route")
    assert count == 1 and self_time == pytest.approx(total - 0.01, abs=0.005)
    count, total, self_time = tracer.stat("runtime.send")
    assert count == 2
    assert self_time == pytest.approx(total - 0.02, abs=0.006)
    # Busy time counts synchronous spans only: the sends' waits are not busy.
    assert tracer.busy_self() == pytest.approx(tracer.stat("core.step")[1] + 0.01, abs=0.005)

    path = str(tmp_path / "spans")
    tracer.dump(path)
    header, columns = load_spans(path)
    assert header["count"] == tracer.spans() == 6
    names = [header["names"][i] for i in columns["name"]]
    parents = dict(zip(columns["id"], columns["parent"]))
    by_id = dict(zip(columns["id"], names))
    children_of_send = [
        span for span, parent in parents.items() if parent >= 0 and by_id[parent] == "runtime.send"
    ]
    assert len(children_of_send) == 2
    assert all(by_id[span] == "core.step" for span in children_of_send)


def test_same_name_reentry_opens_one_span():
    tracer = Tracer()

    class Base:
        def step(self) -> int:
            return 1

    class Derived(Base):
        def step(self) -> int:
            return super().step() + 1

    tracer.wrap_all((Base, Derived), ("step",), "core.step")
    assert Derived().step() == 2
    tracer.uninstall()
    assert tracer.stat("core.step")[0] == 1
    assert Derived.step.__name__ == "step" and "step" in Base.__dict__


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        return json.load(source)


def test_benchmark_json_matches_the_metrics_printed():
    benchmark = load_benchmark()
    assert [m["name"] for m in benchmark["end_to_end"]] == list(bench_run.END_TO_END)
    assert [m["name"] for m in benchmark["per_layer"]] == list(bench_run.PER_LAYER)
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        units = bench_run.END_TO_END if "bound" in metric else bench_run.PER_LAYER
        assert metric["unit"] == units[metric["name"]]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_has_every_metric(trace):
    done = run_bench("--workload", "sim-churn", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    expected = bench_run.PER_LAYER if trace == "1" else bench_run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"])
    if trace == "1":
        metrics = result["metrics"]
        assert 0 < metrics["trace.busy_share"]["value"] <= 1
        assert metrics["persist.recoveries"]["value"] >= 1
        assert metrics["store.rehydrations"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run_bench(
        "--workload", "tcp-lucky", "--seed", "1", "--seconds", "1", cwd=str(tmp_path)
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
