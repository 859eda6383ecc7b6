"""Run one benchmark workload, check its histories and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tcp-lucky --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload once and prints the end-to-end metrics.
``--trace 1`` runs it twice with the same inputs, first untraced and then
with every layer's entry points wrapped in spans, and prints the per-layer
metrics plus the tracing overhead (traced over untraced ``ops_per_s``); the
spans are written to ``perfbench/out/``.

Every run checks each per-key history for atomicity before it reports a
number.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a run whose outputs
are wrong prints it with ``"correct": false`` and no metrics, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The traced run checks its histories at least ``VERIFY_REPEATS`` times and
#: for at least ``VERIFY_MIN_S`` seconds in all; ``verify.us_per_op`` comes
#: from the median check time.  Other runs check once.
VERIFY_REPEATS = 3
VERIFY_MIN_S = 3.0

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "virtual_p50": "vtime",
    "virtual_p90": "vtime",
    "fast_rate": "fraction",
    "rounds_per_op": "rounds",
    "completed_ratio": "fraction",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "core.steps": "count",
    "core.steps_per_op": "steps/op",
    "core.self_s": "s",
    "core.us_per_step": "us",
    "core.timer_fires": "count",
    "store.route_self_s": "s",
    "store.creates": "count",
    "store.create_s": "s",
    "store.drops": "count",
    "store.drop_s": "s",
    "store.evictions": "count",
    "store.rehydrations": "count",
    "store.spill_s": "s",
    "sim.events": "count",
    "sim.events_per_op": "events/op",
    "sim.loop_self_s": "s",
    "sim.topology_calls": "count",
    "sim.topology_s": "s",
    "sim.trace_entries": "count",
    "sim.trace_s": "s",
    "wire.frames": "count",
    "wire.msgs_per_frame": "msgs/frame",
    "wire.bytes_per_op": "B/op",
    "wire.size_calls": "count",
    "wire.size_s": "s",
    "wire.encode_calls": "count",
    "wire.encode_s": "s",
    "wire.decode_calls": "count",
    "wire.decode_s": "s",
    "runtime.sends": "count",
    "runtime.send_wall_s": "s",
    "runtime.send_wait_s": "s",
    "runtime.loop_lag_p50_ms": "ms",
    "runtime.loop_lag_p99_ms": "ms",
    "runtime.timers_cancelled": "count",
    "persist.wal_records": "count",
    "persist.records_per_op": "records/op",
    "persist.wal_append_s": "s",
    "persist.durable_self_s": "s",
    "persist.recoveries": "count",
    "persist.recovery_s": "s",
    "lease.read_share": "fraction",
    "lease.write_share": "fraction",
    "lease.cas_failed_share": "fraction",
    "lease.self_s": "s",
    "verify.ops_checked": "count",
    "verify.max_key_ops": "count",
    "verify.us_per_op": "us",
    "trace.overhead": "ratio",
    "trace.ops_per_s": "ops/s",
    "trace.busy_share": "fraction",
    "trace.spans": "count",
}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and insist on using it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in ``(0, 1]``); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def verify(outcome: Any, timed: bool) -> Tuple[List[str], int, int, float]:
    """Check every per-key history: ``(violations, ops, max ops per key, seconds)``.

    A *timed* check is repeated (see ``VERIFY_REPEATS``) and the time is the
    median, so a slow phase of the host that covers a few repeats does not
    move it.
    """
    from repro.verify.atomicity import check_atomicity

    from perfbench.workloads import settled

    times: List[float] = []
    with settled():
        while not times or timed and (len(times) < VERIFY_REPEATS or sum(times) < VERIFY_MIN_S):
            violations = list(outcome.mismatches)
            started = time.perf_counter()
            for key, (history, mwmr) in outcome.histories.items():
                result = check_atomicity(history, mwmr=mwmr)
                violations.extend(f"{key}: {violation}" for violation in result.violations)
            times.append(time.perf_counter() - started)
    sizes = [len(history) for history, _mwmr in outcome.histories.values()]
    return violations, sum(sizes), max(sizes, default=0), statistics.median(times)


def end_to_end(outcome: Any, peak_rss_mb: float) -> Dict[str, float]:
    samples = outcome.samples
    reads = [s.wall_ms for s in samples if s.kind == "read"]
    writes = [s.wall_ms for s in samples if s.kind == "write"]
    virtual = [s.virtual for s in samples]
    return {
        "setup_s": percentile(outcome.setup_s, 0.5),
        "ops_per_s": len(samples) / outcome.wall_s,
        "read_p50_ms": percentile(reads, 0.5),
        "read_p90_ms": percentile(reads, 0.90),
        "write_p50_ms": percentile(writes, 0.5),
        "write_p90_ms": percentile(writes, 0.90),
        "virtual_p50": percentile(virtual, 0.5),
        "virtual_p90": percentile(virtual, 0.90),
        "fast_rate": sum(s.fast for s in samples) / max(1, len(samples)),
        "rounds_per_op": sum(s.rounds for s in samples) / max(1, len(samples)),
        "completed_ratio": (outcome.attempted - outcome.failed) / outcome.attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    tracer: Any, outcome: Any, untraced: Any, checked: Tuple[int, int, float]
) -> Dict[str, float]:
    """Per-layer metrics of the traced run *outcome* (see ``README.md``)."""
    samples = outcome.samples
    ops = max(1, len(samples))
    counters = outcome.counters
    reads = [s for s in samples if s.kind == "read"]
    writes = [s for s in samples if s.kind == "write"]
    cas = [s for s in samples if s.cas]
    steps = tracer.stat("core.step")[0] + tracer.stat("core.timer")[0]
    sends = tracer.stat("runtime.send")
    if "messages" in counters:  # the simulator counts messages per frame itself
        msgs_per_frame = counters["messages"] / max(1, counters["frames"])
    else:
        msgs_per_frame = tracer.counters.get("runtime.messages", 0) / max(1, sends[0])
    ops_checked, max_key_ops, verify_s = checked
    traced_ops_per_s = len(samples) / outcome.wall_s
    return {
        "core.steps": steps,
        "core.steps_per_op": steps / ops,
        "core.self_s": tracer.layer_self("core"),
        "core.us_per_step": tracer.layer_self("core") / max(1, steps) * 1e6,
        "core.timer_fires": tracer.stat("core.timer")[0],
        "store.route_self_s": tracer.stat("store.route")[2],
        "store.creates": tracer.stat("store.create")[0],
        "store.create_s": tracer.stat("store.create")[1],
        "store.drops": tracer.stat("store.drop")[0],
        "store.drop_s": tracer.stat("store.drop")[1],
        "store.evictions": counters["evictions"],
        "store.rehydrations": counters["rehydrations"],
        "store.spill_s": tracer.stat("store.spill")[1],
        "sim.events": counters.get("events", 0),
        "sim.events_per_op": counters.get("events", 0) / ops,
        "sim.loop_self_s": tracer.stat("sim.loop")[2],
        "sim.topology_calls": tracer.stat("sim.topology")[0],
        "sim.topology_s": tracer.stat("sim.topology")[1],
        "sim.trace_entries": counters.get("trace_entries", 0),
        "sim.trace_s": tracer.stat("sim.trace")[1],
        "wire.frames": counters["frames"],
        "wire.msgs_per_frame": msgs_per_frame,
        "wire.bytes_per_op": counters["bytes"] / ops,
        "wire.size_calls": tracer.stat("wire.size")[0],
        "wire.size_s": tracer.stat("wire.size")[1],
        "wire.encode_calls": tracer.stat("wire.encode")[0],
        "wire.encode_s": tracer.stat("wire.encode")[1],
        "wire.decode_calls": tracer.stat("wire.decode")[0],
        "wire.decode_s": tracer.stat("wire.decode")[1],
        "runtime.sends": sends[0],
        "runtime.send_wall_s": sends[1],
        "runtime.send_wait_s": sends[2],
        "runtime.loop_lag_p50_ms": percentile(untraced.lag_ms, 0.5),
        "runtime.loop_lag_p99_ms": percentile(untraced.lag_ms, 0.99),
        "runtime.timers_cancelled": counters.get("timers_cancelled", 0),
        "persist.wal_records": counters.get("wal_records", 0),
        "persist.records_per_op": counters.get("wal_records", 0) / ops,
        "persist.wal_append_s": tracer.stat("persist.wal_append")[1],
        "persist.durable_self_s": tracer.stat("persist.durable")[2],
        "persist.recoveries": tracer.stat("persist.recovery")[0],
        "persist.recovery_s": tracer.stat("persist.recovery")[1],
        "lease.read_share": sum(s.lease for s in reads) / max(1, len(reads)),
        "lease.write_share": sum(s.lease for s in writes) / max(1, len(writes)),
        "lease.cas_failed_share": sum(s.cas_failed for s in cas) / max(1, len(cas)),
        "lease.self_s": tracer.layer_self("lease"),
        "verify.ops_checked": ops_checked,
        "verify.max_key_ops": max_key_ops,
        "verify.us_per_op": verify_s / max(1, ops_checked) * 1e6,
        "trace.overhead": traced_ops_per_s / (len(untraced.samples) / untraced.wall_s),
        "trace.ops_per_s": traced_ops_per_s,
        "trace.busy_share": tracer.busy_self() / outcome.wall_s,
        "trace.spans": tracer.spans(),
    }


def workload_checks(name: str, outcome: Any) -> List[str]:
    """Checks that the workload exercised what it exists to exercise."""
    problems = []
    if name == "sim-churn":
        if outcome.counters["rehydrations"] < 1:
            problems.append("sim-churn rehydrated no register")
        if outcome.counters["recoveries"] < 1:
            problems.append("sim-churn recovered no server")
    return problems


def report(metrics: Dict[str, float], units: Dict[str, str], outcome: Any) -> None:
    """Human-readable lines before the result line, with sample counts."""
    counts = {
        "read": sum(1 for s in outcome.samples if s.kind == "read"),
        "write": sum(1 for s in outcome.samples if s.kind == "write"),
        "virtual": len(outcome.samples),
    }
    for name, value in metrics.items():
        note = ""
        for kind, count in counts.items():
            if name.startswith(kind + "_p"):
                note = f"  (of {count} samples)"
        print(f"{name:28s} {value:14.6g} {units[name]}{note}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run = WORKLOADS[args.workload]

    outcome = run(args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    violations = verify(outcome, timed=False)[0]
    violations += workload_checks(args.workload, outcome)
    result: Dict[str, Any] = {
        "correct": False,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {},
    }
    if args.trace:
        untraced = outcome
        tracer = Tracer()
        outcome = run(args.seed, args.seconds, tracer)
        traced_violations, ops_checked, max_key_ops, verify_s = verify(outcome, timed=True)
        violations += traced_violations
        if args.workload == "sim-churn" and outcome.counters != untraced.counters:
            violations.append(
                f"traced counters {outcome.counters} differ from untraced {untraced.counters}"
            )
        metrics = per_layer(tracer, outcome, untraced, (ops_checked, max_key_ops, verify_s))
        if metrics["trace.busy_share"] > 1.0:
            violations.append(f"layer self times exceed the traced wall time: {metrics}")
        units = PER_LAYER
        out_dir = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans")
        tracer.dump(spans_path)
        print(f"spans: {tracer.spans()} written to {os.path.relpath(spans_path, ROOT)}")
        result["attempted"] += outcome.attempted
        result["failed"] += outcome.failed
    else:
        metrics = end_to_end(outcome, peak_rss_mb)
        units = END_TO_END
    if violations:
        for violation in violations[:20]:
            print(f"VIOLATION {violation}", file=sys.stderr)
        print(json.dumps(result))
        return 1
    report(metrics, units, outcome)
    result["correct"] = True
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in metrics.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
