"""Per-layer metrics of a traced run, and the trace-integrity check.

"/op" is per client operation completed successfully in the run.  Times are
host time (``run.py`` scales them to the reference host); ``queue.sim_*``
are simulated and identical on every host.
README.md maps each metric to the end-to-end metric and workload it should
move.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from repro.runner import Simulation, SimulationReport

from tracing import PIPELINE_HOOKS, REBALANCE_PREFIXES, LAYER_OF_PREFIX, Tracer
from workloads import key_space_grew

__all__ = ["PER_LAYER", "counts", "timings", "dispatch_shares", "median_timings", "integrity"]

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("kernel.events_per_op", "events/op", "lower"),
    ("kernel.schedules_per_op", "events/op", "lower"),
    ("kernel.cancelled_per_op", "events/op", "lower"),
    ("kernel.peak_pending", "events", "lower"),
    ("kernel.ns_per_event", "ns", "lower"),
    ("timers.wheeled_per_op", "timers/op", "lower"),
    ("timers.direct_per_op", "timers/op", "lower"),
    ("timers.promoted_frac", "ratio", "lower"),
    ("network.sends_per_op", "calls/op", "lower"),
    ("network.send_us", "us", "lower"),
    ("dispatch.net.us_per_op", "us/op", "lower"),
    ("network.drops_per_op", "msgs/op", "lower"),
    ("queue.submits_per_op", "calls/op", "lower"),
    ("queue.submit_us", "us", "lower"),
    ("dispatch.server.us_per_op", "us/op", "lower"),
    ("queue.sim_wait_ms", "ms", "lower"),
    ("queue.sim_utilization", "ratio", "lower"),
    ("coord.read_us", "us", "lower"),
    ("coord.write_us", "us", "lower"),
    ("coord.self_us_per_op", "us/op", "lower"),
    ("coord.hedge_fired_frac", "ratio", "higher"),
    ("pipeline.calls_per_op", "calls/op", "lower"),
    ("pipeline.us_per_op", "us/op", "lower"),
    ("admission.rejected_frac", "ratio", "lower"),
    ("storage.applies_per_op", "calls/op", "lower"),
    ("storage.apply_us", "us", "lower"),
    ("storage.get_us", "us", "lower"),
    ("workload.self_us_per_op", "us/op", "lower"),
    ("workload.key_draw_us", "us", "lower"),
    ("workload.grow_us_per_op", "us/op", "lower"),
    ("monitor.us_per_op", "us/op", "lower"),
    ("dispatch.metrics.us_per_op", "us/op", "lower"),
    ("dispatch.window-tracker.us_per_op", "us/op", "lower"),
    ("monitor.probe_ops_per_op", "ops/op", "lower"),
    ("controller.round_ms", "ms", "lower"),
    ("controller.actions", "count", "lower"),
    ("rebalance.events_per_op", "events/op", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

_MONITOR_SPANS = ("monitor.metrics", "monitor.window_acked", "monitor.window_applied")
_KEY_DRAWS = ("workload.next_index", "workload.next_indices")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counts(simulation: Simulation, report: SimulationReport, tracer: Tracer) -> Dict[str, float]:
    """The deterministic per-layer counts (read when the run returned)."""
    ops = report.workload_summary["operations_completed"]
    spans = tracer.totals()
    calls = {name: entry[0] for name, entry in spans.items()}
    queue = simulation.simulator.queue_stats()
    timers = simulation.cluster.coordinator.timer_stats()
    network = simulation.cluster.network
    hedging = simulation.pipeline.get("request-hedging")
    admission = simulation.pipeline.get("admission-control")
    issued = report.workload_summary["operations_issued"]

    served = sum(server.completed for server, _ in tracer.servers)
    waited = sum(server.mean_queue_delay * server.completed for server, _ in tracer.servers)
    busy = sum(server.total_busy_time for server, _ in tracer.servers)
    alive = sum(simulation.simulator.now - since for _, since in tracer.servers)
    rebalance = sum(
        calls.get(f"dispatch.{prefix}", 0) for prefix in REBALANCE_PREFIXES
    )
    return {
        "kernel.events_per_op": _ratio(report.events_processed, ops),
        "kernel.schedules_per_op": _ratio(queue["scheduled"], ops),
        "kernel.cancelled_per_op": _ratio(queue["cancelled_skipped"], ops),
        "kernel.peak_pending": float(queue["peak_pending"]),
        "timers.wheeled_per_op": _ratio(timers.get("timers_wheeled", 0), ops),
        "timers.direct_per_op": _ratio(timers.get("timers_direct", 0), ops),
        "timers.promoted_frac": _ratio(
            timers.get("timers_promoted", 0), timers.get("timers_wheeled", 0)
        ),
        "network.sends_per_op": _ratio(calls["network.send"], ops),
        "network.drops_per_op": _ratio(network.messages_dropped, ops),
        "queue.submits_per_op": _ratio(calls["queue.submit"], ops),
        "queue.sim_wait_ms": 1000.0 * _ratio(waited, served),
        "queue.sim_utilization": _ratio(busy, alive),
        "coord.hedge_fired_frac": (
            _ratio(hedging.hedges_fired, hedging.hedges_armed) if hedging else 0.0
        ),
        "pipeline.calls_per_op": _ratio(
            sum(calls[f"pipeline.{hook}"] for hook in PIPELINE_HOOKS), ops
        ),
        "admission.rejected_frac": (
            _ratio(admission.rejected, issued) if admission is not None else 0.0
        ),
        "storage.applies_per_op": _ratio(calls["storage.apply"], ops),
        "monitor.probe_ops_per_op": _ratio(simulation.overhead.probe_operations, ops),
        "controller.actions": report.controller_summary["actions_executed"],
        "rebalance.events_per_op": _ratio(rebalance, ops),
    }


def timings(report: SimulationReport, tracer: Tracer, untraced_wall: float) -> Dict[str, float]:
    """The host-time per-layer metrics of one traced run."""
    ops = report.workload_summary["operations_completed"]
    spans = tracer.totals()

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    def mean_us(names: Sequence[str]) -> float:
        return 1e6 * _ratio(sum(inclusive(n) for n in names), sum(calls(n) for n in names))

    def per_op_us(seconds: float) -> float:
        return 1e6 * _ratio(seconds, ops)

    covered = sum(
        entry[1]
        for name, entry in spans.items()
        if name.startswith("dispatch.") and name[len("dispatch."):] in LAYER_OF_PREFIX
    ) + inclusive("workload.preload") + inclusive("runner.build_report")
    coordinator = ("coord.execute_read", "coord.execute_write")
    return {
        "network.send_us": mean_us(["network.send"]),
        "dispatch.net.us_per_op": per_op_us(inclusive("dispatch.net")),
        "queue.submit_us": mean_us(["queue.submit"]),
        "dispatch.server.us_per_op": per_op_us(inclusive("dispatch.server")),
        "coord.read_us": mean_us(["coord.execute_read"]),
        "coord.write_us": mean_us(["coord.execute_write"]),
        "coord.self_us_per_op": per_op_us(sum(own(n) for n in coordinator)),
        "pipeline.us_per_op": per_op_us(sum(own(f"pipeline.{h}") for h in PIPELINE_HOOKS)),
        "storage.apply_us": mean_us(["storage.apply"]),
        "storage.get_us": mean_us(["storage.get"]),
        "workload.self_us_per_op": per_op_us(own("dispatch.workload")),
        "workload.key_draw_us": mean_us(_KEY_DRAWS),
        "workload.grow_us_per_op": per_op_us(inclusive("workload.grow")),
        "monitor.us_per_op": per_op_us(sum(inclusive(n) for n in _MONITOR_SPANS)),
        "dispatch.metrics.us_per_op": per_op_us(inclusive("dispatch.metrics")),
        "dispatch.window-tracker.us_per_op": per_op_us(inclusive("dispatch.window-tracker")),
        "controller.round_ms": 1e3 * _ratio(inclusive("dispatch.controller"), calls("dispatch.controller")),
        "trace.coverage": _ratio(covered, tracer.wall),
        "trace.overhead": _ratio(tracer.wall, untraced_wall),
    }


def dispatch_shares(tracer: Tracer) -> Dict[str, float]:
    """Share of event-dispatch time per layer, largest first."""
    by_layer: Dict[str, float] = {}
    for name, (_, inclusive, _) in tracer.totals().items():
        if name.startswith("dispatch."):
            layer = LAYER_OF_PREFIX.get(name[len("dispatch."):], "unmapped")
            by_layer[layer] = by_layer.get(layer, 0.0) + inclusive
    total = sum(by_layer.values())
    return {
        layer: seconds / total
        for layer, seconds in sorted(by_layer.items(), key=lambda item: -item[1])
    }


def median_timings(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over the traced runs of one measurement."""
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def integrity(simulation: Simulation, report: SimulationReport, tracer: Tracer) -> List[str]:
    """Wrapped functions the run must have called but recorded no call for.

    Zero calls on a function the workload's own counters say was exercised
    means a call site bypassed the instance wrapper (it bound the method
    before the tracer attached), so the layer's time would read as free.
    """
    spans = tracer.totals()

    def calls(*names: str) -> int:
        return sum(spans.get(name, (0, 0.0, 0.0))[0] for name in names)

    stats = simulation.workload.stats
    pipeline = simulation.pipeline
    required = [
        ("network.send",),
        ("queue.submit",),
        ("pipeline.on_request",),
        ("pipeline.required_acks",),
        ("pipeline.on_complete",),
        _KEY_DRAWS,
        ("monitor.metrics",),
        ("workload.preload",),
        ("runner.build_report",),
    ]
    if stats.reads_issued:
        required += [("coord.execute_read",), ("storage.get",)]
    if stats.writes_issued:
        required += [
            ("coord.execute_write",),
            ("storage.apply",),
            ("monitor.window_acked",),
            ("monitor.window_applied",),
        ]
    if pipeline.hedges_reads and stats.reads_issued:
        required.append(("pipeline.hedge_read",))
    if pipeline.orders_write_targets and stats.writes_issued:
        required.append(("pipeline.order_write_targets",))
    if pipeline.prefers_coordinator:
        required.append(("pipeline.preferred_coordinator",))
    grew = key_space_grew(simulation)
    if grew > 0:
        required.append(("workload.grow",))
    problems = [
        f"traced run recorded no call to {' / '.join(names)}"
        for names in required
        if calls(*names) == 0
    ]
    sent = simulation.cluster.network.messages_sent
    if calls("network.send") != sent:
        problems.append(
            f"traced {calls('network.send')} network sends, the network counted {sent}"
        )
    if grew > 0 and calls("workload.grow") != grew:
        problems.append(
            f"traced {calls('workload.grow')} key-space grows for {grew} inserted records"
        )
    return problems
