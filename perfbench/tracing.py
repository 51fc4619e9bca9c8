"""Per-layer tracing of one simulation run, from outside the program.

Nothing here changes the simulator.  A :class:`Tracer` attaches to a
constructed :class:`~repro.runner.Simulation` in two ways:

* a :meth:`Simulator.add_trace_hook` hook opens a ``dispatch.<prefix>`` span
  at every fired event (``<prefix>`` is the event label up to its first
  ``:``) and closes it when the next event fires, so each event's callback
  time is bucketed by the component that scheduled it;
* the public methods each layer exposes are replaced *on the live
  instances* by wrappers that open a span per call, nested under whatever
  span is open.

Spans are ``(name, start, end, parent)`` rows kept in flat arrays in memory
and written out once at the end.  A span's self time is its duration minus
the durations of its direct children.

Instance wrapping only sees calls that look the method up on the instance.
A call site that bound the method earlier (``send = network.send``) would
bypass the wrapper, so :func:`integrity` fails a traced run in which a
wrapped function the workload must call recorded no call at all.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import ClusterListener
from repro.runner import Simulation

__all__ = ["Tracer", "PIPELINE_HOOKS", "LAYER_OF_PREFIX", "REBALANCE_PREFIXES"]

#: ``MiddlewarePipeline`` hook methods (the request pipeline's public surface).
PIPELINE_HOOKS: Tuple[str, ...] = (
    "on_request",
    "required_acks",
    "select_read_targets",
    "on_unreachable_replica",
    "on_replica_response",
    "hedge_read",
    "order_write_targets",
    "preferred_coordinator",
    "on_node_removed",
    "inspect_read_responses",
    "annotate_read",
    "on_complete",
)

#: Event-label prefix -> the layer (module) whose component scheduled it.
LAYER_OF_PREFIX: Dict[str, str] = {
    "net": "simulation.network",
    "server": "simulation.resources",
    "timer": "simulation.timers",
    "interference": "simulation.interference",
    "workload": "workload",
    "read": "cluster.coordinator",
    "write": "cluster.coordinator",
    "hinted-handoff": "cluster.hinted_handoff",
    "anti-entropy": "cluster.anti_entropy",
    "gossip": "cluster.membership",
    "join": "cluster.rebalance",
    "catchup": "cluster.rebalance",
    "leave": "cluster.rebalance",
    "rf-fill": "cluster.rebalance",
    "stream": "cluster.rebalance",
    "fault": "cluster.faults",
    "metrics": "monitoring",
    "probe": "monitoring",
    "piggyback": "monitoring",
    "rtt": "monitoring",
    "buffered-collector": "monitoring",
    "window-tracker": "consistency",
    "controller": "core",
}

#: Label prefixes of the events that move data between nodes on a topology
#: change (joins, decommissions, replication-factor fills, catch-up streams).
REBALANCE_PREFIXES = ("join", "catchup", "leave", "rf-fill", "stream")


class _NodeWatcher(ClusterListener):
    """Wraps the server and storage of every node that joins mid-run."""

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def on_topology_changed(self, change: Dict[str, object]) -> None:
        if change.get("event") == "node_joining":
            node = self._tracer.simulation.cluster.nodes.get(str(change.get("node")))
            if node is not None:
                self._tracer.wrap_node(node)


class Tracer:
    """Records layer spans for one run of ``simulation`` (attach before run)."""

    def __init__(self, simulation: Simulation) -> None:
        self.simulation = simulation
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._label_ids: Dict[Optional[str], int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self._dispatch = -1
        self._active = True
        self.cutoff = 0
        self.wall = 0.0
        #: (server, simulated time it was first traced) for utilisation.
        self.servers: List[Tuple[object, float]] = []

        cluster = simulation.cluster
        self.wrap(cluster.network, "send", "network.send")
        self.wrap(cluster.coordinator, "execute_read", "coord.execute_read")
        self.wrap(cluster.coordinator, "execute_write", "coord.execute_write")
        for hook in PIPELINE_HOOKS:
            self.wrap(cluster.pipeline, hook, f"pipeline.{hook}")
        for node in cluster.nodes.values():
            self.wrap_node(node)
        cluster.add_listener(_NodeWatcher(self))
        distribution = simulation.workload._distribution
        self.wrap(distribution, "next_index", "workload.next_index")
        self.wrap(distribution, "next_indices", "workload.next_indices")
        self.wrap(distribution, "grow", "workload.grow")
        self.wrap(simulation.workload, "preload", "workload.preload")
        self.wrap(simulation.metrics, "on_operation_completed", "monitor.metrics")
        tracker = simulation.window_tracker
        self.wrap(tracker, "on_write_acked", "monitor.window_acked")
        self.wrap(tracker, "on_replica_applied", "monitor.window_applied")
        self.wrap(simulation, "build_report", "runner.build_report")
        self._wrap_run_until(simulation.simulator)
        simulation.simulator.add_trace_hook(self._hook)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _open(self, name_id: int, parent: int, now: float) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(parent)
        self.start.append(now)
        self.end.append(now)
        return index

    def wrap(self, obj: object, attribute: str, span: str) -> None:
        """Replace ``obj.attribute`` by a wrapper recording one span per call."""
        original = getattr(obj, attribute)
        name_id = self._id(span)
        stack = self._stack
        open_span = self._open
        end = self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = open_span(name_id, stack[-1], clock())
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        try:
            setattr(obj, attribute, traced)
        except AttributeError:
            # A slotted instance has no attribute dict: give this one object
            # a subclass of its own that carries the wrapper.
            cls = type(obj)
            if "_perfbench_traced" not in cls.__dict__:
                cls = type(cls.__name__, (cls,), {"__slots__": (), "_perfbench_traced": True})
                obj.__class__ = cls
            setattr(cls, attribute, staticmethod(traced))

    def wrap_node(self, node) -> None:
        """Wrap one storage node's queueing server and storage engine."""
        self.servers.append((node.server, self.simulation.simulator.now))
        self.wrap(node.server, "submit", "queue.submit")
        self.wrap(node.storage, "apply", "storage.apply")
        self.wrap(node.storage, "get", "storage.get")

    def _wrap_run_until(self, simulator) -> None:
        original = simulator.run_until
        name_id = self._id("kernel.run_until")
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = self._open(name_id, stack[-1], clock())
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                now = clock()
                if self._dispatch >= 0:
                    self.end[self._dispatch] = now
                    stack.pop()
                    self._dispatch = -1
                self.end[index] = now
                stack.pop()

        simulator.run_until = traced

    def _label_id(self, label: Optional[str]) -> int:
        prefix = "unlabelled" if label is None else label.split(":", 1)[0]
        name_id = self._label_ids[label] = self._id(f"dispatch.{prefix}")
        return name_id

    def _hook(self, sim_time: float, label: Optional[str]) -> None:
        if not self._active:
            return
        now = time.perf_counter()
        stack = self._stack
        if self._dispatch >= 0:
            self.end[self._dispatch] = now
            stack.pop()
        name_id = self._label_ids.get(label)
        if name_id is None:
            name_id = self._label_id(label)
        self._dispatch = self._open(name_id, stack[-1], now)
        stack.append(self._dispatch)

    def stop(self, wall: float) -> None:
        """End the traced window: later spans (a drain, say) are not counted."""
        self._active = False
        self.cutoff = len(self.name)
        self.wall = wall

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = self.cutoff
        names = np.frombuffer(self.name, dtype=np.int32)[:n]
        parents = np.frombuffer(self.parent, dtype=np.int32)[:n]
        duration = (
            np.frombuffer(self.end, dtype=np.float64)[:n]
            - np.frombuffer(self.start, dtype=np.float64)[:n]
        )
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested], minlength=n)
        own = duration - children[:n]
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        inclusive = np.bincount(names, weights=duration, minlength=width)
        exclusive = np.bincount(names, weights=own, minlength=width)
        return {
            name: (int(calls[i]), float(inclusive[i]), float(exclusive[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans (times relative to the first span)."""
        n = self.cutoff
        start = np.frombuffer(self.start, dtype=np.float64)[:n]
        origin = float(start.min()) if n else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32)[:n],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
            start=start - origin,
            end=np.frombuffer(self.end, dtype=np.float64)[:n] - origin,
        )
