"""Request coordination: quorum reads and writes with tunable consistency.

Every client operation is handled by a *coordinator* node (chosen by the
cluster's client-side load balancer).  The coordinator resolves the key's
replica set on the hash ring, fans the request out to replicas over the
network, waits for the number of acknowledgements its consistency level
requires and then answers the client.  Writes are always sent to *all* live
replicas but acknowledged after ``W`` of them respond; the remaining replicas
apply the update asynchronously — the gap between the client acknowledgement
and the last replica apply **is** the inconsistency window the paper is
about.

The request path itself is composable: every policy decision on it (replica
selection, quorum accounting, hinted handoff, read repair, staleness
observation, monitoring hooks) is delegated to a
:class:`~repro.middleware.base.MiddlewarePipeline` the coordinator executes.
The coordinator owns the *mechanics* — version stamping, fan-out, timeout and
ack bookkeeping — while the pipeline owns the *policy*; the default stack
reproduces the classic hardcoded behaviour bit-identically (see
ARCHITECTURE.md and tests/test_seed_identity.py).

The coordinator reports three kinds of events to the cluster's listeners:

* ``on_write_acked(key, stamp, ack_time, replica_set)`` — a write became
  visible to the client; the ground-truth window tracker starts a window.
* ``on_replica_applied(key, stamp, node_id, time, background)`` — a replica
  applied a version (foreground, hint replay, repair or stream).
* ``on_operation_completed(result)`` — a read or write finished (successfully
  or not) from the client's point of view; fired by the pipeline's
  ``monitoring-hooks`` stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

from ..middleware.base import (
    TENANT_HINT,
    TENANT_TIER_HINT,
    MiddlewarePipeline,
    RequestContext,
)
from ..middleware.builtin import default_coordinator_pipeline
from ..simulation.engine import Simulator
from ..simulation.events import EventHandle
from ..simulation.timers import TimerService
from ..simulation.network import NetworkModel
from .membership import MembershipService
from .node import ReplicaReadResponse, ReplicaWriteResponse, StorageNode
from .ring import HashRing
from .types import ConsistencyLevel, OperationType, ReadResult, WriteResult
from .versioning import VersionStamp, VersionedValue, compare_versions

__all__ = ["CoordinatorConfig", "RequestCoordinator", "AckedVersionRegistry"]

_CLIENT = "__client__"


@dataclass
class CoordinatorConfig:
    """Request-handling parameters."""

    operation_timeout: float = 1.0
    """Seconds before an in-flight operation fails with a timeout."""

    default_value_size: int = 1024
    """Bytes per value when the workload does not specify a size."""


class AckedVersionRegistry:
    """Tracks, per key, the newest version that has been acknowledged to a client.

    Used for two purposes: assigning ground-truth staleness annotations to
    read results (only the ground-truth tracker and experiment reports may use
    those fields), and answering "what is the newest acked version as of time
    t" which requires keeping a short history of acknowledgements per key.
    """

    def __init__(self, history: int = 16) -> None:
        self._history = history
        self._acked: Dict[str, List[tuple[float, VersionStamp]]] = {}

    def record_ack(self, key: str, stamp: VersionStamp, ack_time: float) -> None:
        """Record that ``stamp`` was acknowledged to a client at ``ack_time``."""
        entries = self._acked.setdefault(key, [])
        entries.append((ack_time, stamp))
        if len(entries) > self._history:
            del entries[0 : len(entries) - self._history]

    def newest_acked_before(self, key: str, time: float) -> Optional[VersionStamp]:
        """Newest stamp acknowledged at or before ``time`` (or ``None``)."""
        entries = self._acked.get(key)
        if not entries:
            return None
        newest: Optional[VersionStamp] = None
        for ack_time, stamp in entries:
            if ack_time <= time and (newest is None or stamp > newest):
                newest = stamp
        return newest

    def newest_acked(self, key: str) -> Optional[VersionStamp]:
        """Newest stamp acknowledged so far for ``key`` (or ``None``)."""
        entries = self._acked.get(key)
        if not entries:
            return None
        return max(stamp for _, stamp in entries)

    def tracked_keys(self) -> int:
        """Number of keys with at least one acknowledged write."""
        return len(self._acked)


@dataclass(slots=True)
class _Operation:
    """In-flight state of one coordinated read or write (slotted: one per request).

    ``completed`` is the exactly-once latch: whichever of the quorum, a
    failure, a timeout or an admission rejection comes first sets it, and
    every later transition finds it set and stops.
    """

    result: Union[ReadResult, WriteResult]
    request: RequestContext
    on_complete: Optional[Callable[[Union[ReadResult, WriteResult]], None]]
    required: int = 1
    acks: int = 0
    responses: List[ReplicaReadResponse] = field(default_factory=list)
    completed: bool = False
    timeout_handle: Optional[EventHandle] = None
    hedge_handle: Optional[EventHandle] = None


class RequestCoordinator:
    """Executes reads and writes on behalf of clients through the pipeline."""

    def __init__(
        self,
        simulator: Simulator,
        network: NetworkModel,
        ring: HashRing,
        nodes: Dict[str, StorageNode],
        membership: MembershipService,
        config: Optional[CoordinatorConfig] = None,
        pipeline: Optional[MiddlewarePipeline] = None,
    ) -> None:
        self._simulator = simulator
        self._network = network
        self._ring = ring
        self._nodes = nodes
        self._membership = membership
        self._config = config or CoordinatorConfig()
        # Plain integer counters: bumping an attribute is cheaper than the
        # generator-protocol round-trip of ``next(itertools.count())`` on a
        # path taken once per write.
        self._sequence = 0
        self._write_ids = 0
        self.acked_registry = AckedVersionRegistry()

        # Listener hooks, bound by the Cluster facade.
        self.on_write_acked: Optional[
            Callable[[str, VersionStamp, float, Sequence[str]], None]
        ] = None
        self.on_replica_applied: Optional[
            Callable[[str, VersionStamp, str, float, bool], None]
        ] = None
        self.on_operation_completed: Optional[Callable[[object], None]] = None

        # The request pipeline.  A standalone coordinator (tests, tools) gets
        # the default selection/consistency/staleness/monitoring stack; the
        # Cluster facade replaces it with the registry-built one before any
        # request flows.
        self._timers: Optional[TimerService] = None
        self._arm_timer = simulator.schedule_in
        self._install_pipeline(pipeline or default_coordinator_pipeline(self))

        # Counters used by reports and tests.
        self.writes_started = 0
        self.reads_started = 0
        self.writes_failed = 0
        self.reads_failed = 0
        self.writes_rejected = 0
        self.reads_rejected = 0
        self.unavailable_errors = 0
        self.timeouts = 0
        self.hinted_writes = 0
        self.hedged_reads = 0

    @property
    def config(self) -> CoordinatorConfig:
        """Coordinator configuration in effect."""
        return self._config

    @property
    def simulator(self) -> Simulator:
        """The simulation kernel this coordinator schedules on."""
        return self._simulator

    @property
    def pipeline(self) -> MiddlewarePipeline:
        """The request pipeline in effect."""
        return self._pipeline

    def set_pipeline(self, pipeline: MiddlewarePipeline) -> None:
        """Install a request pipeline (done once by the cluster facade)."""
        self._install_pipeline(pipeline)

    def _install_pipeline(self, pipeline: MiddlewarePipeline) -> None:
        # Timer arms (`write:timeout`, `read:timeout`, `read:hedge`) go
        # through ``self._arm_timer``.  When a stage opts in to amortised
        # timers (PERFORMANCE.md rule 11) that is a TimerService wheel;
        # otherwise it is literally the simulator's ``schedule_in`` bound
        # method — the default stack pays nothing and its event sequence is
        # bit-identical by construction.
        self._pipeline = pipeline
        granularity = getattr(pipeline, "timer_granularity", None)
        if granularity is not None:
            self._timers = TimerService(self._simulator, granularity=granularity)
            self._arm_timer = self._timers.arm
        else:
            self._timers = None
            self._arm_timer = self._simulator.schedule_in

    @property
    def timers(self) -> Optional[TimerService]:
        """The amortised timer wheel, when the pipeline opted in (else ``None``)."""
        return self._timers

    def timer_stats(self) -> Dict[str, object]:
        """Wheel counters for reports/bench; empty dict on the direct path."""
        return self._timers.stats() if self._timers is not None else {}

    def next_sequence(self) -> int:
        """Allocate the next version-stamp sequence number."""
        self._sequence += 1
        return self._sequence

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _reachable(self, coordinator_id: str, node_id: str) -> bool:
        """Whether ``node_id`` serves requests and the coordinator sees it alive."""
        node = self._nodes.get(node_id)
        if node is None or not node.serves_requests:
            return False
        view = self._membership.view_of(coordinator_id)
        if view is None:
            return self._membership.is_alive(node_id)
        return view.is_alive(node_id, self._simulator.now)

    def _notify_applied(
        self, key: str, stamp: VersionStamp, node_id: str, time: float, background: bool
    ) -> None:
        if self.on_replica_applied is not None:
            self.on_replica_applied(key, stamp, node_id, time, background)

    def notify_completed(self, result: object) -> None:
        """Forward a completed operation to the cluster's listeners.

        Called by the pipeline's ``monitoring-hooks`` stage; pipelines that
        drop that stage silence the passive-monitoring feed.
        """
        if self.on_operation_completed is not None:
            self.on_operation_completed(result)

    # ------------------------------------------------------------------
    # Operation lifecycle: admit -> fan-out -> answer | fail
    #
    # Every hop is ``network.send(src, dst, callback, *args)`` with a bound
    # method and the ``_Operation`` as arguments, so no hop allocates a
    # closure.  ``network.send`` and the pipeline hooks are looked up on
    # each call (tracers wrap them on the live instances).
    # ------------------------------------------------------------------
    def _admit(
        self,
        result_type: Type[Union[ReadResult, WriteResult]],
        key: str,
        operation: OperationType,
        coordinator_id: str,
        replication_factor: int,
        consistency_level: ConsistencyLevel,
        on_complete: Optional[Callable[[Union[ReadResult, WriteResult]], None]],
        hints: Optional[Mapping[str, object]],
    ) -> Optional[_Operation]:
        """Build the request and its result; ``None`` when admission sheds it.

        A shed request is rejected synchronously — no timeout is armed and no
        replica was contacted — so it is counted as ``rejected``, not failed,
        and only the completion hooks run.
        """
        issued_at = self._simulator.now
        is_read = result_type is ReadResult
        request = RequestContext(
            key=key,
            operation=operation,
            is_read=is_read,
            coordinator_id=coordinator_id,
            replication_factor=replication_factor,
            requested_level=consistency_level,
            consistency_level=consistency_level,
            hints=hints,
        )
        if hints is not None:
            tenant = hints.get(TENANT_HINT)
            if tenant is not None:
                request.tenant = tenant
                request.tenant_tier = hints.get(TENANT_TIER_HINT)
        self._pipeline.on_request(request)
        result = result_type(
            key=key,
            operation=operation,
            issued_at=issued_at,
            completed_at=issued_at,
            success=False,
            coordinator=coordinator_id,
            consistency_level=request.consistency_level,
        )
        if request.tenant is not None:
            result.tenant = request.tenant
        request.result = result
        op = _Operation(result, request, on_complete)
        if request.rejection is None:
            return op
        op.completed = True
        result.rejected = True
        result.error = request.rejection
        if is_read:
            self.reads_rejected += 1
        else:
            self.writes_rejected += 1
        self._finish(op)
        return None

    def _close(self, op: _Operation) -> None:
        """Set the latch and cancel the operation's pending timers."""
        op.completed = True
        if op.timeout_handle is not None:
            op.timeout_handle.cancel()
        if op.hedge_handle is not None:
            op.hedge_handle.cancel()
            op.hedge_handle = None

    def _answer(self, op: _Operation) -> None:
        """Reply to the client; a dropped reply still completes in place."""
        if not self._network.send(
            op.request.coordinator_id, _CLIENT, self._succeed, op, client_facing=True
        ):
            self._succeed(op)

    def _succeed(self, op: _Operation) -> None:
        op.result.completed_at = self._simulator.now
        op.result.success = True
        self._finish(op)

    def _fail(self, op: _Operation, error: str) -> None:
        if op.completed:
            return
        self._close(op)
        result = op.result
        result.completed_at = self._simulator.now
        result.success = False
        result.error = error
        if op.request.is_read:
            self.reads_failed += 1
        else:
            self.writes_failed += 1
        self._finish(op)

    def _timeout(self, op: _Operation) -> None:
        if op.completed:
            return
        self.timeouts += 1
        self._fail(op, "timeout")

    def _finish(self, op: _Operation) -> None:
        self._pipeline.on_complete(op.request, op.result)
        if op.on_complete is not None:
            op.on_complete(op.result)

    def _replicas(self, op: _Operation) -> Optional[Tuple[List[str], List[str]]]:
        """The key's preference list and the replicas the coordinator can reach.

        Sets ``op.required`` from the pipeline.  Returns ``None`` after
        failing the operation when the key has no replicas or fewer than
        ``required`` are reachable.
        """
        request = op.request
        preference_list = self._ring.preference_list(request.key, request.replication_factor)
        if not preference_list:
            self._fail(op, "no replicas available")
            return None
        op.required = self._pipeline.required_acks(request, len(preference_list))
        if not request.is_read:
            # A write owes its value to every replica, reachable or not.
            op.result.replicas_contacted = len(preference_list)
        coordinator_id = request.coordinator_id
        live = [
            node_id
            for node_id in preference_list
            if self._reachable(coordinator_id, node_id)
        ]
        if len(live) < op.required:
            self.unavailable_errors += 1
            self._fail(op, "unavailable: not enough live replicas")
            return None
        return preference_list, live

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def execute_write(
        self,
        key: str,
        value: bytes,
        coordinator_id: str,
        replication_factor: int,
        consistency_level: ConsistencyLevel,
        on_complete: Callable[[WriteResult], None],
        operation: OperationType = OperationType.WRITE,
        size: Optional[int] = None,
        hints: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Coordinate one write; ``on_complete`` receives the client-visible result."""
        self.writes_started += 1
        op = self._admit(
            WriteResult,
            key,
            operation,
            coordinator_id,
            replication_factor,
            consistency_level,
            on_complete,
            hints,
        )
        if op is not None and not self._network.send(
            _CLIENT, coordinator_id, self._start_write, op, value, size, client_facing=True
        ):
            self._fail(op, "coordinator unreachable")

    def _start_write(self, op: _Operation, value: bytes, size: Optional[int]) -> None:
        request = op.request
        coordinator_id = request.coordinator_id
        coordinator = self._nodes.get(coordinator_id)
        if coordinator is None or not coordinator.serves_requests:
            self._fail(op, "coordinator down")
            return

        # The stamp is allocated before the replicas are resolved, so a write
        # that fails for want of replicas still consumes its sequence number.
        self._write_ids += 1
        stamp = VersionStamp(timestamp=self._simulator.now, sequence=self.next_sequence())
        version = VersionedValue(
            stamp=stamp,
            value=value,
            write_id=self._write_ids,
            size=size if size is not None else self._config.default_value_size,
        )
        op.result.version_timestamp = stamp.timestamp

        replicas = self._replicas(op)
        if replicas is None:
            return
        preference_list, live = replicas
        for node_id in preference_list:
            if node_id not in live:
                self._hint(op, node_id, version)

        # Fan-out order is a pipeline decision (RTT-aware when that
        # middleware is installed): the first ``required`` acks raced for are
        # the ones from the replicas contacted first.  Same replicas either
        # way — only the send order moves.
        if self._pipeline.orders_write_targets and len(live) > 1:
            ordered = self._pipeline.order_write_targets(request, live)
            if ordered is not None:
                live = ordered

        key = request.key
        for node_id in live:
            if not self._network.send(
                coordinator_id,
                node_id,
                self._nodes[node_id].replica_write,
                key,
                version,
                self._replica_write_done,
                op,
                version,
            ):
                self._hint(op, node_id, version)

        op.timeout_handle = self._arm_timer(
            self._config.operation_timeout, self._timeout, op, label="write:timeout"
        )

    def _hint(self, op: _Operation, node_id: str, version: VersionedValue) -> None:
        """Hand a replica the write cannot reach (or whose send dropped) to the pipeline."""
        if self._pipeline.on_unreachable_replica(op.request, node_id, version):
            op.result.hinted += 1
            self.hinted_writes += 1

    def _replica_write_done(
        self, op: _Operation, version: VersionedValue, response: ReplicaWriteResponse
    ) -> None:
        self._notify_applied(
            op.request.key, version.stamp, response.node_id, response.applied_at, False
        )
        self._network.send(
            response.node_id, op.request.coordinator_id, self._write_acked, op, version
        )

    def _write_acked(self, op: _Operation, version: VersionedValue) -> None:
        if op.completed:
            return
        op.acks += 1
        result = op.result
        result.replicas_responded = op.acks
        if op.acks < op.required:
            return

        self._close(op)
        key = op.request.key
        ack_time = self._simulator.now
        self.acked_registry.record_ack(key, version.stamp, ack_time)
        replica_set = self._ring.preference_list(key, result.replicas_contacted)
        if self.on_write_acked is not None:
            self.on_write_acked(key, version.stamp, ack_time, replica_set)
        self._answer(op)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def execute_read(
        self,
        key: str,
        coordinator_id: str,
        replication_factor: int,
        consistency_level: ConsistencyLevel,
        on_complete: Callable[[ReadResult], None],
        operation: OperationType = OperationType.READ,
        hints: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Coordinate one read; ``on_complete`` receives the client-visible result."""
        self.reads_started += 1
        op = self._admit(
            ReadResult,
            key,
            operation,
            coordinator_id,
            replication_factor,
            consistency_level,
            on_complete,
            hints,
        )
        if op is not None and not self._network.send(
            _CLIENT, coordinator_id, self._start_read, op, client_facing=True
        ):
            self._fail(op, "coordinator unreachable")

    def _start_read(self, op: _Operation) -> None:
        request = op.request
        coordinator = self._nodes.get(request.coordinator_id)
        if coordinator is None or not coordinator.serves_requests:
            self._fail(op, "coordinator down")
            return
        replicas = self._replicas(op)
        if replicas is None:
            return
        live = replicas[1]

        # Replica selection is a pipeline decision (load-balanced random by
        # default, latency-aware when that middleware is installed); the
        # deterministic prefix is the fallback when no stage has an opinion.
        required = op.required
        targets = self._pipeline.select_read_targets(request, live, required)
        if targets is None:
            targets = live[:required]
        op.result.replicas_contacted = len(targets)

        observe_rtt = self._pipeline.observes_replica_rtt
        if observe_rtt:
            request.send_times = {}
        for node_id in targets:
            if observe_rtt:
                request.send_times[node_id] = self._simulator.now
            self._send_read(op, node_id)

        op.timeout_handle = self._arm_timer(
            self._config.operation_timeout, self._timeout, op, label="read:timeout"
        )

        # Speculative (hedged) read: when a hedging stage is installed and
        # spare live replicas exist, arm a timer at the pipeline's latency
        # budget.  If the read completes first the timer is cancelled; if it
        # fires, one backup read goes to the best uncontacted replica.
        if self._pipeline.hedges_reads and len(live) > len(targets):
            plan = self._pipeline.hedge_read(request, live, targets)
            if plan is not None:
                budget, candidates = plan
                request.hedge_armed = True
                op.hedge_handle = self._arm_timer(
                    budget, self._fire_hedge, op, candidates, label="read:hedge"
                )

    def _fire_hedge(self, op: _Operation, candidates: Sequence[str]) -> None:
        if op.completed:
            return
        op.hedge_handle = None
        request = op.request
        for backup in candidates:
            if self._reachable(request.coordinator_id, backup):
                break
        else:
            return
        request.hedge_node = backup
        self.hedged_reads += 1
        op.result.replicas_contacted += 1
        if request.send_times is not None:
            request.send_times[backup] = self._simulator.now
        self._send_read(op, backup)

    def _send_read(self, op: _Operation, node_id: str) -> None:
        request = op.request
        self._network.send(
            request.coordinator_id,
            node_id,
            self._nodes[node_id].replica_read,
            request.key,
            self._replica_read_done,
            op,
        )

    def _replica_read_done(self, op: _Operation, response: ReplicaReadResponse) -> None:
        self._network.send(
            response.node_id, op.request.coordinator_id, self._read_response, op, response
        )

    def _read_response(self, op: _Operation, response: ReplicaReadResponse) -> None:
        request = op.request
        send_times = request.send_times
        if send_times is not None:
            sent_at = send_times.get(response.node_id)
            if sent_at is not None:
                self._pipeline.on_replica_response(
                    request, response.node_id, self._simulator.now - sent_at
                )
        if op.completed:
            return
        responses = op.responses
        if request.hedge_armed:
            # A hedged read may race two responses from the same replica (the
            # primary send and a later speculative one); count each replica's
            # acknowledgement once so the quorum is never satisfied twice
            # over by one node.
            if any(r.node_id == response.node_id for r in responses):
                return
        responses.append(response)
        result = op.result
        result.replicas_responded = len(responses)
        if len(responses) < op.required:
            return

        self._close(op)
        if request.hedge_armed:
            request.completed_by = response.node_id

        newest: Optional[VersionedValue] = None
        for replica_response in responses:
            if compare_versions(replica_response.version, newest) > 0:
                newest = replica_response.version

        mismatch = self._pipeline.inspect_read_responses(request, responses)
        if mismatch is not None:
            result.digest_mismatch = mismatch

        if newest is not None:
            result.value = newest.value
            result.version_timestamp = newest.stamp.timestamp

        # Ground-truth staleness annotation and any custom result decoration
        # run as the pipeline's annotation stage.
        self._pipeline.annotate_read(request, newest)
        self._answer(op)

    # ------------------------------------------------------------------
    # Background writes (hints, repairs, anti-entropy, streaming)
    # ------------------------------------------------------------------
    def background_write(
        self, target_node: str, key: str, version: VersionedValue, source: str
    ) -> bool:
        """Send one background (repair/hint) write to a replica.

        Returns ``True`` when the message was dispatched.  The apply is
        reported to ``on_replica_applied`` with ``background=True`` so the
        ground-truth tracker closes windows that only repairs can close.
        """
        node = self._nodes.get(target_node)
        if node is None or not node.is_up:
            return False
        return self._network.send(
            source, target_node, self._deliver_background, node, key, version
        )

    def _deliver_background(
        self, node: StorageNode, key: str, version: VersionedValue
    ) -> None:
        node.replica_write(
            key, version, self._background_applied, key, version, background=True
        )

    def _background_applied(
        self, key: str, version: VersionedValue, response: ReplicaWriteResponse
    ) -> None:
        self._notify_applied(key, version.stamp, response.node_id, response.applied_at, True)
