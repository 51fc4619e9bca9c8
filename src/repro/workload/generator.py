"""Workload specification and open-loop generator.

The generator drives the cluster with an open-loop (arrival-rate controlled)
stream of operations, the standard way to evaluate storage systems: arrivals
follow a non-homogeneous Poisson process whose intensity is given by the
spec's :class:`~repro.workload.load_shapes.LoadShape`, keys are drawn from
the spec's key distribution, and the read/update/insert decision follows the
spec's operation mix.  Results are recorded per operation so the harness can
report client-observed latency, throughput and error rates alongside the
consistency metrics.

Both arrival modes are Poisson open-loop arrivals driven by one loop; the
``WorkloadSpec.open_loop`` flag only selects where the draws come from: one
interleaved scalar stream (the default) or one chunked stream per draw type.
Tenants add a key-space picker and optional burst processes on top of
either source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.types import ConsistencyLevel, ReadResult, WriteResult
from ..middleware.base import TENANT_HINT, TENANT_TIER_HINT
from ..middleware.overrides import CONSISTENCY_HINT
from ..simulation.engine import Simulator
from ..simulation.timeseries import TimeSeries
from .distributions import KeyDistribution, make_distribution
from .load_shapes import ConstantLoad, LoadShape
from .operations import OperationMix, READ_HEAVY, RecordSizer
from .tenants import TenantPopulation, TenantSpec

__all__ = [
    "CONSISTENCY_OVERRIDE_KINDS",
    "WorkloadSpec",
    "WorkloadStats",
    "TenantOpStats",
    "WorkloadGenerator",
]

#: Operation kinds that accept a per-kind consistency override (the single
#: source of truth for WorkloadSpec validation and the CLI flag).
CONSISTENCY_OVERRIDE_KINDS = ("read", "update", "insert")


class _ChunkedDraws:
    """Chunked consumption of one single-consumer RNG stream.

    A stream with a single consumer (the chunked source's ``:gap`` /
    ``:mix`` / ``:key`` / ``:size`` streams, the tenant pick's ``:tenant``)
    can be drawn a chunk at a time: one chunked draw equals the same draws
    made sequentially (PERFORMANCE.md rule 1).  This helper refills a chunk
    when exhausted and hands values out one at a time.
    """

    __slots__ = ("_refill", "_buffer", "_position")

    def __init__(self, refill: Callable[[], np.ndarray]) -> None:
        self._refill = refill
        self._buffer: Optional[np.ndarray] = None
        self._position = 0

    def next(self):
        """The next value, refilling the chunk when exhausted."""
        buffer = self._buffer
        position = self._position
        if buffer is None or position >= buffer.shape[0]:
            buffer = self._buffer = self._refill()
            position = 0
        self._position = position + 1
        return buffer[position]


class _LatencyBuffer:
    """Append-only float buffer with amortised O(1) growth.

    Replaces the plain Python lists :class:`WorkloadStats` used to keep — a
    million-operation run re-converted an ever-growing list with
    ``np.asarray`` on every summary, which made reporting quadratic overall.
    The buffer stores samples in a numpy array that doubles when full, so
    :meth:`as_array` is a zero-copy view.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, initial_capacity: int = 1024) -> None:
        self._data = np.empty(max(1, initial_capacity), dtype=np.float64)
        self._size = 0

    def append(self, value: float) -> None:
        """Append one sample."""
        size = self._size
        data = self._data
        if size == data.shape[0]:
            grown = np.empty(size * 2, dtype=np.float64)
            grown[:size] = data
            self._data = data = grown
        data[size] = value
        self._size = size + 1

    def as_array(self) -> np.ndarray:
        """Zero-copy ``float64`` view of the samples recorded so far."""
        return self._data[: self._size]


@dataclass
class WorkloadSpec:
    """Everything needed to reproduce one workload."""

    record_count: int = 10_000
    key_distribution: str = "zipfian"
    zipf_theta: float = 0.99
    hot_fraction: float = 0.2
    hot_operation_fraction: float = 0.8
    operation_mix: OperationMix = field(default_factory=lambda: READ_HEAVY)
    load_shape: LoadShape = field(default_factory=lambda: ConstantLoad(100.0))
    mean_record_size: int = 1024
    record_size_cv: float = 0.5
    key_prefix: str = "user"
    preload: bool = True
    preload_fraction: float = 1.0
    """Fraction of the key space inserted before the run starts."""

    min_rate: float = 0.1
    """Floor on the arrival rate used when the shape returns ~0 ops/s."""

    consistency_overrides: Dict[str, ConsistencyLevel] = field(default_factory=dict)
    """Per-operation-kind consistency levels (keys: ``read``, ``update``,
    ``insert``).  Carried as request hints; they only take effect when the
    cluster's pipeline includes the ``consistency-override`` middleware —
    the override capability belongs to the request path, not the client."""

    tenants: Optional[TenantSpec] = None
    """Optional multi-tenant population.  ``None`` (the default) keeps the
    classic tenantless workload and is guaranteed bit-identical to the seed:
    the tenant path draws from *new* RNG streams
    (``workload:<name>:tenant`` and ``workload:<name>:tenant:<idx>``) that a
    tenantless run never opens (PERFORMANCE.md rule 3)."""

    open_loop: bool = False
    """Select chunked draw streams.  Arrivals are Poisson open-loop in both
    modes; the flag only changes where the draws come from.  ``False`` (the
    default) interleaves gap/mix/key/size draws on the single
    ``workload:<name>`` stream, which keeps every draw scalar (rule 1).
    ``True`` gives each draw type its own stream (``workload:<name>:gap`` /
    ``:mix`` / ``:key`` / ``:size``, and ``workload:<name>:tenant:<idx>:gap``
    etc. for a burst override) consumed in chunks.  That is a new scenario
    on new stream names (rule 3), so its results differ from the default
    mode by design.  The preload still draws sizes on the base stream, and
    key indices are pre-drawn a chunk at a time, so inserts only widen the
    key-popularity distribution for draws in *later* chunks.  The tenant pick
    is the same chunked ``:tenant`` stream in both modes."""

    def __post_init__(self) -> None:
        unknown = set(self.consistency_overrides) - set(CONSISTENCY_OVERRIDE_KINDS)
        if unknown:
            raise ValueError(
                f"unknown consistency_overrides keys {sorted(unknown)}; "
                f"expected a subset of {CONSISTENCY_OVERRIDE_KINDS}"
            )

    @property
    def records_per_key_space(self) -> int:
        """Initial records in one key space: the whole one, or one tenant's."""
        if self.tenants is not None:
            return self.tenants.records_per_tenant
        return self.record_count

    def build_distribution(self) -> KeyDistribution:
        """Instantiate the configured key distribution.

        In tenant mode the distribution spans one tenant's key space
        (``records_per_tenant``); every tenant shares the same popularity
        shape over its own prefix.
        """
        return make_distribution(
            self.key_distribution,
            self.records_per_key_space,
            zipf_theta=self.zipf_theta,
            hot_fraction=self.hot_fraction,
            hot_operation_fraction=self.hot_operation_fraction,
        )

    def describe(self) -> Dict[str, object]:
        """Flat description for experiment tables."""
        description: Dict[str, object] = {
            "record_count": self.record_count,
            "key_distribution": self.key_distribution,
            "read_fraction": self.operation_mix.read_fraction,
            "update_fraction": self.operation_mix.update_fraction,
            "insert_fraction": self.operation_mix.insert_fraction,
            "mean_record_size": self.mean_record_size,
            "open_loop": self.open_loop,
            "consistency_overrides": {
                kind: level.value for kind, level in self.consistency_overrides.items()
            },
        }
        if self.tenants is not None:
            description["tenants"] = self.tenants.describe()
        return description


class TenantOpStats:
    """Per-tenant operation accounting (multi-tenant workloads only)."""

    __slots__ = (
        "reads_issued",
        "writes_issued",
        "reads_completed",
        "writes_completed",
        "reads_rejected",
        "writes_rejected",
        "reads_failed",
        "writes_failed",
        "read_latencies",
    )

    def __init__(self) -> None:
        self.reads_issued = 0
        self.writes_issued = 0
        self.reads_completed = 0
        self.writes_completed = 0
        self.reads_rejected = 0
        self.writes_rejected = 0
        self.reads_failed = 0
        self.writes_failed = 0
        self.read_latencies = _LatencyBuffer(initial_capacity=16)

    @property
    def operations_issued(self) -> int:
        """Total operations this tenant issued."""
        return self.reads_issued + self.writes_issued

    @property
    def operations_rejected(self) -> int:
        """Total operations admission control shed for this tenant."""
        return self.reads_rejected + self.writes_rejected

    def read_percentile_ms(self, q: float) -> float:
        """Read latency percentile in milliseconds (0 when no reads)."""
        values = self.read_latencies.as_array()
        if values.shape[0] == 0:
            return 0.0
        return float(np.percentile(values, q)) * 1000.0


class WorkloadStats:
    """Per-operation accounting of what clients observed."""

    def __init__(self) -> None:
        self.reads_issued = 0
        self.writes_issued = 0
        self.reads_completed = 0
        self.writes_completed = 0
        self.reads_failed = 0
        self.writes_failed = 0
        self.reads_rejected = 0
        self.writes_rejected = 0
        self.read_latencies = _LatencyBuffer()
        self.write_latencies = _LatencyBuffer()
        self.stale_reads = 0
        self.offered_rate_series = TimeSeries("offered_rate")
        # Per-tenant breakdown; stays None (zero-cost) for tenantless runs.
        self.tenant_stats: Optional[Dict[str, TenantOpStats]] = None

    def enable_tenant_tracking(self, tenant_ids) -> Dict[str, TenantOpStats]:
        """Create one :class:`TenantOpStats` per tenant and return the map."""
        self.tenant_stats = {tenant_id: TenantOpStats() for tenant_id in tenant_ids}
        return self.tenant_stats

    def record_read(self, result: ReadResult) -> None:
        """Record one completed read."""
        if result.rejected:
            self.reads_rejected += 1
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                tenants[result.tenant].reads_rejected += 1
            return
        if result.success:
            self.reads_completed += 1
            self.read_latencies.append(result.latency)
            if result.stale:
                self.stale_reads += 1
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                entry = tenants[result.tenant]
                entry.reads_completed += 1
                entry.read_latencies.append(result.latency)
        else:
            self.reads_failed += 1
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                tenants[result.tenant].reads_failed += 1

    def record_write(self, result: WriteResult) -> None:
        """Record one completed write."""
        if result.rejected:
            self.writes_rejected += 1
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                tenants[result.tenant].writes_rejected += 1
            return
        if result.success:
            self.writes_completed += 1
            self.write_latencies.append(result.latency)
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                tenants[result.tenant].writes_completed += 1
        else:
            self.writes_failed += 1
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                tenants[result.tenant].writes_failed += 1

    @property
    def operations_issued(self) -> int:
        """Total operations issued (reads + writes)."""
        return self.reads_issued + self.writes_issued

    @property
    def operations_completed(self) -> int:
        """Total operations that completed successfully."""
        return self.reads_completed + self.writes_completed

    @property
    def operations_rejected(self) -> int:
        """Total operations shed by admission control (not failures)."""
        return self.reads_rejected + self.writes_rejected

    @property
    def failure_fraction(self) -> float:
        """Fraction of issued operations that failed (timeout/unavailable).

        Rejections are deliberately excluded: intentional load shedding must
        not read as unavailability (see :attr:`rejected_fraction`).
        """
        issued = self.operations_issued
        if issued == 0:
            return 0.0
        return (self.reads_failed + self.writes_failed) / issued

    @property
    def rejected_fraction(self) -> float:
        """Fraction of issued operations shed by admission control."""
        issued = self.operations_issued
        if issued == 0:
            return 0.0
        return (self.reads_rejected + self.writes_rejected) / issued

    def latency_percentile(self, q: float, kind: str = "read") -> float:
        """Latency percentile in seconds for ``kind`` in {"read", "write", "all"}."""
        if kind == "read":
            values = self.read_latencies.as_array()
        elif kind == "write":
            values = self.write_latencies.as_array()
        elif kind == "all":
            # One allocation for the combined view instead of copy-concatenating
            # two Python lists per call.
            values = np.concatenate(
                (self.read_latencies.as_array(), self.write_latencies.as_array())
            )
        else:
            raise ValueError(f"unknown latency kind {kind!r}")
        if values.shape[0] == 0:
            return 0.0
        return float(np.percentile(values, q))

    def summary(self) -> Dict[str, float]:
        """Headline figures for experiment tables."""
        reads = self.read_latencies.as_array()
        writes = self.write_latencies.as_array()
        # One three-quantile call per side instead of one array conversion
        # per statistic; values are identical to per-quantile calls.
        read_p50, read_p95, read_p99 = (
            np.percentile(reads, (50, 95, 99)) if reads.shape[0] else (0.0, 0.0, 0.0)
        )
        write_p50, write_p95, write_p99 = (
            np.percentile(writes, (50, 95, 99)) if writes.shape[0] else (0.0, 0.0, 0.0)
        )
        return {
            "operations_issued": float(self.operations_issued),
            "operations_completed": float(self.operations_completed),
            "failure_fraction": self.failure_fraction,
            "operations_rejected": float(self.operations_rejected),
            "rejected_fraction": self.rejected_fraction,
            "stale_reads": float(self.stale_reads),
            "read_p50_ms": float(read_p50) * 1000.0,
            "read_p95_ms": float(read_p95) * 1000.0,
            "read_p99_ms": float(read_p99) * 1000.0,
            "write_p50_ms": float(write_p50) * 1000.0,
            "write_p95_ms": float(write_p95) * 1000.0,
            "write_p99_ms": float(write_p99) * 1000.0,
        }


#: Draws pre-fetched per chunked-stream refill; large enough to amortise the
#: numpy call, small enough not to matter for memory.
_CHUNK = 4096

#: Poll interval of an arrival process whose rate is ~0 (a quiescent burst).
_IDLE_POLL = 1.0


class _ScalarSource:
    """Arrival draws interleaved on one stream, one scalar draw at a time.

    The default mode: gap, then kind, then key index, then size all come
    from one stream (``workload:<name>``, or ``workload:<name>:tenant:<idx>``
    for a burst), so no draw type can be chunked (PERFORMANCE.md rule 1).
    """

    __slots__ = ("_rng", "_mix", "_distribution", "_sizer")

    def __init__(
        self, rng, mix: OperationMix, distribution: KeyDistribution, sizer: RecordSizer
    ) -> None:
        self._rng = rng
        self._mix = mix
        self._distribution = distribution
        self._sizer = sizer

    def gap(self, rate: float) -> float:
        return float(self._rng.exponential(1.0 / rate))

    def kind(self) -> str:
        return self._mix.choose(self._rng)

    def key_index(self) -> int:
        return self._distribution.next_index(self._rng)

    def size(self) -> int:
        return self._sizer.next_size(self._rng)


class _ChunkedSource:
    """Arrival draws from one dedicated stream per draw type, in chunks.

    The ``open_loop`` mode: ``<base>:gap`` / ``:mix`` / ``:key`` / ``:size``
    each have a single consumer, so each is drawn a chunk at a time.  A unit
    exponential divided by the rate has exactly the ``Exponential(1/rate)``
    distribution the scalar source draws.
    """

    __slots__ = ("_mix", "_gaps", "_kinds", "_keys", "_sizes")

    def __init__(
        self,
        streams,
        base: str,
        mix: OperationMix,
        distribution: KeyDistribution,
        sizer: RecordSizer,
    ) -> None:
        gap_rng = streams.stream(f"{base}:gap")
        mix_rng = streams.stream(f"{base}:mix")
        key_rng = streams.stream(f"{base}:key")
        size_rng = streams.stream(f"{base}:size")
        self._mix = mix
        self._gaps = _ChunkedDraws(lambda: gap_rng.exponential(1.0, size=_CHUNK))
        self._kinds = _ChunkedDraws(lambda: mix_rng.random(_CHUNK))
        self._keys = _ChunkedDraws(lambda: distribution.next_indices(key_rng, _CHUNK))
        self._sizes = _ChunkedDraws(lambda: sizer.next_sizes(size_rng, _CHUNK))

    def gap(self, rate: float) -> float:
        return float(self._gaps.next()) / rate

    def kind(self) -> str:
        return self._mix.kind_for(float(self._kinds.next()))

    def key_index(self) -> int:
        return int(self._keys.next())

    def size(self) -> int:
        return int(self._sizes.next())


def _hints(
    base: Optional[Dict[str, object]], overrides: Dict[str, ConsistencyLevel], kind: str
) -> Optional[Dict[str, object]]:
    """Request hints for one operation kind (None when there are none)."""
    hints = dict(base or ())
    if kind in overrides:
        hints[CONSISTENCY_HINT] = overrides[kind]
    return hints or None


class _KeySpace:
    """The keys one issuer writes to: prefix, per-kind hints, insert cursor.

    The tenantless key space has no stats entry, and its inserts grow the
    shared popularity distribution.  A tenant's key space counts its
    operations in its :class:`TenantOpStats` entry, and its inserts only
    advance its private cursor: the distribution spans one tenant's
    *initial* key space for every tenant alike.
    """

    __slots__ = (
        "prefix",
        "read_hints",
        "update_hints",
        "insert_hints",
        "next_record_index",
        "stats",
    )

    def __init__(
        self,
        prefix: str,
        records: int,
        overrides: Dict[str, ConsistencyLevel],
        base_hints: Optional[Dict[str, object]] = None,
        stats: Optional[TenantOpStats] = None,
    ) -> None:
        self.prefix = prefix
        self.read_hints = _hints(base_hints, overrides, "read")
        self.update_hints = _hints(base_hints, overrides, "update")
        self.insert_hints = _hints(base_hints, overrides, "insert")
        self.next_record_index = records
        self.stats = stats


def _fixed(space: _KeySpace) -> Callable[[], _KeySpace]:
    """A key-space picker that always picks ``space``."""
    return lambda: space


class _ArrivalProcess:
    """One Poisson arrival process: rate, draw source, key-space pick, label.

    The main process follows the spec's load shape; each burst (a tenant's
    load-shape override, superposed on the main traffic) follows its own
    shape and draws from its own streams, so adding or removing one leaves
    every other stream untouched (PERFORMANCE.md rule 3).
    """

    __slots__ = ("rate", "draws", "pick", "label")

    def __init__(
        self,
        rate: Callable[[float], float],
        draws,
        pick: Callable[[], _KeySpace],
        label: str,
    ) -> None:
        self.rate = rate
        self.draws = draws
        self.pick = pick
        self.label = label


class WorkloadGenerator:
    """Open-loop Poisson workload driver for one cluster."""

    def __init__(
        self,
        simulator: Simulator,
        cluster: Cluster,
        spec: Optional[WorkloadSpec] = None,
        name: str = "workload",
    ) -> None:
        self._simulator = simulator
        self._cluster = cluster
        self.spec = spec or WorkloadSpec()
        self.name = name
        self._rng = simulator.streams.stream(f"workload:{name}")
        self._distribution = self.spec.build_distribution()
        self._sizer = RecordSizer(self.spec.mean_record_size, self.spec.record_size_cv)
        self._running = False
        self.stats = WorkloadStats()

        # All tenant stochastic choices live on *new* named streams, so a
        # tenantless run opens none of them (rule 3).
        overrides = self.spec.consistency_overrides
        records = self.spec.records_per_key_space
        tenant_spec = self.spec.tenants
        if tenant_spec is None:
            self.population: Optional[TenantPopulation] = None
            self._key_spaces = [_KeySpace(self.spec.key_prefix, records, overrides)]
            pick = _fixed(self._key_spaces[0])
        else:
            self.population = TenantPopulation(tenant_spec)
            profiles = self.population.profiles
            tenant_stats = self.stats.enable_tenant_tracking(p.tenant_id for p in profiles)
            self._key_spaces = [
                _KeySpace(
                    profile.key_prefix,
                    records,
                    overrides,
                    {TENANT_HINT: profile.tenant_id, TENANT_TIER_HINT: profile.tier.name},
                    tenant_stats[profile.tenant_id],
                )
                for profile in profiles
            ]
            pick = self._tenant_picker()

        self._processes = [
            _ArrivalProcess(
                self._arrival_rate, self._draws(f"workload:{name}"), pick, f"{name}:arrival"
            )
        ]
        if tenant_spec is not None:
            for index, shape in sorted(tenant_spec.load_shape_overrides.items()):
                self._processes.append(
                    _ArrivalProcess(
                        shape.rate,
                        self._draws(f"workload:{name}:tenant:{index}"),
                        _fixed(self._key_spaces[index]),
                        f"{name}:tenant-burst:{index}",
                    )
                )

    def _draws(self, base: str):
        """The draw source for a process whose streams are named ``base``."""
        streams = self._simulator.streams
        mix = self.spec.operation_mix
        if self.spec.open_loop:
            return _ChunkedSource(streams, base, mix, self._distribution, self._sizer)
        return _ScalarSource(streams.stream(base), mix, self._distribution, self._sizer)

    def _tenant_picker(self) -> Callable[[], _KeySpace]:
        """Pick the main process's tenant from the chunked ``:tenant`` stream.

        The pick is that stream's only consumer, so chunked draws equal the
        sequential ones (rule 1).
        """
        tenant_rng = self._simulator.streams.stream(f"workload:{self.name}:tenant")
        draws = _ChunkedDraws(lambda: tenant_rng.random(_CHUNK))
        choose_index = self.population.choose_index
        spaces = self._key_spaces
        return lambda: spaces[choose_index(float(draws.next()))]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def preload(self) -> int:
        """Insert the initial data set directly into the cluster.

        Sizes are the only draws on the base workload stream at preload
        time, so every key space's sizes are drawn in one chunk — bitwise
        equal to a per-record loop (single-consumer stream; PERFORMANCE.md).
        """
        if not self.spec.preload:
            return 0
        per_space = int(self.spec.records_per_key_space * self.spec.preload_fraction)
        drawn = self._sizer.next_sizes(self._rng, per_space * len(self._key_spaces)).tolist()
        key_for = self._distribution.key_for
        items: Dict[str, bytes] = {}
        sizes: Dict[str, int] = {}
        for number, space in enumerate(self._key_spaces):
            prefix = space.prefix
            first = number * per_space
            for index, size in enumerate(drawn[first : first + per_space]):
                key = key_for(index, prefix)
                items[key] = b"\x00" * min(size, 64)
                sizes[key] = size
        return self._cluster.preload(items, sizes)

    def start(self) -> None:
        """Begin issuing operations according to the load shape."""
        if self._running:
            return
        self._running = True
        for process in self._processes:
            self._schedule(process)
        self._simulator.call_every(
            10.0,
            self._sample_offered_rate,
            label=f"{self.name}:rate-sample",
            priority=Simulator.PRIORITY_LATE,
        )

    def stop(self) -> None:
        """Stop issuing new operations (in-flight ones still complete)."""
        self._running = False

    # ------------------------------------------------------------------
    # Arrival loop
    # ------------------------------------------------------------------
    def current_rate(self) -> float:
        """The target arrival rate right now (ops/second)."""
        return self._arrival_rate(self._simulator.now)

    def _arrival_rate(self, now: float) -> float:
        return max(self.spec.min_rate, self.spec.load_shape.rate(now))

    def _schedule(self, process: _ArrivalProcess) -> None:
        if not self._running:
            return
        rate = process.rate(self._simulator.now)
        if rate <= 1e-9:
            # A quiescent shape (e.g. a flash crowd before its spike) polls
            # without drawing anything.
            self._simulator.schedule_in(
                _IDLE_POLL, self._tick, process, False, label=process.label
            )
            return
        self._simulator.schedule_in(
            process.draws.gap(rate), self._tick, process, True, label=process.label
        )

    def _tick(self, process: _ArrivalProcess, issue: bool) -> None:
        if not self._running:
            return
        if issue:
            self._issue(process.draws, process.pick())
        self._schedule(process)

    def _issue(self, draws, space: _KeySpace) -> None:
        """Issue one operation in ``space``.

        Every source sees the same draw order: the kind, then a key index
        unless the operation is an insert, then a size for a write.
        """
        stats = self.stats
        entry = space.stats
        distribution = self._distribution
        kind = draws.kind()
        if kind == "read":
            key = distribution.key_for(draws.key_index(), space.prefix)
            stats.reads_issued += 1
            if entry is not None:
                entry.reads_issued += 1
            self._cluster.read(key, on_complete=stats.record_read, hints=space.read_hints)
            return
        if kind == "insert":
            index = space.next_record_index
            space.next_record_index = index + 1
            if entry is None:  # only the tenantless key space grows it
                distribution.grow(index + 1)
            hints = space.insert_hints
        else:
            index = draws.key_index()
            hints = space.update_hints
        key = distribution.key_for(index, space.prefix)
        size = draws.size()
        stats.writes_issued += 1
        if entry is not None:
            entry.writes_issued += 1
        self._cluster.write(
            key,
            value=b"\x00" * min(size, 64),
            size=size,
            on_complete=stats.record_write,
            hints=hints,
        )

    def _sample_offered_rate(self) -> None:
        now = self._simulator.now
        rate = self.current_rate()
        bursts = self._processes[1:]
        if bursts:
            rate += sum(burst.rate(now) for burst in bursts)
        self.stats.offered_rate_series.record(now, rate)
