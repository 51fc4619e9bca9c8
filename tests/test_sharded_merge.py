"""Sharded parallel mode: planning, merge determinism, shard sketches, and
the vectorized open-loop arrival path."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.runner import Simulation, SimulationConfig
from repro.simulation.sharding import (
    ShardResult,
    merge_shard_results,
    plan_shards,
    run_shard,
    run_sharded,
)
from repro.workload.generator import WorkloadSpec
from repro.workload.load_shapes import ConstantLoad, DiurnalLoad, ScaledLoad
from repro.workload.tenants import TenantSpec


def short_config(**overrides) -> SimulationConfig:
    defaults = dict(
        seed=13,
        duration=90.0,
        label="sharded-test",
        workload=WorkloadSpec(record_count=1_500, load_shape=ConstantLoad(80.0)),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ----------------------------------------------------------------------
# plan_shards
# ----------------------------------------------------------------------
def test_plan_shards_partitions_records_exactly():
    config = short_config(workload=WorkloadSpec(record_count=1_000))
    for shards in (1, 2, 3, 4, 7):
        plans = plan_shards(config, shards)
        assert len(plans) == shards
        assert sum(plan.workload.record_count for plan in plans) == 1_000
        # Slices differ by at most one record.
        counts = [plan.workload.record_count for plan in plans]
        assert max(counts) - min(counts) <= 1


def test_plan_shards_key_spaces_and_namespaces_are_disjoint():
    plans = plan_shards(short_config(), 4)
    prefixes = {plan.workload.key_prefix for plan in plans}
    namespaces = {plan.stream_namespace for plan in plans}
    labels = {plan.label for plan in plans}
    assert len(prefixes) == len(namespaces) == len(labels) == 4
    assert all(namespace.startswith("shard") for namespace in namespaces)


def test_plan_shards_scales_arrival_share():
    config = short_config(
        workload=WorkloadSpec(record_count=1_000, load_shape=DiurnalLoad(40.0, 120.0))
    )
    plans = plan_shards(config, 4)
    base_rate = config.workload.load_shape.rate(300.0)
    shard_rates = [plan.workload.load_shape.rate(300.0) for plan in plans]
    # The temporal profile is preserved and shares sum to the original rate.
    assert sum(shard_rates) == pytest.approx(base_rate)
    assert all(isinstance(plan.workload.load_shape, ScaledLoad) for plan in plans)


def test_plan_shards_forces_buffered_monitoring_and_keeps_seed():
    config = short_config()
    plans = plan_shards(config, 2)
    assert all(plan.seed == config.seed for plan in plans)
    # Planning never mutates the caller's config.
    assert config.stream_namespace == ""
    assert config.label == "sharded-test"


def test_plan_shards_keeps_replica_group_viable():
    config = short_config()
    plans = plan_shards(config, 8)  # more shards than initial nodes
    for plan in plans:
        assert plan.cluster.initial_nodes >= plan.cluster.replication_factor


def test_plan_shards_splits_tenants_with_disjoint_prefixes():
    config = short_config(
        workload=WorkloadSpec(tenants=TenantSpec(tenants=10, records_per_tenant=20))
    )
    plans = plan_shards(config, 3)
    assert [plan.workload.tenants.tenants for plan in plans] == [4, 3, 3]
    prefixes = {plan.workload.tenants.key_prefix for plan in plans}
    assert len(prefixes) == 3


def test_plan_shards_rejects_tenant_load_overrides():
    config = short_config(
        workload=WorkloadSpec(
            tenants=TenantSpec(
                tenants=10,
                records_per_tenant=20,
                load_shape_overrides={0: ConstantLoad(5.0)},
            )
        )
    )
    with pytest.raises(ValueError, match="load_shape_overrides"):
        plan_shards(config, 2)


def test_plan_shards_rejects_bad_counts():
    with pytest.raises(ValueError):
        plan_shards(short_config(), 0)
    with pytest.raises(ValueError):
        plan_shards(short_config(workload=WorkloadSpec(record_count=2)), 3)


# ----------------------------------------------------------------------
# Merge determinism (the property CI asserts)
# ----------------------------------------------------------------------
def test_merged_report_is_invariant_to_shard_execution_order():
    config = short_config()
    forward = run_sharded(config, 3, parallel=False, shard_order=[0, 1, 2])
    shuffled = run_sharded(config, 3, parallel=False, shard_order=[2, 0, 1])
    assert json.dumps(forward.merged, sort_keys=True) == json.dumps(
        shuffled.merged, sort_keys=True
    )
    # Per-shard reports come back in index order either way.
    assert [r["label"] for r in forward.per_shard] == [
        r["label"] for r in shuffled.per_shard
    ]


def test_merged_counters_match_shard_sums():
    config = short_config()
    report = run_sharded(config, 2, parallel=False)
    merged = report.merged
    per_shard = report.per_shard
    issued = sum(r["workload"]["operations_issued"] for r in per_shard)
    events = sum(r["events_processed"] for r in per_shard)
    assert merged["workload"]["operations_issued"] == issued
    assert merged["events_processed"] == events
    assert issued > 0


def test_merge_rejects_duplicate_and_mixed_shard_counts():
    config = short_config()
    plans = plan_shards(config, 2)
    results = [run_shard(plan, index, 2) for index, plan in enumerate(plans)]
    with pytest.raises(ValueError, match="indices"):
        merge_shard_results([results[0], results[0]])
    mixed = dataclasses.replace(results[1], shards=3)
    with pytest.raises(ValueError, match="shard counts"):
        merge_shard_results([results[0], mixed])
    with pytest.raises(ValueError):
        merge_shard_results([])


def test_shard_results_are_picklable():
    import pickle

    config = short_config(duration=45.0)
    plan = plan_shards(config, 2)[0]
    result = run_shard(plan, 0, 2)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.index == 0
    assert clone.events_processed == result.events_processed
    assert clone.read_sketch.count == result.read_sketch.count


@pytest.mark.slow
def test_parallel_run_matches_serial_run():
    config = short_config()
    serial = run_sharded(config, 2, parallel=False)
    parallel = run_sharded(config, 2, parallel=True)
    assert json.dumps(serial.merged, sort_keys=True) == json.dumps(
        parallel.merged, sort_keys=True
    )
    assert parallel.timing["wall_seconds"] > 0.0


# ----------------------------------------------------------------------
# Shard sketches
# ----------------------------------------------------------------------
#: Full-report digests (``report_digest`` in test_seed_identity.py) of the two
#: shards of ``short_config()``: each equals a classic ``Simulation`` of the
#: shard's plan, and each was the same under two ``PYTHONHASHSEED`` values
#: when captured.
SHARD_REPORT_DIGESTS = [
    "b7cffb82f4b68a06b90f64b065e6d6299e5f8bb7671929e50121a7b1c82d62ee",
    "cf7db8065609ce3fd272d87e60d2859bfa963b8ef3bca73fb9e2e189dd80d9d1",
]

#: Merged ``workload`` section of the same 2-shard run.
MERGED_WORKLOAD_PIN = {
    "failure_fraction": 0.0,
    "operations_completed": 7243.0,
    "operations_issued": 7243.0,
    "operations_rejected": 0.0,
    "read_p50_ms": 6.163747045654162,
    "read_p95_ms": 8.144103293668625,
    "read_p99_ms": 9.361436726015672,
    "reads_completed": 6872.0,
    "reads_failed": 0.0,
    "reads_issued": 6872.0,
    "reads_rejected": 0.0,
    "rejected_fraction": 0.0,
    "stale_reads": 0.0,
    "write_p50_ms": 5.923239759237678,
    "write_p95_ms": 7.826323188653315,
    "write_p99_ms": 9.176979439286022,
    "writes_completed": 371.0,
    "writes_failed": 0.0,
    "writes_issued": 371.0,
    "writes_rejected": 0.0,
}


@pytest.fixture(scope="module")
def two_shards():
    plans = plan_shards(short_config(), 2)
    return [run_shard(plan, index, 2) for index, plan in enumerate(plans)]


def test_shard_reports_and_merged_figures_match_pins(two_shards):
    digests = [
        hashlib.sha256(json.dumps(result.report, sort_keys=True, default=repr).encode()).hexdigest()
        for result in two_shards
    ]
    assert digests == SHARD_REPORT_DIGESTS
    merged = merge_shard_results(two_shards)
    assert merged["workload"] == MERGED_WORKLOAD_PIN
    assert merged["sketches"]["read"]["count"] == 6872.0
    assert merged["sketches"]["write"]["count"] == 371.0
    assert merged["events_processed"] == 48074


def test_buffered_collector_counts_match_workload_stats(two_shards):
    for result in two_shards:
        counters = result.workload_counters
        # Every completed operation's latency reached a sketch.
        assert result.read_sketch.count == counters["reads_completed"] > 0
        assert result.write_sketch.count == counters["writes_completed"] > 0


def test_buffered_collector_percentiles_track_exact_ones(two_shards):
    for result in two_shards:
        exact_p95 = result.report["workload"]["read_p95_ms"] / 1000.0
        sketch_p95 = result.read_sketch.percentile(95.0)
        # Sketch rank differs from numpy interpolation by at most one sample,
        # so allow a little beyond the pure relative-error bound.
        assert sketch_p95 == pytest.approx(exact_p95, rel=0.05)


# ----------------------------------------------------------------------
# Vectorized open-loop arrivals
# ----------------------------------------------------------------------
def open_loop_config(seed: int = 21) -> SimulationConfig:
    return short_config(
        seed=seed,
        duration=60.0,
        workload=WorkloadSpec(
            record_count=1_500, load_shape=ConstantLoad(80.0), open_loop=True
        ),
    )


def test_open_loop_run_is_deterministic():
    first = Simulation(open_loop_config()).run()
    second = Simulation(open_loop_config()).run()
    assert first.workload_summary == second.workload_summary
    assert first.events_processed == second.events_processed


def test_open_loop_issues_operations_and_all_kinds():
    config = open_loop_config()
    config.workload.operation_mix = dataclasses.replace(
        config.workload.operation_mix,
        read_fraction=0.5,
        update_fraction=0.4,
        insert_fraction=0.1,
    )
    simulation = Simulation(config)
    simulation.run()
    stats = simulation.workload.stats
    assert stats.reads_issued > 0
    assert stats.writes_issued > 0
    assert stats.reads_completed + stats.writes_completed > 0


def test_open_loop_uses_dedicated_streams():
    simulation = Simulation(open_loop_config())
    streams = simulation.simulator.streams
    issued = streams.known_streams()
    for suffix in ("gap", "mix", "key", "size"):
        assert f"workload:workload:{suffix}" in issued, issued


def test_open_loop_accepts_tenant_populations():
    # Once rejected; per-tenant chunked streams now make the combination
    # legal (full behavioural coverage lives in test_workload_tenants.py).
    spec = WorkloadSpec(open_loop=True, tenants=TenantSpec(tenants=5))
    assert spec.open_loop and spec.tenants is not None


def test_open_loop_differs_from_closed_loop_but_same_magnitude():
    closed = Simulation(
        short_config(seed=21, duration=60.0,
                     workload=WorkloadSpec(record_count=1_500,
                                           load_shape=ConstantLoad(80.0)))
    ).run()
    open_ = Simulation(open_loop_config()).run()
    closed_issued = closed.workload_summary["operations_issued"]
    open_issued = open_.workload_summary["operations_issued"]
    # Same offered rate, different (dedicated) streams: the realised counts
    # differ but both track rate * duration.
    assert open_issued != closed_issued
    assert open_issued == pytest.approx(closed_issued, rel=0.15)


def test_sharded_open_loop_end_to_end():
    config = open_loop_config()
    report = run_sharded(config, 2, parallel=False)
    assert report.merged["workload"]["operations_issued"] > 0
    again = run_sharded(config, 2, parallel=False, shard_order=[1, 0])
    assert json.dumps(report.merged, sort_keys=True) == json.dumps(
        again.merged, sort_keys=True
    )
