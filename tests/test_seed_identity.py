"""Bit-identity locks for the optimised kernel and data plane.

The fast-path work (tuple-keyed heap, chunked RNG draws, cached lognormal
constants, memoised replica sets) is only admissible because it leaves the
default-config numbers untouched.  These tests pin the seed-42 single-tenant
scenario against values captured from the seed commit (9c3fd43) via a
git-worktree run, and assert the chunked-draw invariant the optimisations
rest on: on a single-consumer generator, one chunked draw is bitwise-equal
to the same draws made sequentially.

Every comparison here is exact (``==``, not ``pytest.approx``): the contract
is bit-identity, not statistical closeness.  If an intentional
behaviour-changing feature breaks these numbers, it must use a new RNG
stream name instead (see PERFORMANCE.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ConsistencyLevel, NodeConfig
from repro.cluster.faults import FaultPlan
from repro.middleware import ADMISSION_CONTROL_PIPELINE, HEDGED_PIPELINE
from repro.runner import Simulation, SimulationConfig, SimulationReport
from repro.simulation.randomness import (
    LognormalSampler,
    RandomStreams,
    lognormal_from_mean_cv,
)
from repro.workload.distributions import (
    HotspotKeys,
    LatestKeys,
    UniformKeys,
    ZipfianKeys,
)
from repro.workload.generator import WorkloadSpec
from repro.workload.load_shapes import ConstantLoad, FlashCrowdLoad
from repro.workload.operations import WRITE_HEAVY, RecordSizer
from repro.workload.tenants import TenantSpec

SEED = 42

#: Captured from the seed commit (9c3fd43): seed-42 default config truncated
#: to 120 simulated seconds.  Exact float equality is intentional.
SHORT_RUN_PINS = {
    "operations_issued": 12114.0,
    "operations_completed": 12113.0,
    "read_p95_ms": 8.319096285262617,
    "write_p95_ms": 8.22557349998032,
    "stale_reads": 0.0,
}
SHORT_RUN_P95_WINDOW = 0.0014366597009349388
SHORT_RUN_EVENTS = 77833

#: Captured from the seed commit (9c3fd43): seed-42 default config, full
#: default duration (1800 s), ``SimulationReport.headline()``.
HEADLINE_PINS = {
    "read_p95_ms": 8.279911380145677,
    "write_p95_ms": 7.999701575042194,
    "failure_fraction": 0.0,
    "window_p95_s": 0.0013874363235117926,
    "stale_fraction": 0.0,
    "sla_violation_fraction": 0.0,
    "node_hours": 1.5,
    "total_cost": 0.7515544258333333,
}


# ----------------------------------------------------------------------
# Pinned default-config runs
# ----------------------------------------------------------------------
def test_short_default_run_matches_seed_commit():
    report = Simulation(SimulationConfig(seed=SEED, duration=120.0)).run()
    workload = report.workload_summary
    for name, pinned in SHORT_RUN_PINS.items():
        assert workload[name] == pinned, name
    assert report.ground_truth_window["p95_window"] == SHORT_RUN_P95_WINDOW
    assert report.events_processed == SHORT_RUN_EVENTS


@pytest.mark.slow
def test_default_headline_matches_seed_commit():
    report = Simulation(SimulationConfig(seed=SEED)).run()
    assert report.headline() == HEADLINE_PINS


def report_digest(report: SimulationReport) -> str:
    """SHA-256 over the full report; floats are rendered exactly by ``repr``."""
    text = json.dumps(report.as_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Pinned arrival modes beyond the classic tenantless one
# ----------------------------------------------------------------------
#: Full-report digests of 60 s write-heavy runs (inserts included) in the
#: arrival modes the default pins above do not reach; each was the same
#: under two ``PYTHONHASHSEED`` values when captured.
ARRIVAL_MODE_DIGESTS = {
    "classic-tenants-burst": "7e07c6ba94ea9e815061c99de235d6e74494bad651865fd440128b0e2772ac8e",
    "open-loop": "39167e0bb2d58796220f6e3e01d51fd2e9075edf32c39652d119f40ecc607c6f",
    "open-loop-tenants-burst": "38ff19aedc8e1d138600e6d22c702d90ea729e40464b298278b9af35fd5cd3fe",
}


def _arrival_mode_config(mode: str) -> SimulationConfig:
    tenants = None
    if "tenants" in mode:
        # Tenant 3's flash crowd idles until t=15 s, then bursts.
        burst = FlashCrowdLoad(0.0, 60.0, 15.0, 5.0, 20.0, 5.0)
        tenants = TenantSpec(tenants=20, records_per_tenant=25, load_shape_overrides={3: burst})
    workload = WorkloadSpec(
        record_count=2000,
        operation_mix=WRITE_HEAVY,
        load_shape=ConstantLoad(120.0),
        tenants=tenants,
        open_loop=mode.startswith("open-loop"),
    )
    return SimulationConfig(seed=SEED, duration=60.0, workload=workload)


@pytest.mark.parametrize("mode", sorted(ARRIVAL_MODE_DIGESTS))
def test_arrival_mode_report_matches_pin(mode):
    report = Simulation(_arrival_mode_config(mode)).run()
    assert report_digest(report) == ARRIVAL_MODE_DIGESTS[mode]


# ----------------------------------------------------------------------
# Pinned coordinator paths beyond the default request pipeline
# ----------------------------------------------------------------------
#: Full-report digests of 60 s runs that drive the coordinator's failure,
#: hedge and shedding paths; each was the same under two ``PYTHONHASHSEED``
#: values when captured.
COORDINATOR_PATH_DIGESTS = {
    "quorum-chaos": "b869f9cf7d71c012e8c142e8cf90f93d449be70aeff80763d8fa666c65718012",
    "hedged-gray": "c1ab80c21847556fda30a958813fcb8a4d32472f3208ad4b7dcdaf4c0512fd71",
    "admission": "03003c58591a154e7a31e30230abf72b8698e58b3b1e68ced25b8586d952fcc9",
}

#: Coordinator counters each pinned run must move, so the pin provably
#: reaches the path it is named after.
COORDINATOR_PATH_COUNTERS = {
    "quorum-chaos": ("timeouts", "unavailable_errors", "hinted_writes", "reads_failed"),
    "hedged-gray": ("hedged_reads", "hinted_writes"),
    "admission": ("reads_rejected", "writes_rejected"),
}


def _coordinator_path_config(path: str) -> SimulationConfig:
    duration = 60.0
    cluster = ClusterConfig()
    workload = WorkloadSpec(record_count=2000, load_shape=ConstantLoad(120.0))
    middleware = None
    faults = None
    if path == "quorum-chaos":
        # Partitions, crashes and flaky links under quorum reads and writes:
        # fan-out sends drop into hints, replicas go missing, ops time out.
        cluster = ClusterConfig(
            read_consistency=ConsistencyLevel.QUORUM,
            write_consistency=ConsistencyLevel.QUORUM,
        )
        faults = FaultPlan.generate(SEED, duration)
    elif path == "hedged-gray":
        middleware = HEDGED_PIPELINE
        faults = FaultPlan.gray_failure_campaign(SEED, duration)
    else:
        # Few tenants at a high rate overrun their token buckets.
        cluster = ClusterConfig(node=NodeConfig(ops_capacity=2000.0))
        workload = WorkloadSpec(
            record_count=2000, load_shape=ConstantLoad(400.0), tenants=TenantSpec(tenants=5)
        )
        middleware = ADMISSION_CONTROL_PIPELINE
    return SimulationConfig(
        seed=SEED,
        duration=duration,
        cluster=cluster,
        workload=workload,
        middleware=middleware,
        faults=faults,
    )


@pytest.mark.parametrize("path", sorted(COORDINATOR_PATH_DIGESTS))
def test_coordinator_path_report_matches_pin(path):
    simulation = Simulation(_coordinator_path_config(path))
    report = simulation.run()
    coordinator = simulation.cluster.coordinator
    for counter in COORDINATOR_PATH_COUNTERS[path]:
        assert getattr(coordinator, counter) > 0, counter
    assert report_digest(report) == COORDINATOR_PATH_DIGESTS[path]


# ----------------------------------------------------------------------
# Same seed, same report in any process
# ----------------------------------------------------------------------
_SCALE_OUT_RUN = """
import hashlib
import json
from repro.experiments.scenarios import (
    build_config, standard_cluster, standard_sla, standard_workload,
)
from repro.runner import Simulation
from repro.workload.operations import WRITE_HEAVY

config = build_config(
    label="hash-seed", seed=101, duration=60.0,
    cluster=standard_cluster(nodes=3, replication_factor=3),
    workload=standard_workload(200.0, mix=WRITE_HEAVY),
    sla=standard_sla(), policy="sla_driven", evaluation_interval=20.0,
)
report = Simulation(config).run()
assert report.controller_summary["scale_out_actions"] >= 1, "no scale-out"
text = json.dumps(report.as_dict(), sort_keys=True, default=repr)
print(hashlib.sha256(text.encode()).hexdigest())
"""


@pytest.mark.slow
def test_scale_out_report_independent_of_hash_seed():
    """A scale-out streams the cluster's known keys to the new node; their
    order must not follow Python's per-process string hashing."""
    root = Path(__file__).resolve().parents[1]
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(root / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", _SCALE_OUT_RUN],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(completed.stdout.strip())
    assert len(digests) == 1, digests


# ----------------------------------------------------------------------
# Chunked draws == sequential draws (the invariant that keeps numbers frozen)
# ----------------------------------------------------------------------
def _stream_pair(name: str = "prop"):
    """Two independent copies of the same named stream."""
    return RandomStreams(SEED).stream(name), RandomStreams(SEED).stream(name)


@pytest.mark.parametrize("count", [1, 7, 1000])
def test_chunked_generator_draws_equal_sequential(count):
    sequential, chunked = _stream_pair()
    assert [sequential.random() for _ in range(count)] == chunked.random(count).tolist()

    sequential, chunked = _stream_pair()
    assert [
        sequential.exponential(0.25) for _ in range(count)
    ] == chunked.exponential(0.25, size=count).tolist()

    sequential, chunked = _stream_pair()
    assert [
        int(sequential.integers(0, 12345)) for _ in range(count)
    ] == chunked.integers(0, 12345, size=count).tolist()

    sequential, chunked = _stream_pair()
    assert [
        sequential.lognormal(-6.0, 0.35) for _ in range(count)
    ] == chunked.lognormal(-6.0, 0.35, size=count).tolist()


@pytest.mark.parametrize(
    "make_distribution",
    [
        lambda: UniformKeys(10_000),
        lambda: ZipfianKeys(10_000, theta=0.99),
        lambda: ZipfianKeys(517, theta=0.5, scrambled=False),
        lambda: LatestKeys(10_000, theta=0.99),
        lambda: HotspotKeys(10_000, hot_fraction=0.2, hot_operation_fraction=0.8),
    ],
    ids=["uniform", "zipfian", "zipfian-unscrambled", "latest", "hotspot"],
)
def test_chunked_key_indices_equal_sequential(make_distribution):
    sequential, chunked = _stream_pair()
    reference = make_distribution()
    subject = make_distribution()
    expected = [reference.next_index(sequential) for _ in range(4000)]
    assert subject.next_indices(chunked, 4000).tolist() == expected


def test_chunked_record_sizes_equal_sequential():
    sequential, chunked = _stream_pair()
    expected = [RecordSizer().next_size(sequential) for _ in range(4000)]
    drawn = RecordSizer().next_sizes(chunked, 4000)
    assert drawn.dtype == np.int64
    assert drawn.tolist() == expected


def test_lognormal_sampler_matches_per_call_function():
    sequential, subject = _stream_pair()
    sampler = LognormalSampler(0.35)
    expected = [lognormal_from_mean_cv(sequential, 0.0005, 0.35) for _ in range(2000)]
    assert [sampler.sample(subject, 0.0005) for _ in range(2000)] == expected

    sequential, subject = _stream_pair()
    expected = [lognormal_from_mean_cv(sequential, 0.002, 0.35) for _ in range(2000)]
    assert LognormalSampler(0.35).sample_many(subject, 0.002, 2000).tolist() == expected

    # Degenerate parameterisations keep the seed behaviour too.
    rng = RandomStreams(SEED).stream("degenerate")
    assert LognormalSampler(0.0).sample(rng, 3.0) == 3.0
    assert LognormalSampler(0.5).sample(rng, 0.0) == 0.0
    assert LognormalSampler(0.5).sample_many(rng, 0.0, 4).tolist() == [0.0] * 4


def test_chunked_draws_across_means_reuse_cached_constants():
    # Alternating means exercises the sampler's mu memo; draws must still
    # match the uncached per-call path exactly.
    sequential, subject = _stream_pair()
    sampler = LognormalSampler(0.3)
    means = [0.00125, 0.0015, 0.00125, 0.002, 0.0015] * 200
    expected = [lognormal_from_mean_cv(sequential, mean, 0.3) for mean in means]
    assert [sampler.sample(subject, mean) for mean in means] == expected
