"""The benchmark's three workloads and the output checks every run must pass.

Each workload is a fixed :class:`~repro.runner.SimulationConfig` apart from
the workload seed.  They are chosen so that each one exercises a different
part of the stack and leaves the others idle (see README.md for the table):

* ``steady-read`` — the paper's default scenario: the classic read hot path
  and nothing opt-in (no hedging, no timer wheel, no faults, no inserts, a
  controller that evaluates but never acts).
* ``gray-hedged`` — every opt-in request-path mechanism does real work:
  admission control in front of the hedged stack, 200 open-loop tenants
  and a gray-failure campaign.
* ``scale-write`` — the write path and the autoscaler: a write-heavy mix
  with inserts over a compressed diurnal day with a flash crowd, served by
  the SLA-driven policy, which scales out.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict, List

from repro.cluster.faults import FaultPlan
from repro.experiments.e9_resilience import DEFAULT_FAULT_SEED
from repro.experiments.scenarios import (
    build_config,
    diurnal_with_flash_crowd,
    standard_cluster,
    standard_sla,
    standard_workload,
)
from repro.middleware import HEDGED_PIPELINE
from repro.runner import Simulation, SimulationConfig, SimulationReport
from repro.workload.operations import READ_HEAVY, WRITE_HEAVY
from repro.workload.tenants import TenantSpec

__all__ = ["WORKLOADS", "build", "digest", "drain", "tally", "check", "key_space_grew"]

#: Simulated seconds per run.  300 s keeps one run of the slowest workload
#: near 10 host seconds on a small machine, so a measurement window holds
#: several runs; it is also the length the kernel numbers in ROADMAP.md
#: were taken at for the default scenario.
SIM_SECONDS = 300.0

#: Fault campaign shape for ``gray-hedged``: 3 fail-slow nodes + 1 flaky link.
CAMPAIGN_FAULTS = 4


def steady_read(seed: int) -> SimulationConfig:
    """The paper's default scenario (3 nodes, RF 3, ONE/ONE, 95/5 reads)."""
    return SimulationConfig(seed=seed, duration=SIM_SECONDS, label="steady-read")


def gray_hedged(seed: int) -> SimulationConfig:
    """E9's faulted hedged scenario plus admission control and 200 tenants."""
    workload = standard_workload(150.0, mix=READ_HEAVY)
    workload.tenants = TenantSpec(200, 25)
    workload.open_loop = True
    config = build_config(
        label="gray-hedged",
        seed=seed,
        duration=SIM_SECONDS,
        cluster=standard_cluster(nodes=3, replication_factor=3, ops_capacity=600.0),
        workload=workload,
        policy="static",
        middleware=("admission-control",) + tuple(HEDGED_PIPELINE),
        enable_interference=False,
    )
    # The campaign takes the fixed fault seed, never the workload seed: a
    # campaign drawn from the workload seed changes the scenario's shape
    # from seed to seed (seed 7 turned a failure-free run into 14% failed).
    campaign = FaultPlan.gray_failure_campaign(
        seed=DEFAULT_FAULT_SEED, duration=SIM_SECONDS, nodes=3
    )
    return dataclasses.replace(config, faults=campaign)


def scale_write(seed: int) -> SimulationConfig:
    """E5's diurnal + flash-crowd day, write-heavy with inserts, SLA-driven."""
    shape = diurnal_with_flash_crowd(
        trough=45.0,
        peak=135.0,
        period=SIM_SECONDS,
        flash_rate=200.0,
        flash_start=SIM_SECONDS * 0.65,
    )
    return build_config(
        label="scale-write",
        seed=seed,
        duration=SIM_SECONDS,
        cluster=standard_cluster(nodes=3, replication_factor=3),
        workload=standard_workload(60.0, mix=WRITE_HEAVY, shape=shape),
        sla=standard_sla(),
        policy="sla_driven",
        evaluation_interval=20.0,
    )


WORKLOADS: Dict[str, Callable[[int], SimulationConfig]] = {
    "steady-read": steady_read,
    "gray-hedged": gray_hedged,
    "scale-write": scale_write,
}


def build(workload: str, seed: int) -> Simulation:
    """A constructed, not yet run, simulation of ``workload`` at ``seed``."""
    return Simulation(WORKLOADS[workload](seed))


def digest(report: SimulationReport) -> str:
    """SHA-256 over the full report; floats are rendered exactly by ``repr``."""
    text = json.dumps(report.as_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def drain(simulation: Simulation) -> None:
    """Let every in-flight operation resolve after the report was built.

    The workload has stopped, so no new client operation starts; two
    operation timeouts bound the life of anything still in flight.
    """
    timeout = simulation.cluster.coordinator.config.operation_timeout
    simulator = simulation.simulator
    simulator.run_until(simulator.now + 2.0 * timeout + 1.0)


def tally(simulation: Simulation) -> Dict[str, int]:
    """Client-operation counts from the workload's :class:`WorkloadStats`."""
    stats = simulation.workload.stats
    return {
        "issued": stats.operations_issued,
        "completed": stats.operations_completed,
        "failed": stats.reads_failed + stats.writes_failed,
        "rejected": stats.operations_rejected,
    }


def check(
    workload: str,
    simulation: Simulation,
    report: SimulationReport,
    at_report: Dict[str, int],
) -> List[str]:
    """Output checks for one finished run; returns the failures (empty = pass).

    ``at_report`` is :func:`tally` taken when :meth:`Simulation.run` returned;
    call this after :func:`drain`, so the second tally sees every operation
    that was in flight at the report resolved exactly once.
    """
    problems: List[str] = []
    issued = at_report["issued"]
    in_flight = issued - at_report["completed"] - at_report["failed"] - at_report["rejected"]
    if in_flight < 0:
        problems.append(f"{-in_flight} more operations resolved than were issued")
    drained = tally(simulation)
    resolved = drained["completed"] + drained["failed"] + drained["rejected"]
    if drained["issued"] != issued:
        problems.append("operations were issued after the workload stopped")
    elif resolved != issued:
        problems.append(
            f"issued {issued} != completed + failed + rejected ({resolved}) "
            "after in-flight operations resolved"
        )

    hedging = simulation.pipeline.get("request-hedging")
    hedges_armed = hedging.hedges_armed if hedging is not None else 0
    hedges_fired = hedging.hedges_fired if hedging is not None else 0
    timers = simulation.cluster.coordinator.timer_stats()
    faults = report.fault_summary
    controller = report.controller_summary
    if workload == "steady-read":
        if hedges_armed:
            problems.append(f"steady-read armed {hedges_armed} hedges")
        if timers:
            problems.append("steady-read built a timer wheel")
        if faults:
            problems.append(f"steady-read ran {faults.get('count')} faults")
    elif workload == "gray-hedged":
        if hedges_fired <= 0:
            problems.append("gray-hedged fired no hedge")
        if timers.get("timers_wheeled", 0) <= 0:
            problems.append("gray-hedged wheeled no timer")
        if faults.get("count") != CAMPAIGN_FAULTS:
            problems.append(
                f"gray-hedged ran {faults.get('count')} faults, not {CAMPAIGN_FAULTS}"
            )
        if faults.get("link_drops", 0) <= 0:
            problems.append("gray-hedged dropped no message on the flaky link")
    elif workload == "scale-write":
        if controller["scale_out_actions"] < 1:
            problems.append("scale-write never scaled out")
        if key_space_grew(simulation) <= 0:
            problems.append("scale-write did not grow the key space")
    return problems


def key_space_grew(simulation: Simulation) -> int:
    """Records the shared key distribution gained through inserts."""
    distribution = simulation.workload._distribution
    return distribution.record_count - simulation.config.workload.record_count
