#!/usr/bin/env python3
"""Benchmark of the simulator: end-to-end metrics and a per-layer traced run.

Run one workload and seed from the root of the repository::

    python3 perfbench/run.py --workload steady-read --seed 42 --seconds 25
    python3 perfbench/run.py --workload scale-write --seed 42 --seconds 25 --trace 1

``--workload all`` runs the three workloads one after another, each in its
own process.  ``--trace 0`` repeats the workload's simulation (same seed)
back to back for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` alternates an untraced and a traced run for ``--seconds`` and
reports the per-layer metrics.  Every run's output is checked; the last line
printed is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("steady-read", "gray-hedged", "scale-write")

#: Fresh processes timed per measurement for ``setup_s`` (after one unmeasured
#: process that fills the bytecode cache).
SETUP_PROBES = 5

#: Events of the bare-kernel microbenchmark behind ``kernel.ns_per_event``.
KERNEL_EVENTS = 200_000

#: Iterations per calibration sample, and the rate the reference host runs
#: them at.  Host times are reported as they would read on the reference host.
CALIBRATION_ITERATIONS = 300_000
REFERENCE_RATE = 1_000_000.0


def _use_repository() -> None:
    """Import the simulator from this checkout's sources, or exit non-zero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "benchmarks")]


def _setup_probe(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: import, construct, print the clock."""
    _use_repository()
    from workloads import build

    build(workload, seed)
    print(repr(time.perf_counter()))


def setup_seconds(workload: str, seed: int) -> float:
    """Median host seconds from process start to a constructed Simulation.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux, so the
    child's reading minus the parent's reading before the spawn covers
    interpreter start-up, imports and construction.
    """
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    samples = []
    # The probes run on the CPU this process is pinned to.  On a virtual
    # machine a child started on an idle vCPU first waits for the hypervisor
    # to wake that vCPU, which added 70 ms or more to a 0.2 s measurement.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        for probe in range(SETUP_PROBES + 1):
            started = time.perf_counter()
            done = subprocess.run(
                command, capture_output=True, text=True, check=True, timeout=60
            )
            if probe:
                samples.append(float(done.stdout.strip().splitlines()[-1]) - started)
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(samples)


def fingerprint() -> dict:
    return {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def kernel_ns_per_event() -> float:
    from bench_kernel import bench_kernel_events

    return 1e9 / bench_kernel_events(events=KERNEL_EVENTS)["events_per_sec"]


def calibration_rate() -> float:
    """Iterations per second of a fixed pure-Python loop on this host, now.

    The loop runs no simulator code, so no change to the simulator moves it.
    It is made of what the simulator's hot paths are made of: dict stores,
    tuple allocation and heap pushes and pops.
    """
    table = {}
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    started = time.perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        key = (i * 2654435761) % 1000003
        table[key & 1023] = (i, key)
        push(heap, (key, i))
        if len(heap) > 512:
            pop(heap)
    return CALIBRATION_ITERATIONS / (time.perf_counter() - started)


class HostSpeed:
    """This host's speed relative to the reference host during a measurement.

    A shared machine can run the same code twice as fast from one minute to
    the next.  Samples of :func:`calibration_rate` taken between the runs
    of a measurement track that drift; dividing host rates (and multiplying
    host times) by :attr:`factor` reports them at the reference host's speed.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self) -> None:
        self.samples.append(calibration_rate())

    @property
    def factor(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_RATE

    def report(self) -> None:
        print(
            f"  host speed={self.factor:.4f} x reference "
            f"({len(self.samples)} calibration samples)"
        )


class Ledger:
    """Operation accounting and check results across the runs of a measurement."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.problems: list = []

    def settle(self, simulation, report, at_report: dict, extra=()) -> None:
        """Drain and check one finished run, and account its operations."""
        from workloads import check, digest, drain

        drain(simulation)
        problems = list(extra) + check(self.workload, simulation, report, at_report)
        value = digest(report)
        if self.digest is None:
            self.digest = value
        elif value != self.digest:
            problems.append(f"report digest {value[:16]} != first run's {self.digest[:16]}")
        self.attempted += at_report["issued"]
        if problems:
            self.failed += at_report["issued"]
            self.problems.extend(problems)


def _release() -> None:
    """Free the finished run before the next one starts.

    A simulation is full of reference cycles (closures, listeners), so only
    the cyclic collector frees it; without this the next run can grow while
    the last one still sits in memory, and the peak RSS depends on when the
    collector happened to run.
    """
    gc.collect()


def _timed_run(simulation):
    from workloads import tally

    started = time.perf_counter()
    report = simulation.run()
    wall = time.perf_counter() - started
    return report, wall, tally(simulation)


def _more(began: float, last: float, seconds: float) -> bool:
    """Start another run unless it would likely end past the window."""
    return time.perf_counter() - began + 0.5 * last < seconds


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """End-to-end metrics of ``workload`` (tracing off)."""
    from workloads import build

    speed = HostSpeed()
    speed.sample()
    setup = setup_seconds(workload, seed)
    speed.sample()
    ledger = Ledger(workload)
    rates = []
    shares = None
    began = time.perf_counter()
    while True:
        simulation = build(workload, seed)
        report, wall, at_report = _timed_run(simulation)
        rates.append(at_report["completed"] / wall)
        if shares is None:
            lost = at_report["failed"] + at_report["rejected"]
            shares = lost / at_report["issued"]
        ledger.settle(simulation, report, at_report)
        del simulation, report
        _release()
        speed.sample()
        print(
            f"  run {len(rates)}: {wall:.3f} s, {at_report['completed']} ops, "
            f"{rates[-1]:.1f} ops/s on this host",
            flush=True,
        )
        if not _more(began, wall, seconds):
            break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rate = statistics.median(rates)
    print(f"  failed_frac={shares!r} (failed + rejected) / issued")
    print(f"  kernel.ns_per_event={kernel_ns_per_event():.2f} ns on this host")
    print(f"  on this host: sim_ops_per_s={rate:.2f} ops/s, setup_s={setup:.4f} s")
    speed.report()
    metrics = {
        "sim_ops_per_s": (rate / speed.factor, "ops/s"),
        "setup_s": (setup * speed.factor, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "success_frac": (1.0 - shares, "ratio"),
    }
    return ledger, metrics


def measure_traced(workload: str, seed: int, seconds: float) -> tuple:
    """Per-layer metrics of ``workload`` from alternating untraced/traced runs."""
    from layers import PER_LAYER, counts, dispatch_shares, integrity, median_timings, timings
    from tracing import Tracer
    from workloads import build

    speed = HostSpeed()
    speed.sample()
    ledger = Ledger(workload)
    timed = []
    began = time.perf_counter()
    while True:
        simulation = build(workload, seed)
        report, untraced_wall, at_report = _timed_run(simulation)
        ledger.settle(simulation, report, at_report)
        del simulation, report
        _release()

        simulation = build(workload, seed)
        tracer = Tracer(simulation)
        report, wall, at_report = _timed_run(simulation)
        tracer.stop(wall)
        counted = counts(simulation, report, tracer)
        timed.append(timings(report, tracer, untraced_wall))
        ledger.settle(simulation, report, at_report, integrity(simulation, report, tracer))
        del simulation, report
        _release()
        speed.sample()
        print(
            f"  pair {len(timed)}: untraced {untraced_wall:.3f} s, traced {wall:.3f} s",
            flush=True,
        )
        if not _more(began, untraced_wall + wall, seconds):
            break
    shares = ", ".join(
        f"{layer} {share:.1%}" for layer, share in dispatch_shares(tracer).items()
    )
    print(f"  dispatch time by layer: {shares}")
    spans = HERE / "out" / f"{workload}.spans.npz"
    tracer.write(spans)
    print(f"  spans of the last traced run: {spans.relative_to(ROOT)}")
    ns_per_event = kernel_ns_per_event()
    print(f"  kernel.ns_per_event={ns_per_event:.2f} ns on this host")
    speed.report()
    # Host times are reported at the reference host's speed; the trace's
    # two ratios compare runs on the same host and need no scaling.
    values = {
        name: value if name.startswith("trace.") else value * speed.factor
        for name, value in median_timings(timed).items()
    }
    values.update(counted, **{"kernel.ns_per_event": ns_per_event * speed.factor})
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    return ledger, metrics


def run_one(args) -> int:
    _use_repository()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"  fingerprint={json.dumps(fingerprint(), sort_keys=True)}")
    measure_fn = measure_traced if args.trace else measure
    ledger, metrics = measure_fn(args.workload, args.seed, float(args.seconds))
    print(f"  digest={ledger.digest}")
    for problem in ledger.problems:
        print(f"  CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        status = subprocess.run(command).returncode or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
