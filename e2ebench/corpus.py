"""The benchmark's workloads and the work one job does.

A *job* is what ``repro detect`` (and, on racy traces, ``repro
confirm``) does for one trace, run in-process: ``trace_run`` at the
job's seed, ``trace_to_bytes``, then -- timed as the verdict --
``read_trace_bytes``, ``OfflinePipeline.analyze`` and, when races were
reported, ``events_for`` followed by ``confirm_races``.

Each workload owns a fixed *pool* of distinct inputs derived from the
run seed.  A run is a whole number of passes over the pool, a number
set by ``--seconds`` alone (see :func:`passes_for`), so every input
weighs the same in every run however fast the machine is.

Nothing from ``repro`` is imported at module level: the set-up probe
imports this file first and then times ``import repro.cli`` itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: App iterations; the race bugs always run at the default scale, where
#: every one of them is detected at their period.
APP_ITERATIONS = 400
#: ``--tiny`` scale (the self-check): same layers, less work, one bug
#: trace each.
TINY_APP_ITERATIONS = 20
TINY_APP_POOL = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Program name in ``repro.workloads.ALL_WORKLOADS``, or None for
    #: the twelve Table 2 race bugs.
    app: Optional[str]
    period: int
    #: Distinct inputs per run, each traced at its own seed.  For the
    #: race bugs, a multiple of twelve.
    pool: int
    #: Nominal seconds of one pass over the pool on a 2-core box.  A
    #: constant, not a measurement: the pass count must not depend on
    #: the speed of the machine or of the code under test.
    pass_s: float


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mysql-dense",
            "mysql, 400 iterations, period 100: many short replay "
            "windows make replay most of the verdict",
            app="mysql", period=100, pool=12, pass_s=23.0,
        ),
        Workload(
            "cherokee-sparse",
            "cherokee, 400 iterations, period 10000 (the paper's "
            "production period): decode, few long replay windows and "
            "detection share the verdict",
            app="cherokee", period=10_000, pool=32, pass_s=30.0,
        ),
        Workload(
            "table2-confirm",
            "the 12 Table 2 bugs at period 1000: small racy traces where "
            "race reporting and confirmation dominate",
            app=None, period=1_000, pool=60, pass_s=33.0,
        ),
    )
}


def passes_for(workload: Workload, seconds: float) -> int:
    """Whole passes over the pool that fill about *seconds*."""
    return max(1, round(seconds / workload.pass_s))


@dataclass(frozen=True)
class PoolEntry:
    label: str
    program: object
    #: The ``RaceBug`` whose race the verdict must report, or None for a
    #: race-free app whose verdict must report nothing.
    bug: Optional[object]
    trace_seed: int


def build_pool(workload: Workload, seed: int,
               tiny: bool = False) -> List[PoolEntry]:
    """Build the workload's programs and the pool of job inputs."""
    from repro.workloads import ALL_WORKLOADS, RACE_BUGS, WorkloadScale

    size = workload.pool
    if tiny:
        size = TINY_APP_POOL if workload.app is not None else len(RACE_BUGS)
    seeds = range(seed * size, (seed + 1) * size)
    if workload.app is not None:
        scale = WorkloadScale(
            iterations=TINY_APP_ITERATIONS if tiny else APP_ITERATIONS)
        program = ALL_WORKLOADS[workload.app].instantiate(scale)
        return [PoolEntry(f"{workload.app}@{s}", program, None, s)
                for s in seeds]
    bugs = [(name, bug, bug.build(WorkloadScale()))
            for name, bug in RACE_BUGS.items()]
    return [
        PoolEntry(f"{name}@{s}", program, bug, s)
        for (name, bug, program), s in zip(
            bugs * (size // len(bugs)), seeds)
    ]


@dataclass
class JobOutcome:
    """What one job produced: timings, the verdict check, and the
    counters the per-layer report averages."""

    blob_digest: bytes
    job_s: float
    verdict_s: float
    ok: bool
    counts: Dict[str, float]


def run_job(entry: PoolEntry, period: int,
            span: Callable = lambda name: contextlib.nullcontext(),
            ) -> JobOutcome:
    """Run one job.  *span(name)* wraps each call into a layer (a no-op
    context unless the run is traced)."""
    from repro.analysis import OfflinePipeline
    from repro.confirm import ConfirmConfig, confirm_races
    from repro.tracing import read_trace_bytes, trace_run, trace_to_bytes

    program = entry.program
    begin = time.perf_counter()
    with span("tracing.trace_run"):
        bundle = trace_run(program, period=period, seed=entry.trace_seed)
    with span("tracing.write"):
        blob = trace_to_bytes(bundle)
    verdict_begin = time.perf_counter()
    with span("bench.verdict"):
        with span("tracing.read"):
            received = read_trace_bytes(blob, program=program)
        pipeline = OfflinePipeline(program)
        with span("pipeline.analyze"):
            result = pipeline.analyze(received)
        # Confirmation runs only when races were reported; the spans
        # open either way, so a race-free job shows the (tiny) cost of
        # skipping it.
        confirmation = None
        with span("confirm.events_for"):
            events = (pipeline.events_for(received)[0] if result.races
                      else None)
        with span("confirm.confirm"):
            if result.races:
                confirmation = confirm_races(
                    program, result.races, events,
                    config=ConfirmConfig(seed=entry.trace_seed,
                                         machine_seed=entry.trace_seed),
                )
    end = time.perf_counter()

    # The oracle: a Table 2 job must report its bug, a race-free app job
    # must report nothing, and every confirmation pass must give each
    # distinct reported race exactly one verdict.
    if entry.bug is not None:
        ok = entry.bug.detected(program, result)
    else:
        ok = not result.races
    if confirmation is not None:
        ok = ok and confirmation.conserves

    stats = result.replay.stats
    counts = {
        "tracing.instructions": bundle.run.instructions,
        "tracing.samples": len(bundle.samples),
        "tracing.sync_records": len(bundle.sync_records),
        "tracing.container_bytes": len(blob),
        "ptdecode.path_steps": sum(
            len(path.steps) for path in result.replay.paths.values()),
        "analysis.samples_unaligned": result.degradation.samples_unaligned,
        "replay.windows": stats.windows,
        "replay.iterations": stats.iterations,
        "replay.executed_steps": stats.executed_steps,
        "replay.summary_steps": stats.summary_steps,
        "replay.window_hits": stats.window_hits,
        "replay.rounds": result.regeneration_rounds,
        "replay.recovered": stats.recovered,
        "replay.sampled": stats.sampled,
        "detector.events": result.events_processed,
        "detector.races": len(result.races),
        "confirm.races": (confirmation.races_reported
                          if confirmation is not None else 0),
        "confirm.confirmed": (confirmation.confirmed
                              if confirmation is not None else 0),
        "confirm.replays": (confirmation.replays_total
                            if confirmation is not None else 0),
        "pipeline.decode_s": result.timings.decode_seconds,
        "pipeline.reconstruct_s": result.timings.reconstruction_seconds,
        "pipeline.detect_s": result.timings.detection_seconds,
    }
    return JobOutcome(
        blob_digest=hashlib.sha256(blob).digest(),
        job_s=end - begin,
        verdict_s=end - verdict_begin,
        ok=ok,
        counts=counts,
    )
