"""Sharded analysis workers over ingested bundles.

Accepted bundles are partitioned across the supervised parallel runtime
(:func:`repro.supervise.supervised_map`): per-item retries and
timeouts, crash isolation, and checkpoint/resume through a
:class:`~repro.tracing.serialize.ResultJournal` — a triage service that
dies mid-backlog resumes from the journal instead of re-analyzing the
fleet's morning.

Before any analysis runs, **backpressure** is applied: when the backlog
exceeds the configured budget, the lowest-priority bundles are shed
first — priority is sampling density (deep-tracing epochs have the best
detection odds per cycle spent analyzing), densest first.  Every shed
bundle is accounted in the triage report; nothing disappears silently.

Analysis itself recomputes findings from the trace alone (re-parse,
offline pipeline, signatures), so a worker is a pure function of its
input item — exactly what retry-after-crash and journal resume require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.pipeline import OfflinePipeline
from ..confirm import ConfirmConfig, confirm_races
from ..errors import QuarantinedWork
from ..faults import WorkerFaultPlan
from ..supervise import RunLedger, SupervisorConfig, supervised_map
from ..tracing import read_trace_bytes
from ..workloads import RACE_BUGS
from .ingest import AcceptedBundle
from .nodes import build_program, run_seed_for
from .racedb import signature_for


def shard_of(bundle_id: str, shards: int) -> int:
    """Stable shard assignment from the bundle id."""
    return int(bundle_id[:8], 16) % max(1, shards)


def _analyze_one(item: dict) -> dict:
    """Analyze one bundle (module-level: ships to worker processes).

    Returns a plain-dict finding so journals, JSON reports, and the
    race database all speak the same shape.
    """
    program = build_program(item["workload"], item["iterations"],
                            item["threads"])
    bundle = read_trace_bytes(item["trace"], program=program,
                              allow_partial=item["salvaged"])
    pipeline = OfflinePipeline(program)
    result = pipeline.analyze(bundle)
    bug = RACE_BUGS.get(item["workload"])
    detected = (bug.detected(program, result) if bug is not None
                else bool(result.races))
    confirmation = None
    if item.get("confirm") and result.races:
        # Replays run inline (the worker already lives in the fleet's
        # process pool); free-running stretches reuse the cell's traced
        # machine seed so they take the paths the trace took.
        events, _replay = pipeline.events_for(bundle)
        confirmation = confirm_races(
            program, result.races, events,
            config=ConfirmConfig(
                retries=int(item.get("confirm_retries", 5)),
                seed=int(item.get("confirm_seed", 0)),
                machine_seed=run_seed_for(
                    int(item.get("confirm_seed", 0)),
                    item["node"], item["epoch"],
                ),
            ),
        )
    races = []
    for race in result.races:
        signature = signature_for(program, item["workload"], race)
        row = {**signature.to_dict(),
               "key": signature.key,
               "desc": race.describe()}
        if confirmation is not None:
            verdict = confirmation.verdict_for(race.address, race.pair)
            if verdict is not None:
                row["verdict"] = verdict.verdict
                row["replays"] = (verdict.fired_on
                                  if verdict.fired_on is not None
                                  else verdict.attempts)
        races.append(row)
    samples = len(bundle.samples)
    memory_ops = bundle.run.memory_ops
    probability = min(1.0, samples / memory_ops) if memory_ops else 0.0
    finding = {
        "bundle_id": item["bundle_id"],
        "node": item["node"],
        "epoch": item["epoch"],
        "workload": item["workload"],
        "period": item["period"],
        "deep": item["deep"],
        "salvaged": item["salvaged"],
        "shard": item["shard"],
        "samples": samples,
        "memory_ops": memory_ops,
        "probability": probability,
        "detected": detected,
        "races": races,
    }
    # Additive key: non-confirming runs keep their historical shape, so
    # existing checkpoint journals stay bit-identical.
    if confirmation is not None:
        finding["confirmation"] = confirmation.to_dict()
    return finding


@dataclass
class ShedBundle:
    """One bundle dropped under backpressure (fully accounted)."""

    bundle_id: str
    node: int
    epoch: int
    period: int
    deep: bool

    def to_dict(self) -> dict:
        return {
            "bundle_id": self.bundle_id,
            "node": self.node,
            "epoch": self.epoch,
            "period": self.period,
            "deep": self.deep,
            "reason": "backpressure",
        }


def apply_backpressure(
    accepted: List[AcceptedBundle],
    backlog_budget: Optional[int],
) -> Tuple[List[AcceptedBundle], List[ShedBundle]]:
    """Shed the lowest-priority bundles when the backlog exceeds the
    budget.  Priority = sampling density: deep epochs first, then
    smaller periods; ties broken by coordinates for determinism."""
    if backlog_budget is None or len(accepted) <= backlog_budget:
        return list(accepted), []
    by_priority = sorted(
        accepted,
        key=lambda a: (not a.deep, a.period, a.epoch, a.node, a.bundle_id),
    )
    keep_ids = {a.bundle_id for a in by_priority[:backlog_budget]}
    kept = [a for a in accepted if a.bundle_id in keep_ids]
    shed = [ShedBundle(bundle_id=a.bundle_id, node=a.node, epoch=a.epoch,
                       period=a.period, deep=a.deep)
            for a in accepted if a.bundle_id not in keep_ids]
    return kept, shed


@dataclass
class AnalysisOutcome:
    findings: List[dict]
    shed: List[ShedBundle]
    #: Bundles whose *analysis* (not parse) exhausted the retry budget.
    quarantined: List[str]
    ledger: Optional[RunLedger] = None


def analyze_bundles(
    accepted: List[AcceptedBundle],
    jobs: int = 1,
    executor: str = "process",
    shards: Optional[int] = None,
    backlog_budget: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    fault_plan: Optional[WorkerFaultPlan] = None,
    journal=None,
    confirm: bool = False,
    confirm_retries: int = 5,
    confirm_seed: int = 0,
) -> AnalysisOutcome:
    """Run the sharded analysis stage over the ingested backlog.

    *confirm* additionally replays every reported race under schedule
    control (:mod:`repro.confirm`) inside the worker, so each race row
    in a finding carries a ``verdict`` tier and its replays-to-confirm.
    *confirm_seed* must be the fleet seed: the replay machine seed of a
    cell is re-derived from it exactly as tracing derived it."""
    kept, shed = apply_backpressure(accepted, backlog_budget)
    kept = sorted(kept, key=lambda a: (a.epoch, a.node, a.bundle_id))
    shard_count = shards if shards is not None else max(1, jobs)
    items = []
    for a in kept:
        item = {
            "bundle_id": a.bundle_id,
            "node": a.node,
            "epoch": a.epoch,
            "workload": a.meta.get("workload", ""),
            "iterations": int(a.meta.get("iterations", 1)),
            "threads": int(a.meta.get("threads", 1)),
            "period": a.period,
            "deep": a.deep,
            "salvaged": a.salvaged,
            "shard": shard_of(a.bundle_id, shard_count),
            "trace": a.trace,
        }
        if confirm:
            # Only confirming runs grow these keys, so non-confirming
            # items (and their journal identities) stay unchanged.
            item.update(confirm=True, confirm_retries=confirm_retries,
                        confirm_seed=confirm_seed)
        items.append(item)
    config = supervisor or SupervisorConfig(retries=1, backoff_base=0.0)
    try:
        results, ledger = supervised_map(
            _analyze_one, items, jobs=jobs, executor=executor,
            config=config, fault_plan=fault_plan, journal=journal,
        )
    except QuarantinedWork as poison:
        results = poison.partial
        ledger = poison.ledger
    findings = [r for r in results if r is not None]
    quarantined = [items[i]["bundle_id"]
                   for i, r in enumerate(results) if r is None]
    return AnalysisOutcome(findings=findings, shed=shed,
                           quarantined=quarantined, ledger=ledger)
