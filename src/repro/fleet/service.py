"""The fleet triage service: produce → deliver → ingest → analyze → DB.

One :func:`run_fleet` call simulates a complete triage cycle:

1. the scheduler assigns each (node, epoch) cell its tracing depth;
2. nodes run governed tracing and upload wire bundles;
3. the delivery plan mangles transport (crashes, duplicates,
   corruption, poison, reordering) into the spool;
4. ingestion reduces copies to bundles (dedupe / salvage / quarantine);
5. sharded supervised workers analyze the backlog under backpressure,
   checkpointing through a result journal;
6. findings fold into the race database in a deterministic order
   (epoch, node, bundle id) — the same total order whatever transport
   did — and the spool is acked only after the fold commits.

Determinism is the design invariant: every random draw is keyed by
(seed, coordinates), never drawn from a shared stream, so the same
config and seed produce byte-identical bundles, and a fault plan that
only mangles *transport* leaves the committed database bit-identical
to the fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..errors import UsageError
from ..faults import WorkerFaultPlan
from ..parallel import parallel_map
from ..supervise import SupervisorConfig, open_journal
from ..workloads import RACE_BUGS
from .chaos import DeliveryPlan
from .ingest import ingest
from .nodes import (
    NodeEpochSpec,
    ProducedBundle,
    node_clock_offset,
    produce_bundle,
)
from .queue import BundleSpool, encode_envelope
from .racedb import RaceDatabase
from .scheduler import FleetSchedule
from .triage import TriageReport
from .workers import analyze_bundles

DEFAULT_WORKLOADS = ("apache-25520",)


@dataclass(frozen=True)
class FleetConfig:
    """One fleet triage run, fully specified (hence fully replayable)."""

    nodes: int = 4
    epochs: int = 3
    workloads: Tuple[str, ...] = DEFAULT_WORKLOADS
    iterations: int = 12
    threads: int = 4
    seed: int = 0

    # Scheduling.
    policy: str = "rotate"
    fleet_budget: float = 0.005
    deep_budget: float = 0.02
    deep_period: int = 160
    idle_period: int = 50_000

    # Node chaos: per-node TSC epoch offsets of this intensity (whole
    # machines disagree on time zero; ingest reconciles before the
    # cross-node fold).
    node_clock_skew: float = 0.0

    # Transport chaos.
    node_crash_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    sticky_corrupt_rate: float = 0.0
    poison_rate: float = 0.0
    reorder: bool = True

    # Triage-side robustness.
    retries: int = 1
    backlog_budget: Optional[int] = None
    jobs: int = 1
    executor: str = "serial"

    # Race confirmation (schedule-controlled replay verdicts).
    confirm: bool = False
    confirm_retries: int = 5

    def __post_init__(self) -> None:
        if not self.workloads:
            raise UsageError("fleet needs at least one workload")
        for name in self.workloads:
            if name not in RACE_BUGS:
                raise UsageError(
                    f"unknown fleet workload {name!r} "
                    f"(available: {', '.join(sorted(RACE_BUGS))})"
                )

    def schedule(self) -> FleetSchedule:
        return FleetSchedule(
            policy=self.policy, nodes=self.nodes, epochs=self.epochs,
            fleet_budget=self.fleet_budget, deep_budget=self.deep_budget,
            deep_period=self.deep_period, idle_period=self.idle_period,
        )

    def delivery_plan(self) -> DeliveryPlan:
        return DeliveryPlan(
            seed=self.seed,
            node_crash_rate=self.node_crash_rate,
            duplicate_rate=self.duplicate_rate,
            corrupt_rate=self.corrupt_rate,
            sticky_corrupt_rate=self.sticky_corrupt_rate,
            poison_rate=self.poison_rate,
            reorder=self.reorder,
        )

    def workload_of(self, node: int) -> str:
        """Each node runs one service, stable across epochs."""
        return self.workloads[node % len(self.workloads)]

    def key(self) -> str:
        """Checkpoint-journal identity: everything that changes what the
        analysis stage would compute."""
        return ("fleet|" + "|".join(
            f"{k}={v}" for k, v in sorted(self.to_dict().items())
        ))

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "epochs": self.epochs,
            "workloads": ",".join(self.workloads),
            "iterations": self.iterations,
            "threads": self.threads,
            "seed": self.seed,
            "policy": self.policy,
            "fleet_budget": self.fleet_budget,
            "deep_budget": self.deep_budget,
            "deep_period": self.deep_period,
            "idle_period": self.idle_period,
            # Only recorded when skewed: unskewed configs (and their
            # checkpoint-journal keys) stay byte-identical.
            **({"node_clock_skew": self.node_clock_skew}
               if self.node_clock_skew else {}),
            "node_crash_rate": self.node_crash_rate,
            "duplicate_rate": self.duplicate_rate,
            "corrupt_rate": self.corrupt_rate,
            "sticky_corrupt_rate": self.sticky_corrupt_rate,
            "poison_rate": self.poison_rate,
            "reorder": self.reorder,
            "retries": self.retries,
            "backlog_budget": self.backlog_budget,
            "jobs": self.jobs,
            "executor": self.executor,
            # Only recorded when confirmation is on: it changes what the
            # analysis stage computes, so it must enter the journal key —
            # but non-confirming keys stay historical.
            **({"confirm": True, "confirm_retries": self.confirm_retries}
               if self.confirm else {}),
        }


def fleet_specs(config: FleetConfig) -> List[NodeEpochSpec]:
    """Every (node, epoch) tracing cell, in (epoch, node) order."""
    schedule = config.schedule()
    specs = []
    for epoch in range(config.epochs):
        for node in range(config.nodes):
            assignment = schedule.assignment(node, epoch)
            specs.append(NodeEpochSpec(
                fleet_seed=config.seed,
                node=node,
                epoch=epoch,
                workload=config.workload_of(node),
                iterations=config.iterations,
                threads=config.threads,
                period=assignment.period,
                budget=assignment.budget,
                deep=assignment.deep,
                clock_offset=node_clock_offset(
                    config.seed, node, config.node_clock_skew),
            ))
    return specs


def produce_fleet(config: FleetConfig) -> List[ProducedBundle]:
    """Run every node-epoch's governed tracing (order-preserving even
    when fanned out across processes)."""
    return parallel_map(produce_bundle, fleet_specs(config),
                        jobs=config.jobs, executor=config.executor)


def deliver_fleet(config: FleetConfig, produced: Sequence[ProducedBundle],
                  spool: BundleSpool) -> int:
    """Push every bundle through the (possibly chaotic) transport into
    the spool; returns the number of spooled copies."""
    plan = config.delivery_plan()
    wire: List[Tuple[str, bytes]] = []
    for bundle in produced:
        envelope = encode_envelope(bundle.meta)
        for _kind, payload in plan.copies(bundle.bundle_id,
                                          envelope, bundle.blob):
            wire.append((bundle.bundle_id, payload))
    order = plan.arrival_order(len(wire))
    for seq, index in enumerate(order):
        bundle_id, payload = wire[index]
        spool.put(seq, bundle_id, payload)
    return len(wire)


def run_fleet(
    config: FleetConfig,
    db_path: Path | str,
    spool_dir: Path | str,
    checkpoint_dir: Optional[Path | str] = None,
    resume: bool = False,
    suppress: Sequence[str] = (),
    supervisor: Optional[SupervisorConfig] = None,
    worker_fault_plan: Optional[WorkerFaultPlan] = None,
) -> TriageReport:
    """One complete fleet triage cycle; returns the reconciled report."""
    schedule = config.schedule()
    plan = config.delivery_plan()

    produced = produce_fleet(config)
    spool = BundleSpool(spool_dir)
    deliver_fleet(config, produced, spool)

    ingested = ingest(spool, retries=config.retries, seed=config.seed)

    journal = open_journal(checkpoint_dir, "fleet", config.key(), resume)
    try:
        outcome = analyze_bundles(
            ingested.accepted,
            jobs=config.jobs,
            executor=config.executor,
            backlog_budget=config.backlog_budget,
            supervisor=supervisor or SupervisorConfig(
                retries=config.retries, backoff_base=0.0, seed=config.seed,
            ),
            fault_plan=worker_fault_plan,
            journal=journal,
            confirm=config.confirm,
            confirm_retries=config.confirm_retries,
            confirm_seed=config.seed,
        )
    finally:
        if journal is not None:
            journal.close()

    report = TriageReport(
        config=config.to_dict(),
        schedule=schedule.to_dict(),
        delivery=plan.to_dict(),
    )
    report.produced = len(produced)
    stats = ingested.stats
    report.deliveries = stats.deliveries
    report.accepted = stats.accepted
    report.deduped = stats.deduped
    report.unreadable_copies = stats.unreadable_copies
    report.accepted_bundles = len(ingested.accepted)
    report.salvaged = stats.salvaged
    report.quarantined = stats.quarantined
    report.parse_retries = stats.parse_retries
    report.clock_reconciled = stats.clock_reconciled
    report.analyzed = len(outcome.findings)
    report.shed = len(outcome.shed)
    report.analysis_quarantined = len(outcome.quarantined)
    report.quarantine_records = [q.to_dict() for q in ingested.quarantined]
    report.shed_records = [s.to_dict() for s in outcome.shed]
    report.ingest_ledger = ingested.ledger
    report.worker_ledger = outcome.ledger

    with RaceDatabase(db_path) as db:
        report.db_dropped_tail_bytes = db.dropped_tail_bytes
        for key in suppress:
            db.suppress(key)
        known = frozenset(db.entries)
        # Deterministic fold order — the same however transport shuffled
        # deliveries, so the database bytes depend only on the findings.
        for finding in sorted(outcome.findings,
                              key=lambda f: (f["epoch"], f["node"],
                                             f["bundle_id"])):
            applied = db.apply_bundle(
                finding["bundle_id"],
                races=finding["races"],
                node=finding["node"],
                epoch=finding["epoch"],
                probability=finding["probability"],
            )
            if applied:
                report.db_applied += 1
            else:
                report.db_redundant += 1
        new, recurring = db.split_new(known)
        report.db_signatures = len(db.entries)
        report.db_new = new
        report.db_recurring = recurring
        report.db_suppressed = len(db.suppressed)
        report.db_suppressed_hits = db.suppressed_hits
        report.db_double_counted = db.double_counted
        ranked = db.ranked()
        report.top_races = [e.to_dict() for e in ranked[:10]]
        if config.confirm:
            report.confirm_enabled = True
            tiers = [e.verdict for e in ranked]
            report.db_confirmed = tiers.count("confirmed")
            report.db_flaky = tiers.count("flaky")
            report.db_unconfirmed = tiers.count("unconfirmed")
            report.db_inapplicable = tiers.count("inapplicable")
            # The conservation law: a confirming run leaves no ranked
            # race without a verdict tier.
            report.verdicts_conserved = all(v is not None for v in tiers)

    # Findings are committed: ack everything except quarantined payloads
    # (already moved aside).  A crash before this point redelivers; the
    # idempotent database makes redelivery free.
    for entry in spool.scan():
        spool.ack(entry)

    report.detections = sum(1 for f in outcome.findings if f["detected"])
    report.node_epochs = config.nodes * config.epochs
    if produced:
        report.mean_overhead = (sum(p.overhead for p in produced)
                                / len(produced))
        # The budget governs the *sampling-driven* component; PT/sync
        # are fixed costs identical under every policy.
        mean_pebs = (sum(p.pebs_overhead for p in produced)
                     / len(produced))
        report.budget_utilization = mean_pebs / schedule.fleet_budget
    return report


def run_fleet_duel(
    config: FleetConfig,
    workdir: Path | str,
    suppress: Sequence[str] = (),
) -> dict:
    """Run the same fleet under ``rotate`` and ``uniform`` at the same
    fleet-wide budget and compare detection probability (the PACER
    claim the tests pin down)."""
    workdir = Path(workdir)
    reports = {}
    for policy in ("rotate", "uniform"):
        cfg = replace(config, policy=policy)
        reports[policy] = run_fleet(
            cfg,
            db_path=workdir / f"{policy}.racedb",
            spool_dir=workdir / f"spool-{policy}",
            suppress=suppress,
        )
    rotate, uniform = reports["rotate"], reports["uniform"]
    return {
        "rotate": rotate.to_dict(),
        "uniform": uniform.to_dict(),
        "rotate_detection": rotate.detection_probability,
        "uniform_detection": uniform.detection_probability,
        "rotate_wins": (rotate.detection_probability
                        > uniform.detection_probability),
    }
