"""Parallel offline analysis (§7.6): the unit of fan-out is a whole
trace, and every configuration must be verdict-identical to the serial
run.

Seeded traces and trials fan out over worker processes (``detect --runs
--jobs``, sweeps, the fleet).  Inside one trace, per-thread decode and
replay run serially — under the supervised runtime when one is set.
"""

import pytest

from repro.analysis import (
    OfflinePipeline,
    detection_sweep,
    measure_detection_probability,
)
from repro.parallel import EXECUTORS, parallel_map
from repro.replay import ReplayEngine
from repro.supervise import SupervisorConfig
from repro.tracing import trace_run
from repro.workloads import PARSEC_WORKLOADS, RACE_BUGS, WorkloadScale

FAST = SupervisorConfig(retries=1, backoff_base=0.0)


def _analyze(work):
    """Module-level so the process executor can pickle it."""
    program, bundle = work
    return OfflinePipeline(program).analyze(bundle)


class TestParallelEquivalence:
    @pytest.mark.parametrize("name", ["cherokee-0.9.2", "mysql-644",
                                      "aget-bug2"])
    def test_same_verdicts(self, name):
        """Seeded traces analyzed in worker processes give the verdicts
        of the in-process analyses, in input order."""
        bug = RACE_BUGS[name]
        program = bug.build(WorkloadScale(iterations=10))
        bundles = [trace_run(program, period=40, seed=seed)
                   for seed in (5, 6)]
        serial = [OfflinePipeline(program).analyze(b) for b in bundles]
        fanned = parallel_map(_analyze, [(program, b) for b in bundles],
                              jobs=2, executor="process")
        for one, other in zip(serial, fanned):
            assert one.racy_addresses == other.racy_addresses
            assert {r.pair for r in one.races} == \
                {r.pair for r in other.races}
            assert one.replay.stats.recovered == \
                other.replay.stats.recovered

    def test_same_accesses_per_thread(self, racy_program):
        """A supervised replay — one retried item per thread — recovers
        exactly the unsupervised accesses."""
        bundle = trace_run(racy_program, period=4, seed=2)
        plain = ReplayEngine(racy_program).replay_bundle(bundle)
        engine = ReplayEngine(racy_program, supervisor=FAST)
        supervised = engine.replay_bundle(bundle)
        assert plain.per_thread.keys() == supervised.per_thread.keys()
        for tid in plain.per_thread:
            assert plain.per_thread[tid] == supervised.per_thread[tid]
        assert len(engine.last_ledger.items) == len(plain.per_thread)
        assert not engine.last_ledger.eventful

    def test_many_thread_workload(self):
        """``--retries`` on a many-thread analysis: same verdicts, and
        the merged ledger accounts one clean attempt per replayed
        thread."""
        program = PARSEC_WORKLOADS["fluidanimate"].instantiate(
            WorkloadScale(iterations=8, threads=4)
        )
        bundle = trace_run(program, period=6, seed=1)
        plain = OfflinePipeline(program).analyze(bundle)
        supervised = OfflinePipeline(program, supervisor=FAST).analyze(bundle)
        assert plain.racy_addresses == supervised.racy_addresses
        assert plain.events_processed == supervised.events_processed
        assert supervised.ledger.attempts >= len(bundle.pt_traces)
        assert not supervised.ledger.eventful

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_pipeline_executor_identical(self, executor):
        """A trace analyzed by a fan-out worker is the in-process
        analysis, field for field — process workers exercise the
        pickling path end to end."""
        bug = RACE_BUGS["aget-bug2"]
        program = bug.build(WorkloadScale(iterations=10))
        bundle = trace_run(program, period=40, seed=5)
        serial = OfflinePipeline(program).analyze(bundle)
        for fanned in parallel_map(_analyze, [(program, bundle)] * 2,
                                   jobs=2, executor=executor):
            assert serial.racy_addresses == fanned.racy_addresses
            assert {r.pair for r in serial.races} == \
                {r.pair for r in fanned.races}
            assert serial.replay.stats == fanned.replay.stats
            assert serial.replay.per_thread == fanned.replay.per_thread
            assert serial.regeneration_rounds == fanned.regeneration_rounds
            assert serial.events_processed == fanned.events_processed


class TestParallelSweeps:
    """Trial-level fan-out: bit-identical grids in every configuration."""

    BUGS = {"aget-bug2": RACE_BUGS["aget-bug2"]}
    SCALE = WorkloadScale(iterations=8)

    @pytest.mark.parametrize("executor", ["process"])
    def test_detection_sweep_jobs_identical(self, executor):
        serial = detection_sweep(self.BUGS, self.SCALE,
                                 periods=[200, 1000], runs=3, jobs=1)
        fanned = detection_sweep(self.BUGS, self.SCALE,
                                 periods=[200, 1000], runs=3, jobs=4,
                                 executor=executor)
        assert serial.cells == fanned.cells
        assert serial.totals() == fanned.totals()

    @pytest.mark.parametrize("executor", ["process"])
    def test_detection_probability_jobs_identical(self, racy_program,
                                                  executor):
        racy = [racy_program.symbols["racy"]]
        serial = measure_detection_probability(
            racy_program, racy, period=3, runs=4, jobs=1)
        fanned = measure_detection_probability(
            racy_program, racy, period=3, runs=4, jobs=4, executor=executor)
        assert serial.trials == fanned.trials
        assert serial.probability == fanned.probability
