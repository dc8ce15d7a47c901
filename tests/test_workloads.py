"""Workload library tests: every catalogued program runs and terminates
with the expected character."""

import pytest

from repro.analysis import OfflinePipeline
from repro.machine import Machine
from repro.tracing import trace_run
from repro.workloads import (
    ALL_WORKLOADS,
    APP_WORKLOADS,
    PARSEC_WORKLOADS,
    WorkloadScale,
)

SCALE = WorkloadScale(iterations=10)


class TestCatalog:
    def test_thirteen_parsec_members(self):
        assert len(PARSEC_WORKLOADS) == 13

    def test_eight_apps(self):
        assert len(APP_WORKLOADS) == 8
        assert set(APP_WORKLOADS) == {
            "apache", "cherokee", "mysql", "memcached", "transmission",
            "pfscan", "pbzip2", "aget",
        }

    def test_no_name_collisions(self):
        assert len(ALL_WORKLOADS) == 21

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_scale_rejects_non_positive_iterations(self, iterations):
        # Workload loops count down to zero; a trip count below 1 would
        # wrap the counter and never terminate.
        with pytest.raises(ValueError, match="iterations"):
            WorkloadScale(iterations=iterations)


@pytest.mark.parametrize("name", sorted(PARSEC_WORKLOADS))
class TestParsecKernels:
    def test_runs_to_completion(self, name):
        program = PARSEC_WORKLOADS[name].instantiate(SCALE)
        result = Machine(program, seed=1).run()
        assert result.instructions > 0
        assert result.threads >= 2

    def test_deterministic_under_seed(self, name):
        workload = PARSEC_WORKLOADS[name]
        first = Machine(workload.instantiate(SCALE), seed=5).run()
        second = Machine(workload.instantiate(SCALE), seed=5).run()
        assert first.instructions == second.instructions
        assert first.tsc == second.tsc

    def test_cpu_bound(self, name):
        result = Machine(
            PARSEC_WORKLOADS[name].instantiate(SCALE), seed=1
        ).run()
        assert result.io_cycles == 0


@pytest.mark.parametrize("name", sorted(APP_WORKLOADS))
class TestApps:
    def test_runs_to_completion(self, name):
        program = APP_WORKLOADS[name].instantiate(SCALE)
        result = Machine(program, seed=1).run()
        assert result.instructions > 0

    def test_io_character_matches_catalog(self, name):
        workload = APP_WORKLOADS[name]
        result = Machine(workload.instantiate(SCALE), seed=1).run()
        if workload.io_bound:
            assert result.idle_cycles > result.cpu_cycles
        else:
            # CPU-dominant (may still do some I/O, e.g. transmission).
            assert result.idle_cycles <= result.cpu_cycles


class TestRaceFreedom:
    """The catalogued workloads are race-free: the detection pipeline
    must stay silent on them (they feed the overhead experiments, not
    the detection ones)."""

    @pytest.mark.parametrize("name", ["blackscholes", "fluidanimate",
                                      "dedup", "streamcluster", "x264"])
    def test_parsec_clean(self, name):
        program = PARSEC_WORKLOADS[name].instantiate(SCALE)
        bundle = trace_run(program, period=2, seed=3)
        result = OfflinePipeline(program).analyze(bundle)
        assert not result.races, [r.describe() for r in result.races]

    @pytest.mark.parametrize("name", ["apache", "mysql", "pbzip2"])
    def test_apps_clean(self, name):
        program = APP_WORKLOADS[name].instantiate(SCALE)
        bundle = trace_run(program, period=2, seed=3)
        result = OfflinePipeline(program).analyze(bundle)
        assert not result.races, [r.describe() for r in result.races]
