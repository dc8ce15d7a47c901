"""Differential tests for the micro-op replay executor.

The micro-op executor is the interpreter's semantics pre-lowered for
speed: it must be *invisible* — bit-identical ``RecoveredAccess``
streams (position, ip, address, kind, provenance, taint) against the
reference instruction interpreter (:mod:`tests.reference_replay`) on
every workload, every replay mode and every fault plan.  These tests
are the contract.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OfflinePipeline
from repro.faults import FaultPlan
from repro.replay import ReplayEngine
from repro.tracing import trace_run
from repro.workloads import GeneratorConfig, generate_racy_program

from tests.reference_replay import interpreted

CONFIG = GeneratorConfig(threads=2, body_length=24, loop_iterations=2)

FAULT_PLANS = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=1_000),
    sample_drop=st.floats(0.0, 1.0),
    pt_gap=st.floats(0.0, 1.0),
    log_truncation=st.floats(0.0, 1.0),
    tsc_jitter=st.floats(0.0, 1.0),
)


def replay(program, bundle, mode="full"):
    return ReplayEngine(program, mode=mode).replay_bundle(bundle)


def replay_interpreted(program, bundle, mode="full"):
    with interpreted():
        return replay(program, bundle, mode=mode)


class TestDifferential:
    @pytest.mark.parametrize("mode", ["full", "forward", "basicblock"])
    @pytest.mark.parametrize("period", [1, 4, 17])
    def test_fixture_programs_bit_identical(self, clean_program,
                                            racy_program, mode, period):
        for program in (clean_program, racy_program):
            bundle = trace_run(program, period=period, seed=3)
            interp = replay_interpreted(program, bundle, mode=mode)
            fast = replay(program, bundle, mode=mode)
            assert fast.per_thread == interp.per_thread

    @given(seed=st.integers(min_value=0, max_value=10_000),
           period=st.sampled_from([1, 3, 7, 23]))
    @settings(max_examples=12, deadline=None)
    def test_random_programs_bit_identical(self, seed, period):
        program, _ = generate_racy_program(seed, CONFIG)
        bundle = trace_run(program, period=period, seed=seed)
        interp = replay_interpreted(program, bundle)
        fast = replay(program, bundle)
        assert fast.per_thread == interp.per_thread

    @given(seed=st.integers(min_value=0, max_value=10_000),
           plan=FAULT_PLANS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_faulted_bundles_bit_identical(self, seed, plan):
        """Degraded traces (gaps, dropped samples, torn logs) exercise
        segment boundaries and window aborts; the micro-op executor
        must track the interpreter through all of them."""
        program, _ = generate_racy_program(seed, CONFIG)
        bundle = trace_run(program, period=5, seed=seed)
        degraded, _ = plan.apply(bundle)
        interp = replay_interpreted(program, degraded)
        fast = replay(program, degraded)
        assert fast.per_thread == interp.per_thread

    def test_decode_segment_boundaries_stay_bit_identical(self,
                                                         racy_program):
        """PT gaps split decode into segments; windows never cross them,
        and the micro-op executor tracks the interpreter across every
        segment boundary."""
        program = racy_program
        bundle = trace_run(program, period=4, seed=7)
        degraded, defects = FaultPlan(seed=3, pt_gap=0.4).apply(bundle)
        assert defects.pt_gaps > 0
        interp = replay_interpreted(program, degraded)
        fast = replay(program, degraded)
        assert fast.per_thread == interp.per_thread

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_pipeline_jit_is_invisible(self, seed):
        """End to end: identical races, addresses, regeneration rounds
        and access streams from the production pipeline and from the
        same pipeline replaying on the reference interpreter."""
        program, _ = generate_racy_program(seed, CONFIG)
        bundle = trace_run(program, period=5, seed=seed)
        fast = OfflinePipeline(program).analyze(bundle)
        with interpreted():
            interp = OfflinePipeline(program).analyze(bundle)
        assert {r.pair for r in fast.races} == {r.pair for r in interp.races}
        assert fast.racy_addresses == interp.racy_addresses
        assert fast.regeneration_rounds == interp.regeneration_rounds
        assert fast.replay.per_thread == interp.replay.per_thread


class TestFixedPointCap:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           period=st.sampled_from([1, 3, 7, 23]),
           plan=st.none() | FAULT_PLANS)
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_cap_four_matches_cap_eight(self, seed, period, plan):
        """The fixed point converges well inside the default cap: more
        iterations recover nothing more, on clean and degraded traces."""
        program, _ = generate_racy_program(seed, CONFIG)
        bundle = trace_run(program, period=period, seed=seed)
        if plan is not None:
            bundle, _ = plan.apply(bundle)
        four = ReplayEngine(program, max_iterations=4).replay_bundle(bundle)
        eight = ReplayEngine(program, max_iterations=8).replay_bundle(bundle)
        assert four.per_thread == eight.per_thread
