"""Differential tests for the compiled replay path.

The micro-op executor is pure performance work: it must be *invisible*
— bit-identical ``RecoveredAccess`` streams (position, ip, address,
kind, provenance, taint) against the interpreter on every workload,
every replay mode and every fault plan.  These tests are the contract.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OfflinePipeline
from repro.faults import FaultPlan
from repro.replay import ReplayEngine
from repro.tracing import trace_run
from repro.workloads import GeneratorConfig, generate_racy_program

CONFIG = GeneratorConfig(threads=2, body_length=24, loop_iterations=2)


def replay(program, bundle, mode="full", jit=True):
    return ReplayEngine(program, mode=mode, jit=jit).replay_bundle(bundle)


class TestDifferential:
    @pytest.mark.parametrize("mode", ["full", "forward", "basicblock"])
    @pytest.mark.parametrize("period", [1, 4, 17])
    def test_fixture_programs_bit_identical(self, clean_program,
                                            racy_program, mode, period):
        for program in (clean_program, racy_program):
            bundle = trace_run(program, period=period, seed=3)
            interp = replay(program, bundle, mode=mode, jit=False)
            jit = replay(program, bundle, mode=mode, jit=True)
            assert jit.per_thread == interp.per_thread

    @given(seed=st.integers(min_value=0, max_value=10_000),
           period=st.sampled_from([1, 3, 7, 23]))
    @settings(max_examples=12, deadline=None)
    def test_random_programs_bit_identical(self, seed, period):
        program, _ = generate_racy_program(seed, CONFIG)
        bundle = trace_run(program, period=period, seed=seed)
        interp = replay(program, bundle, jit=False)
        jit = replay(program, bundle, jit=True)
        assert jit.per_thread == interp.per_thread

    @given(seed=st.integers(min_value=0, max_value=10_000),
           plan=st.builds(
               FaultPlan,
               seed=st.integers(min_value=0, max_value=1_000),
               sample_drop=st.floats(0.0, 1.0),
               pt_gap=st.floats(0.0, 1.0),
               log_truncation=st.floats(0.0, 1.0),
               tsc_jitter=st.floats(0.0, 1.0),
           ))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_faulted_bundles_bit_identical(self, seed, plan):
        """Degraded traces (gaps, dropped samples, torn logs) exercise
        segment boundaries and window aborts; the JIT must track the
        interpreter through all of them."""
        program, _ = generate_racy_program(seed, CONFIG)
        bundle = trace_run(program, period=5, seed=seed)
        degraded, _ = plan.apply(bundle)
        interp = replay(program, degraded, jit=False)
        jit = replay(program, degraded, jit=True)
        assert jit.per_thread == interp.per_thread

    def test_decode_segment_boundaries_stay_bit_identical(self,
                                                         racy_program):
        """PT gaps split decode into segments; windows never cross them,
        and the micro-op executor tracks the interpreter across every
        segment boundary."""
        program = racy_program
        bundle = trace_run(program, period=4, seed=7)
        degraded, defects = FaultPlan(seed=3, pt_gap=0.4).apply(bundle)
        assert defects.pt_gaps > 0
        interp = replay(program, degraded, jit=False)
        jit = replay(program, degraded, jit=True)
        assert jit.per_thread == interp.per_thread

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_pipeline_jit_is_invisible(self, seed):
        """End to end: identical races, addresses, regeneration rounds
        and access streams with and without the JIT (the `--no-jit`
        contract)."""
        program, _ = generate_racy_program(seed, CONFIG)
        bundle = trace_run(program, period=5, seed=seed)
        jit = OfflinePipeline(program, jit=True).analyze(bundle)
        nojit = OfflinePipeline(program, jit=False).analyze(bundle)
        assert {r.pair for r in jit.races} == {r.pair for r in nojit.races}
        assert jit.racy_addresses == nojit.racy_addresses
        assert jit.regeneration_rounds == nojit.regeneration_rounds
        assert jit.replay.per_thread == nojit.replay.per_thread
