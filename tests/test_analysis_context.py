"""AnalysisContext: round-invariant caching, selective invalidation,
streaming merge — the offline stage's artifact cache (§5.1, §7.6).

The contract under test:

* PT decode, record location and timeline construction happen exactly
  once per multi-round ``analyze()`` — regeneration rounds reuse them;
* a regeneration round re-replays only the threads whose program maps
  emulated a newly poisoned address; everything else is reused;
* the incremental (cached) pipeline reports exactly the same verdicts,
  rounds and replay statistics as the from-scratch per-round pipeline;
* the merged event stream is sorted strictly by the global event key and
  is reproducible across fresh contexts.
"""

import pytest

import repro.analysis.context as context_mod
from repro.analysis import AnalysisContext, OfflinePipeline
from repro.errors import UsageError
from repro.isa import assemble
from repro.tracing import trace_run
from tests.helpers import REGEN_ASM


@pytest.fixture(scope="module")
def regen_case():
    """A (program, bundle) pair whose analysis regenerates (>1 round)."""
    program = assemble(REGEN_ASM)
    cell = program.symbols["cell"]
    for seed in range(10):
        bundle = trace_run(program, period=4, seed=seed)
        result = OfflinePipeline(program).analyze(bundle)
        if result.detected(cell) and result.regeneration_rounds > 1:
            return program, bundle
    pytest.fail("no seed produced a regenerating analysis")


class TestDecodeOnce:
    def test_decode_called_exactly_once_across_rounds(self, regen_case,
                                                      monkeypatch):
        """The seed re-decoded nothing per round, but the context must
        guarantee it: one decode_all call for a whole multi-round
        analyze, observed from outside the cache."""
        program, bundle = regen_case
        calls = []
        real_decode_all = context_mod.decode_all_tolerant

        def counting_decode_all(*args, **kwargs):
            calls.append(1)
            return real_decode_all(*args, **kwargs)

        monkeypatch.setattr(context_mod, "decode_all_tolerant",
                            counting_decode_all)
        result = OfflinePipeline(program).analyze(bundle)
        assert result.regeneration_rounds > 1
        assert len(calls) == 1

    def test_context_counters(self, regen_case):
        program, bundle = regen_case
        pipeline = OfflinePipeline(program)
        context = pipeline.context_for(bundle)
        context.replay(frozenset())
        first_replayed = context.stats.threads_replayed
        assert context.stats.decode_calls == 1
        assert context.stats.timeline_builds == 1
        assert first_replayed == len(context.paths)
        # A second identical round reuses everything.
        context.replay(frozenset())
        assert context.stats.decode_calls == 1
        assert context.stats.timeline_builds == 1
        assert context.stats.threads_replayed == first_replayed
        assert context.stats.threads_reused >= len(context.paths)
        assert not context.last_replay_changed


class TestSelectiveInvalidation:
    def test_unrelated_poison_reuses_all_threads(self, regen_case):
        """Poisoning an address no replay emulated must not invalidate
        anything — the exact-invalidation predicate at work."""
        program, bundle = regen_case
        context = OfflinePipeline(program).context_for(bundle)
        first = context.replay(frozenset())
        emulated = set()
        for touched in first.emulated_touched.values():
            emulated |= touched
        bogus = max(emulated | {0}) + 10_000
        second = context.replay(frozenset({bogus}))
        assert not context.last_replay_changed
        assert second.per_thread == first.per_thread
        assert second.stats == first.stats

    def test_growing_poison_replays_only_touching_threads(self, regen_case):
        program, bundle = regen_case
        cell = program.symbols["cell"]
        context = OfflinePipeline(program).context_for(bundle)
        first = context.replay(frozenset())
        touching = [
            tid for tid, touched in first.emulated_touched.items()
            if cell in touched
        ]
        assert touching, "scenario must emulate the racy cell"
        before = context.stats.threads_replayed
        context.replay(frozenset({cell}))
        assert context.stats.threads_replayed - before == len(touching)

    def test_incremental_matches_from_scratch(self, regen_case):
        """The headline §5.1 property: the cached incremental context and
        a from-scratch pipeline agree on every verdict and statistic."""
        program, bundle = regen_case
        cached = OfflinePipeline(program, round_cache=True).analyze(bundle)
        scratch = OfflinePipeline(program, round_cache=False).analyze(bundle)
        assert {r.pair for r in cached.races} == \
            {r.pair for r in scratch.races}
        assert cached.racy_addresses == scratch.racy_addresses
        assert cached.regeneration_rounds == scratch.regeneration_rounds
        assert cached.replay.stats == scratch.replay.stats
        assert cached.replay.per_thread == scratch.replay.per_thread
        assert cached.events_processed == scratch.events_processed


class TestMergedStream:
    def test_keys_strictly_increasing(self, regen_case):
        program, bundle = regen_case
        context = OfflinePipeline(program).context_for(bundle)
        context.replay(frozenset())
        keys = [key for key, _ in context.merged_events()]
        assert keys, "stream must not be empty"
        assert all(a < b for a, b in zip(keys, keys[1:])), \
            "the (tsc, kind, tid, seq) event key must be a strict total order"

    def test_stream_reproducible_across_contexts(self, regen_case):
        """Fixed seed ⇒ bit-identical stream from two fresh contexts (the
        seed's sort left same-TSC cross-thread order to dict iteration;
        the total key pins it down)."""
        program, bundle = regen_case
        pipeline = OfflinePipeline(program)
        first_events, _ = pipeline.events_for(bundle)
        second_events, _ = pipeline.events_for(bundle)
        assert first_events == second_events

    def test_merged_events_requires_replay(self, regen_case):
        program, bundle = regen_case
        context = OfflinePipeline(program).context_for(bundle)
        # A usage bug, not a runtime fault: the typed taxonomy keeps the
        # two distinguishable for callers.
        with pytest.raises(UsageError):
            list(context.merged_events())

    def test_events_for_matches_context_stream(self, regen_case):
        program, bundle = regen_case
        pipeline = OfflinePipeline(program)
        events, _ = pipeline.events_for(bundle)
        context = pipeline.context_for(bundle)
        context.replay(frozenset())
        assert events == list(context.merged_events())


class TestTimingAttribution:
    def test_events_for_and_analyze_attribute_identically(self, regen_case):
        """The seed billed timeline construction to reconstruction in
        analyze() but left it untimed in events_for(); both now flow
        through the same context accumulators."""
        program, bundle = regen_case
        pipeline = OfflinePipeline(program)
        context = pipeline.context_for(bundle)
        context.replay(frozenset())
        list(context.merged_events())
        assert context.decode_seconds > 0
        assert context.reconstruction_seconds > 0

        analyzed = pipeline.analyze(bundle)
        assert analyzed.timings.decode_seconds > 0
        assert analyzed.timings.reconstruction_seconds > 0
        assert analyzed.timings.detection_seconds > 0


class TestSampledMode:
    def test_sampled_context_rounds_reuse(self, regen_case):
        program, bundle = regen_case
        context = AnalysisContext(program, bundle, mode="sampled")
        first = context.replay(frozenset())
        second = context.replay(frozenset({123}))
        assert not context.last_replay_changed
        assert first.per_thread == second.per_thread
        assert first.stats.sampled == len(bundle.samples) or \
            first.stats.sampled <= len(bundle.samples)
