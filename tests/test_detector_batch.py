"""The columnar batch pipeline must be an invisible optimization.

Three layers of differential evidence against the scalar reference
(:func:`tests.helpers.scalar_detection`: ``merged_events()`` fed one
event at a time through ``sync``/``access``):

* **pipeline-level**: every regeneration round of the batched
  ``analyze()`` pass produces bit-identical reports and counters over
  the Table 2 corpus, pristine and degraded — including crash-truncated
  bundles, where suppression is baked into the batch columns instead of
  filtered per event — and over a bundle that regenerates;
* **stream-level**: the spliced batch merge enumerates exactly the
  events (and keys) the scalar heap merge does;
* **detector-level** (hypothesis): on random multi-thread access/sync
  streams, ``feed_batch`` agrees with the scalar ``access()`` loop
  report-for-report, in order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.context import AnalysisContext
from repro.detector.batch import BATCH_SYNC, EventBatch
from repro.detector.events import ACCESS_READ, ACCESS_WRITE, SyncOp
from repro.detector.fasttrack import FastTrack
from repro.detector.vectorclock import Epoch, VectorClock
from repro.faults import builtin_plans, clock_plans
from repro.isa import assemble
from repro.tracing import trace_run
from repro.workloads import RACE_BUGS, WorkloadScale
from tests.helpers import REGEN_ASM, assert_batched_matches_scalar

SCALE = WorkloadScale(iterations=8, threads=4)
CORPUS = ("pfscan", "mysql-791", "apache-25520")
PLANS = ("pebs-overflow", "pt-gap", "crash-truncation", "tsc-jitter")
CLOCK_PLANS = ("clock-skew", "clock-regress", "clock-combined")


def _bundle(name, seed, plan_name=None):
    program = RACE_BUGS[name].build(SCALE)
    bundle = trace_run(program, period=100, seed=seed)
    if plan_name in CLOCK_PLANS:
        bundle, _ = clock_plans(0.4, seed=seed)[plan_name].apply(bundle)
    elif plan_name is not None:
        bundle, _ = builtin_plans(0.2, seed=seed)[plan_name].apply(bundle)
    return program, bundle


# ----------------------------------------------------------------------
# Pipeline-level differential: batched analyze() vs the scalar reference
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("seed", [0, 3])
def test_batched_matches_scalar_pristine(name, seed):
    program, bundle = _bundle(name, seed)
    assert_batched_matches_scalar(program, bundle)


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("plan_name", PLANS)
def test_batched_matches_scalar_degraded(name, plan_name):
    program, bundle = _bundle(name, 0, plan_name)
    assert_batched_matches_scalar(program, bundle)


def test_batched_matches_scalar_across_regeneration_rounds():
    """Round by round on a bundle whose analysis regenerates (§5.1):
    every poisoned round must match the scalar reference too."""
    program = assemble(REGEN_ASM)
    for seed in range(10):
        bundle = trace_run(program, period=4, seed=seed)
        result = assert_batched_matches_scalar(program, bundle)
        if result.regeneration_rounds > 1:
            return
    pytest.fail("no seed produced a regenerating analysis")


# ----------------------------------------------------------------------
# Stream-level: the splice merge IS the scalar merge
# ----------------------------------------------------------------------


@pytest.mark.parametrize("plan_name", (None,) + PLANS + CLOCK_PLANS)
def test_merged_batches_enumerates_merged_events(plan_name):
    """Flattening the batch runs must reproduce the scalar stream
    exactly: same events, same keys, and the same
    truncation-suppression count."""
    program, bundle = _bundle("pfscan", 0, plan_name)
    ctx = AnalysisContext(program, bundle)
    ctx.replay()

    scalar = list(ctx.merged_events())
    scalar_suppressed = ctx.suppressed_accesses

    flat = []
    for item in ctx.merged_batches():
        if item[0] == BATCH_SYNC:
            flat.append((None, item[1]))
        else:
            _, batch, start, stop = item
            assert 0 <= start < stop <= len(batch)
            for i in range(start, stop):
                flat.append((batch.key_at(i), batch.access_at(i)))
    assert ctx.suppressed_accesses == scalar_suppressed

    assert len(flat) == len(scalar)
    for (key, event), (scalar_key, scalar_event) in zip(flat, scalar):
        if key is not None:
            assert key == scalar_key
        assert event == scalar_event


def test_default_feed_batch_fallback_is_scalar():
    """A backend without a columnar fast path gets the default
    materialize-and-delegate feed_batch — same verdicts either way."""
    program, bundle = _bundle("mysql-791", 0)
    assert_batched_matches_scalar(program, bundle, detectors=("lockset",))


# ----------------------------------------------------------------------
# Batch internals
# ----------------------------------------------------------------------


def _hand_batch(tid, triples):
    """Build a batch from (var_address, kind, tsc) triples directly."""
    batch = EventBatch(tid)
    batch.prov_table.append("sampled")
    for i, (address, kind, tsc) in enumerate(triples):
        batch.tscs.append(float(tsc))
        batch.vars.append((address, 0))
        batch.kinds.append(kind)
        batch.ips.append(1000 * tid + i)
        batch.steps.append(i)
        batch.prov_codes.append(0)
    return batch


@given(pairs=st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
    max_size=60,
))
@settings(max_examples=60, deadline=None)
def test_next_change_is_first_differing_position(pairs):
    triples = [(8 * var, ACCESS_WRITE if is_write else ACCESS_READ, i)
               for i, (var, is_write) in enumerate(pairs)]
    batch = _hand_batch(0, triples)
    nxt = batch.next_change
    n = len(pairs)
    assert len(nxt) == n
    for i in range(n):
        expected = next(
            (j for j in range(i + 1, n) if pairs[j] != pairs[i]), n)
        assert nxt[i] == expected
    # Cached: the second access returns the same array object.
    assert batch.next_change is nxt


@given(
    entries=st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=6), max_size=5),
    clock=st.integers(min_value=0, max_value=7),
    tid=st.integers(min_value=-1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_covers_raw_matches_covers_epoch(entries, clock, tid):
    vc = VectorClock(dict(entries))
    assert vc.covers_raw(clock, tid) == vc.covers_epoch(Epoch(clock, tid))


# ----------------------------------------------------------------------
# Detector-level hypothesis differential
# ----------------------------------------------------------------------

#: One stream event: (tid 0-2, var 0-3, is_write) or a sync op
#: (lock/unlock on one of two locks).
_ACCESS = st.tuples(
    st.just("access"),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)
_SYNC = st.tuples(
    st.just("sync"),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["lock", "unlock"]),
    st.integers(min_value=0, max_value=1),
)
_STREAM = st.lists(st.one_of(_ACCESS, _SYNC), min_size=1, max_size=80)


def _lower(stream):
    """Lower a generated stream into per-thread batches plus the merged
    run/sync plan (the same shape ``merged_batches`` emits)."""
    batches = {}
    plan = []
    for tick, event in enumerate(stream):
        if event[0] == "sync":
            _, tid, kind, lock = event
            plan.append(("sync", SyncOp(tid=tid, kind=kind,
                                        target=0x9000 + 16 * lock,
                                        tsc=float(tick))))
            continue
        _, tid, var, is_write = event
        batch = batches.get(tid)
        if batch is None:
            batch = batches[tid] = _hand_batch(tid, [])
        position = len(batch)
        batch.tscs.append(float(tick))
        batch.vars.append((0x8000 + 8 * var, 0))
        batch.kinds.append(ACCESS_WRITE if is_write else ACCESS_READ)
        batch.ips.append(1000 * tid + position)
        batch.steps.append(position)
        batch.prov_codes.append(0)
        if plan and plan[-1][0] == "run" and plan[-1][1] is batch:
            plan[-1] = ("run", batch, plan[-1][2], position + 1)
        else:
            plan.append(("run", batch, position, position + 1))
    return batches, plan


def _run_scalar(plan):
    detector = FastTrack()
    for item in plan:
        if item[0] == "sync":
            detector.sync(item[1])
        else:
            _, batch, start, stop = item
            for i in range(start, stop):
                detector.access(batch.access_at(i))
    return detector


def _run_batched(plan):
    detector = FastTrack()
    for item in plan:
        if item[0] == "sync":
            detector.sync(item[1])
        else:
            _, batch, start, stop = item
            detector.feed_batch(batch, start, stop)
    return detector


@given(stream=_STREAM)
@settings(max_examples=120, deadline=None)
def test_feed_batch_matches_scalar_access_loop(stream):
    batches, plan = _lower(stream)
    scalar = _run_scalar(plan)
    batched = _run_batched(plan)
    assert batched.races == scalar.races
    assert batched.accesses_processed == scalar.accesses_processed
    assert batched.sync_processed == scalar.sync_processed


def test_feed_batch_matches_scalar_on_mid_batch_runs():
    """Runs that start deep inside one batch (thread 1's second run
    starts at batch position 50) next to runs starting near 0 (thread
    2's): the two races at consecutive stream positions must come out
    in scalar order."""
    stream = []
    for g in range(50):  # t1 filler; vC at stream position 10
        stream.append(("access", 1, 3 if g == 10 else 0, True))
    stream[0] = ("access", 1, 1, True)
    stream.append(("access", 2, 2, True))   # t2 writes vB
    stream.append(("access", 1, 2, True))   # race on vB
    stream.append(("access", 2, 3, True))   # race on vC
    _batches, plan = _lower(stream)
    assert [item[2] for item in plan] == [0, 0, 50, 1]
    scalar = _run_scalar(plan)
    batched = _run_batched(plan)
    assert len(scalar.races) == 2
    assert batched.races == scalar.races
