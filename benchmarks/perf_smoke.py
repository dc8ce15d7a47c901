"""CI perf smoke: the micro-op replay path must beat the interpreter.

A deliberately small, fast guard (seconds, not minutes) run on every CI
build; the full measurements live in ``benchmarks/test_replay_speed.py``
and ``docs/performance.md``.  Fails loudly if the compiled replay path
stops being faster than the instruction interpreter on the forward
reconstruction hot loop, or if the detector-backend registry's indirection
makes the FastTrack fast path measurably slower than constructing
FastTrack directly (the backend refactor's <5% contract against the
BENCH_replay.json fast-path numbers).

Also guards the fleet race database: redelivered bundles must be
refused on the cheap in-memory path (no append, no fsync), so the
dedup path has to be decisively faster than first-time inserts, and
inserts themselves must clear a generous absolute floor.

Run directly: ``PYTHONPATH=src python benchmarks/perf_smoke.py``
"""

import sys
import tempfile
import time
from pathlib import Path

from detect_stream import locality_stream, warm
from repro.analysis import OfflinePipeline
from repro.detector.events import Access, AccessKind, WitnessStep
from repro.detector.fasttrack import FastTrack
from repro.detector.registry import create_backend
from repro.fleet import RaceDatabase
from repro.machine import Machine, ScheduleController
from repro.tracing import trace_run
from repro.workloads import PARSEC_WORKLOADS, WorkloadScale

# Generous margins: CI runners are noisy, and this guard should only
# trip on real regressions (measured: 2.7-3.3x on a 2-core container).
MIN_JIT_SPEEDUP = 1.15
#: Registry indirection budget over direct FastTrack (the loops are
#: identical after the pipeline's method pre-binding, so anything above
#: this is a real protocol regression, not noise).
MAX_REGISTRY_OVERHEAD = 0.05
REPEATS = 3
#: Race-DB floors: dedup refusal skips the append+fsync entirely, so it
#: must beat first-time inserts by a wide margin; the insert floor is
#: set far below local numbers (fsync-per-append on CI disks is slow,
#: but not *that* slow).
MIN_DEDUP_SPEEDUP = 3.0
MIN_RACEDB_INSERTS_PER_SEC = 100.0
RACEDB_BUNDLES = 300
#: The columnar feed_batch fast path must decisively beat the scalar
#: access() loop on the replay-shaped locality stream (measured locally
#: ~3.3x; BENCH_detect.json tracks the full number) — and, being the
#: pipeline default, it must never be *slower*.  The floor leaves room
#: for noisy CI runners while still catching any real regression.
MIN_BATCH_SPEEDUP = 1.5
BATCH_STREAM_EVENTS = 30_000
#: Clock reconciliation keys the merged stream on a separate
#: ``key_tscs`` column (uncertainty-clamped merge keys); with the flag
#: off the column aliases ``tscs`` and the layout is bit-identical to
#: pre-clock builds.  The corrected-key layout must stay within 5% of
#: the aliased one on the columnar feed path — same array type, same
#: bisects, so anything above this is a real keying regression.
MAX_CLOCK_KEY_OVERHEAD = 0.05
#: Confirmation-replay tax: a ScheduleController that diverges early
#: (the worst case — an unconfirmed replay pays the controller hooks
#: and then free-runs the whole program) must cost <10% wall clock over
#: an identical controller-free run.
MAX_CONTROLLER_OVERHEAD = 0.10


def _recon_seconds(program, bundle, jit):
    best = None
    for _ in range(REPEATS):
        result = OfflinePipeline(program, mode="forward",
                                 jit=jit).analyze(bundle)
        seconds = result.timings.reconstruction_seconds
        if best is None or seconds < best:
            best = seconds
    return best


def _detector_stream(events=40_000):
    """The same read-heavy stream shape BENCH_replay's fast-path
    measurement uses (most accesses hit the same-epoch fast paths)."""
    accesses = []
    for i in range(events):
        tid = 1 + ((i >> 6) & 1)
        var = (0x1000 + (i % 64) * 8, 0)
        kind = AccessKind.WRITE if i % 16 == 0 else AccessKind.READ
        accesses.append(Access(tid=tid, var=var, kind=kind,
                               ip=i % 97, tsc=float(i),
                               provenance="bench"))
    return accesses


def _detector_seconds(factory, accesses, repeats=5):
    """Best-of-N seconds for one full detector pass, pre-bound access
    method — the exact loop shape of the pipeline's single-backend fast
    path."""
    best = None
    for _ in range(repeats):
        detector = factory()
        d_access = detector.access
        t0 = time.perf_counter()
        for access in accesses:
            d_access(access)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best


def _batch_gate_seconds(repeats=5):
    """Best-of-N (scalar seconds, batched seconds) for one FastTrack
    pass over the shared replay-shaped locality stream — the batched
    pass runs the exact ``feed_batch`` spans the pipeline's splice
    merge emits, and both passes must agree report-for-report."""
    accesses, chunks = locality_stream(events=BATCH_STREAM_EVENTS)
    warm(chunks)
    best_scalar = best_batched = None
    for _ in range(repeats):
        scalar = FastTrack()
        d_access = scalar.access
        t0 = time.perf_counter()
        for access in accesses:
            d_access(access)
        elapsed = time.perf_counter() - t0
        if best_scalar is None or elapsed < best_scalar:
            best_scalar = elapsed

        batched = FastTrack()
        d_feed = batched.feed_batch
        t0 = time.perf_counter()
        for batch, base in chunks:
            d_feed(batch, 0, len(batch), base)
        elapsed = time.perf_counter() - t0
        if best_batched is None or elapsed < best_batched:
            best_batched = elapsed
        assert batched.races == scalar.races, "batched verdicts diverged"
        assert batched.accesses_processed == scalar.accesses_processed
    return len(accesses), best_scalar, best_batched


def _clock_key_chunks(chunks):
    """The locality chunks re-laid-out the way an engaged clock model
    builds them: ``key_tscs`` a *separate* identity-populated column
    instead of aliasing ``tscs``.  Every other column (and the warmed
    ``next_change`` index) is shared, so a timing delta isolates the
    cost of the second timestamp array."""
    from array import array

    from repro.detector.batch import EventBatch

    keyed = []
    for batch, base in chunks:
        clone = EventBatch(batch.tid)
        clone.tscs = batch.tscs
        clone.key_tscs = array("d", batch.tscs)
        clone.vars = batch.vars
        clone.kinds = batch.kinds
        clone.ips = batch.ips
        clone.steps = batch.steps
        clone.prov_codes = batch.prov_codes
        clone.prov_table = batch.prov_table
        clone.taints = batch.taints
        clone._nxt = batch._nxt
        keyed.append((clone, base))
    return keyed


def _clock_key_gate_seconds(repeats=5):
    """Best-of-N (aliased seconds, separate-key seconds) for one
    FastTrack pass that enumerates each batch through the merge's
    ``run_end`` bisection (keyed on ``key_tscs``) and feeds the
    resulting runs — the splice-merge loop shape of the pipeline, on
    both key layouts."""
    from repro.detector.events import EVENT_KIND_SYNC

    _accesses, chunks = locality_stream(events=BATCH_STREAM_EVENTS)
    warm(chunks)
    keyed = _clock_key_chunks(chunks)
    last_bound = (float("inf"), EVENT_KIND_SYNC, -1)

    def one_pass(chunk_list):
        detector = FastTrack()
        d_feed = detector.feed_batch
        t0 = time.perf_counter()
        for index, (batch, base) in enumerate(chunk_list):
            n = len(batch)
            bound = (chunk_list[index + 1][0].key_at(0)
                     if index + 1 < len(chunk_list) else last_bound)
            pos = 0
            while pos < n:
                end = batch.run_end(pos, bound)
                if end <= pos:
                    end = n
                d_feed(batch, pos, end, base + pos)
                pos = end
        return time.perf_counter() - t0, detector

    best_aliased = best_keyed = None
    for _ in range(repeats):
        elapsed, plain_det = one_pass(chunks)
        if best_aliased is None or elapsed < best_aliased:
            best_aliased = elapsed
        elapsed, keyed_det = one_pass(keyed)
        if best_keyed is None or elapsed < best_keyed:
            best_keyed = elapsed
        assert keyed_det.races == plain_det.races, \
            "identity merge keys changed verdicts"
    return len(_accesses), best_aliased, best_keyed


def _controller_seconds(program, repeats=REPEATS):
    """Best-of-N (free-run seconds, diverging-controller seconds) for
    one full machine execution — the confirmation service's unconfirmed
    replay shape: the schedule never matches, the controller burns its
    step budget, deactivates, and the machine free-runs the rest."""
    best_free = best_driven = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        Machine(program, num_cores=4, seed=1).run()
        elapsed = time.perf_counter() - t0
        if best_free is None or elapsed < best_free:
            best_free = elapsed

        # A schedule step no instruction can ever match: the controller
        # spends its whole budget, diverges, and hands the run back.
        steps = [WitnessStep(tid=0, op="write", detail=10**9)]
        controller = ScheduleController(steps, step_budget=64)
        t0 = time.perf_counter()
        Machine(program, num_cores=4, seed=1,
                controller=controller).run()
        elapsed = time.perf_counter() - t0
        assert controller.diverged, "gate expects an unconfirmed replay"
        if best_driven is None or elapsed < best_driven:
            best_driven = elapsed
    return best_free, best_driven


def _racedb_seconds(bundles=RACEDB_BUNDLES):
    """Best-of-N (insert seconds, dedup-refusal seconds) for folding
    *bundles* findings into a fresh on-disk race DB and then replaying
    the exact same deliveries against it."""
    sigs = [
        {"workload": "bench", "variable": f"v{i % 32}",
         "context": ["a", "b"], "pair": [i % 32, 1 + i % 32],
         "key": f"k{i % 32}", "desc": "bench race"}
        for i in range(bundles)
    ]
    best = None
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as tmp:
            with RaceDatabase(Path(tmp) / "races.db") as db:
                t0 = time.perf_counter()
                for i, sig in enumerate(sigs):
                    db.apply_bundle(f"b{i:05d}", [sig], probability=0.5)
                insert = time.perf_counter() - t0
                t0 = time.perf_counter()
                for i, sig in enumerate(sigs):
                    db.apply_bundle(f"b{i:05d}", [sig], probability=0.5)
                dedup = time.perf_counter() - t0
                assert db.double_counted == 0
        if best is None or insert < best[0]:
            best = (insert, dedup)
    return best


def main():
    scale = WorkloadScale(iterations=150, data_words=64)
    program = PARSEC_WORKLOADS["blackscholes"].build(scale)
    bundle = trace_run(program, period=50, seed=1)

    interp = _recon_seconds(program, bundle, jit=False)
    jit = _recon_seconds(program, bundle, jit=True)
    speedup = interp / jit
    print(f"forward reconstruction: interpreter {interp * 1e3:.1f} ms, "
          f"micro-op {jit * 1e3:.1f} ms -> {speedup:.2f}x")

    accesses = _detector_stream()
    direct = _detector_seconds(FastTrack, accesses)
    registered = _detector_seconds(
        lambda: create_backend("fasttrack"), accesses)
    registry_overhead = registered / direct - 1.0
    print(f"fasttrack fast path: direct {direct * 1e3:.1f} ms, "
          f"via registry {registered * 1e3:.1f} ms -> "
          f"{100 * registry_overhead:+.1f}% "
          f"({len(accesses) / registered:,.0f} events/sec)")

    events, scalar_s, batched_s = _batch_gate_seconds()
    batch_speedup = scalar_s / batched_s
    print(f"columnar feed_batch: scalar {scalar_s * 1e3:.1f} ms, "
          f"batched {batched_s * 1e3:.1f} ms -> {batch_speedup:.2f}x "
          f"({events / batched_s:,.0f} events/sec)")

    key_events, aliased_s, keyed_s = _clock_key_gate_seconds()
    clock_key_overhead = keyed_s / aliased_s - 1.0
    print(f"clock merge keys: aliased {aliased_s * 1e3:.1f} ms, "
          f"separate key_tscs {keyed_s * 1e3:.1f} ms -> "
          f"{100 * clock_key_overhead:+.1f}% "
          f"({key_events / keyed_s:,.0f} events/sec)")

    insert, dedup = _racedb_seconds()
    insert_rate = RACEDB_BUNDLES / insert
    dedup_speedup = insert / dedup
    print(f"race DB: {RACEDB_BUNDLES} inserts in {insert * 1e3:.1f} ms "
          f"({insert_rate:,.0f}/sec), redelivery refused in "
          f"{dedup * 1e3:.1f} ms -> {dedup_speedup:.1f}x")

    free_s, driven_s = _controller_seconds(program)
    controller_overhead = driven_s / free_s - 1.0
    print(f"schedule controller (diverging/unconfirmed replay): "
          f"free {free_s * 1e3:.1f} ms, controlled {driven_s * 1e3:.1f} ms "
          f"-> {100 * controller_overhead:+.1f}%")

    failures = []
    if controller_overhead > MAX_CONTROLLER_OVERHEAD:
        failures.append(
            f"schedule controller costs {100 * controller_overhead:.1f}% "
            f"on an unconfirmed replay "
            f"(budget {100 * MAX_CONTROLLER_OVERHEAD:.0f}%) — the "
            f"run loop's controller hooks are supposed to be free once "
            f"the controller deactivates")
    if insert_rate < MIN_RACEDB_INSERTS_PER_SEC:
        failures.append(
            f"race DB inserts only {insert_rate:,.0f}/sec "
            f"(floor {MIN_RACEDB_INSERTS_PER_SEC:,.0f}/sec)")
    if dedup_speedup < MIN_DEDUP_SPEEDUP:
        failures.append(
            f"race DB dedup refusal only {dedup_speedup:.1f}x faster "
            f"than insert (floor {MIN_DEDUP_SPEEDUP}x) — is redelivery "
            f"hitting the disk?")
    if clock_key_overhead > MAX_CLOCK_KEY_OVERHEAD:
        failures.append(
            f"separate clock merge-key column costs "
            f"{100 * clock_key_overhead:.1f}% on the columnar feed path "
            f"(budget {100 * MAX_CLOCK_KEY_OVERHEAD:.0f}%) — corrected-"
            f"key ordering is supposed to ride the same bisects")
    if batch_speedup < MIN_BATCH_SPEEDUP:
        failures.append(
            f"columnar feed_batch only {batch_speedup:.2f}x vs the "
            f"scalar access loop (floor {MIN_BATCH_SPEEDUP}x) — the "
            f"pipeline default is supposed to be the fast path")
    if registry_overhead > MAX_REGISTRY_OVERHEAD:
        failures.append(
            f"registry indirection costs {100 * registry_overhead:.1f}% "
            f"on the FastTrack fast path "
            f"(budget {100 * MAX_REGISTRY_OVERHEAD:.0f}%)")
    if speedup < MIN_JIT_SPEEDUP:
        failures.append(
            f"micro-op replay only {speedup:.2f}x vs interpreter "
            f"(floor {MIN_JIT_SPEEDUP}x)")
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
