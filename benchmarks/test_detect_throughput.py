"""Detection-core throughput: scalar ``access()`` loop vs columnar
``feed_batch``.

The columnar pipeline (``docs/performance.md``, "Columnar pipeline")
promises that ``feed_batch`` — one dict probe + int compare per
fast-path event, whole repeat groups skipped via the ``next_change``
index — beats the scalar ``access()`` loop by ≥3x on the replay-shaped
locality stream (the ~1.4M events/sec scalar baseline of
BENCH_replay.json), with **bit-identical** verdicts: same races, same
order, same accesses_processed.

This is a microbenchmark of the detector core on a synthetic stream;
end-to-end detection time on real traces is ``detector.feed_s`` in the
``e2ebench`` run.  Numbers go to ``benchmarks/results/BENCH_detect.json``;
assertions are shape-level with slack for CI-runner noise.
"""

import json
import time

from repro.detector.fasttrack import FastTrack

from conftest import write_table
from detect_stream import locality_stream, warm

EVENTS = 60_000
REPEATS = 7
#: Measured locally ~3.3x; the floor leaves room for a loaded runner
#: while still failing if the columnar path loses its edge.
MIN_BATCH_SPEEDUP = 2.5


def _best(fn, repeats=REPEATS):
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _scalar_pass(accesses):
    detector = FastTrack()
    d_access = detector.access
    for access in accesses:
        d_access(access)
    return detector


def _batched_pass(chunks):
    detector = FastTrack()
    d_feed = detector.feed_batch
    for batch, _base in chunks:
        d_feed(batch, 0, len(batch))
    return detector


def measure():
    accesses, chunks = locality_stream(events=EVENTS)
    warm(chunks)
    n = len(accesses)

    scalar_s, scalar = _best(lambda: _scalar_pass(accesses))
    batched_s, batched = _best(lambda: _batched_pass(chunks))
    assert batched.races == scalar.races
    assert batched.accesses_processed == scalar.accesses_processed == n

    return {
        "events": n,
        "repeats": REPEATS,
        "races": len(scalar.races),
        "scalar": {"seconds": scalar_s, "events_per_sec": n / scalar_s},
        "batched": {
            "seconds": batched_s,
            "events_per_sec": n / batched_s,
            "speedup_vs_scalar": scalar_s / batched_s,
        },
    }


def test_detect_throughput(benchmark, profile, results_dir):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    (results_dir / "BENCH_detect.json").write_text(
        json.dumps(results, indent=2) + "\n")

    lines = [f"({results['events']} events, min of {REPEATS}, "
             f"{results['races']} races — identical in both passes)",
             f"scalar access loop : "
             f"{results['scalar']['events_per_sec']:>12,.0f} events/sec",
             f"columnar feed_batch: "
             f"{results['batched']['events_per_sec']:>12,.0f} events/sec "
             f"({results['batched']['speedup_vs_scalar']:.2f}x)"]
    write_table(results_dir, "BENCH_detect", lines)

    assert results["batched"]["speedup_vs_scalar"] > MIN_BATCH_SPEEDUP


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2))
