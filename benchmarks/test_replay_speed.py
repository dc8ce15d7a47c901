"""Replay-compilation speed: interpreter vs micro-op IR.

The compiled replay path (``docs/performance.md``) promises two things,
each measured here and written to ``benchmarks/results/BENCH_replay.json``:

* the micro-op executor beats the instruction interpreter by ≥2x on the
  forward-replay hot loop (reconstruction phase, decode excluded), and
* the FastTrack fast paths sustain a healthy events/sec rate.

Assertions are shape-level with slack for CI-runner noise; the JSON keeps
the exact measured numbers for the docs.
"""

import json
import time

from repro.analysis import OfflinePipeline
from repro.detector.events import Access, AccessKind
from repro.detector.fasttrack import FastTrack
from repro.replay import ReplayEngine
from repro.tracing import trace_run
from repro.workloads import PARSEC_WORKLOADS

from conftest import write_table

WORKLOAD_NAMES = ("blackscholes", "swaptions")
PERIOD = 50
REPEATS = 3


def _best(fn, repeats=REPEATS):
    """Wall-clock min over *repeats* runs (robust against scheduler
    noise); returns (seconds, last result)."""
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _forward_hot_loop(program, bundle):
    """Reconstruction-phase seconds (decode excluded), forward mode —
    the micro-op executor's hot loop, interpreter vs compiled."""

    def recon(jit):
        return OfflinePipeline(program, mode="forward",
                               jit=jit).analyze(bundle)

    runs_interp = [recon(False) for _ in range(REPEATS)]
    runs_jit = [recon(True) for _ in range(REPEATS)]
    s_interp = min(r.timings.reconstruction_seconds for r in runs_interp)
    s_jit = min(r.timings.reconstruction_seconds for r in runs_jit)
    steps = runs_interp[0].replay.stats.executed_steps
    return {
        "total_steps": steps,
        "interpreter": {
            "seconds": s_interp,
            "steps_per_sec": steps / s_interp,
        },
        "microop": {
            "seconds": s_jit,
            "steps_per_sec": steps / s_jit,
            "speedup_vs_interpreter": s_interp / s_jit,
        },
    }


def _bundle_replay(program, bundle):
    """End-to-end ``replay_bundle`` (decode + full fixed-point replay)."""
    t_interp, r = _best(
        lambda: ReplayEngine(program, jit=False).replay_bundle(bundle))
    t_jit, _ = _best(
        lambda: ReplayEngine(program, jit=True).replay_bundle(bundle))
    steps = r.stats.executed_steps
    return {
        "total_steps": steps,
        "interpreter": {"seconds": t_interp,
                        "steps_per_sec": steps / t_interp},
        "microop": {"seconds": t_jit,
                    "steps_per_sec": steps / t_jit,
                    "speedup_vs_interpreter": t_interp / t_jit},
    }


def _fasttrack_events():
    """Detector throughput on a read-heavy stream (the shape replay
    produces: most accesses re-read a location in the same epoch and
    take the allocation-free fast path)."""
    accesses = []
    for i in range(40_000):
        # Threads swap over the variable set every 64 accesses, so
        # unsynchronized cross-thread pairs (= races) do occur.
        tid = 1 + ((i >> 6) & 1)
        var = (0x1000 + (i % 64) * 8, 0)
        kind = AccessKind.WRITE if i % 16 == 0 else AccessKind.READ
        accesses.append(Access(tid=tid, var=var, kind=kind,
                               ip=i % 97, tsc=float(i),
                               provenance="bench"))

    def run():
        ft = FastTrack()
        for access in accesses:
            ft.access(access)
        return ft

    seconds, ft = _best(run)
    return {
        "events": len(accesses),
        "seconds": seconds,
        "events_per_sec": len(accesses) / seconds,
        "races_found": len(ft.races),
    }


def measure(profile):
    results = {"profile": profile.name, "period": PERIOD, "workloads": {}}
    for name in WORKLOAD_NAMES:
        program = PARSEC_WORKLOADS[name].build(profile.workload_scale)
        bundle = trace_run(program, period=PERIOD, seed=1)
        results["workloads"][name] = {
            "forward_hot_loop": _forward_hot_loop(program, bundle),
            "bundle_replay": _bundle_replay(program, bundle),
        }
    results["fasttrack"] = _fasttrack_events()
    return results


def test_replay_speed(benchmark, profile, results_dir):
    results = benchmark.pedantic(lambda: measure(profile), rounds=1,
                                 iterations=1)

    (results_dir / "BENCH_replay.json").write_text(
        json.dumps(results, indent=2) + "\n")

    header = f"{'Workload':14s}{'hot-loop x':>11s}{'bundle x':>10s}"
    lines = [f"(period {PERIOD}, min of {REPEATS})",
             header, "-" * len(header)]
    for name, row in results["workloads"].items():
        lines.append(
            f"{name:14s}"
            f"{row['forward_hot_loop']['microop']['speedup_vs_interpreter']:11.2f}"
            f"{row['bundle_replay']['microop']['speedup_vs_interpreter']:10.2f}"
        )
    ft = results["fasttrack"]
    lines.append("")
    lines.append(f"FastTrack: {ft['events_per_sec']:,.0f} events/sec "
                 f"({ft['events']} events)")
    write_table(results_dir, "BENCH_replay", lines)

    hot = [row["forward_hot_loop"]["microop"]["speedup_vs_interpreter"]
           for row in results["workloads"].values()]
    # ~2.1-2.3x measured; 1.5 leaves room for noisy CI runners.
    assert min(hot) > 1.5
    for row in results["workloads"].values():
        assert row["bundle_replay"]["microop"]["speedup_vs_interpreter"] > 1.2
    assert ft["events_per_sec"] > 100_000
    assert ft["races_found"] > 0
