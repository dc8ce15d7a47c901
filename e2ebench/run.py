"""End-to-end benchmark: time from trace container to race verdict.

One process, one client, closed loop: each job traces a program at the
job's seed, serializes the trace container and then, timed as the
verdict, parses it, runs the offline pipeline and -- on racy traces --
confirms every reported race (see ``corpus.py``).  Every verdict is
checked against the known answer.

    python3 e2ebench/run.py --workload mysql-dense --seed 0 --seconds 40 --trace 0

A run is a whole number of passes over the workload's pool of inputs,
set by ``--seconds`` and the workload's nominal pass time, so each input
counts the same in every run.  ``--trace 0`` prints the end-to-end
metrics.  ``--trace 1`` runs half as many passes untraced and as many
again traced, prints the per-layer metrics and
writes the spans to ``e2ebench/out/<workload>-seed<N>.trace.json``
(Chrome trace-event JSON; open it in Perfetto).  Both modes store a
report with the input fingerprint in ``e2ebench/out/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every job ran
and every verdict matched.

Per-layer ``*_s`` metrics are self times (span time minus the time of
the spans nested in it), averaged per job.  Those inside the verdict
plus ``pipeline.other_s`` sum to ``bench.verdict_traced_s``; counts are
per-job means.  The traced run fails when ``pipeline.other_s`` -- the
verdict time no layer span covers -- exceeds MAX_OTHER_SHARE of the
verdict, when a span has a negative self time, or when an unknown span
opens inside the verdict.

``--tiny`` shrinks every program (used by ``selfcheck.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from corpus import WORKLOADS, build_pool, passes_for, run_job  # noqa: E402

#: Fresh interpreters started per run to measure set-up; the median is
#: reported.
SETUP_REPEATS = 5
#: Figure 12 of the paper: decode / reconstruction / detection shares.
PAPER_FIG12 = (0.337, 0.647, 0.016)
#: Jobs that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Tracebacks printed before further job failures are only counted.
MAX_TRACEBACKS = 3
#: Largest share of the traced verdict that no layer span may cover.
MAX_OTHER_SHARE = 0.10

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "peak_rss_mb": "MB",
    "verdicts_ok": "share",
    "recovered_per_job": "count",
    "confirmed_frac": "share",
}

#: Span (or leaf) names inside the verdict, by the metric they feed.
VERDICT_LAYERS = {
    "tracing.read": "tracing.read_s",
    "ptdecode.decode": "ptdecode.decode_s",
    "ptdecode.locate": "ptdecode.locate_s",
    "analysis.align": "analysis.align_s",
    "analysis.timeline": "analysis.timeline_s",
    "analysis.merge": "analysis.merge_s",
    "replay.replay": "replay.replay_s",
    "detector.feed": "detector.feed_s",
    "detector.finish": "detector.finish_s",
    "confirm.events_for": "confirm.events_for_s",
    "confirm.confirm": "confirm.confirm_s",
}
#: Spans inside the verdict that belong to no layer: their self time is
#: ``pipeline.other_s``.
UNATTRIBUTED = ("bench.verdict", "pipeline.analyze")
FIG12_GROUPS = (
    ("decode", ("ptdecode.decode", "ptdecode.locate")),
    ("reconstruct", ("analysis.align", "analysis.timeline",
                     "replay.replay")),
    ("detect", ("analysis.merge", "detector.feed", "detector.finish")),
)
#: Histogram buckets of events per ``feed_batch`` call: (name, low, high).
BATCH_BUCKETS = (("1", 0, 1), ("2-3", 2, 3), ("4-7", 4, 7),
                 ("8-15", 8, 15), ("16-up", 16, math.inf))
#: Per-job counters reported as per-job means.
MEAN_COUNTS = (
    ("tracing.instructions", "count"),
    ("tracing.samples", "count"),
    ("tracing.sync_records", "count"),
    ("tracing.container_bytes", "bytes"),
    ("ptdecode.path_steps", "count"),
    ("analysis.samples_unaligned", "count"),
    ("replay.windows", "count"),
    ("replay.iterations", "count"),
    ("replay.executed_steps", "count"),
    ("replay.window_hits", "count"),
    ("replay.rounds", "count"),
    ("detector.events", "count"),
    ("detector.races", "count"),
    ("confirm.replays", "count"),
)


class LoopResult:
    def __init__(self) -> None:
        self.outcomes = []
        #: Outcomes of the first pass over the pool.
        self.first_pass = []
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.digests: Dict[int, bytes] = {}
        self.nondeterministic = 0


def deterministic_part(outcome):
    """What a job must reproduce exactly on every pass: the container
    and every count (the ``*_s`` counts are timings)."""
    return outcome.blob_digest, tuple(
        sorted((key, value) for key, value in outcome.counts.items()
               if not key.endswith("_s")))


def closed_loop(workload, pool, passes: int, tracer=None,
                before_job: Callable[[int], None] = lambda job: None,
                ) -> LoopResult:
    """Run *passes* whole passes over *pool*, job after job.  A job that
    raises is counted as failed and the loop goes on; a job whose
    container or counts differ from its input's first job is counted as
    nondeterministic."""
    loop = LoopResult()
    seen = {}
    begin = time.perf_counter()
    while loop.attempted < passes * len(pool):
        before_job(loop.attempted)
        index = loop.attempted % len(pool)
        loop.attempted += 1
        try:
            if tracer is None:
                outcome = run_job(pool[index], workload.period)
            else:
                tracer.job = loop.attempted - 1
                with tracer.span("bench.job"):
                    outcome = run_job(pool[index], workload.period,
                                      span=tracer.span)
        except Exception:
            loop.failed += 1
            if loop.failed <= MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
            continue
        loop.digests.setdefault(index, outcome.blob_digest)
        part = deterministic_part(outcome)
        if seen.setdefault(index, part) != part:
            loop.nondeterministic += 1
        loop.outcomes.append(outcome)
        if loop.attempted <= len(pool):
            loop.first_pass.append(outcome)
    loop.elapsed = time.perf_counter() - begin
    return loop


def fingerprint(workload, seed: int, tiny: bool, pool,
                digests: Dict[int, bytes]) -> str:
    """sha256 over the workload, the seed and every pool container."""
    hasher = hashlib.sha256(
        f"{workload.name}|seed={seed}|tiny={int(tiny)}".encode())
    for index, entry in enumerate(pool):
        hasher.update(entry.label.encode())
        hasher.update(digests.get(index, b"\0" * 32))
    return hasher.hexdigest()


class SetupProbe:
    """Set-up in a fresh interpreter: the whole process (setup_s),
    ``import repro.cli`` and building the workload's programs.

    The SETUP_REPEATS probes are spread over the *jobs* of the loop,
    so that one slow stretch of the machine does not set them all; the
    medians are reported."""

    def __init__(self, workload, tiny: bool, jobs: int) -> None:
        self.command = [sys.executable, str(HERE / "setup_probe.py"),
                        workload.name] + (["--tiny"] if tiny else [])
        self.schedule = {jobs * i // SETUP_REPEATS
                         for i in range(SETUP_REPEATS)}
        self.walls: List[float] = []
        self.probes: List[dict] = []

    def before_job(self, job: int) -> None:
        if job in self.schedule and len(self.walls) < SETUP_REPEATS:
            self.measure()

    def measure(self) -> None:
        begin = time.perf_counter()
        done = subprocess.run(self.command, capture_output=True,
                              text=True, cwd=ROOT, timeout=120)
        self.walls.append(time.perf_counter() - begin)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        self.probes.append(json.loads(done.stdout.strip().splitlines()[-1]))

    def medians(self) -> Dict[str, float]:
        while len(self.walls) < SETUP_REPEATS:
            self.measure()
        return {
            "setup_s": statistics.median(self.walls),
            "cli.import_s": statistics.median(
                p["import_s"] for p in self.probes),
            "workloads.build_s": statistics.median(
                p["build_s"] for p in self.probes),
        }


def tail_percentile(values: List[float]):
    """``(percentile, value)``: the highest whole percentile with at
    least TAIL_BEYOND samples beyond it (nearest rank), or the maximum
    when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    percentile = 100 * (n - TAIL_BEYOND) // n
    rank = math.ceil(percentile * n / 100)
    return percentile, ordered[rank - 1]


def _sum(outcomes, key: str) -> float:
    return sum(o.counts[key] for o in outcomes)


def _ratio(numerator: float, denominator: float,
           empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def pipeline_fig12(outcomes) -> Dict[str, float]:
    """The pipeline's own OfflineTimings split, pooled over jobs."""
    parts = [_sum(outcomes, f"pipeline.{key}_s")
             for key, _ in FIG12_GROUPS]
    return {key: _ratio(part, sum(parts))
            for (key, _), part in zip(FIG12_GROUPS, parts)}


def end_to_end(loop: LoopResult, setup: Dict[str, float]):
    verdicts = [o.verdict_s for o in loop.outcomes]
    percentile, tail = tail_percentile(verdicts)
    metrics = {
        "setup_s": setup["setup_s"],
        "jobs_per_s": len(loop.outcomes) / sum(o.job_s
                                               for o in loop.outcomes),
        "verdict_s.p50": statistics.median(verdicts),
        "verdict_s.tail": tail,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts_ok": _ratio(sum(o.ok for o in loop.outcomes),
                              loop.attempted),
        # Guards against speed bought by recovering less.  (The
        # per-sample ratio of Figure 11 is the per-layer
        # replay.recovery_x: sparse traces carry 0-3 samples each, too
        # few for a bounded end-to-end metric.)  Counts repeat exactly
        # on every pass, so the first pass holds them all.
        "recovered_per_job": _ratio(
            _sum(loop.first_pass, "replay.recovered"), len(loop.first_pass)),
        # Vacuously 1.0 on race-free workloads: nothing reported was
        # left unconfirmed.
        "confirmed_frac": _ratio(_sum(loop.outcomes, "confirm.confirmed"),
                                 _sum(loop.outcomes, "confirm.races"),
                                 empty=1.0),
    }
    notes = {
        "tail_percentile": percentile,
        "samples": len(verdicts),
        "failed_frac": _ratio(loop.failed, loop.attempted),
        "fig12_pipeline": pipeline_fig12(loop.outcomes),
        "verdict_s": verdicts,
        "job_s": [o.job_s for o in loop.outcomes],
    }
    return metrics, notes


def per_layer(plain: LoopResult, traced: LoopResult, tracer,
              setup: Dict[str, float]):
    """Per-layer metrics of the traced run, as per-job means, plus the
    checks that the span accounting is consistent."""
    jobs = len(traced.outcomes)
    layers, covered = tracer.layer_self_times("bench.verdict")
    unknown = set(layers) - set(VERDICT_LAYERS) - set(UNATTRIBUTED)
    other = sum(layers.get(name, 0.0) for name in UNATTRIBUTED)
    metrics = {
        "cli.import_s": setup["cli.import_s"],
        "workloads.build_s": setup["workloads.build_s"],
        "tracing.trace_run_s": tracer.totals("tracing.trace_run")[1] / jobs,
        "tracing.write_s": tracer.totals("tracing.write")[1] / jobs,
    }
    for name, metric in VERDICT_LAYERS.items():
        metrics[metric] = layers.get(name, 0.0) / jobs
    metrics["pipeline.other_s"] = other / jobs
    metrics["bench.verdict_traced_s"] = covered / jobs
    metrics["bench.trace_overhead_s"] = (
        statistics.fmean(o.job_s for o in traced.outcomes)
        - statistics.fmean(o.job_s for o in plain.outcomes))
    for key, _unit in MEAN_COUNTS:
        metrics[key] = _sum(traced.outcomes, key) / jobs
    metrics["replay.skipped_step_ratio"] = _ratio(
        _sum(traced.outcomes, "replay.summary_steps"),
        _sum(traced.outcomes, "replay.summary_steps")
        + _sum(traced.outcomes, "replay.executed_steps"))
    metrics["replay.recovery_x"] = _ratio(
        _sum(traced.outcomes, "replay.recovered")
        + _sum(traced.outcomes, "replay.sampled"),
        _sum(traced.outcomes, "replay.sampled"))
    metrics["confirm.replays_per_race"] = _ratio(
        _sum(traced.outcomes, "confirm.replays"),
        _sum(traced.outcomes, "confirm.races"))
    metrics["confirm.events_for_share"] = _ratio(
        tracer.totals("confirm.events_for")[0], covered)
    calls = sum(tracer.batch_sizes.values())
    metrics["detector.events_per_feed"] = _ratio(
        sum(size * count for size, count in tracer.batch_sizes.items()),
        calls)
    for label, low, high in BATCH_BUCKETS:
        metrics[f"detector.batch_{label}"] = _ratio(
            sum(count for size, count in tracer.batch_sizes.items()
                if low <= size <= high), calls)

    analyze, _ = tracer.layer_self_times("pipeline.analyze")
    parts = [sum(analyze.get(name, 0.0) for name in names)
             for _, names in FIG12_GROUPS]
    checks = {
        "unknown_spans": sorted(unknown),
        "other_share": _ratio(other, covered),
        "min_self_s": tracer.min_self_time(),
    }
    notes = {
        "jobs": jobs,
        "batch_histogram": dict(sorted(tracer.batch_sizes.items())),
        "fig12_spans": {key: _ratio(part, sum(parts))
                        for (key, _), part in zip(FIG12_GROUPS, parts)},
        "fig12_pipeline": pipeline_fig12(traced.outcomes),
        "checks": checks,
    }
    consistent = (not unknown
                  and checks["other_share"] <= MAX_OTHER_SHARE
                  and checks["min_self_s"] > -1e-6)
    return metrics, notes, consistent


def per_layer_units() -> Dict[str, str]:
    units = {"cli.import_s": "s", "workloads.build_s": "s",
             "tracing.trace_run_s": "s", "tracing.write_s": "s"}
    units.update({metric: "s" for metric in VERDICT_LAYERS.values()})
    units.update({"pipeline.other_s": "s", "bench.verdict_traced_s": "s",
                  "bench.trace_overhead_s": "s"})
    units.update(dict(MEAN_COUNTS))
    units.update({"replay.skipped_step_ratio": "ratio",
                  "replay.recovery_x": "x",
                  "confirm.replays_per_race": "count",
                  "confirm.events_for_share": "share",
                  "detector.events_per_feed": "events"})
    units.update({f"detector.batch_{label}": "share"
                  for label, _, _ in BATCH_BUCKETS})
    return units


def _fig12_line(label: str, shares: Dict[str, float]) -> str:
    return f"  {label:<9} " + "  ".join(
        f"{key} {100 * shares[key]:5.1f}%" for key, _ in FIG12_GROUPS)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every program (self-check scale)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources in {ROOT / 'src'}; run from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer, instrument

    workload = WORKLOADS[args.workload]
    pool = build_pool(workload, args.seed, args.tiny)
    passes = passes_for(workload, args.seconds)
    if args.trace:
        passes = max(1, passes // 2)
    probe = SetupProbe(workload, args.tiny, passes * len(pool))
    plain = closed_loop(workload, pool, passes,
                        before_job=probe.before_job)
    setup = probe.medians()
    runs = [plain]
    if args.trace:
        tracer = Tracer()
        with instrument(tracer):
            traced = closed_loop(workload, pool, passes, tracer=tracer)
        runs.append(traced)
        for index, digest in traced.digests.items():
            if plain.digests.get(index, digest) != digest:
                traced.nondeterministic += 1

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    if any(not run.outcomes for run in runs):
        print(f"e2ebench: all {attempted} jobs failed", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    consistent = True
    if args.trace:
        metrics, notes, consistent = per_layer(plain, traced, tracer,
                                               setup)
        units = per_layer_units()
    else:
        metrics, notes = end_to_end(plain, setup)
        units = END_TO_END_UNITS
    wrong = sum(1 for run in runs for o in run.outcomes if not o.ok)
    nondeterministic = sum(run.nondeterministic for run in runs)
    correct = (failed == 0 and wrong == 0 and nondeterministic == 0
               and consistent)
    input_fingerprint = fingerprint(workload, args.seed, args.tiny, pool,
                                    plain.digests)

    stem = f"{workload.name}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    OUT.mkdir(exist_ok=True)
    lines = [
        f"workload {workload.name}  seed {args.seed}  "
        f"{'traced' if args.trace else 'untraced'}  closed loop, "
        f"1 client, {passes} x {len(pool)} inputs = "
        f"{len(plain.outcomes)} jobs in {plain.elapsed:.1f} s",
        f"fingerprint sha256 {input_fingerprint}",
        f"jobs attempted {attempted}  wrong verdicts {wrong}  "
        f"failed {failed}  nondeterministic jobs {nondeterministic}",
    ]
    if args.trace:
        tracer.write_chrome_trace(OUT / f"{stem}.trace.json")
        lines.append(f"trace events: {OUT / f'{stem}.trace.json'}")
        checks = notes["checks"]
        lines.append(
            f"span accounting: pipeline.other_s is "
            f"{100 * checks['other_share']:.2f}% of the verdict "
            f"(limit {100 * MAX_OTHER_SHARE:.0f}%), min self time "
            f"{checks['min_self_s']:+.2e} s, unknown spans "
            f"{checks['unknown_spans'] or 'none'}")
        lines.append("feed_batch events-per-call histogram: "
                     f"{notes['batch_histogram']}")
        lines.append("Figure 12 cross-check (pipeline.analyze only):")
        lines.append(_fig12_line("spans", notes["fig12_spans"]))
        lines.append(_fig12_line("pipeline", notes["fig12_pipeline"]))
    else:
        lines.append(
            f"verdict_s.tail is p{notes['tail_percentile']} of "
            f"{notes['samples']} jobs; failed_frac "
            f"{notes['failed_frac']:.4f}")
        lines.append("Figure 12 cross-check:")
        lines.append(_fig12_line("pipeline", notes["fig12_pipeline"]))
    lines.append(_fig12_line("paper", dict(zip(
        (key for key, _ in FIG12_GROUPS), PAPER_FIG12))))
    for name, value in metrics.items():
        lines.append(f"  {name:<28} {value:14.6g} {units[name]}")
    print("\n".join(lines))

    report = {
        "workload": workload.name, "seed": args.seed, "tiny": args.tiny,
        "trace": args.trace, "fingerprint": input_fingerprint,
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "nondeterministic": nondeterministic, "correct": correct,
        "metrics": metrics, "units": units, "notes": notes,
    }
    suffix = "traced" if args.trace else "untraced"
    (OUT / f"{stem}-{suffix}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
