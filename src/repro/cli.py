"""Command-line interface: ``python -m repro <command>``.

Mirrors how the real tool would be driven in the paper's deployment
story (§3): trace a run on a production box, ship the trace file, and
analyze it on a separate machine.

Commands:

* ``workloads`` — list the catalogued benchmark programs and race bugs.
* ``run`` — execute a workload on the simulated machine (no tracing).
* ``trace`` — run under PMU tracing and write a ``.prtr`` trace file.
* ``analyze`` — offline-analyze a trace file and print the race report.
* ``detect`` — trace + analyze in one step (optionally many seeds, with
  a fleet summary); ``--confirm`` adds a verdict for every report.
* ``confirm`` — trace + analyze + deterministic race confirmation:
  schedule-controlled replay proves every reported race fires (exit 8
  when races were reported but none could be made to fire).
* ``overhead`` — sweep sampling periods for a workload, printing the
  cost model's overhead estimates for both drivers.
* ``shootout`` — precision/recall comparison of every detector backend
  and baseline over the Table 2 race-bug corpus.
* ``chaos`` — sweep fault-injection intensity over seeded runs and
  report the detection-probability curve under each fault plan.
* ``fleet`` — fleet-scale triage: governed tracing on simulated nodes,
  crash-tolerant spool ingestion, sharded supervised analysis, and a
  deduplicating ranked race database.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from .analysis import (
    FleetSummary,
    OfflinePipeline,
    estimate_overhead,
    render_confirmation,
    render_report,
    to_json,
)
from .confirm import ConfirmConfig, confirm_races
from .errors import (
    EXIT_DEGRADED,
    EXIT_FLEET_LOSSY,
    EXIT_OK,
    EXIT_RACES,
    EXIT_TRACE_ERROR,
    EXIT_UNCONFIRMED,
    DeadlineExceeded,
    QuarantinedWork,
    TraceError,
    UsageError,
    WorkerCrash,
    exit_code_for,
)
from .detector.registry import DEFAULT_DETECTOR, backend_names, \
    resolve_detectors
from .isa.assembler import assemble
from .isa.program import Program
from .machine import Machine
from .parallel import parallel_map
from .pmu import GovernorConfig, PRORACE_DRIVER, VANILLA_DRIVER
from .supervise import SupervisorConfig
from .tracing import TraceFormatError, read_trace, trace_run, write_trace
from .workloads import (
    ALL_WORKLOADS,
    RACE_BUGS,
    WorkloadScale,
    generate_server_program,
)

_DRIVERS = {"prorace": PRORACE_DRIVER, "vanilla": VANILLA_DRIVER}


def _resolve_program(name: str, scale: WorkloadScale,
                     source: Optional[str]) -> Program:
    """A program by workload name, bug name, or assembly file path."""
    if source is not None:
        with open(source) as handle:
            return assemble(handle.read(), name=source)
    if name in ALL_WORKLOADS:
        return ALL_WORKLOADS[name].instantiate(scale)
    if name in RACE_BUGS:
        return RACE_BUGS[name].build(scale)
    if name.startswith("server:"):
        # A generated server workload with one known injected race:
        # seeded request traffic over a connection-pool/rwlock
        # skeleton (``server:SEED``).
        try:
            seed = int(name.split(":", 1)[1])
        except ValueError:
            raise SystemExit(
                f"bad generated-server spec {name!r}; expected "
                "server:SEED with an integer seed"
            )
        program, _pair = generate_server_program(seed)
        return program
    raise SystemExit(
        f"unknown program {name!r}; see `repro workloads` "
        "(or pass --source FILE.s, or server:SEED for a generated "
        "server workload)"
    )


def _scale_from(args: argparse.Namespace) -> WorkloadScale:
    return WorkloadScale(iterations=args.iterations, threads=args.threads)


def _add_detector_args(parser: argparse.ArgumentParser) -> None:
    """The backend-selection knob shared by every analyzing command."""
    parser.add_argument(
        "--detector", action="append", default=None, metavar="NAME",
        help="detector backend to run (repeatable, or comma-separated; "
             f"first named is primary; default {DEFAULT_DETECTOR}; "
             f"available: {', '.join(backend_names())})",
    )


def _detectors_from(args: argparse.Namespace) -> tuple:
    """The resolved backend tuple; unknown names raise the exit-2
    :class:`~repro.errors.UnknownDetectorError` with a did-you-mean."""
    names = getattr(args, "detector", None)
    if not names:
        return (DEFAULT_DETECTOR,)
    return resolve_detectors(names)


def _add_confirm_args(parser: argparse.ArgumentParser) -> None:
    """The race-confirmation knobs shared by ``repro confirm`` and
    ``repro detect --confirm`` (docs/robustness.md, "Race
    confirmation")."""
    parser.add_argument(
        "--confirm-retries", type=int, default=5, metavar="N",
        help="total replays a race may consume before it is declared "
             "unconfirmed: attempt 1 drives the exact witness "
             "schedule, attempts 2-3 deterministic pair targeting, "
             "the rest seeded perturbation (default 5)",
    )
    parser.add_argument(
        "--suppress-schedules", action="store_true",
        help="testing hook: skip witness planning, so every reported "
             "race is inapplicable and a racy run exits with code 8",
    )


def _confirmation_for(program, pipeline, bundle, result,
                      args: argparse.Namespace):
    """Run the confirmation pass over one analyzed bundle: replay every
    reported race under schedule control (see repro.confirm)."""
    events, _replay = pipeline.events_for(bundle)
    config = ConfirmConfig(
        retries=args.confirm_retries,
        seed=args.seed,
        machine_seed=args.seed,
        suppress_schedules=args.suppress_schedules,
    )
    return confirm_races(
        program, result.races, events, config=config,
        jobs=args.jobs,
        executor="serial" if args.jobs <= 1 else "process",
        supervisor=_supervisor_from(args),
    )


def _add_supervision_args(parser: argparse.ArgumentParser) -> None:
    """The supervised-runtime knobs shared by the long-running commands
    (see docs/robustness.md, "Supervised runtime")."""
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="per-item retry budget under the supervised runtime "
             "(enables supervision; an item runs at most N+1 times)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-item wall-clock limit; a worker exceeding it is "
             "killed and the item retried (enables supervision)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="whole-command wall-clock budget; exceeding it exits "
             "with code 3 (enables supervision)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="journal completed work to DIR so an interrupted command "
             "can --resume with bit-identical final output",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the journals/snapshots in --checkpoint-dir",
    )


def _supervisor_from(args: argparse.Namespace) -> Optional[SupervisorConfig]:
    """A SupervisorConfig when any supervision flag was given, else None
    (the command then runs on the plain executor, exactly as before)."""
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("repro: --resume requires --checkpoint-dir")
    if (args.retries is None and args.task_timeout is None
            and args.deadline is None):
        return None
    return SupervisorConfig(
        retries=args.retries if args.retries is not None else 2,
        task_timeout=args.task_timeout,
        deadline=args.deadline,
        seed=getattr(args, "seed", 0),
    )


def _add_governor_args(parser: argparse.ArgumentParser) -> None:
    """The closed-loop tracing-governor knobs (docs/robustness.md,
    "Online robustness: the tracing governor")."""
    parser.add_argument(
        "--governor", action=argparse.BooleanOptionalAction, default=False,
        help="run the online overhead governor: adapt the PEBS period "
             "within its bounds to hold --overhead-budget, shedding PT "
             "bytes and then whole sample buffers under pressure "
             "(default: off — open-loop tracing, byte-identical to "
             "previous releases)",
    )
    parser.add_argument(
        "--overhead-budget", type=float, default=0.02, metavar="FRACTION",
        help="tracing overhead fraction the governor holds the run "
             "under (default 0.02 = 2%%)",
    )
    parser.add_argument(
        "--k-min", type=int, default=None, metavar="PERIOD",
        help="lower bound of the governor's period adaptation range "
             "(default: the base --period)",
    )
    parser.add_argument(
        "--k-max", type=int, default=None, metavar="PERIOD",
        help="upper bound of the governor's period adaptation range "
             "(default: 1024x the base --period; raise it when the base "
             "period is aggressive enough that no in-range period can "
             "meet the budget)",
    )


def _governor_from(args: argparse.Namespace) -> Optional[GovernorConfig]:
    """A GovernorConfig when --governor was given, else None (open-loop
    tracing, bit-identical to an ungoverned build)."""
    if not getattr(args, "governor", False):
        return None
    return GovernorConfig(overhead_budget=args.overhead_budget,
                          k_min=getattr(args, "k_min", None),
                          k_max=getattr(args, "k_max", None),
                          seed=getattr(args, "seed", 0))


def _worker_fault_parent() -> argparse.ArgumentParser:
    """The seeded worker-fault-plan flags, as an argparse *parent* so
    ``repro chaos`` and ``repro fleet`` expose the identical vocabulary
    (same names, types, defaults, help) from one definition."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--kill-workers", type=float, default=0.0, metavar="P",
        help="runtime chaos: per-item probability a worker is SIGKILLed",
    )
    parent.add_argument(
        "--hang-workers", type=float, default=0.0, metavar="P",
        help="runtime chaos: per-item probability a worker hangs",
    )
    parent.add_argument(
        "--fail-workers", type=float, default=0.0, metavar="P",
        help="runtime chaos: per-item probability a worker raises",
    )
    parent.add_argument(
        "--fault-attempts", type=int, default=1, metavar="N",
        help="attempts of each item eligible for worker faults "
             "(large N makes faulty items permanent: quarantine)",
    )
    parent.add_argument(
        "--hang-seconds", type=float, default=30.0, metavar="SECONDS",
        help="how long a hung worker sleeps",
    )
    return parent


def _worker_fault_plan_from(args: argparse.Namespace):
    """A WorkerFaultPlan when any worker-fault flag was given, else
    None (unsupervised execution stays byte-identical)."""
    if not (args.kill_workers or args.hang_workers or args.fail_workers):
        return None
    from .faults import WorkerFaultPlan

    return WorkerFaultPlan(
        seed=getattr(args, "seed", 0),
        kill=args.kill_workers,
        hang=args.hang_workers,
        fail=args.fail_workers,
        max_faulty_attempts=args.fault_attempts,
        hang_seconds=args.hang_seconds,
    )


def _burst_plan_from(args: argparse.Namespace):
    """A LoadBurstPlan when any online-chaos flag was given, else None."""
    multiplier = getattr(args, "load_bursts", 0) or 0
    stall_pebs = getattr(args, "stall_pebs_at", None)
    stall_sync = getattr(args, "stall_sync_at", None)
    if not multiplier and stall_pebs is None and stall_sync is None:
        return None
    from .faults import LoadBurstPlan

    return LoadBurstPlan(
        seed=getattr(args, "seed", 0),
        multiplier=int(multiplier) if multiplier else 1,
        stall_pebs_at=stall_pebs,
        stall_sync_at=stall_sync,
    )


def _add_clock_args(parser: argparse.ArgumentParser) -> None:
    """The clock-reconciliation knob shared by the analyzing commands
    (docs/robustness.md, "Adversarial time")."""
    parser.add_argument(
        "--reconcile-clock", action="store_true",
        help="estimate per-core clock skew/drift from the sync log, "
             "correct and monotonicity-repair every timestamp, and "
             "merge events under uncertainty-aware ordering (a "
             "pristine trace is bit-identical to the default path)",
    )


def _clock_fault_plan_from(args: argparse.Namespace):
    """A clock-fault FaultPlan when any ``--clock-*`` chaos flag was
    given, else None."""
    if not (args.clock_skew or args.clock_drift or args.clock_step
            or args.clock_regress):
        return None
    from .faults import FaultPlan

    return FaultPlan(
        seed=getattr(args, "seed", 0),
        clock_skew=args.clock_skew,
        clock_drift=args.clock_drift,
        clock_step=args.clock_step,
        clock_regress=args.clock_regress,
    )


def _positive_int(text: str) -> int:
    """argparse type for counts and periods: an integer of at least 1
    (anything else exits 2 with a usage message)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _positive_int_list(text: str) -> list:
    """argparse type for a comma-separated list of positive integers."""
    return [_positive_int(item) for item in text.split(",")]


def _add_program_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program", help="workload/bug name, or - with "
                                        "--source")
    parser.add_argument("--source", help="assembly source file to use "
                                         "instead of a catalogued name")
    parser.add_argument("--iterations", type=_positive_int, default=40,
                        help="workload scale (default 40)")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)


def cmd_workloads(args: argparse.Namespace) -> int:
    print("workloads:")
    for name, workload in sorted(ALL_WORKLOADS.items()):
        io_tag = "io-bound " if workload.io_bound else "cpu-bound"
        print(f"  {name:16s} [{workload.category:7s}] {io_tag}  "
              f"{workload.description}")
    print("\nrace bugs (Table 2):")
    for name, bug in RACE_BUGS.items():
        print(f"  {name:16s} [{bug.access_type:17s}]  "
              f"manifestation: {bug.manifestation}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    program = _resolve_program(args.program, _scale_from(args), args.source)
    result = Machine(program, seed=args.seed).run()
    print(f"{program.name}: {result.instructions} instructions, "
          f"{result.memory_ops} memory ops, {result.branches} branches, "
          f"{result.sync_ops} sync ops, {result.threads} threads, "
          f"tsc {result.tsc}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    program = _resolve_program(args.program, _scale_from(args), args.source)
    bundle = trace_run(program, period=args.period,
                       driver=_DRIVERS[args.driver], seed=args.seed,
                       governor=_governor_from(args),
                       load_bursts=_burst_plan_from(args))
    size = write_trace(bundle, args.output)
    estimate = estimate_overhead(bundle)
    print(f"traced {program.name} at period {args.period} "
          f"({args.driver} driver)")
    print(f"  samples: {len(bundle.samples)}  "
          f"sync records: {len(bundle.sync_records)}")
    print(f"  estimated runtime overhead: {100 * estimate.overhead:.2f}%")
    print(f"  wrote {size} bytes to {args.output}")
    gov = bundle.governor
    if gov is not None:
        print(f"  governor: {len(gov.epochs)} epochs  "
              f"final period {gov.final_period}  measured overhead "
              f"{100 * gov.final_overhead:.2f}% "
              f"(budget {100 * gov.overhead_budget:.2f}%)")
        if gov.watchdog_trips or gov.sync_stalls:
            print("repro trace: governor watchdog tripped — trace "
                  "degraded to sync-only / truncated logs (exit code "
                  f"{EXIT_DEGRADED})", file=sys.stderr)
            return EXIT_DEGRADED
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    program = _resolve_program(args.program, _scale_from(args), args.source)
    try:
        bundle = read_trace(args.trace, program=program,
                            allow_partial=args.allow_partial)
    except FileNotFoundError:
        print(f"repro analyze: trace file not found: {args.trace}",
              file=sys.stderr)
        return 2
    except TraceFormatError as error:
        print(f"repro analyze: unreadable trace {args.trace}: {error}",
              file=sys.stderr)
        return 2
    pipeline = OfflinePipeline(program, mode=args.mode, jobs=args.jobs,
                               jit=not args.no_jit,
                               supervisor=_supervisor_from(args),
                               detectors=_detectors_from(args),
                               reconcile_clock=args.reconcile_clock)
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = pipeline.analyze(bundle,
                                      checkpoint_dir=args.checkpoint_dir,
                                      resume=args.resume)
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
        print(f"wrote offline-stage profile to {args.profile} "
              f"(see docs/performance.md for how to read it)",
              file=sys.stderr)
    else:
        result = pipeline.analyze(bundle,
                                  checkpoint_dir=args.checkpoint_dir,
                                  resume=args.resume)
    if args.json:
        print(to_json(program, result))
    else:
        print(render_report(program, result))
    return 1 if result.races else 0


def cmd_confirm(args: argparse.Namespace) -> int:
    program = _resolve_program(args.program, _scale_from(args), args.source)
    bundle = trace_run(program, period=args.period,
                       driver=_DRIVERS[args.driver], seed=args.seed)
    pipeline = OfflinePipeline(program, mode=args.mode, jobs=args.jobs,
                               supervisor=_supervisor_from(args),
                               detectors=_detectors_from(args))
    result = pipeline.analyze(bundle)
    confirmation = _confirmation_for(program, pipeline, bundle, result,
                                     args)
    if args.json:
        import json

        print(json.dumps(
            {
                "program": program.name,
                "races": len(result.races),
                "confirmation": confirmation.to_dict(),
            },
            indent=2,
        ))
    else:
        print(render_report(program, result))
        print(render_confirmation(confirmation))
    return confirmation.exit_code()


def _detect_one(work: tuple):
    """Module-level detect worker (picklable for the process executor):
    one seeded trace + analysis."""
    program, mode, period, driver, seed, governor, load_bursts, \
        detectors, reconcile_clock = work
    bundle = trace_run(program, period=period, driver=driver, seed=seed,
                       governor=governor, load_bursts=load_bursts)
    return OfflinePipeline(program, mode=mode, detectors=detectors,
                           reconcile_clock=reconcile_clock).analyze(bundle)


def cmd_detect(args: argparse.Namespace) -> int:
    program = _resolve_program(args.program, _scale_from(args), args.source)
    supervisor = _supervisor_from(args)
    governor = _governor_from(args)
    detectors = _detectors_from(args)
    summary = FleetSummary()
    if args.runs == 1:
        # One run: spend the job budget on the pipeline's per-thread
        # decode/replay fan-out.
        bundle = trace_run(program, period=args.period,
                           driver=_DRIVERS[args.driver], seed=args.seed,
                           governor=governor)
        pipeline = OfflinePipeline(program, mode=args.mode, jobs=args.jobs,
                                   supervisor=supervisor,
                                   detectors=detectors,
                                   reconcile_clock=args.reconcile_clock)
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                result = pipeline.analyze(bundle,
                                          checkpoint_dir=args.checkpoint_dir,
                                          resume=args.resume)
            finally:
                profiler.disable()
                profiler.dump_stats(args.profile)
            print(f"wrote offline-stage profile to {args.profile} "
                  f"(see docs/performance.md for how to read it)",
                  file=sys.stderr)
        else:
            result = pipeline.analyze(bundle,
                                      checkpoint_dir=args.checkpoint_dir,
                                      resume=args.resume)
        summary.add(result)
        print(render_report(program, result))
        if args.confirm:
            confirmation = _confirmation_for(program, pipeline, bundle,
                                             result, args)
            print(render_confirmation(confirmation))
            if confirmation.exit_code() == EXIT_UNCONFIRMED:
                return EXIT_UNCONFIRMED
        return 1 if summary.race_sites else 0
    if args.confirm:
        print("repro detect: --confirm applies to single-run detection "
              "(--runs 1); ignoring it for a fan-out", file=sys.stderr)
    if args.profile:
        print("repro detect: --profile applies to single-run detection "
              "(--runs 1); ignoring it for a fan-out", file=sys.stderr)
    # Many runs: fan the independent seeded trials out across processes
    # and fold the results back in seed order.
    work = [
        (program, args.mode, args.period, _DRIVERS[args.driver],
         args.seed + run_index, governor, None, detectors,
         args.reconcile_clock)
        for run_index in range(args.runs)
    ]
    if supervisor is not None or args.checkpoint_dir is not None:
        from .supervise import open_journal, supervised_map

        key_parts = [
            program.name, args.mode, args.period, args.driver,
            args.seed, args.runs,
        ]
        # Non-default backend selections journal under a distinct key;
        # the default key stays identical so old checkpoints resume.
        if detectors != (DEFAULT_DETECTOR,):
            key_parts.append(detectors)
        # Governed runs journal under a distinct key; the ungoverned key
        # stays identical so existing checkpoints still resume.
        if governor is not None:
            key_parts.append(governor)
        # Likewise reconciled runs: default checkpoints stay resumable.
        if args.reconcile_clock:
            key_parts.append("reconcile-clock")
        key = "|".join(str(part) for part in key_parts)
        journal = open_journal(args.checkpoint_dir, "detect", key,
                               args.resume)
        try:
            results, ledger = supervised_map(
                _detect_one, work, jobs=args.jobs, executor="process",
                config=supervisor, journal=journal,
            )
        finally:
            if journal is not None:
                journal.close()
        for result in results:
            summary.add(result)
        print(summary.render(program))
        if ledger.eventful:
            print(ledger.render())
        return 1 if summary.race_sites else 0
    for result in parallel_map(_detect_one, work, jobs=args.jobs,
                               executor="process"):
        summary.add(result)
    print(summary.render(program))
    return 1 if summary.race_sites else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import detection_sweep, overhead_sweep, tracesize_sweep
    from .workloads import RACE_BUGS

    scale = _scale_from(args)
    if args.kind == "detection":
        bugs = (
            {args.target: RACE_BUGS[args.target]}
            if args.target else RACE_BUGS
        )
        result = detection_sweep(
            bugs, scale, periods=args.periods, runs=args.runs, mode=args.mode,
            driver=_DRIVERS[args.driver], jobs=args.jobs,
            supervisor=_supervisor_from(args),
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            detectors=_detectors_from(args),
        )
        if args.json:
            import json

            print(json.dumps(result.to_dict(), indent=2))
        else:
            print(result.render())
        return 0
    workloads = ALL_WORKLOADS
    if args.target:
        if args.target not in ALL_WORKLOADS:
            raise SystemExit(f"unknown workload {args.target!r}")
        workloads = {args.target: ALL_WORKLOADS[args.target]}
    sweep = overhead_sweep if args.kind == "overhead" else tracesize_sweep
    print(sweep(workloads, scale, periods=args.periods,
                driver=_DRIVERS[args.driver]).render())
    return 0


def _chaos_one(work: tuple):
    """Module-level chaos worker (picklable): degrade one seeded bundle
    under one plan and analyze it."""
    program, mode, bundle, plan = work
    degraded, _ = plan.apply(bundle)
    return OfflinePipeline(program, mode=mode).analyze(degraded)


def _cmd_chaos_runtime(args: argparse.Namespace) -> int:
    """Runtime chaos: a supervised detection sweep whose *workers* are
    killed/hung/failed on schedule (``--kill-workers`` and friends).

    The demonstration the supervised runtime exists for: injected worker
    SIGKILLs, hangs and failures must cost retries, never results — the
    sweep's cells are bit-identical to a fault-free serial run, and the
    run ledger accounts for every respawn.
    """
    from .analysis import detection_sweep

    if args.program not in RACE_BUGS:
        raise SystemExit(
            f"repro chaos: worker-fault mode needs a race bug name "
            f"(one of {', '.join(RACE_BUGS)}), got {args.program!r}"
        )
    supervisor = _supervisor_from(args)
    if supervisor is None:
        supervisor = SupervisorConfig(seed=args.seed)
    if args.hang_workers > 0 and supervisor.task_timeout is None:
        # A hung worker is only recoverable if something times it out.
        supervisor = SupervisorConfig(
            retries=supervisor.retries, task_timeout=10.0,
            deadline=supervisor.deadline, seed=supervisor.seed,
        )
    plan = _worker_fault_plan_from(args)
    result = detection_sweep(
        {args.program: RACE_BUGS[args.program]}, _scale_from(args),
        periods=[args.period], runs=args.runs, mode=args.mode,
        driver=_DRIVERS[args.driver], jobs=args.jobs, executor="process",
        supervisor=supervisor, fault_plan=plan,
        checkpoint_dir=args.checkpoint_dir, resume=args.resume,
    )
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(f"runtime chaos: {args.program}  period {args.period}  "
              f"{args.runs} runs  plan kill={plan.kill} "
              f"hang={plan.hang} fail={plan.fail}")
        print(result.render())
        if result.ledger is not None and not result.ledger.eventful:
            print("run ledger: nothing eventful (no faults fired)")
        print("runtime chaos complete: all trials accounted for.")
    return 0


def _loadburst_one(work: tuple) -> dict:
    """Module-level load-burst worker (picklable): one seeded governed
    or fixed-period trace under burst chaos, analyzed."""
    program, mode, period, driver, seed, governor, plan = work
    bundle = trace_run(program, period=period, driver=driver, seed=seed,
                       governor=governor, load_bursts=plan)
    result = OfflinePipeline(program, mode=mode).analyze(bundle)
    accounting = bundle.pebs_accounting.summary()
    row = {
        "seed": seed,
        "detected": bool(result.races),
        "samples": len(bundle.samples),
        "samples_dropped": int(accounting["samples_dropped"]),
        "dropped_interrupts": int(accounting["dropped_interrupts"]),
        "estimated_overhead": estimate_overhead(bundle).overhead,
    }
    gov = bundle.governor
    if gov is not None:
        from .pmu.governor import effective_period

        row["governor"] = {
            "measured_overhead": gov.final_overhead,
            "budget": gov.overhead_budget,
            "within_budget": gov.final_overhead <= gov.overhead_budget,
            "epochs": len(gov.epochs),
            "tier_transitions": gov.tier_transitions,
            "pt_sheds": gov.pt_sheds,
            "hard_dropped_samples": gov.hard_dropped_samples,
            "watchdog_trips": gov.watchdog_trips,
            "effective_period": effective_period(
                bundle.period_epochs, bundle.run.tsc, period
            ),
        }
    return row


def _cmd_chaos_loadbursts(args: argparse.Namespace) -> int:
    """Online load-burst chaos: governed vs fixed-period tracing under
    identical seeded event-weight bursts.

    For each seed the same program runs twice — once open-loop at the
    configured period (the §7.3 inversion: bursts fill DS segments and
    the kernel throttle silently bleeds samples) and once under the
    closed-loop governor with ``--overhead-budget``.  The JSON output is
    the CI contract: every governed run must report
    ``within_budget: true``, and the summary compares detections.
    """
    from .faults import LoadBurstPlan

    program = _resolve_program(args.program, _scale_from(args), args.source)
    governor = GovernorConfig(overhead_budget=args.overhead_budget,
                              k_min=getattr(args, "k_min", None),
                              k_max=getattr(args, "k_max", None),
                              seed=args.seed)
    rows = []
    for run_index in range(args.runs):
        seed = args.seed + run_index
        plan = LoadBurstPlan(seed=seed, multiplier=args.load_bursts)
        fixed = _loadburst_one((program, args.mode, args.period,
                                _DRIVERS[args.driver], seed, None, plan))
        governed = _loadburst_one((program, args.mode, args.period,
                                   _DRIVERS[args.driver], seed,
                                   governor, plan))
        rows.append({"seed": seed, "fixed": fixed, "governed": governed})
    governed_detections = sum(1 for r in rows if r["governed"]["detected"])
    fixed_detections = sum(1 for r in rows if r["fixed"]["detected"])
    budget_respected = all(
        r["governed"]["governor"]["within_budget"] for r in rows
    )
    throttle_tripped = any(
        r["fixed"]["samples_dropped"] > 0 for r in rows
    )
    payload = {
        "mode": "load-bursts",
        "program": program.name,
        "period": args.period,
        "runs": args.runs,
        "multiplier": args.load_bursts,
        "overhead_budget": args.overhead_budget,
        "rows": rows,
        "summary": {
            "governed_detections": governed_detections,
            "fixed_detections": fixed_detections,
            "budget_respected": budget_respected,
            "throttle_tripped": throttle_tripped,
            "governed_beats_fixed":
                governed_detections > fixed_detections,
        },
    }
    if args.json:
        import json

        print(json.dumps(payload, indent=2))
        return 0
    print(f"load-burst chaos: {program.name}  period {args.period}  "
          f"multiplier {args.load_bursts}  {args.runs} runs  "
          f"budget {100 * args.overhead_budget:.1f}%")
    print(f"{'seed':>6s} {'fixed det':>10s} {'drop':>6s} "
          f"{'gov det':>8s} {'gov ovh':>8s} {'eff period':>11s}")
    for row in rows:
        gov = row["governed"]["governor"]
        print(f"{row['seed']:6d} "
              f"{str(row['fixed']['detected']):>10s} "
              f"{row['fixed']['samples_dropped']:6d} "
              f"{str(row['governed']['detected']):>8s} "
              f"{100 * gov['measured_overhead']:7.2f}% "
              f"{gov['effective_period']:11.1f}")
    print(f"detections: governed {governed_detections}/{args.runs}  "
          f"fixed {fixed_detections}/{args.runs}")
    print("governor budget respected on every run: "
          + ("yes" if budget_respected else "NO"))
    return 0


def _clock_duel_one(work: tuple) -> dict:
    """Module-level clock-duel worker (picklable): one seeded run,
    analyzed clean for ground truth, then with clock faults injected —
    once trusting timestamps as-is and once reconciled."""
    program, mode, period, driver, seed, plan = work
    bundle = trace_run(program, period=period, driver=driver, seed=seed)
    truth = {
        race.address
        for race in OfflinePipeline(program, mode=mode)
        .analyze(bundle).races
    }
    degraded, _ = plan.apply(bundle)
    naive = OfflinePipeline(program, mode=mode).analyze(degraded)
    reconciled = OfflinePipeline(program, mode=mode,
                                 reconcile_clock=True).analyze(degraded)

    def judge(result) -> dict:
        addresses = {race.address for race in result.races}
        return {
            "detected": bool(addresses & truth),
            "false_races": sorted(addresses - truth),
        }

    row = {
        "seed": seed,
        "truth": sorted(truth),
        "naive": judge(naive),
        "reconciled": judge(reconciled),
    }
    clock = reconciled.clock
    if clock is not None:
        row["reconciled"]["clock"] = {
            "active": clock.active,
            "inversions": clock.model.inversions,
            "overlap_fraction": clock.overlap_fraction,
        }
    return row


def _cmd_chaos_clock(args: argparse.Namespace) -> int:
    """Adversarial-time chaos: naive-TSC vs reconciled analysis of the
    SAME clock-damaged bundles (docs/robustness.md, "Adversarial
    time").

    For each seed the program is traced once; the clean analysis fixes
    the ground-truth racy addresses; the bundle then gets per-core
    skew/drift/steps/regressions injected and is analyzed twice — once
    trusting timestamps as-is and once through ``repro.clock``
    reconciliation.  The JSON summary is the CI contract: reconciled
    detection must at least match naive, reconciliation must report
    zero false races, and naive ordering must have fabricated at least
    one somewhere in the sweep.
    """
    from .faults import FaultPlan

    program = _resolve_program(args.program, _scale_from(args), args.source)
    rows = []
    for run_index in range(args.runs):
        seed = args.seed + run_index
        plan = FaultPlan(seed=seed, clock_skew=args.clock_skew,
                         clock_drift=args.clock_drift,
                         clock_step=args.clock_step,
                         clock_regress=args.clock_regress)
        rows.append(_clock_duel_one((program, args.mode, args.period,
                                     _DRIVERS[args.driver], seed, plan)))
    naive_det = sum(1 for r in rows if r["naive"]["detected"])
    recon_det = sum(1 for r in rows if r["reconciled"]["detected"])
    naive_false = sum(len(r["naive"]["false_races"]) for r in rows)
    recon_false = sum(len(r["reconciled"]["false_races"]) for r in rows)
    payload = {
        "mode": "clock",
        "program": program.name,
        "period": args.period,
        "runs": args.runs,
        "plan": {
            "skew": args.clock_skew,
            "drift": args.clock_drift,
            "step": args.clock_step,
            "regress": args.clock_regress,
        },
        "rows": rows,
        "summary": {
            "naive_detections": naive_det,
            "reconciled_detections": recon_det,
            "naive_false_races": naive_false,
            "reconciled_false_races": recon_false,
            "reconciled_beats_naive": (
                recon_det >= naive_det and recon_false == 0
                and naive_false >= 1
            ),
        },
    }
    if args.json:
        import json

        print(json.dumps(payload, indent=2))
        return 0
    print(f"clock chaos: {program.name}  period {args.period}  "
          f"{args.runs} runs  skew={args.clock_skew} "
          f"drift={args.clock_drift} step={args.clock_step} "
          f"regress={args.clock_regress}")
    print(f"{'seed':>6s} {'naive det':>10s} {'naive false':>12s} "
          f"{'recon det':>10s} {'recon false':>12s}")
    for row in rows:
        print(f"{row['seed']:6d} "
              f"{str(row['naive']['detected']):>10s} "
              f"{len(row['naive']['false_races']):12d} "
              f"{str(row['reconciled']['detected']):>10s} "
              f"{len(row['reconciled']['false_races']):12d}")
    print(f"detections: reconciled {recon_det}/{args.runs}  "
          f"naive {naive_det}/{args.runs}")
    print(f"false races: reconciled {recon_false}  naive {naive_false}")
    print("reconciliation beats naive timestamps: "
          + ("yes" if payload["summary"]["reconciled_beats_naive"]
             else "NO"))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection sweep: detection probability vs fault intensity.

    For each built-in fault plan and each intensity, every seeded run's
    bundle is degraded and analyzed; the cell reports the fraction of
    runs in which at least one race was still detected.  The analysis
    must *complete* on every degraded bundle — any exception fails the
    sweep — so this doubles as the chaos smoke test in CI.

    With ``--kill-workers``/``--hang-workers``/``--fail-workers`` the
    command instead exercises the *runtime* layer: a supervised
    detection sweep under a :class:`~repro.faults.WorkerFaultPlan`.

    With ``--load-bursts MULT`` it exercises the *online* layer:
    governed vs fixed-period tracing under seeded event-weight bursts
    (:class:`~repro.faults.LoadBurstPlan`).

    With any ``--clock-*`` intensity it exercises the *time* layer:
    naive-TSC vs clock-reconciled analysis of identically damaged
    bundles (:mod:`repro.clock`).
    """
    from .faults import (
        BUILTIN_PLAN_NAMES,
        CLOCK_PLAN_NAMES,
        builtin_plans,
        clock_plans,
    )

    if args.kill_workers or args.hang_workers or args.fail_workers:
        return _cmd_chaos_runtime(args)
    if args.load_bursts:
        return _cmd_chaos_loadbursts(args)
    if (args.clock_skew or args.clock_drift or args.clock_step
            or args.clock_regress):
        return _cmd_chaos_clock(args)
    program = _resolve_program(args.program, _scale_from(args), args.source)
    intensities = [float(x) for x in args.intensities.split(",")]
    plan_names = (
        [p.strip() for p in args.plans.split(",")] if args.plans
        else list(BUILTIN_PLAN_NAMES)
    )
    all_plan_names = BUILTIN_PLAN_NAMES + CLOCK_PLAN_NAMES
    unknown = set(plan_names) - set(all_plan_names)
    if unknown:
        raise SystemExit(
            f"unknown fault plans {sorted(unknown)}; "
            f"choose from {', '.join(all_plan_names)}"
        )
    bundles = [
        trace_run(program, period=args.period,
                  driver=_DRIVERS[args.driver], seed=args.seed + index)
        for index in range(args.runs)
    ]
    baseline = sum(
        1 for bundle in bundles
        if OfflinePipeline(program, mode=args.mode).analyze(bundle).races
    )
    print(f"chaos sweep: {program.name}  period {args.period}  "
          f"{args.runs} runs  seed {args.seed}")
    print(f"baseline detection (no faults): "
          f"{baseline}/{args.runs} = {baseline / args.runs:.2f}")
    header = f"{'intensity':>10s}" + "".join(
        f" {name:>18s}" for name in plan_names
    )
    print(header)
    for intensity in intensities:
        cells = []
        for name in plan_names:
            detected = 0
            for index, bundle in enumerate(bundles):
                run_seed = args.seed + index
                plans = builtin_plans(intensity, seed=run_seed)
                if name in CLOCK_PLAN_NAMES:
                    plans = clock_plans(intensity, seed=run_seed)
                plan = plans[name]
                result = _chaos_one((program, args.mode, bundle, plan))
                if result.races:
                    detected += 1
            cells.append(f"{detected / args.runs:18.2f}")
        print(f"{intensity:10.2f}" + " " + " ".join(cells))
    print("chaos sweep complete: all degraded analyses finished.")
    return 0


def cmd_shootout(args: argparse.Namespace) -> int:
    """Precision/recall shoot-out over the Table 2 race-bug corpus.

    One trace + one decode/replay per (bug, seed) feeds every registry
    backend side by side; each baseline re-runs the programs under its
    own observation model; everyone is ranked by F1 against the
    ``race_*``-labelled ground truth.
    """
    from .analysis import run_shootout
    from .analysis.shootout import (
        DEFAULT_SHOOTOUT_BASELINES,
        DEFAULT_SHOOTOUT_DETECTORS,
    )

    if args.bugs:
        names = [b.strip() for b in args.bugs.split(",") if b.strip()]
        unknown = [name for name in names if name not in RACE_BUGS]
        if unknown:
            raise SystemExit(
                f"unknown race bugs {unknown}; see `repro workloads`"
            )
        bugs = {name: RACE_BUGS[name] for name in names}
    else:
        bugs = RACE_BUGS
    detectors = (
        resolve_detectors(args.detector) if args.detector
        else DEFAULT_SHOOTOUT_DETECTORS
    )
    baselines = (
        tuple(b.strip() for b in args.baselines.split(",") if b.strip())
        if args.baselines is not None else DEFAULT_SHOOTOUT_BASELINES
    )
    result = run_shootout(
        bugs, _scale_from(args), period=args.period, runs=args.runs,
        detectors=detectors, baselines=baselines, mode=args.mode,
        driver=_DRIVERS[args.driver], jobs=args.jobs,
    )
    if args.output:
        result.write_json(args.output)
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
        if args.output:
            print(f"wrote {args.output}")
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    program = _resolve_program(args.program, _scale_from(args), args.source)
    print(f"{'period':>10s} {'prorace':>10s} {'vanilla':>10s}")
    for period in args.periods:
        row = []
        for driver in (PRORACE_DRIVER, VANILLA_DRIVER):
            bundle = trace_run(program, period=period, driver=driver,
                               seed=args.seed)
            row.append(estimate_overhead(bundle).overhead)
        print(f"{period:10d} {100 * row[0]:9.2f}% {100 * row[1]:9.2f}%")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet-scale race triage (docs/robustness.md, "Fleet triage").

    Simulates N nodes running governed tracing epochs under a fleet
    overhead budget, pushes their bundles through (optionally chaotic)
    at-least-once transport into a spool, ingests with dedupe / salvage
    / quarantine, analyzes the backlog on sharded supervised workers,
    and folds the findings into a deduplicating race database.

    Exit codes: 0 no races, 1 races in the database, 7 lossy triage
    (bundles quarantined or shed — the database is a lower bound).
    """
    import json as json_module
    from pathlib import Path

    from .analysis.report import render_triage
    from .fleet import FleetConfig, run_fleet, run_fleet_duel

    workloads = (
        tuple(w.strip() for w in args.workloads.split(",") if w.strip())
        if args.workloads else ("apache-25520",)
    )
    retries = args.retries if args.retries is not None else 1
    config = FleetConfig(
        nodes=args.nodes, epochs=args.epochs, workloads=workloads,
        iterations=args.iterations, threads=args.threads, seed=args.seed,
        policy=args.policy, fleet_budget=args.fleet_budget,
        deep_budget=args.deep_budget, deep_period=args.deep_period,
        idle_period=args.idle_period,
        node_clock_skew=args.node_clock_skew,
        node_crash_rate=args.node_crash_rate,
        duplicate_rate=args.duplicate_rate,
        corrupt_rate=args.corrupt_rate,
        sticky_corrupt_rate=args.sticky_corrupt_rate,
        poison_rate=args.poison_rate, reorder=args.reorder,
        retries=retries, backlog_budget=args.backlog_budget, jobs=args.jobs,
        confirm=args.confirm, confirm_retries=args.confirm_retries,
        # Worker faults need real process isolation (a simulated SIGKILL
        # must not take the triage service down with it).
        executor="process" if (args.jobs > 1 or args.kill_workers
                               or args.hang_workers or args.fail_workers)
        else "serial",
    )
    workdir = Path(args.workdir)
    suppress = tuple(args.suppress or ())

    if args.duel:
        duel = run_fleet_duel(config, workdir, suppress=suppress)
        if args.json:
            print(json_module.dumps(duel, indent=2, sort_keys=True))
        else:
            print(render_triage(duel["rotate"], title="rotate"))
            print()
            print(render_triage(duel["uniform"], title="uniform"))
            print()
            verdict = "beats" if duel["rotate_wins"] else "does NOT beat"
            print(f"duel: rotate {verdict} uniform at the same "
                  f"fleet-wide budget "
                  f"(detection {duel['rotate_detection']:.2f} vs "
                  f"{duel['uniform_detection']:.2f})")
        lossy = duel["rotate"]["lossy"] or duel["uniform"]["lossy"]
        races = (duel["rotate"]["races_found"]
                 or duel["uniform"]["races_found"])
        if lossy:
            return EXIT_FLEET_LOSSY
        return EXIT_RACES if races else EXIT_OK

    task_timeout = args.task_timeout
    if args.hang_workers > 0 and task_timeout is None:
        # A hung analysis worker is only recoverable if timed out.
        task_timeout = 10.0
    supervisor = SupervisorConfig(
        retries=retries, task_timeout=task_timeout,
        deadline=args.deadline, backoff_base=0.0, seed=args.seed,
    )
    report = run_fleet(
        config,
        db_path=args.db or workdir / "races.db",
        spool_dir=workdir / "spool",
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        suppress=suppress,
        supervisor=supervisor,
        worker_fault_plan=_worker_fault_plan_from(args),
    )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2,
                                sort_keys=True))
    else:
        print(render_triage(report.to_dict()))
    if report.lossy:
        return EXIT_FLEET_LOSSY
    return EXIT_RACES if report.races_found else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ProRace reproduction: PMU-sampling data race "
                    "detection with offline reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One definition of the seeded worker-fault vocabulary, shared by
    # every command that injects runtime chaos (chaos, fleet).
    fault_parent = _worker_fault_parent()

    sub.add_parser("workloads", help="list workloads and race bugs")

    run_parser = sub.add_parser("run", help="execute a workload untraced")
    _add_program_args(run_parser)

    trace_parser = sub.add_parser("trace", help="trace a run to a file")
    _add_program_args(trace_parser)
    trace_parser.add_argument("--period", type=_positive_int,
                              default=1_000)
    trace_parser.add_argument("--driver", choices=sorted(_DRIVERS),
                              default="prorace")
    trace_parser.add_argument("-o", "--output", default="trace.prtr")
    _add_governor_args(trace_parser)
    trace_parser.add_argument(
        "--load-bursts", type=int, default=0, metavar="MULT",
        help="online chaos: monitored-event weight multiplier during "
             "seeded burst windows (0 = off)",
    )
    trace_parser.add_argument(
        "--stall-pebs-at", type=int, default=None, metavar="TSC",
        help="online chaos: wedge the PEBS engine at this TSC (with "
             "--governor the watchdog degrades to sync-only and the "
             "command exits with code 6)",
    )
    trace_parser.add_argument(
        "--stall-sync-at", type=int, default=None, metavar="TSC",
        help="online chaos: wedge the sync tracer at this TSC",
    )

    analyze_parser = sub.add_parser("analyze",
                                    help="offline-analyze a trace file")
    _add_program_args(analyze_parser)
    analyze_parser.add_argument("trace", help="trace file (.prtr)")
    analyze_parser.add_argument("--mode", default="full",
                                choices=("full", "forward", "basicblock",
                                         "sampled"))
    analyze_parser.add_argument("--json", action="store_true")
    analyze_parser.add_argument("--jobs", type=int, default=1,
                                help="workers for per-thread decode/replay")
    analyze_parser.add_argument(
        "--allow-partial", action="store_true",
        help="salvage intact sections of a corrupted v2 trace file "
             "instead of failing on the checksum",
    )
    analyze_parser.add_argument(
        "--no-jit", action="store_true",
        help="replay with the instruction interpreter instead of the "
             "pre-lowered micro-op executor (bit-identical, slower)",
    )
    analyze_parser.add_argument(
        "--profile", metavar="PATH",
        help="dump a cProfile pstats file for the offline stage to PATH",
    )
    _add_detector_args(analyze_parser)
    _add_clock_args(analyze_parser)
    _add_supervision_args(analyze_parser)

    detect_parser = sub.add_parser("detect", help="trace + analyze")
    _add_program_args(detect_parser)
    detect_parser.add_argument("--period", type=_positive_int,
                               default=1_000)
    detect_parser.add_argument("--driver", choices=sorted(_DRIVERS),
                               default="prorace")
    detect_parser.add_argument("--mode", default="full",
                               choices=("full", "forward", "basicblock",
                                        "sampled"))
    detect_parser.add_argument("--runs", type=_positive_int, default=1,
                               help="seeded runs to aggregate")
    detect_parser.add_argument("--jobs", type=int, default=1,
                               help="workers: across runs when --runs > 1; "
                                    "otherwise per-thread decode/replay "
                                    "fan-out")
    detect_parser.add_argument(
        "--profile", metavar="PATH",
        help="dump a cProfile pstats file for the offline stage to PATH",
    )
    detect_parser.add_argument(
        "--confirm", action="store_true",
        help="after detection, replay every reported race under "
             "schedule control and attach a verdict (exit 8 when races "
             "were reported but none fired; single-run only)",
    )
    _add_confirm_args(detect_parser)
    _add_detector_args(detect_parser)
    _add_clock_args(detect_parser)
    _add_governor_args(detect_parser)
    _add_supervision_args(detect_parser)

    confirm_parser = sub.add_parser(
        "confirm",
        help="trace + analyze + deterministic confirmation: a "
             "replay-backed verdict for every reported race",
    )
    _add_program_args(confirm_parser)
    confirm_parser.add_argument(
        "--period", type=_positive_int, default=100,
        help="sampling period of the evidence trace (denser than "
             "detect's default: the witness planner wants events)",
    )
    confirm_parser.add_argument("--driver", choices=sorted(_DRIVERS),
                                default="prorace")
    confirm_parser.add_argument("--mode", default="full",
                                choices=("full", "forward", "basicblock",
                                         "sampled"))
    confirm_parser.add_argument("--jobs", type=int, default=1,
                                help="replay worker slots (verdicts are "
                                     "bit-identical at any value)")
    confirm_parser.add_argument("--json", action="store_true")
    _add_confirm_args(confirm_parser)
    _add_detector_args(confirm_parser)
    _add_supervision_args(confirm_parser)

    overhead_parser = sub.add_parser(
        "overhead", help="sweep sampling periods for a workload"
    )
    _add_program_args(overhead_parser)
    overhead_parser.add_argument(
        "--periods", default="10,100,1000,10000,100000",
        type=_positive_int_list,
        help="comma-separated period list",
    )

    sweep_parser = sub.add_parser(
        "sweep", help="grid experiments over the workload catalog"
    )
    sweep_parser.add_argument("kind", choices=("overhead", "tracesize",
                                               "detection"))
    sweep_parser.add_argument("--target",
                              help="one workload/bug (default: all)")
    sweep_parser.add_argument("--periods", default="100,1000,10000",
                              type=_positive_int_list)
    sweep_parser.add_argument("--runs", type=_positive_int, default=5,
                              help="runs per detection cell")
    sweep_parser.add_argument("--mode", default="full",
                              choices=("full", "forward", "basicblock",
                                       "sampled"))
    sweep_parser.add_argument("--driver", choices=sorted(_DRIVERS),
                              default="prorace")
    sweep_parser.add_argument("--jobs", type=int, default=1,
                              help="workers for detection-sweep trials")
    sweep_parser.add_argument("--iterations", type=_positive_int,
                              default=40)
    sweep_parser.add_argument("--threads", type=int, default=4)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument("--json", action="store_true",
                              help="print the detection sweep as JSON")
    _add_detector_args(sweep_parser)
    _add_supervision_args(sweep_parser)

    shootout_parser = sub.add_parser(
        "shootout",
        help="precision/recall shoot-out: backends vs baselines over "
             "the race-bug corpus",
    )
    shootout_parser.add_argument(
        "--bugs", default="",
        help="comma-separated bug names (default: all of Table 2)",
    )
    shootout_parser.add_argument("--period", type=_positive_int,
                                 default=100)
    shootout_parser.add_argument("--runs", type=_positive_int, default=3,
                                 help="seeded runs per bug")
    shootout_parser.add_argument("--mode", default="full",
                                 choices=("full", "forward", "basicblock",
                                          "sampled"))
    shootout_parser.add_argument("--driver", choices=sorted(_DRIVERS),
                                 default="prorace")
    shootout_parser.add_argument(
        "--baselines", default=None, metavar="NAMES",
        help="comma-separated baseline list (default: "
             "racez,literace,datacollider,pacer; empty string = none)",
    )
    shootout_parser.add_argument("--jobs", type=int, default=1,
                                 help="workers for the trial grid")
    shootout_parser.add_argument("--iterations", type=_positive_int,
                                 default=40)
    shootout_parser.add_argument("--threads", type=int, default=4)
    shootout_parser.add_argument("--seed", type=int, default=0)
    shootout_parser.add_argument("--json", action="store_true",
                                 help="print the full result as JSON")
    shootout_parser.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="also write the JSON result (BENCH_detectors.json) to PATH",
    )
    _add_detector_args(shootout_parser)

    chaos_parser = sub.add_parser(
        "chaos",
        help="fault-injection sweep: detection probability vs intensity",
        parents=[fault_parent],
    )
    _add_program_args(chaos_parser)
    chaos_parser.add_argument("--period", type=_positive_int,
                              default=100)
    chaos_parser.add_argument("--driver", choices=sorted(_DRIVERS),
                              default="prorace")
    chaos_parser.add_argument("--mode", default="full",
                              choices=("full", "forward", "basicblock",
                                       "sampled"))
    chaos_parser.add_argument("--runs", type=_positive_int, default=3,
                              help="seeded runs per cell")
    chaos_parser.add_argument("--plans", default="",
                              help="comma-separated fault plan names "
                                   "(default: all built-ins)")
    chaos_parser.add_argument("--intensities", default="0.05,0.1,0.2",
                              help="comma-separated fault intensities")
    chaos_parser.add_argument(
        "--load-bursts", type=int, default=0, metavar="MULT",
        help="online chaos: compare governed vs fixed-period tracing "
             "under seeded event-weight bursts of this multiplier",
    )
    chaos_parser.add_argument(
        "--clock-skew", type=float, default=0.0, metavar="I",
        help="adversarial time: per-core constant TSC offset intensity "
             "(any --clock-* flag switches chaos into the naive-vs-"
             "reconciled clock duel)",
    )
    chaos_parser.add_argument(
        "--clock-drift", type=float, default=0.0, metavar="I",
        help="adversarial time: per-core linear frequency-drift "
             "intensity",
    )
    chaos_parser.add_argument(
        "--clock-step", type=float, default=0.0, metavar="I",
        help="adversarial time: migration-style step-discontinuity "
             "intensity",
    )
    chaos_parser.add_argument(
        "--clock-regress", type=float, default=0.0, metavar="I",
        help="adversarial time: per-record non-monotonic TSC "
             "regression intensity",
    )
    chaos_parser.add_argument("--jobs", type=int, default=1,
                              help="worker slots for runtime chaos")
    chaos_parser.add_argument("--json", action="store_true",
                              help="print the runtime-chaos sweep as JSON")
    _add_governor_args(chaos_parser)
    _add_supervision_args(chaos_parser)

    fleet_parser = sub.add_parser(
        "fleet",
        help="fleet triage: governed nodes -> spool -> sharded "
             "analysis -> deduplicating race database",
        parents=[fault_parent],
    )
    fleet_parser.add_argument("--nodes", type=int, default=4)
    fleet_parser.add_argument("--epochs", type=int, default=3)
    fleet_parser.add_argument(
        "--workloads", default=None, metavar="NAMES",
        help="comma-separated race-bug names the nodes run "
             "(node i runs workloads[i %% len]; default apache-25520)",
    )
    fleet_parser.add_argument("--iterations", type=_positive_int,
                              default=12)
    fleet_parser.add_argument("--threads", type=int, default=4)
    fleet_parser.add_argument("--seed", type=int, default=0)
    fleet_parser.add_argument(
        "--policy", choices=("rotate", "uniform"), default="rotate",
        help="budget scheduling: rotate deep-tracing epochs across "
             "nodes (PACER-style) or spread the budget uniformly",
    )
    fleet_parser.add_argument(
        "--duel", action="store_true",
        help="run BOTH policies at the same fleet-wide budget and "
             "compare detection probability",
    )
    fleet_parser.add_argument("--fleet-budget", type=float, default=0.005,
                              metavar="FRACTION",
                              help="fleet-wide overhead budget")
    fleet_parser.add_argument("--deep-budget", type=float, default=0.02,
                              metavar="FRACTION",
                              help="per-node budget in a deep slot")
    fleet_parser.add_argument("--deep-period", type=int, default=160)
    fleet_parser.add_argument("--idle-period", type=int, default=50_000)
    fleet_parser.add_argument(
        "--node-clock-skew", type=float, default=0.0, metavar="I",
        help="node chaos: per-node TSC epoch offsets of this intensity "
             "(ingest reconciles them before cross-node dedup)",
    )
    fleet_parser.add_argument(
        "--node-crash-rate", type=float, default=0.0, metavar="P",
        help="transport chaos: node dies mid-upload (torn copy + "
             "intact redelivery)",
    )
    fleet_parser.add_argument(
        "--duplicate-rate", type=float, default=0.0, metavar="P",
        help="transport chaos: extra duplicate delivery",
    )
    fleet_parser.add_argument(
        "--corrupt-rate", type=float, default=0.0, metavar="P",
        help="transport chaos: transiently corrupted copy + intact "
             "redelivery",
    )
    fleet_parser.add_argument(
        "--sticky-corrupt-rate", type=float, default=0.0, metavar="P",
        help="node-side corruption: every copy equally damaged "
             "(recovered by section salvage)",
    )
    fleet_parser.add_argument(
        "--poison-rate", type=float, default=0.0, metavar="P",
        help="unreadable in every copy: burns retries, then quarantine",
    )
    fleet_parser.add_argument(
        "--no-reorder", dest="reorder", action="store_false",
        help="deliver in production order instead of the seeded shuffle",
    )
    fleet_parser.add_argument(
        "--backlog-budget", type=int, default=None, metavar="N",
        help="backpressure: analyze at most N bundles per cycle, "
             "shedding the lowest-priority (sparsest-sampled) rest",
    )
    fleet_parser.add_argument(
        "--workdir", default="fleet-triage", metavar="DIR",
        help="working directory for the spool, race database, and "
             "quarantine (default ./fleet-triage)",
    )
    fleet_parser.add_argument(
        "--db", default=None, metavar="PATH",
        help="race database path (default WORKDIR/races.db)",
    )
    fleet_parser.add_argument(
        "--suppress", action="append", default=None, metavar="KEY",
        help="suppress a race signature key (repeatable); suppressed "
             "races stay counted but leave the ranking",
    )
    fleet_parser.add_argument("--jobs", type=int, default=1,
                              help="analysis worker slots")
    fleet_parser.add_argument(
        "--confirm", action="store_true",
        help="replay every reported race under schedule control inside "
             "the analysis workers; ranked races carry verdict tiers",
    )
    fleet_parser.add_argument(
        "--confirm-retries", type=int, default=5, metavar="N",
        help="replays per race before it is declared unconfirmed "
             "(with --confirm; default 5)",
    )
    fleet_parser.add_argument("--json", action="store_true",
                              help="print the triage report as JSON")
    _add_supervision_args(fleet_parser)

    return parser


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "workloads": cmd_workloads,
    "run": cmd_run,
    "trace": cmd_trace,
    "analyze": cmd_analyze,
    "detect": cmd_detect,
    "confirm": cmd_confirm,
    "overhead": cmd_overhead,
    "sweep": cmd_sweep,
    "shootout": cmd_shootout,
    "chaos": cmd_chaos,
    "fleet": cmd_fleet,
}


def _unknown_command_error(argv: list) -> Optional[str]:
    """A did-you-mean message when the leading token is not a command
    (argparse's bare invalid-choice error names no suggestion)."""
    if not argv or argv[0].startswith("-") or argv[0] in _COMMANDS:
        return None
    import difflib

    close = difflib.get_close_matches(argv[0], _COMMANDS.keys(), n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return (f"repro: unknown command {argv[0]!r}{hint} "
            f"(available: {', '.join(sorted(_COMMANDS))})")


def main(argv: Optional[list] = None) -> int:
    """Dispatch a command and map structured runtime errors onto the
    documented exit codes (see :mod:`repro.errors`): 2 unusable input,
    3 deadline exceeded, 4 quarantine/worker crash, 5 usage bug."""
    if argv is None:
        argv = sys.argv[1:]
    message = _unknown_command_error(argv)
    if message is not None:
        # Same exit code argparse uses for an invalid choice (2), plus
        # a did-you-mean the stock error lacks.
        print(message, file=sys.stderr)
        return EXIT_TRACE_ERROR
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DeadlineExceeded, QuarantinedWork) as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        if error.ledger is not None:
            print(error.ledger.render(), file=sys.stderr)
        return exit_code_for(error)
    except (WorkerCrash, UsageError, TraceError) as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
