"""Shared helpers and program sources for the test suite."""

from __future__ import annotations

from repro.analysis import OfflinePipeline
from repro.detector.events import SyncOp
from repro.detector.registry import create_backend
from repro.isa.lowering import lowered
from repro.machine import Machine
from repro.replay import WindowReplayer

#: A small two-thread program with a lock-protected counter (no races).
CLEAN_COUNTER_ASM = """
.global total 0
.global lockvar 0
main:
    mov $6, %rcx
    spawn worker, %rbx
loop:
    call bump
    dec %rcx
    cmp $0, %rcx
    jne loop
    join %rbx
    halt
bump:
    lock $lockvar
    mov total(%rip), %rax
    add $1, %rax
    mov %rax, total(%rip)
    unlock $lockvar
    ret
worker:
    mov $5, %rcx
wloop:
    call bump
    dec %rcx
    cmp $0, %rcx
    jne wloop
    halt
"""

#: A small two-thread program with an obvious data race on `racy`.
RACY_ASM = """
.global racy 0
.global lockvar 0
.reserve workbuf 16
main:
    spawn worker, %rbx
    mov $8, %rcx
mloop:
    mov racy(%rip), %rax
    add $1, %rax
    mov %rax, racy(%rip)
    mov %rcx, %r10
    and $15, %r10
    mov workbuf(,%r10,8), %r11
    dec %rcx
    cmp $0, %rcx
    jne mloop
    join %rbx
    halt
worker:
    mov $8, %rcx
wloop:
    mov racy(%rip), %rax
    add $2, %rax
    mov %rax, racy(%rip)
    dec %rcx
    cmp $0, %rcx
    jne wloop
    halt
"""


# The pointer-flipper scenario of §5.1: `cell` holds a pointer that one
# thread races on, and the main thread's reconstructed accesses go
# *through* the emulated pointer value — detecting the race on `cell`
# poisons it and forces a regeneration round.
REGEN_ASM = """
.global cell 0
.array a1 1 1 1 1
.array a2 2 2 2 2
.reserve workbuf 16
main:
    spawn flipper, %rbx
    mov $10, %rcx
mloop:
    mov $a1, %rax
    mov %rax, cell(%rip)
    mov %rcx, %r10
    and $15, %r10
    mov workbuf(,%r10,8), %r11
    mov cell(%rip), %rsi
    mov 8(%rsi), %rdx
    dec %rcx
    cmp $0, %rcx
    jne mloop
    join %rbx
    halt
flipper:
    mov $10, %rcx
floop:
    mov $a2, %rax
    mov %rax, cell(%rip)
    dec %rcx
    cmp $0, %rcx
    jne floop
    halt
"""


def run_machine(program, seed=0, **kwargs):
    """Convenience: run a program on a fresh machine."""
    machine = Machine(program, seed=seed, **kwargs)
    result = machine.run()
    return machine, result


def record_states(program, seed=0, num_cores=4):
    """Run *program* recording, per thread, the executed instruction
    addresses and the register snapshot *before* each instruction.

    Returns {tid: [(ip, regs_before_dict), ...]} in execution order —
    the oracle several replay tests drive WindowReplayer with.
    """
    machine = Machine(program, seed=seed, num_cores=num_cores)
    states = {}
    original_step = machine._step

    def wrapped(thread):
        snapshot = thread.registers.snapshot()
        states.setdefault(thread.tid, []).append((thread.ip, snapshot))
        original_step(thread)

    machine._step = wrapped
    machine.run()
    return machine, states


def window_replayers(program, steps, start, end, **kwargs):
    """The same window once per executor: the instruction interpreter
    (``compiled=None``) and the production micro-op loop
    (``compiled=lowered(program)``).  Window tests run every assertion
    on both."""
    return [
        WindowReplayer(program, steps, start, end, compiled=compiled,
                       **kwargs)
        for compiled in (None, lowered(program))
    ]


def scalar_detection(context, detectors=("fasttrack",),
                     poisoned=frozenset()):
    """The scalar detection reference: one replay round of *context*
    under *poisoned*, then its per-event heap merge
    (``merged_events()``) fed through fresh backends' ``sync`` /
    ``access``.  Returns ``(backends, events_processed)``."""
    context.replay(poisoned)
    backends = [create_backend(name) for name in detectors]
    events = 0
    for _key, event in context.merged_events():
        if isinstance(event, SyncOp):
            for backend in backends:
                backend.sync(event)
        else:
            for backend in backends:
                backend.access(event)
        events += 1
    return backends, events


class RoundRecorder(OfflinePipeline):
    """An :class:`OfflinePipeline` that keeps every batched detection
    pass ``analyze()`` runs: ``(poisoned, backends, events_processed,
    suppressed_accesses)`` per regeneration round."""

    def __init__(self, program, **kwargs):
        super().__init__(program, **kwargs)
        self.rounds = []

    def _detection_pass(self, context):
        backends, events = super()._detection_pass(context)
        self.rounds.append((context._last_poisoned or frozenset(),
                            backends, events, context.suppressed_accesses))
        return backends, events


def assert_batched_matches_scalar(program, bundle, **pipeline_kwargs):
    """Analyze *bundle* through the batched pass, then re-run each of
    its regeneration rounds on a fresh context through
    :func:`scalar_detection`: every round's reports (in stream order),
    counters and findings must be identical.  Returns the analysis
    result."""
    pipeline = RoundRecorder(program, **pipeline_kwargs)
    result = pipeline.analyze(bundle)
    assert pipeline.rounds
    for poisoned, batched, events, suppressed in pipeline.rounds:
        context = pipeline.context_for(bundle)
        scalar, scalar_events = scalar_detection(
            context, pipeline.detectors, poisoned)
        assert scalar_events == events
        assert context.suppressed_accesses == suppressed
        for reference, backend in zip(scalar, batched, strict=True):
            assert reference.races == backend.races
            assert reference.accesses_processed == backend.accesses_processed
            assert reference.sync_processed == backend.sync_processed
            assert reference.finish() == backend.finish()
    for reference in scalar:
        assert result.findings[reference.name] == reference.finish()
    return result
