"""Shared scaffolding for workload programs.

All workloads are written in the text assembly dialect
(:mod:`repro.isa.assembler`) and parametrized by a :class:`WorkloadScale`
so tests run tiny instances while benchmarks run paper-scale ones.

The helpers here generate the fork/join boilerplate every kernel shares:
``main`` spawns ``threads`` workers (each receives its worker index in
``%rdi`` — spawn copies the parent's registers), optionally runs its own
body, then joins everyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..isa.assembler import assemble
from ..isa.program import Program


@dataclass(frozen=True)
class WorkloadScale:
    """Size knobs shared by all workloads.

    Attributes:
        iterations: per-thread work items (loop trip count).
        threads: worker thread count (the paper pins PARSEC at 4; the
            server applications use their Table 1 thread counts scaled
            down by :attr:`thread_cap`).
        data_words: size of the main shared arrays, in 64-bit words.
        io_cycles: cycles per simulated blocking I/O operation.
        thread_cap: upper bound applied to an app's natural thread count
            (keeps simulation tractable; Table 1 lists e.g. 38 threads
            for cherokee).
    """

    iterations: int = 50
    threads: int = 4
    data_words: int = 64
    io_cycles: int = 400
    thread_cap: int = 8

    def __post_init__(self) -> None:
        # Workload loops count down to zero: a trip count below 1 would
        # wrap the counter and never terminate.
        if self.iterations < 1:
            raise ValueError(
                f"iterations must be at least 1, got {self.iterations}")

    def capped_threads(self, natural: int) -> int:
        return max(1, min(natural, self.thread_cap))


#: Default scale used by the test suite.
SMALL = WorkloadScale(iterations=20, threads=4, data_words=32)

#: Default scale used by the benchmark harness.
BENCH = WorkloadScale(iterations=150, threads=4, data_words=128)


def pool_program(
    name: str,
    threads: int,
    globals_asm: str,
    worker_asm: str,
    main_body_asm: str = "",
    prologue_asm: str = "",
) -> Program:
    """Assemble a fork/join worker-pool program.

    Args:
        name: program name.
        threads: number of workers to spawn.
        globals_asm: ``.global``/``.array``/``.reserve`` directives.
        worker_asm: code starting at label ``worker`` (each worker finds
            its index in ``%rdi``; it must end with ``halt`` or ``ret``
            from its entry frame).
        main_body_asm: code main runs between spawning and joining.
        prologue_asm: code main runs before spawning.
    """
    source = f"""
.reserve __tids {threads}
{globals_asm}

main:
{prologue_asm}
    mov $0, %r8
__spawn_loop:
    mov %r8, %rdi
    spawn worker, %rax
    mov %rax, __tids(,%r8,8)
    inc %r8
    cmp ${threads}, %r8
    jl __spawn_loop
{main_body_asm}
    mov $0, %r8
__join_loop:
    mov __tids(,%r8,8), %r9
    join %r9
    inc %r8
    cmp ${threads}, %r8
    jl __join_loop
    halt

worker:
{worker_asm}
"""
    return assemble(source, name)


@dataclass(frozen=True)
class Workload:
    """A catalogued benchmark program."""

    name: str
    category: str  # "parsec" | "server" | "utility"
    build: Callable[[WorkloadScale], Program]
    io_bound: bool = False
    description: str = ""

    def instantiate(self, scale: Optional[WorkloadScale] = None) -> Program:
        return self.build(scale or SMALL)
