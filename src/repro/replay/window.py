"""Window replay: reconstructing unsampled accesses between two samples.

One *window* is the path slice between consecutive PEBS samples of a
thread (Figure 4).  The replayer alternates:

* **Forward replay** (§5.1): restore the entry sample's register file and
  re-execute every instruction along the PT path, tracking availability
  in a :class:`~repro.replay.program_map.ProgramMap`; each memory
  instruction whose effective address computes yields a recovered access.
* **Backward replay** (§5.2): walking back from the *next* sample's
  register file, values back-propagate to each register's last update
  point, and *reverse execution* inverts ADD/SUB/XOR (plus the trivially
  invertible INC/DEC/NEG/NOT, LEA, and stack-pointer adjustments) to push
  knowledge further back.  Accesses the forward pass missed are recovered
  where the backward state covers their address registers.
* The two passes iterate — backward facts accumulate and seed the next
  forward pass — "until they reach the fixed point where no further
  restoration is found" (§5.2.2).

Windows at the trace edges degenerate gracefully: before the first sample
only the backward pass runs; after the last sample only the forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..isa.instructions import (
    ALU_BINARY,
    ALU_UNARY,
    Instruction,
    Op,
    REVERSIBLE_ALU,
)
from ..isa.lowering import (
    A_BASE,
    A_BI,
    A_CONST,
    CompiledProgram,
    R_ALU_IR,
    R_ALU_RR,
    R_ALU_UN,
    R_LEA_BASE,
    R_LEA_BI,
    R_MOV_RR,
    R_NOP,
    R_POP,
    R_POP_DST,
    R_RSP_ADD,
    R_RSP_SUB,
    RSP_SLOT,
    T_MEM,
    T_PUSH,
    U_ALU_IR,
    U_ALU_MR,
    U_ALU_RR,
    U_ALU_UN,
    U_CALL,
    U_CLOBBER,
    U_CMP,
    U_LEA,
    U_LOAD,
    U_MOV_IR,
    U_MOV_RR,
    U_NOP,
    U_POP,
    U_PUSH_K,
    U_PUSH_M,
    U_PUSH_R,
    U_RET,
    U_STORE_I,
    U_STORE_R,
    U_SYS,
    eval_addr,
)
from ..isa.operands import Imm, Mem, Operand, Reg
from ..isa.program import Program
from ..isa.registers import MASK64, REG_SLOT
from ..isa.semantics import alu, alu_unary, reverse_alu
from .program_map import Known, ProgramMap, Taint, merge_taint

#: How a recovered access was obtained.
PROV_SAMPLED = "sampled"
PROV_FORWARD = "forward"
PROV_BACKWARD = "backward"
PROV_BASICBLOCK = "basicblock"

_UNARY_INVERSE = {Op.INC: Op.DEC, Op.DEC: Op.INC, Op.NEG: Op.NEG,
                  Op.NOT: Op.NOT}

_COND = frozenset({Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE})


@dataclass(frozen=True)
class RecoveredAccess:
    """One memory access whose address the offline stage reconstructed."""

    tid: int
    step_index: int
    ip: int
    address: int
    is_store: bool
    provenance: str
    #: Emulated-memory addresses this address computation depended on;
    #: non-empty taints are retracted if those locations prove racy.
    taint: Taint = None


@dataclass
class WindowStats:
    """Availability bookkeeping for one window replay."""

    steps: int = 0
    recovered_forward: int = 0
    recovered_backward: int = 0
    missed: int = 0
    iterations: int = 0
    memory_invalidations: int = 0
    #: Steps stepped by forward passes (interpreter or micro-op), summed
    #: over the fixed-point iterations.
    steps_executed: int = 0
    #: The fixed point stopped at ``max_iterations`` with backward facts
    #: no forward pass has applied yet.
    capped: bool = False


class WindowReplayer:
    """Replays one window of one thread's decoded path.

    Args:
        program: the binary.
        steps: the thread's full decoded path (instruction addresses).
        start: first step index of the window (the entry sample's step, or
            0 for the pre-first-sample window).
        end: one past the last step index (the next sample's step, or
            ``len(steps)`` for the tail window).
        tid: owning thread.
        entry_registers: the entry sample's register context (state
            *before* the instruction at ``start`` executes), or None for
            the head window.
        exit_registers: the next sample's register context (state before
            ``steps[end]`` executes = after ``steps[end-1]``), or None for
            the tail window.
        entry_memory: emulated memory carried over from the previous
            window of the same thread.
        poisoned: emulated addresses barred by race regeneration (§5.1).
        max_iterations: fixed-point iteration cap.
        compiled: the program's micro-op form; when given, both passes
            run the micro-op executor instead of the instruction
            interpreter (bit-identical results, see docs/performance.md).
    """

    def __init__(
        self,
        program: Program,
        steps: Sequence[int],
        start: int,
        end: int,
        tid: int,
        entry_registers: Optional[Mapping[str, int]],
        exit_registers: Optional[Mapping[str, int]],
        entry_memory: Optional[Dict[int, Known]] = None,
        poisoned: Optional[FrozenSet[int]] = None,
        max_iterations: int = 4,
        compiled: Optional[CompiledProgram] = None,
    ) -> None:
        self.program = program
        self.steps = steps
        self.start = start
        self.end = end
        self.tid = tid
        self.entry_registers = entry_registers
        self.exit_registers = exit_registers
        self.entry_memory = entry_memory or {}
        self.poisoned = poisoned or frozenset()
        self.max_iterations = max_iterations
        self.stats = WindowStats()
        self.exit_memory: Dict[int, Known] = {}
        #: Union of the program maps' emulated-store address sets across
        #: all forward passes (see ProgramMap.emulated_touched).
        self.touched: set = set()
        self._compiled = compiled

    # ------------------------------------------------------------------

    def run(self) -> List[RecoveredAccess]:
        """Run the §5.2.2 forward/backward fixed point; returns accesses
        sorted by step.

        Backward facts accumulate across iterations.  The backward
        state at a step comes from the exit sample and the path alone,
        never from the blocked set, so a fact (or retried access)
        derived for a step is the same in every iteration: each blocked
        step needs one backward visit.  The loop stops when a forward
        pass blocks at no step the backward pass has not yet visited, or
        when the backward pass finds no new fact.
        """
        recovered: Dict[int, RecoveredAccess] = {}
        facts: Dict[int, Dict[str, Known]] = {}
        visited: FrozenSet[int] = frozenset()
        if self._compiled is not None:
            forward = self._forward_pass_fast
            backward = self._backward_pass_fast
        else:
            forward = self._forward_pass
            backward = self._backward_pass

        for iteration in range(self.max_iterations):
            self.stats.iterations = iteration + 1
            first = iteration == 0
            fwd_accesses, blocked = forward(facts, first)
            for access in fwd_accesses:
                recovered.setdefault(access.step_index, access)
            if self.exit_registers is None:
                break  # tail window: nothing to propagate backward
            fresh = blocked - visited
            if not fresh:
                break  # every blocked step was already visited backward
            bwd_accesses, new_facts = backward(fresh)
            for access in bwd_accesses:
                recovered.setdefault(access.step_index, access)
            if not new_facts:
                # Re-running the forward pass without new backward facts
                # cannot restore anything further: fixed point (§5.2.2).
                break
            visited |= fresh
            facts = {**facts, **new_facts}
        else:
            self.stats.capped = True

        self.stats.recovered_forward = sum(
            1 for a in recovered.values() if a.provenance == PROV_FORWARD
        )
        self.stats.recovered_backward = sum(
            1 for a in recovered.values() if a.provenance == PROV_BACKWARD
        )
        return [recovered[j] for j in sorted(recovered)]

    # ------------------------------------------------------------------
    # Forward pass
    # ------------------------------------------------------------------

    def _forward_pass(
        self, facts: Dict[int, Dict[str, Known]], first: bool
    ) -> Tuple[List[RecoveredAccess], FrozenSet[int]]:
        """One forward replay over the window.

        *facts* are backward-derived before-step register values applied
        as they are reached.  Returns recovered accesses and the step
        indices where an unavailable input blocked reconstruction.
        """
        pm = ProgramMap(self.poisoned)
        if self.entry_registers is not None:
            pm.restore_registers(self.entry_registers)
        pm.set_memory_map(self.entry_memory)
        provenance = PROV_FORWARD if first else PROV_BACKWARD
        accesses: List[RecoveredAccess] = []
        blocked: set[int] = set()

        for j in range(self.start, self.end):
            ip = self.steps[j]
            ins = self.program[ip]
            for name, known in facts.get(j, {}).items():
                if pm.get_register(name) is None:
                    pm.set_register(name, known)
            access = self._execute(pm, j, ip, ins, provenance, blocked)
            if access is not None:
                accesses.append(access)
        self.stats.steps = self.end - self.start
        self.stats.steps_executed += self.end - self.start
        self.stats.memory_invalidations = pm.memory_invalidations
        self.exit_memory = pm.memory_copy()
        self.touched |= pm.emulated_touched
        return accesses, frozenset(blocked)

    # ------------------------------------------------------------------
    # Forward pass, micro-op executor
    # ------------------------------------------------------------------

    def _forward_pass_fast(
        self, facts: Dict[int, Dict[int, Known]], first: bool
    ) -> Tuple[List[RecoveredAccess], FrozenSet[int]]:
        """Micro-op twin of :meth:`_forward_pass` (bit-identical output).

        Steps pre-lowered micro-ops instead of interpreting instruction
        dataclasses.  *facts* come from :meth:`_backward_pass_fast` and
        are keyed by register slot, not name.
        """
        pm = ProgramMap(self.poisoned)
        if self.entry_registers is not None:
            pm.restore_registers(self.entry_registers)
        pm.set_memory_map(self.entry_memory)
        provenance = PROV_FORWARD if first else PROV_BACKWARD
        accesses: List[RecoveredAccess] = []
        blocked: set = set()
        slots = pm._slots

        prev = self.start
        for step in sorted(step for step, named in facts.items() if named):
            self._exec_uops(pm, prev, step, provenance, blocked, accesses)
            for slot, known in facts[step].items():
                if slots[slot] is None:
                    slots[slot] = known
            prev = step
        self._exec_uops(pm, prev, self.end, provenance, blocked, accesses)

        self.stats.steps = self.end - self.start
        self.stats.memory_invalidations = pm.memory_invalidations
        self.exit_memory = pm.memory_copy()
        self.touched |= pm.emulated_touched
        return accesses, frozenset(blocked)

    def _exec_uops(
        self,
        pm: ProgramMap,
        lo: int,
        hi: int,
        provenance: str,
        blocked: set,
        accesses: List[RecoveredAccess],
    ) -> None:
        """Step micro-ops for window steps ``[lo, hi)``.

        The hot loop of the compiled replayer.  Mirrors :meth:`_execute`
        exactly — every blocked/missed/invalidate side effect, taint
        merge, and at-most-one-recovered-access-per-step rule — but
        against pre-lowered tuples and the flat register slot file.
        """
        slots = pm._slots
        memory = pm._memory
        touched = pm.emulated_touched
        poisoned = pm.poisoned
        steps = self.steps
        uops = self._compiled.uops
        tid = self.tid
        stats = self.stats
        stats.steps_executed += hi - lo

        for j in range(lo, hi):
            ip = steps[j]
            u = uops[ip]
            kind = u[0]

            if kind == U_NOP:
                continue

            if kind == U_MOV_RR:
                value = slots[u[1]]
                if value is None:
                    blocked.add(j)
                slots[u[2]] = value
                continue

            if kind == U_MOV_IR:
                slots[u[2]] = u[1]
                continue

            if kind == U_LOAD:
                address = eval_addr(slots, u[1])
                if address is None:
                    blocked.add(j)
                    stats.missed += 1
                    slots[u[2]] = None
                    continue
                av = address.value
                accesses.append(RecoveredAccess(
                    tid=tid, step_index=j, ip=ip, address=av,
                    is_store=False, provenance=provenance,
                    taint=address.taint,
                ))
                entry = memory.get(av)
                if entry is None:
                    slots[u[2]] = None
                else:
                    slots[u[2]] = Known(
                        entry.value,
                        merge_taint(
                            merge_taint(entry.taint, frozenset({av})),
                            address.taint,
                        ),
                    )
                continue

            if kind == U_STORE_R or kind == U_STORE_I:
                address = eval_addr(slots, u[1])
                if kind == U_STORE_R:
                    value = slots[u[2]]
                    if value is None:
                        blocked.add(j)
                else:
                    value = u[2]
                if address is None:
                    blocked.add(j)
                    stats.missed += 1
                    if memory:
                        memory.clear()
                    pm.memory_invalidations += 1
                    continue
                av = address.value
                if value is None:
                    memory.pop(av, None)
                else:
                    touched.add(av)
                    if av in poisoned:
                        memory.pop(av, None)
                    else:
                        memory[av] = value
                accesses.append(RecoveredAccess(
                    tid=tid, step_index=j, ip=ip, address=av,
                    is_store=True, provenance=provenance,
                    taint=address.taint,
                ))
                continue

            if kind == U_LEA:
                address = eval_addr(slots, u[1])
                if address is None:
                    blocked.add(j)
                slots[u[2]] = address
                continue

            if kind == U_ALU_RR or kind == U_ALU_IR:
                if kind == U_ALU_RR:
                    value = slots[u[2]]
                    if value is None:
                        blocked.add(j)
                else:
                    value = u[2]
                current = slots[u[3]]
                if current is None:
                    blocked.add(j)
                    slots[u[3]] = None
                elif value is None:
                    slots[u[3]] = None
                elif kind == U_ALU_RR:
                    slots[u[3]] = Known(
                        u[1](value.value, current.value) & MASK64,
                        merge_taint(value.taint, current.taint),
                    )
                else:
                    slots[u[3]] = Known(
                        u[1](value, current.value) & MASK64, current.taint
                    )
                continue

            if kind == U_ALU_UN:
                current = slots[u[2]]
                if current is None:
                    blocked.add(j)
                    slots[u[2]] = None
                else:
                    slots[u[2]] = Known(
                        u[1](current.value) & MASK64, current.taint
                    )
                continue

            if kind == U_ALU_MR:
                address = eval_addr(slots, u[2])
                if address is None:
                    blocked.add(j)
                    stats.missed += 1
                    value = None
                else:
                    av = address.value
                    accesses.append(RecoveredAccess(
                        tid=tid, step_index=j, ip=ip, address=av,
                        is_store=False, provenance=provenance,
                        taint=address.taint,
                    ))
                    entry = memory.get(av)
                    if entry is None:
                        value = None
                    else:
                        value = Known(
                            entry.value,
                            merge_taint(
                                merge_taint(entry.taint, frozenset({av})),
                                address.taint,
                            ),
                        )
                current = slots[u[3]]
                if value is None or current is None:
                    if current is None:
                        blocked.add(j)
                    slots[u[3]] = None
                else:
                    slots[u[3]] = Known(
                        u[1](value.value, current.value) & MASK64,
                        merge_taint(value.taint, current.taint),
                    )
                continue

            if kind == U_CMP:
                emitted = False
                for desc in u[1]:
                    if desc[0] == 0:
                        if slots[desc[1]] is None:
                            blocked.add(j)
                    else:
                        address = eval_addr(slots, desc[1])
                        if address is None:
                            blocked.add(j)
                            stats.missed += 1
                        elif not emitted:
                            # The interpreter surfaces at most one access
                            # per step (local[0]); the loaded value is
                            # discarded.
                            accesses.append(RecoveredAccess(
                                tid=tid, step_index=j, ip=ip,
                                address=address.value, is_store=False,
                                provenance=provenance, taint=address.taint,
                            ))
                            emitted = True
                continue

            if kind == U_PUSH_R or kind == U_PUSH_K or kind == U_PUSH_M:
                if kind == U_PUSH_R:
                    value = slots[u[1]]
                    if value is None:
                        blocked.add(j)
                elif kind == U_PUSH_K:
                    value = u[1]
                else:
                    address = eval_addr(slots, u[1])
                    if address is None:
                        blocked.add(j)
                        stats.missed += 1
                        value = None
                    else:
                        # The interpreter discards a pushed memory
                        # source's load access (the push's own store is
                        # the step's one access), but the loaded value
                        # still matters.
                        av = address.value
                        entry = memory.get(av)
                        if entry is None:
                            value = None
                        else:
                            value = Known(
                                entry.value,
                                merge_taint(
                                    merge_taint(entry.taint,
                                                frozenset({av})),
                                    address.taint,
                                ),
                            )
                rsp = slots[RSP_SLOT]
                if rsp is None:
                    blocked.add(j)
                    stats.missed += 1
                    if memory:
                        memory.clear()
                    pm.memory_invalidations += 1
                    continue
                av = (rsp.value - 8) & MASK64
                if value is None:
                    memory.pop(av, None)
                else:
                    touched.add(av)
                    if av in poisoned:
                        memory.pop(av, None)
                    else:
                        memory[av] = value
                slots[RSP_SLOT] = Known(av, rsp.taint)
                accesses.append(RecoveredAccess(
                    tid=tid, step_index=j, ip=ip, address=av,
                    is_store=True, provenance=provenance, taint=rsp.taint,
                ))
                continue

            if kind == U_POP:
                rsp = slots[RSP_SLOT]
                if rsp is None:
                    blocked.add(j)
                    stats.missed += 1
                    slots[u[1]] = None
                    continue
                av = rsp.value
                entry = memory.get(av)
                if entry is None:
                    slots[u[1]] = None
                else:
                    slots[u[1]] = Known(
                        entry.value,
                        merge_taint(entry.taint, frozenset({av})),
                    )
                accesses.append(RecoveredAccess(
                    tid=tid, step_index=j, ip=ip, address=av,
                    is_store=False, provenance=provenance, taint=rsp.taint,
                ))
                # rsp advances after the destination write: `pop %rsp`
                # must end with the adjusted pointer, as in _execute.
                slots[RSP_SLOT] = Known((av + 8) & MASK64, rsp.taint)
                continue

            if kind == U_CALL:
                rsp = slots[RSP_SLOT]
                if rsp is None:
                    if memory:
                        memory.clear()
                    pm.memory_invalidations += 1
                    continue
                av = (rsp.value - 8) & MASK64
                value = u[1]
                touched.add(av)
                if av in poisoned:
                    memory.pop(av, None)
                else:
                    memory[av] = value
                slots[RSP_SLOT] = Known(av, rsp.taint)
                continue

            if kind == U_RET:
                rsp = slots[RSP_SLOT]
                if rsp is not None:
                    slots[RSP_SLOT] = Known((rsp.value + 8) & MASK64,
                                            rsp.taint)
                continue

            if kind == U_CLOBBER:
                slots[u[1]] = None
                if memory:
                    memory.clear()
                pm.memory_invalidations += 1
                continue

            if kind == U_SYS:
                if memory:
                    memory.clear()
                pm.memory_invalidations += 1
                continue

    # -- operand helpers ---------------------------------------------------

    def _address_of(self, pm: ProgramMap, ip: int,
                    mem: Mem) -> Optional[Known]:
        """Effective address as a Known (value + taint), if computable."""
        if mem.rip_relative:
            return Known((ip + mem.disp) & MASK64)
        value = mem.disp
        taint: Taint = None
        if mem.base:
            base = pm.get_register(mem.base)
            if base is None:
                return None
            value += base.value
            taint = merge_taint(taint, base.taint)
        if mem.index:
            index = pm.get_register(mem.index)
            if index is None:
                return None
            value += index.value * mem.scale
            taint = merge_taint(taint, index.taint)
        return Known(value & MASK64, taint)

    def _eval_source(
        self,
        pm: ProgramMap,
        j: int,
        ip: int,
        operand: Operand,
        provenance: str,
        blocked: set[int],
        accesses: List[RecoveredAccess],
    ) -> Optional[Known]:
        """Evaluate a source operand; memory sources emit an access when
        their address computes (the *address* is the race-detection
        payload, even when the loaded *value* stays unavailable)."""
        if isinstance(operand, Imm):
            return Known(operand.value & MASK64)
        if isinstance(operand, Reg):
            known = pm.get_register(operand.name)
            if known is None:
                blocked.add(j)
            return known
        address = self._address_of(pm, ip, operand)
        if address is None:
            blocked.add(j)
            self.stats.missed += 1
            return None
        accesses.append(
            RecoveredAccess(
                tid=self.tid,
                step_index=j,
                ip=ip,
                address=address.value,
                is_store=False,
                provenance=provenance,
                taint=address.taint,
            )
        )
        loaded = pm.load_memory(address.value)
        if loaded is None:
            return None
        return Known(loaded.value, merge_taint(loaded.taint, address.taint))

    # -- single instruction -------------------------------------------------

    def _execute(
        self,
        pm: ProgramMap,
        j: int,
        ip: int,
        ins: Instruction,
        provenance: str,
        blocked: set[int],
    ) -> Optional[RecoveredAccess]:
        """Replay one instruction; returns its recovered access, if any."""
        local: List[RecoveredAccess] = []
        op = ins.op

        if op == Op.MOV:
            src, dst = ins.operands
            if isinstance(dst, Mem):
                address = self._address_of(pm, ip, dst)
                value = self._eval_source(
                    pm, j, ip, src, provenance, blocked, local
                )
                if address is None:
                    blocked.add(j)
                    self.stats.missed += 1
                    # A store through an unknown address may alias any
                    # emulated location (§5.1's conservative invalidation).
                    pm.invalidate_memory()
                    return None
                pm.store_memory(address.value, value)
                return RecoveredAccess(
                    tid=self.tid, step_index=j, ip=ip,
                    address=address.value, is_store=True,
                    provenance=provenance, taint=address.taint,
                )
            value = self._eval_source(
                pm, j, ip, src, provenance, blocked, local
            )
            assert isinstance(dst, Reg)
            pm.set_register(dst.name, value)
            return local[0] if local else None

        if op == Op.LEA:
            mem, dst = ins.operands
            assert isinstance(mem, Mem) and isinstance(dst, Reg)
            address = self._address_of(pm, ip, mem)
            if address is None:
                blocked.add(j)
            pm.set_register(dst.name, address)
            return None

        if op in ALU_BINARY:
            src, dst = ins.operands
            assert isinstance(dst, Reg)
            value = self._eval_source(
                pm, j, ip, src, provenance, blocked, local
            )
            current = pm.get_register(dst.name)
            if value is None or current is None:
                if current is None:
                    blocked.add(j)
                pm.set_register(dst.name, None)
            else:
                pm.set_register(
                    dst.name,
                    Known(alu(op, value.value, current.value),
                          merge_taint(value.taint, current.taint)),
                )
            return local[0] if local else None

        if op in ALU_UNARY:
            (dst,) = ins.operands
            assert isinstance(dst, Reg)
            current = pm.get_register(dst.name)
            if current is None:
                blocked.add(j)
                pm.set_register(dst.name, None)
            else:
                pm.set_register(
                    dst.name,
                    Known(alu_unary(op, current.value), current.taint),
                )
            return None

        if op in (Op.CMP, Op.TEST):
            for operand in ins.operands:
                self._eval_source(
                    pm, j, ip, operand, provenance, blocked, local
                )
            return local[0] if local else None

        if op == Op.PUSH:
            value = (
                self._eval_source(
                    pm, j, ip, ins.operands[0], provenance, blocked, local
                )
                if ins.operands
                else Known(0)
            )
            rsp = pm.get_register("rsp")
            if rsp is None:
                blocked.add(j)
                self.stats.missed += 1
                pm.invalidate_memory()
                return None
            address = (rsp.value - 8) & MASK64
            pm.store_memory(address, value)
            pm.set_register("rsp", Known(address, rsp.taint))
            return RecoveredAccess(
                tid=self.tid, step_index=j, ip=ip, address=address,
                is_store=True, provenance=provenance, taint=rsp.taint,
            )

        if op == Op.POP:
            (dst,) = ins.operands
            assert isinstance(dst, Reg)
            rsp = pm.get_register("rsp")
            if rsp is None:
                blocked.add(j)
                self.stats.missed += 1
                pm.set_register(dst.name, None)
                return None
            loaded = pm.load_memory(rsp.value)
            pm.set_register(dst.name, loaded)
            access = RecoveredAccess(
                tid=self.tid, step_index=j, ip=ip, address=rsp.value,
                is_store=False, provenance=provenance, taint=rsp.taint,
            )
            pm.set_register("rsp", Known((rsp.value + 8) & MASK64, rsp.taint))
            return access

        if op == Op.CALL:
            rsp = pm.get_register("rsp")
            if rsp is None:
                pm.invalidate_memory()
                return None
            address = (rsp.value - 8) & MASK64
            pm.store_memory(address, Known(ip + 1))
            pm.set_register("rsp", Known(address, rsp.taint))
            return None

        if op == Op.RET:
            rsp = pm.get_register("rsp")
            if rsp is not None:
                pm.set_register(
                    "rsp", Known((rsp.value + 8) & MASK64, rsp.taint)
                )
            return None

        if op in (Op.JMP,) or op in _COND:
            return None  # control flow comes from the PT path

        if op in (Op.SPAWN, Op.MALLOC):
            # Kernel/allocator results are unknowable offline.
            dst = ins.operands[0] if op == Op.SPAWN else ins.operands[1]
            assert isinstance(dst, Reg)
            pm.set_register(dst.name, None)
            pm.invalidate_memory()
            return None

        if ins.is_system():
            # Lock/unlock/sem/join/free/io: opaque effects (§5.1: hitting
            # a system call conservatively invalidates emulated memory).
            pm.invalidate_memory()
            return None

        return None  # HALT / NOP

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------

    def _backward_pass(
        self, blocked: FrozenSet[int]
    ) -> Tuple[List[RecoveredAccess], Dict[int, Dict[str, Known]]]:
        """Back-propagate the exit sample's registers through the window.

        Maintains ``kb``: register values valid *after* the step being
        visited.  Per step, written registers leave ``kb`` unless reverse
        execution can invert the instruction; everything else passes
        through (the back-propagation of §5.2.1).  At each step the
        forward pass reported blocked, the before-state is recorded as a
        fact and any missed memory operand re-tried.
        """
        assert self.exit_registers is not None
        kb: Dict[str, Known] = {
            name: Known(value & MASK64)
            for name, value in self.exit_registers.items()
        }
        accesses: List[RecoveredAccess] = []
        facts: Dict[int, Dict[str, Known]] = {}

        for j in range(self.end - 1, self.start - 1, -1):
            ip = self.steps[j]
            ins = self.program[ip]
            self._reverse_step(kb, ip, ins)
            # kb now holds the before-state of step j.
            if j in blocked:
                if kb:
                    facts[j] = dict(kb)
                access = self._retry_access(kb, j, ip, ins)
                if access is not None:
                    accesses.append(access)
            if not kb:
                # Nothing left to propagate; older steps gain nothing.
                break
        return accesses, facts

    def _backward_pass_fast(
        self, blocked: FrozenSet[int]
    ) -> Tuple[List[RecoveredAccess], Dict[int, Dict[int, Known]]]:
        """Reverse micro-op twin of :meth:`_backward_pass`.

        Walks the pre-lowered reverse micro-ops instead of interpreting
        instruction dataclasses; ``kb`` and the returned facts are keyed
        by register slot (consumed by :meth:`_forward_pass_fast`).
        Bit-identical recovered accesses.
        """
        assert self.exit_registers is not None
        kb: Dict[int, Known] = {
            REG_SLOT[name]: Known(value & MASK64)
            for name, value in self.exit_registers.items()
        }
        accesses: List[RecoveredAccess] = []
        facts: Dict[int, Dict[int, Known]] = {}
        compiled = self._compiled
        rev = compiled.rev
        retry = compiled.retry
        steps = self.steps
        tid = self.tid
        get = kb.get
        pop = kb.pop

        for j in range(self.end - 1, self.start - 1, -1):
            ip = steps[j]
            r = rev[ip]
            kind = r[0]
            if kind == R_NOP:
                pass
            elif kind == R_POP_DST:
                pop(r[1], None)
            elif kind == R_MOV_RR:
                after = pop(r[2], None)
                if after is not None and r[1] not in kb:
                    kb[r[1]] = after
            elif kind == R_ALU_IR:
                after = pop(r[3], None)
                if after is not None:
                    kb[r[3]] = Known(
                        reverse_alu(r[1], r[2], after.value), after.taint
                    )
            elif kind == R_ALU_RR:
                after = pop(r[3], None)
                if after is not None:
                    src = get(r[2])
                    if src is not None:
                        kb[r[3]] = Known(
                            reverse_alu(r[1], src.value, after.value),
                            merge_taint(after.taint, src.taint),
                        )
            elif kind == R_ALU_UN:
                after = pop(r[2], None)
                if after is not None:
                    kb[r[2]] = Known(alu_unary(r[1], after.value),
                                     after.taint)
            elif kind == R_RSP_ADD:
                rsp = get(RSP_SLOT)
                if rsp is not None:
                    kb[RSP_SLOT] = Known((rsp.value + 8) & MASK64,
                                         rsp.taint)
            elif kind == R_RSP_SUB:
                rsp = get(RSP_SLOT)
                if rsp is not None:
                    kb[RSP_SLOT] = Known((rsp.value - 8) & MASK64,
                                         rsp.taint)
            elif kind == R_POP:
                dst = r[1]
                pop(dst, None)
                if dst != RSP_SLOT:
                    rsp = get(RSP_SLOT)
                    if rsp is not None:
                        kb[RSP_SLOT] = Known((rsp.value - 8) & MASK64,
                                             rsp.taint)
            elif kind == R_LEA_BASE:
                after = pop(r[3], None)
                if after is not None and r[1] not in kb:
                    kb[r[1]] = Known((after.value - r[2]) & MASK64,
                                     after.taint)
            else:  # R_LEA_BI
                base_slot, index_slot = r[1], r[2]
                dst = r[5]
                after = pop(dst, None)
                if after is not None:
                    base = get(base_slot)
                    index = get(index_slot)
                    if base is not None and index is None and \
                            index_slot != dst:
                        kb[index_slot] = Known(
                            ((after.value - r[4] - base.value)
                             // r[3]) & MASK64,
                            merge_taint(after.taint, base.taint),
                        )
                    elif index is not None and base is None and \
                            base_slot != dst:
                        kb[base_slot] = Known(
                            (after.value - r[4]
                             - index.value * r[3]) & MASK64,
                            merge_taint(after.taint, index.taint),
                        )
            # kb now holds the before-state of step j.
            if j in blocked:
                if kb:
                    facts[j] = dict(kb)
                t = retry[ip]
                if t is not None:
                    tk = t[0]
                    if tk == T_MEM:
                        formula = t[1]
                        fk = formula[0]
                        known = None
                        if fk == A_CONST:
                            known = formula[1]
                        elif fk == A_BASE:
                            base = get(formula[1])
                            if base is not None:
                                known = Known(
                                    (base.value + formula[2]) & MASK64,
                                    base.taint,
                                )
                        elif fk == A_BI:
                            base = get(formula[1])
                            index = get(formula[2])
                            if base is not None and index is not None:
                                known = Known(
                                    (base.value + index.value * formula[3]
                                     + formula[4]) & MASK64,
                                    merge_taint(base.taint, index.taint),
                                )
                        else:  # A_INDEX
                            index = get(formula[1])
                            if index is not None:
                                known = Known(
                                    (index.value * formula[2]
                                     + formula[3]) & MASK64,
                                    index.taint,
                                )
                        if known is not None:
                            accesses.append(RecoveredAccess(
                                tid=tid, step_index=j, ip=ip,
                                address=known.value, is_store=t[2],
                                provenance=PROV_BACKWARD,
                                taint=known.taint,
                            ))
                    else:
                        rsp = get(RSP_SLOT)
                        if rsp is not None:
                            if tk == T_PUSH:
                                address = (rsp.value - 8) & MASK64
                            else:  # T_POP
                                address = rsp.value
                            accesses.append(RecoveredAccess(
                                tid=tid, step_index=j, ip=ip,
                                address=address, is_store=tk == T_PUSH,
                                provenance=PROV_BACKWARD, taint=rsp.taint,
                            ))
            if not kb:
                break
        return accesses, facts

    def _retry_access(
        self, kb: Dict[str, Known], j: int, ip: int, ins: Instruction
    ) -> Optional[RecoveredAccess]:
        """Recompute a missed memory operand from backward state."""
        mem = None
        for operand in ins.operands:
            if isinstance(operand, Mem):
                mem = operand
        if mem is None:
            if ins.op in (Op.PUSH, Op.POP):
                rsp = kb.get("rsp")
                if rsp is None:
                    return None
                address = (
                    (rsp.value - 8) & MASK64
                    if ins.op == Op.PUSH
                    else rsp.value
                )
                return RecoveredAccess(
                    tid=self.tid, step_index=j, ip=ip, address=address,
                    is_store=ins.op == Op.PUSH, provenance=PROV_BACKWARD,
                    taint=rsp.taint,
                )
            return None
        if not (ins.is_load() or ins.is_store()):
            return None
        value = mem.disp
        taint: Taint = None
        if mem.rip_relative:
            value = (ip + mem.disp) & MASK64
        else:
            if mem.base:
                base = kb.get(mem.base)
                if base is None:
                    return None
                value += base.value
                taint = merge_taint(taint, base.taint)
            if mem.index:
                index = kb.get(mem.index)
                if index is None:
                    return None
                value += index.value * mem.scale
                taint = merge_taint(taint, index.taint)
            value &= MASK64
        return RecoveredAccess(
            tid=self.tid, step_index=j, ip=ip, address=value,
            is_store=ins.is_store(), provenance=PROV_BACKWARD, taint=taint,
        )

    def _reverse_step(self, kb: Dict[str, Known], ip: int,
                      ins: Instruction) -> None:
        """Transform after-state *kb* into the before-state of *ins*."""
        op = ins.op

        if op == Op.MOV:
            src, dst = ins.operands
            if isinstance(dst, Reg):
                after_dst = kb.pop(dst.name, None)
                if (
                    isinstance(src, Reg)
                    and src.name != dst.name
                    and after_dst is not None
                    and src.name not in kb
                ):
                    # reg-to-reg copy: the source held the same value.
                    kb[src.name] = after_dst
            return

        if op == Op.LEA:
            mem, dst = ins.operands
            assert isinstance(mem, Mem) and isinstance(dst, Reg)
            after_dst = kb.pop(dst.name, None)
            if after_dst is None or mem.rip_relative:
                return
            # dst = base + index*scale + disp: recover whichever single
            # address register is missing.
            if mem.base and not mem.index:
                if mem.base not in kb and mem.base != dst.name:
                    kb[mem.base] = Known(
                        (after_dst.value - mem.disp) & MASK64, after_dst.taint
                    )
            elif mem.base and mem.index:
                base, index = kb.get(mem.base), kb.get(mem.index)
                if base is not None and index is None and \
                        mem.index != dst.name:
                    kb[mem.index] = Known(
                        ((after_dst.value - mem.disp - base.value)
                         // mem.scale) & MASK64,
                        merge_taint(after_dst.taint, base.taint),
                    )
                elif index is not None and base is None and \
                        mem.base != dst.name:
                    kb[mem.base] = Known(
                        (after_dst.value - mem.disp
                         - index.value * mem.scale) & MASK64,
                        merge_taint(after_dst.taint, index.taint),
                    )
            return

        if op in ALU_BINARY:
            src, dst = ins.operands
            assert isinstance(dst, Reg)
            after_dst = kb.pop(dst.name, None)
            if after_dst is None or op not in REVERSIBLE_ALU:
                return
            if isinstance(src, Imm):
                kb[dst.name] = Known(
                    reverse_alu(op, src.value & MASK64, after_dst.value),
                    after_dst.taint,
                )
            elif isinstance(src, Reg) and src.name != dst.name:
                src_known = kb.get(src.name)
                if src_known is not None:
                    kb[dst.name] = Known(
                        reverse_alu(op, src_known.value, after_dst.value),
                        merge_taint(after_dst.taint, src_known.taint),
                    )
            return

        if op in ALU_UNARY:
            (dst,) = ins.operands
            assert isinstance(dst, Reg)
            after_dst = kb.pop(dst.name, None)
            if after_dst is not None:
                inverse = _UNARY_INVERSE[op]
                kb[dst.name] = Known(
                    alu_unary(inverse, after_dst.value), after_dst.taint
                )
            return

        if op == Op.PUSH:
            rsp = kb.get("rsp")
            if rsp is not None:
                kb["rsp"] = Known((rsp.value + 8) & MASK64, rsp.taint)
            return

        if op == Op.POP:
            (dst,) = ins.operands
            assert isinstance(dst, Reg)
            kb.pop(dst.name, None)
            rsp = kb.get("rsp")
            if rsp is not None and dst.name != "rsp":
                kb["rsp"] = Known((rsp.value - 8) & MASK64, rsp.taint)
            return

        if op == Op.CALL:
            rsp = kb.get("rsp")
            if rsp is not None:
                kb["rsp"] = Known((rsp.value + 8) & MASK64, rsp.taint)
            return

        if op == Op.RET:
            rsp = kb.get("rsp")
            if rsp is not None:
                kb["rsp"] = Known((rsp.value - 8) & MASK64, rsp.taint)
            return

        if op == Op.SPAWN:
            dst = ins.operands[0]
            assert isinstance(dst, Reg)
            kb.pop(dst.name, None)
            return

        if op == Op.MALLOC:
            dst = ins.operands[1]
            assert isinstance(dst, Reg)
            kb.pop(dst.name, None)
            return

        # CMP/TEST/branches/sync/HALT/NOP write no registers.
        return
