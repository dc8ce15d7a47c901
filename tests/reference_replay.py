"""The instruction interpreter: the replay executor's test reference.

:class:`InterpreterWindowReplayer` runs the same §5.2.2 fixed point as
:class:`~repro.replay.window.WindowReplayer` (it inherits ``run()``),
but its forward and backward passes interpret
:class:`~repro.isa.instructions.Instruction` dataclasses one at a time
instead of stepping the pre-lowered micro-ops of
:mod:`repro.replay.lowering`.  It is the oracle the micro-op executor
is differentially tested against: every recovered access, blocked step,
missed operand, memory invalidation and exit-memory entry must agree.

Window-level tests construct it directly; engine- and pipeline-level
tests substitute it for the production class with
``unittest.mock.patch("repro.replay.engine.WindowReplayer",
InterpreterWindowReplayer)`` (see :func:`interpreted`).  Facts passed
between its two passes are keyed by register name, not slot, and its
program map is a :class:`NamedProgramMap`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple
from unittest import mock

from repro.isa.instructions import (
    ALU_BINARY,
    ALU_UNARY,
    Instruction,
    Op,
    REVERSIBLE_ALU,
)
from repro.isa.operands import Imm, Mem, Operand, Reg
from repro.isa.registers import MASK64, REG_SLOT
from repro.isa.semantics import alu, alu_unary, reverse_alu
from repro.replay.program_map import Known, ProgramMap, Taint, merge_taint
from repro.replay.window import (
    PROV_BACKWARD,
    PROV_FORWARD,
    RecoveredAccess,
    WindowReplayer,
)

_UNARY_INVERSE = {Op.INC: Op.DEC, Op.DEC: Op.INC, Op.NEG: Op.NEG,
                  Op.NOT: Op.NOT}

_COND = frozenset({Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE})


class NamedProgramMap(ProgramMap):
    """:class:`~repro.replay.program_map.ProgramMap` with the register-
    name and memory-address accessors the interpreter steps through
    (the micro-op loop touches ``_slots``/``_memory`` directly)."""

    __slots__ = ()

    def get_register(self, name: str) -> Optional[Known]:
        return self._slots[REG_SLOT[name]]

    def set_register(self, name: str, known: Optional[Known]) -> None:
        """Set a register value; None marks it unavailable."""
        if known is None:
            self._slots[REG_SLOT[name]] = None
        else:
            self._slots[REG_SLOT[name]] = Known(known.value & MASK64,
                                                known.taint)

    def load_memory(self, address: int) -> Optional[Known]:
        """Read emulated memory; the result's taint includes the address
        itself (the loaded value is only as trustworthy as the emulation
        of that location)."""
        known = self._memory.get(address & MASK64)
        if known is None:
            return None
        return Known(known.value, merge_taint(known.taint,
                                              frozenset({address & MASK64})))

    def store_memory(self, address: int, known: Optional[Known]) -> None:
        """Write emulated memory; an unavailable value evicts the entry."""
        address &= MASK64
        if known is None:
            self._memory.pop(address, None)
            return
        self.emulated_touched.add(address)
        if address in self.poisoned:
            self._memory.pop(address, None)
        else:
            self._memory[address] = known

    def invalidate_memory(self) -> None:
        """Conservatively drop all emulated memory (system call, or a
        store through an unknown address that could alias anything)."""
        if self._memory:
            self._memory.clear()
        self.memory_invalidations += 1


def interpreted():
    """Context manager: every window the replay engine (and so every
    analysis pipeline) builds runs on the interpreter."""
    return mock.patch("repro.replay.engine.WindowReplayer",
                      InterpreterWindowReplayer)


class InterpreterWindowReplayer(WindowReplayer):
    """:class:`WindowReplayer` with the instruction-interpreter passes."""

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
        pm = NamedProgramMap(self.poisoned)
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

    # -- operand helpers ---------------------------------------------------

    def _address_of(self, pm: NamedProgramMap, ip: int,
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
        pm: NamedProgramMap,
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
        pm: NamedProgramMap,
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
