"""The FastTrack happens-before data race detector.

A faithful implementation of the FastTrack algorithm (Flanagan & Freund,
PLDI 2009) that ProRace uses for its offline analysis (§3, §6): full
vector clocks for thread and lock state, adaptive epoch/vector-clock
representation for per-variable read state, epoch-only write state.

The detector is precise with respect to the event stream it is given —
no false positives under happens-before — and reports every racy access
pair it observes rather than stopping at the first.  Timing enters only
through the stream's order: under clock reconciliation the pipeline
merges accesses on uncertainty-clamped keys (see
:mod:`repro.detector.events`), so skewed timestamps can delay an event
in the stream but never place it on the wrong side of a sync-derived
happens-before edge.

Epoch-compact representation
----------------------------

Per-variable epochs are stored as raw ``(clock, tid)`` integer pairs in
slotted fields rather than ``Epoch`` objects — sparse sampled traces
keep almost every variable in the scalar-epoch regime forever, so the
shadow state allocates nothing until a variable actually sees concurrent
readers, and only then promotes to a (copy-on-write) vector clock.
``tid == -1`` encodes the minimal epoch ⊥e.

Batch fast path
---------------

:meth:`FastTrack.feed_batch` consumes columnar
:class:`~repro.detector.batch.EventBatch` runs.  Within one run the
thread's clock cannot change (no intervening sync), so the epoch lookup
is hoisted out of the loop; the same-epoch fast-path checks run inline
on the integer columns, and consecutive events on the same (variable,
kind) are run-length skipped — the previous event's postcondition proves
the repeat hits the fast path, whichever path the previous event took.
Any event that misses the fast path is materialized as a scalar
:class:`Access` and delegated to the one scalar implementation of the
race logic, so batched verdicts are bit-identical to the scalar stream
by construction (and differentially tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .base import HBDetectorBackend
from .events import Access, AccessKind, RaceReport
from .vectorclock import VectorClock

#: Composite-epoch packing: ``clock << _TID_BITS | tid``.  The side
#: tables :attr:`FastTrack._w_fast` / :attr:`FastTrack._r_fast` store
#: these so the batch loop's fast-path check is one dict probe plus one
#: int compare.  Injective only while tids fit the field, hence the
#: guard at the (rare, slow-path) packing sites.
_TID_BITS = 20
_TID_SPAN = 1 << _TID_BITS


@dataclass(slots=True)
class _VarState:
    """Per-variable shadow state (FastTrack's adaptive representation).

    Write and read epochs are raw ``(clock, tid)`` integer pairs;
    ``tid == -1`` is the minimal epoch ⊥e (covered by every clock).
    """

    write_clock: int = 0
    write_tid: int = -1
    write_ip: Optional[int] = None
    read_clock: int = 0
    read_tid: int = -1
    read_ip: Optional[int] = None
    #: Non-None once reads are concurrent (the "read-shared" state).
    read_vc: Optional[VectorClock] = None
    #: ip of the last read per thread, for shared-read race reporting.
    read_ips: Optional[Dict[int, int]] = None


class FastTrack(HBDetectorBackend):
    """Streaming FastTrack detector.

    Feed events via :meth:`sync` and :meth:`access` in a happens-before
    consistent order (every release/fork precedes the acquire/join it
    synchronizes with; per-thread program order preserved), or whole
    columnar runs via :meth:`feed_batch`.  Reports accumulate in
    :attr:`races`.  Vector-clock state and the sync semantics live in
    :class:`~repro.detector.base.HBDetectorBackend`.
    """

    name = "fasttrack"

    def __init__(self) -> None:
        super().__init__()
        self._vars: Dict[Tuple[int, int], _VarState] = {}
        #: Write fast table: var -> ``clock << _TID_BITS | tid`` mirroring
        #: the write epoch exactly (-1 default ≡ ⊥e), so the batch loop's
        #: write fast-path check is one dict probe plus one int compare.
        self._w_fast: Dict[Tuple[int, int], int] = {}
        #: Per-thread read fast tables: tid -> {var -> clock}.  An entry
        #: equal to the thread's current clock holds exactly when the
        #: scalar read fast path would hit (exclusive owner or covered
        #: shared reader) — per-thread tables mean concurrent readers of
        #: one variable keep independent entries instead of evicting each
        #: other.  Maintained at the slow-path mutation sites below:
        #: every branch of :meth:`_read` leaves the reader's own entry
        #: current; the two transitions that strip *another* thread's
        #: read coverage (exclusive owner change, shared-read discard on
        #: write) pop the affected entries.
        self._r_tables: Dict[int, Dict[Tuple[int, int], int]] = {}

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------

    def access(self, access: Access) -> None:
        if access.is_write:
            self._write(access)
        else:
            self._read(access)

    def _report(self, state: _VarState, access: Access,
                first_tid: int, first_kind: AccessKind,
                first_ip: Optional[int]) -> None:
        self.races.append(
            RaceReport(
                var=access.var,
                first_tid=first_tid,
                first_kind=first_kind,
                first_ip=first_ip,
                second=access,
            )
        )

    def _read(self, access: Access) -> None:
        self.accesses_processed += 1
        tid = access.tid
        clock = self._clock(tid)
        current = clock.get(tid)
        state = self._vars.get(access.var)

        # Same-epoch fast path on the raw (clock, tid) ints — the
        # overwhelmingly common repeated-read case allocates no Epoch,
        # VectorClock, or _VarState at all.
        if state is not None:
            read_vc = state.read_vc
            if read_vc is None:
                if state.read_clock == current and state.read_tid == tid:
                    return
            elif read_vc.get(tid) == current:
                return
        else:
            state = _VarState()
            self._vars[access.var] = state

        # write-read race check (⊥e has write_tid == -1, always covered).
        write_tid = state.write_tid
        if write_tid >= 0 and state.write_clock > clock.get(write_tid):
            self._report(state, access, write_tid,
                         AccessKind.WRITE, state.write_ip)

        if state.read_vc is None:
            read_tid = state.read_tid
            if read_tid < 0 or state.read_clock <= clock.get(read_tid):
                # Exclusive read (possibly taking ownership from a
                # covered previous owner, whose fast entry dies with it).
                if read_tid >= 0 and read_tid != tid:
                    old = self._r_tables.get(read_tid)
                    if old is not None:
                        old.pop(access.var, None)
                state.read_clock = current
                state.read_tid = tid
                state.read_ip = access.ip
            else:
                # Inflate to read-shared (read_tid != tid here: our own
                # previous read epoch is always covered by our clock).
                vc = VectorClock()
                vc.set(read_tid, state.read_clock)
                vc.set(tid, current)
                state.read_vc = vc
                state.read_ips = {
                    read_tid: (state.read_ip
                               if state.read_ip is not None else -1),
                    tid: access.ip,
                }
        else:
            state.read_vc.set(tid, current)
            assert state.read_ips is not None
            state.read_ips[tid] = access.ip
        # Every branch above left the read state covering tid@current, so
        # a same-epoch repeat is a guaranteed scalar fast-path hit.
        table = self._r_tables.get(tid)
        if table is None:
            table = self._r_tables[tid] = {}
        table[access.var] = current

    def _write(self, access: Access) -> None:
        self.accesses_processed += 1
        tid = access.tid
        clock = self._clock(tid)
        current = clock.get(tid)
        state = self._vars.get(access.var)

        # Same-epoch fast path on the raw (clock, tid) ints: a repeated
        # write by the same thread in the same epoch allocates nothing.
        if state is not None:
            if state.write_clock == current and state.write_tid == tid:
                return
        else:
            state = _VarState()
            self._vars[access.var] = state

        # write-write race check.
        write_tid = state.write_tid
        if write_tid >= 0 and state.write_clock > clock.get(write_tid):
            self._report(state, access, write_tid,
                         AccessKind.WRITE, state.write_ip)
        # read-write race checks.
        read_vc = state.read_vc
        if read_vc is None:
            read_tid = state.read_tid
            if read_tid >= 0 and state.read_clock > clock.get(read_tid):
                self._report(state, access, read_tid,
                             AccessKind.READ, state.read_ip)
        else:
            if not clock.covers(read_vc):
                for rtid, rclock in read_vc.items():
                    if rclock > clock.get(rtid):
                        ip = (state.read_ips or {}).get(rtid)
                        self._report(state, access, rtid,
                                     AccessKind.READ, ip)
            # All read info is now ordered before this write (or reported);
            # FastTrack discards the shared-read set, and with it every
            # covered reader's fast entry.
            tables = self._r_tables
            for rtid, _ in read_vc.items():
                table = tables.get(rtid)
                if table is not None:
                    table.pop(access.var, None)
            state.read_vc = None
            state.read_ips = None
            state.read_clock = 0
            state.read_tid = -1
            state.read_ip = None

        state.write_clock = current
        state.write_tid = tid
        state.write_ip = access.ip
        assert 0 <= tid < _TID_SPAN
        self._w_fast[access.var] = current << _TID_BITS | tid

    # ------------------------------------------------------------------
    # Columnar batch fast path
    # ------------------------------------------------------------------
    #
    # Within one merged run every event shares the batch's tid and no
    # sync op intervenes, so the thread clock — and with it `current` —
    # is loop-invariant.  The fast-path conditions are checked inline on
    # the integer columns; misses materialize a scalar Access and
    # delegate to _read/_write above (the only implementation of the
    # race logic).  Run-length skip: if the previous event in this run
    # had the same (var, kind), its postcondition guarantees this event
    # satisfies the fast-path condition — after a write by `tid` this
    # epoch, write_clock/write_tid match; after a read, the read epoch
    # or shared vector clock records `current` for `tid` — so the event
    # is counted and skipped without touching the shadow state (exactly
    # what the scalar fast path would do).

    def feed_batch(self, batch, start: int = 0,
                   stop: int | None = None, base: int = 0) -> None:
        if stop is None:
            stop = len(batch)
        if stop <= start:
            return
        tid = batch.tid
        assert 0 <= tid < _TID_SPAN
        clock = self._clock(tid)
        current = clock.get(tid)
        cur_w = current << _TID_BITS | tid
        vars_col = batch.vars
        kinds = batch.kinds
        nxt = batch.next_change
        w_get = self._w_fast.get
        table = self._r_tables.get(tid)
        if table is None:
            table = self._r_tables[tid] = {}
        r_get = table.get
        fast = 0
        i = start
        while i < stop:
            var = vars_col[i]
            kind = kinds[i]
            if (w_get(var, -1) == cur_w if kind
                    else r_get(var, -1) == current):
                # Fast hit: the whole repeat group behind it is fast too.
                j = nxt[i]
                if j > stop:
                    j = stop
                fast += j - i
                i = j
                continue
            access = batch.access_at(i)
            if kind:
                self._write(access)
            else:
                self._read(access)
            # The slow event's postcondition makes the rest of its repeat
            # group a guaranteed fast-path hit — skip it wholesale.
            j = nxt[i]
            if j > stop:
                j = stop
            fast += j - i - 1
            i = j
        self.accesses_processed += fast
