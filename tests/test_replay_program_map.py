"""Unit tests for the availability-tracked program map.

The name-keyed accessors live on the test reference's
:class:`~tests.reference_replay.NamedProgramMap`; the state they read
and write is the production :class:`~repro.replay.program_map.ProgramMap`'s.
"""

from repro.replay.program_map import Known, merge_taint
from tests.reference_replay import NamedProgramMap


class TestTaint:
    def test_merge_none(self):
        assert merge_taint(None, None) is None

    def test_merge_one_sided(self):
        t = frozenset({1})
        assert merge_taint(t, None) == t
        assert merge_taint(None, t) == t

    def test_merge_union(self):
        assert merge_taint(frozenset({1}), frozenset({2})) == frozenset({1, 2})


class TestRegisters:
    def test_start_unavailable(self):
        pm = NamedProgramMap()
        assert pm.get_register("rax") is None

    def test_restore_makes_all_available(self):
        pm = NamedProgramMap()
        pm.restore_registers({"rax": 5, "rbx": 6})
        assert pm.get_register("rax") == Known(5)
        assert pm.get_register("rbx") == Known(6)
        assert pm.get_register("rcx") is None

    def test_set_none_marks_unavailable(self):
        pm = NamedProgramMap()
        pm.restore_registers({"rax": 5})
        pm.set_register("rax", None)
        assert pm.get_register("rax") is None

    def test_values_masked(self):
        pm = NamedProgramMap()
        pm.set_register("rax", Known(-1))
        assert pm.get_register("rax").value == (1 << 64) - 1


class TestMemoryEmulation:
    def test_memory_starts_unavailable(self):
        assert NamedProgramMap().load_memory(0x100) is None

    def test_store_then_load(self):
        pm = NamedProgramMap()
        pm.store_memory(0x100, Known(7))
        loaded = pm.load_memory(0x100)
        assert loaded.value == 7

    def test_loaded_value_tainted_by_its_address(self):
        """A value read from emulated memory is only trustworthy if the
        emulation of that location is — the taint records this (§5.1)."""
        pm = NamedProgramMap()
        pm.store_memory(0x100, Known(7))
        assert 0x100 in pm.load_memory(0x100).taint

    def test_unavailable_store_evicts(self):
        pm = NamedProgramMap()
        pm.store_memory(0x100, Known(7))
        pm.store_memory(0x100, None)
        assert pm.load_memory(0x100) is None

    def test_invalidate_clears_all(self):
        pm = NamedProgramMap()
        pm.store_memory(0x100, Known(1))
        pm.store_memory(0x200, Known(2))
        pm.invalidate_memory()
        assert pm.load_memory(0x100) is None
        assert pm.memory_copy() == {}
        assert pm.memory_invalidations == 1

    def test_poisoned_address_never_emulated(self):
        pm = NamedProgramMap(poisoned={0x100})
        pm.store_memory(0x100, Known(7))
        assert pm.load_memory(0x100) is None

    def test_memory_copy_roundtrip(self):
        pm = NamedProgramMap()
        pm.store_memory(0x100, Known(9))
        other = NamedProgramMap()
        other.set_memory_map(pm.memory_copy())
        assert other.load_memory(0x100).value == 9
