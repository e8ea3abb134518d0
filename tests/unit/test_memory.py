"""Unit tests for shared-memory objects (register, snapshot, max register)."""

import pytest

from repro.errors import InvalidOperationError
from repro.memory.base import SharedObject
from repro.memory.max_register import MaxRegister
from repro.memory.register import AtomicRegister
from repro.memory.register_array import ObjectArray, RegisterArray, SnapshotArray
from repro.memory.snapshot import SnapshotObject
from repro.runtime.operations import (
    MaxRead,
    MaxWrite,
    Read,
    Scan,
    Update,
    Write,
)


class TestAtomicRegister:
    def test_initial_value(self):
        register = AtomicRegister("r", initial="empty")
        assert register.apply(Read(register), pid=0) == "empty"

    def test_write_then_read(self):
        register = AtomicRegister("r")
        register.apply(Write(register, 17), pid=0)
        assert register.apply(Read(register), pid=1) == 17

    def test_last_write_wins(self):
        register = AtomicRegister("r")
        register.apply(Write(register, "a"), pid=0)
        register.apply(Write(register, "b"), pid=1)
        assert register.apply(Read(register), pid=2) == "b"

    def test_counts_operations(self):
        register = AtomicRegister("r")
        register.apply(Write(register, 1), pid=0)
        register.apply(Read(register), pid=0)
        register.apply(Read(register), pid=0)
        assert register.write_count == 1
        assert register.read_count == 2

    def test_reset_restores_initial(self):
        register = AtomicRegister("r", initial=None)
        register.apply(Write(register, 5), pid=0)
        register.reset()
        assert register.value is None
        assert register.write_count == 0

    def test_rejects_scan(self):
        register = AtomicRegister("r")
        with pytest.raises(InvalidOperationError):
            register.apply(Scan(register), pid=0)

    def test_unbounded_values(self):
        # The paper assumes no register size limit; whole structures fit.
        register = AtomicRegister("r")
        payload = {"vector": list(range(100)), "tag": ("persona", 3)}
        register.apply(Write(register, payload), pid=0)
        assert register.apply(Read(register), pid=1) == payload


class TestSnapshotObject:
    def test_scan_empty(self):
        snapshot = SnapshotObject(3, "A")
        assert snapshot.apply(Scan(snapshot), pid=0) == (None, None, None)

    def test_update_own_component(self):
        snapshot = SnapshotObject(3, "A")
        snapshot.apply(Update(snapshot, "x"), pid=1)
        assert snapshot.apply(Scan(snapshot), pid=0) == (None, "x", None)

    def test_scan_is_entire_vector(self):
        snapshot = SnapshotObject(2, "A")
        snapshot.apply(Update(snapshot, 10), pid=0)
        snapshot.apply(Update(snapshot, 20), pid=1)
        assert snapshot.apply(Scan(snapshot), pid=0) == (10, 20)

    def test_scan_returns_immutable_view(self):
        snapshot = SnapshotObject(2, "A")
        view = snapshot.apply(Scan(snapshot), pid=0)
        assert isinstance(view, tuple)

    def test_later_updates_do_not_mutate_old_views(self):
        snapshot = SnapshotObject(2, "A")
        snapshot.apply(Update(snapshot, "old"), pid=0)
        view = snapshot.apply(Scan(snapshot), pid=1)
        snapshot.apply(Update(snapshot, "new"), pid=0)
        assert view == ("old", None)

    def test_view_sizes_recorded_and_nest(self):
        snapshot = SnapshotObject(3, "A")
        snapshot.apply(Scan(snapshot), pid=0)
        snapshot.apply(Update(snapshot, 1), pid=0)
        snapshot.apply(Scan(snapshot), pid=1)
        snapshot.apply(Update(snapshot, 2), pid=1)
        snapshot.apply(Scan(snapshot), pid=2)
        assert snapshot.view_sizes == [0, 1, 2]
        assert snapshot.views_nest()

    def test_update_out_of_range_pid_rejected(self):
        snapshot = SnapshotObject(2, "A")
        with pytest.raises(InvalidOperationError):
            snapshot.apply(Update(snapshot, 1), pid=2)

    def test_rejects_register_read(self):
        snapshot = SnapshotObject(2, "A")
        with pytest.raises(InvalidOperationError):
            snapshot.apply(Read(snapshot), pid=0)

    def test_rejects_zero_size(self):
        with pytest.raises(InvalidOperationError):
            SnapshotObject(0, "A")


class TestMaxRegister:
    def test_empty_reads_none(self):
        register = MaxRegister("m")
        assert register.apply(MaxRead(register), pid=0) is None

    def test_keeps_maximum(self):
        register = MaxRegister("m")
        register.apply(MaxWrite(register, 5), pid=0)
        register.apply(MaxWrite(register, 3), pid=1)
        assert register.apply(MaxRead(register), pid=2) == 5

    def test_larger_write_replaces(self):
        register = MaxRegister("m")
        register.apply(MaxWrite(register, 3), pid=0)
        register.apply(MaxWrite(register, 9), pid=1)
        assert register.apply(MaxRead(register), pid=2) == 9

    def test_tuple_ordering(self):
        register = MaxRegister("m")
        register.apply(MaxWrite(register, (2, 0, "low")), pid=0)
        register.apply(MaxWrite(register, (2, 1, "high")), pid=1)
        assert register.apply(MaxRead(register), pid=2) == (2, 1, "high")

    def test_rejects_plain_write(self):
        register = MaxRegister("m")
        with pytest.raises(InvalidOperationError):
            register.apply(Write(register, 1), pid=0)


class TestObjectArrays:
    def test_register_array_lazy_allocation(self):
        array = RegisterArray("r")
        assert len(array) == 0
        register = array[3]
        assert array.allocated() == [3]
        assert array[3] is register

    def test_register_array_names_indexed(self):
        array = RegisterArray("rounds")
        assert array[2].name == "rounds[2]"

    def test_snapshot_array_builds_n_sized_snapshots(self):
        array = SnapshotArray(4, "A")
        assert array[0].n == 4

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            RegisterArray("r")[-1]

    @pytest.mark.parametrize("make", [
        lambda: RegisterArray("r"),
        lambda: SnapshotArray(3, "A"),
        lambda: ObjectArray(lambda index: AtomicRegister(f"o[{index}]")),
    ])
    def test_negative_index_rejected_once_populated(self, make):
        # A hit is one dict lookup; the sign is checked on a miss, so a
        # negative index must still miss and raise, allocating nothing.
        array = make()
        first, second = array[0], array[2]
        for index in (-1, -2, -3):
            with pytest.raises(IndexError, match=">= 0"):
                array[index]
        assert array.allocated() == [0, 2]
        assert len(array) == 2
        assert array[0] is first and array[2] is second
        assert list(array) == [first, second]

    def test_iteration_in_index_order(self):
        array = RegisterArray("r")
        array[5]
        array[1]
        names = [register.name for register in array]
        assert names == ["r[1]", "r[5]"]


class TestSharedObjectBase:
    def test_anonymous_objects_get_unique_names(self):
        one, two = AtomicRegister(), AtomicRegister()
        assert one.name != two.name

    def test_base_apply_not_implemented(self):
        obj = SharedObject("base")
        with pytest.raises(NotImplementedError):
            obj.apply(Read(obj), pid=0)
