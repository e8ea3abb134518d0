"""Unit tests for operation request types."""

import dataclasses
import pickle

import pytest

from repro.memory.register import AtomicRegister
from repro.runtime.operations import (
    MaxRead,
    MaxWrite,
    Read,
    Scan,
    Update,
    Write,
)

#: Every operation kind, with a sample value for those that carry one.
KINDS = [(Read, None), (Write, 5), (Update, (1, "a")), (Scan, None),
         (MaxRead, None), (MaxWrite, 9)]


def make(kind, value, register):
    return kind(register) if value is None else kind(register, value)


class TestOperationKinds:
    def test_kind_names(self):
        register = AtomicRegister("r")
        assert Read(register).kind == "read"
        assert Write(register, 1).kind == "write"
        assert Update(register, 1).kind == "update"
        assert Scan(register).kind == "scan"
        assert MaxRead(register).kind == "maxread"
        assert MaxWrite(register, 1).kind == "maxwrite"

    def test_operations_are_frozen(self):
        operation = Write(AtomicRegister("r"), 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            operation.value = 6

    def test_write_carries_value(self):
        assert Write(AtomicRegister("r"), "hello").value == "hello"

    def test_default_value_is_none(self):
        assert Write(AtomicRegister("r")).value is None

    def test_operation_references_target(self):
        register = AtomicRegister("target")
        assert Read(register).obj is register


@pytest.mark.parametrize("kind,value", KINDS)
class TestValueSemantics:
    """Operations are frozen, slotted value objects."""

    def test_pickle_round_trip(self, kind, value):
        register = AtomicRegister("r")
        original = make(kind, value, register)
        copy, twin = pickle.loads(
            pickle.dumps((original, make(kind, value, register)))
        )
        assert type(copy) is kind
        assert copy.obj.name == "r"
        assert getattr(copy, "value", None) == value
        assert copy.obj is twin.obj
        assert copy == twin
        assert hash(copy) == hash(twin)

    def test_frozen_and_slotted(self, kind, value):
        operation = make(kind, value, AtomicRegister("r"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            operation.obj = AtomicRegister("s")
        # A name that is not a field has no slot to land in; depending on
        # the CPython version the generated __setattr__ refuses it with
        # FrozenInstanceError or TypeError.
        with pytest.raises((AttributeError, TypeError)):
            operation.extra = 1
        assert not hasattr(operation, "__dict__")

    def test_equality_and_hash(self, kind, value):
        register = AtomicRegister("r")
        one, two = make(kind, value, register), make(kind, value, register)
        assert one == two
        assert hash(one) == hash(two)
        assert one != make(kind, value, AtomicRegister("r"))
        other = Scan(register) if kind is not Scan else Read(register)
        assert one != other

    def test_keywords_defaults_and_replace(self, kind, value):
        register = AtomicRegister("r")
        operation = make(kind, value, register)
        if value is None:
            assert kind(obj=register) == operation
        else:
            assert kind(obj=register, value=value) == operation
            assert kind(register).value is None
        assert dataclasses.replace(operation) == operation
        assert repr(operation).startswith(f"{kind.__name__}(obj=")

    def test_constructor_refuses_bad_arguments(self, kind, value):
        register = AtomicRegister("r")
        with pytest.raises(TypeError):
            kind()
        with pytest.raises(TypeError):
            kind(register, 1, 2)
        with pytest.raises(TypeError):
            kind(register, extra=1)
