"""The package's records are `typing.NamedTuple`s, each built once with all
its fields.  The ones that were frozen dataclasses keep the hash and `repr`
a frozen dataclass gives, so set and dict orders do not move, and `MemVar`
and `Bounds` refuse what they refused, with the same messages."""

import dataclasses
import importlib
import pkgutil

import pytest

import snicheck
from snicheck.ir import Diagnostic, MemVar
from snicheck.poison import TypabilityViolation
from snicheck.regalloc import RADiagnostic
from snicheck.semantics import Bounds, Directive, Leakage, State
from snicheck.simulation import SimInterval

MODULES = [importlib.import_module(f"snicheck.{m.name}") for m in pkgutil.iter_modules(snicheck.__path__)]


def _classes():
    for mod in MODULES:
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                yield obj


def test_no_class_is_a_dataclass():
    assert [c.__qualname__ for c in _classes() if dataclasses.is_dataclass(c)] == []


def test_the_once_frozen_records_hash_and_print_as_frozen_dataclasses():
    nu = (State("1", (("r", 2),)),)
    records = [
        Diagnostic("3", "unknown memvar m"),
        Diagnostic(None, "entry 0 not defined"),
        RADiagnostic("structure", ("1", "2"), "successor arity mismatch"),
        TypabilityViolation("1", "2", "r", "branch", 3),
        SimInterval((Directive("step"),), (Leakage("none"),), (Directive("step"),), (Leakage("none"),), nu, nu),
        MemVar("m", 2, "low"),
        Bounds(24, 2),
    ]
    for r in records:
        frozen = dataclasses.make_dataclass(type(r).__name__, r._fields, frozen=True)(*r)
        assert hash(r) == hash(frozen) and repr(r) == repr(frozen)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MemVar("m", 0, "low"), "memvar m: size must be >= 1"),
        (lambda: MemVar("m", 1, "mid"), "memvar m: level must be low|high"),
        (lambda: Bounds(0, 1), "bounds must be >= 1"),
        (lambda: Bounds(1, 0), "bounds must be >= 1"),
    ],
)
def test_memvar_and_bounds_refuse_what_they_refused(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


def test_memvar_and_bounds_build_as_before():
    assert MemVar(name="m", size=1, level="high") == MemVar("m", 1, "high")
    assert Bounds() == Bounds(32, 3) and Bounds(max_spec_depth=2) == Bounds(32, 2)


def test_no_record_field_can_be_assigned():
    records = [c for c in _classes() if issubclass(c, tuple) and hasattr(c, "_fields")]
    assert {"MemVar", "Bounds", "SniVerdict", "Verdict", "FixReport", "Execution"} <= {c.__name__ for c in records}
    for c in records:
        r = c._make(range(len(c._fields)))
        for f in c._fields:
            with pytest.raises(AttributeError):
                setattr(r, f, None)
        with pytest.raises(AttributeError):
            r.note = None
