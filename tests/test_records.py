"""The immutable records of fvx: construction, checks, equality, hashing.

Every record derives from ``polyfield.Record``, declares its fields once in
``__slots__`` (``()`` keeps its parent's) and reads them as ``_fields``; no
record has a ``__dict__``.  Each case below builds one
record class from values that its ``__init__`` stores unchanged, one
argument list that differs in a field, and, where the class checks its
arguments, one bad argument list with the message it must raise.

The values (``Poly``, the forms and ``IndexedArray``) are records too: they
refuse assignment and deletion, and they copy, deep-copy and pickle, and so
do the records that hold them.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from fvx import forms_core
from fvx.forms_core import FiveForm, FourForm, IndexedArray, MultiVector
from fvx.integration import OrientedFace, ParamSurface
from fvx.lagrange import ELReport, FieldSet, LagrangianSpec
from fvx.metric_dual import DEFAULT_CFG, MetricConfig
from fvx.mutations import REGISTRY, Mutation
from fvx.polyfield import Poly, Record
from fvx.suites import SUITE_NAMES, Identity, InstanceRecord, Report, SuiteConfig

T = Poly.variable(0, 1)
SURFACE = ParamSurface(1, (T, T, T, T), ((Fraction(0), Fraction(1)),))
RECORD_ARGS = ("algebra", "wedge-unit", 0, True, None)
RECORD = InstanceRecord(*RECORD_ARGS)


def _make(rng, cfg):
    return {}


def _sides(inst, cfg):
    yield 1, 1


# (class, args, args differing in one field, bad args or None, message, hashable)
CASES = [
    (
        ParamSurface,
        (1, (T, T, T, T), ((Fraction(0), Fraction(1)),)),
        (1, (T, T, T, T), ((Fraction(0), Fraction(2)),)),
        (5, (T, T, T, T), ((0, 1),)),
        "surface dimension must be between 0 and 4",
        False,
    ),
    (OrientedFace, (SURFACE, 0, "low"), (SURFACE, 0, "high"), (SURFACE, 0, "top"), "end must be", False),
    (
        LagrangianSpec,
        (1, Poly.variable(0, 5)),
        (1, Poly.variable(1, 5)),
        (1, Poly.variable(0, 4)),
        "five variables per field",
        False,
    ),
    (FieldSet, ((Poly.variable(0, 4),),), ((Poly.variable(1, 4),),), ((),), "need at least one field", False),
    (
        ELReport,
        ((Poly.zero(4),), (), (), (), (Fraction(0),)),
        ((Poly.zero(4),), (), (), (), (Fraction(1),)),
        None,
        "",
        False,
    ),
    (
        MetricConfig,
        ((1, -1, -1, -1), Fraction(-1), Fraction(1), 1),
        ((1, -1, -1, -1), Fraction(-4), Fraction(1), 1),
        ((1, -1, -1, -1), 0, 1, 1),
        "xi must be nonzero",
        True,
    ),
    (
        SuiteConfig,
        (0, 25, 3, DEFAULT_CFG, SUITE_NAMES),
        (1, 25, 3, DEFAULT_CFG, SUITE_NAMES),
        (0, 25, 3, DEFAULT_CFG, ("nope",)),
        "unknown suite 'nope'",
        True,
    ),
    (InstanceRecord, RECORD_ARGS, ("algebra", "wedge-unit", 0, False, "x"), None, "", True),
    (Report, ((RECORD,),), ((),), None, "", True),
    (Identity, ("wedge-unit", _make, _sides), ("wedge-zero", _make, _sides), None, "", True),
    (
        Mutation,
        ("wedge-sign", "forms_core", "wedge", ("algebra", "wedge-unit"), REGISTRY["wedge-sign"].corrupt),
        ("wedge-sign", "forms_core", "wedge", ("algebra", "wedge-zero"), REGISTRY["wedge-sign"].corrupt),
        None,
        "",
        True,
    ),
]


@pytest.mark.parametrize("cls, args, other, bad, message, hashable", CASES, ids=[c[0].__name__ for c in CASES])
def test_record(cls, args, other, bad, message, hashable):
    record = cls(*args)
    assert isinstance(record, Record) and cls._fields
    assert tuple(getattr(record, name) for name in cls._fields) == args
    assert cls(**dict(zip(cls._fields, args))) == record
    assert not cls(*args) != record
    assert cls(*other) != record
    # Another record type, or a plain tuple of the same values, is never equal.
    stranger, stranger_args = next(case[:2] for case in CASES if case[0] is not cls)
    assert record != stranger(*stranger_args) and stranger(*stranger_args) != record
    assert record.__eq__(args) is NotImplemented and record != args
    if hashable:
        assert hash(cls(*args)) == hash(record)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    name = cls._fields[0]
    with pytest.raises(AttributeError, match="immutable"):
        setattr(record, name, args[0])
    with pytest.raises(AttributeError, match="immutable"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in cls._fields) == args
    assert copy.copy(record) == record
    if bad is not None:
        with pytest.raises(ValueError, match=message):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*args, *args)


def test_record_defaults_and_repr():
    assert SuiteConfig() == SuiteConfig(0, 25, 3, None, SUITE_NAMES)
    assert MetricConfig() == MetricConfig((1, -1, -1, -1), Fraction(-1), Fraction(1), 1) == DEFAULT_CFG
    assert InstanceRecord("algebra", "wedge-unit", 0, True) == RECORD
    # Field conversions: lists become tuples, rationals become Fractions.
    assert MetricConfig([1, -1, -1, -1], -1, 1).g == (1, -1, -1, -1)
    assert type(MetricConfig(xi=-1).xi) is Fraction
    assert SuiteConfig(suites=["algebra"]).suites == ("algebra",)
    assert ParamSurface(1, [T, T, T, T], [(0, 1)]) == SURFACE
    for record in (SuiteConfig(seed=3), MetricConfig(xi=Fraction(-4)), RECORD, Report((RECORD,))):
        assert pickle.loads(pickle.dumps(record)) == record
    assert repr(RECORD) == "InstanceRecord(suite='algebra', identity='wedge-unit', index=0, passed=True, counterexample=None)"
    assert repr(DEFAULT_CFG) == "MetricConfig(g=(1, -1, -1, -1), xi=Fraction(-1, 1), sigma=Fraction(1, 1), eta=1)"


X0, X1 = Poly.variable(0, 4), Poly.variable(1, 4)
VALUES = [
    Poly(2, {(1, 0): Fraction(1, 2), (0, 3): -2}),
    FiveForm(2, {(0, 5): X0 * X1, (1, 2): 3}),
    FourForm(1, {(3,): X1 - Fraction(1, 3)}),
    MultiVector(1, {(5,): 1}),
    IndexedArray(2, (0, 1, 5), {(0, 5): Fraction(1, 3), (5, 1): -1}),
]


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
def test_value_is_a_record(value):
    assert isinstance(value, Record)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
    names = type(value)._fields
    assert names
    fields = tuple(getattr(value, name) for name in names)
    for name in names:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
    with pytest.raises(TypeError):
        vars(value)


def test_a_subclass_keeps_its_parents_fields():
    class G(forms_core._Alternating):
        __slots__ = ()

    form = G(1, {(0,): 1})
    assert G._fields == ("rank", "coeffs")
    assert repr(form) == f"{G.__qualname__}(rank=1, coeffs={{(0,): Poly('1')}})"
    assert G._new(1, {}) != G._new(2, {})
    with pytest.raises(TypeError):
        vars(form)


def test_a_record_must_declare_its_slots():
    with pytest.raises(TypeError, match="Loose must declare __slots__"):

        class Loose(Record):
            pass


HOLDERS = [
    SURFACE,
    LagrangianSpec(1, Poly.variable(0, 5) * Fraction(2, 3)),
    FieldSet((X0 * X1, X1)),
    ELReport((X0,), (FourForm(1, {(0,): X1}),), (FourForm.zero(1),), (FiveForm(4, {(0, 1, 2, 5): X0}),), (Fraction(1, 2),)),
]


@pytest.mark.parametrize("record", HOLDERS, ids=[type(r).__name__ for r in HOLDERS])
def test_records_holding_values_deep_copy_and_pickle(record):
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
