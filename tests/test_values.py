"""The contract of the library's value types: equality and hashing by class
and fields, immutability, pickling, and slots that hold the fields and
nothing else."""

import pickle
from contextlib import suppress
from fractions import Fraction

import pytest

from picard3.clifford import CliffordElement, EvenCliffordElement, GramParams
from picard3.exterior import PBasis
from picard3.isometries import CliffordUnit
from picard3.lattice import (DiscriminantGroup, FiniteQuadraticForm, Isometry3,
                             Lattice, discriminant_form, discriminant_group,
                             family_lattice)
from picard3.modular import ModularElement, SubgroupSpec
from picard3.report import AutReport, SalemDatum, analyze_picard, salem_poly
from picard3.verify import SuiteResult

ROT = ((0, 0, 1), (0, -1, 0), (1, 0, 0))   # an isometry of U(k) + <2l>

# Each type, a call that builds a fresh instance, and the instance's fields.
VALUES = [
    (CliffordElement, lambda: CliffordElement((1, Fraction(1, 2), 0, 0, 0, 0, 0, 3)),
     ("ints", "den")),
    (Lattice, lambda: Lattice([[2, 1], [1, -4]]), ("gram",)),
    (DiscriminantGroup, lambda: discriminant_group(family_lattice(2, -3)),
     ("invariant_factors", "generator_lifts")),
    (FiniteQuadraticForm, lambda: discriminant_form(family_lattice(2, -3)),
     ("group", "values")),
    (Isometry3, lambda: Isometry3(ROT, family_lattice(2, -3)), ("matrix", "lattice")),
    (ModularElement, lambda: ModularElement(-1, -2, 0, -1), ("a", "b", "c", "d")),
    (SubgroupSpec, lambda: SubgroupSpec("B_kl_units", k=2, l=-3),
     ("kind", "n", "k", "l")),
    (CliffordUnit, lambda: CliffordUnit.from_element(
        EvenCliffordElement(1, 0, 0, 0), GramParams.family(2, -3)),
     ("element", "grade", "norm")),
    (PBasis, lambda: PBasis(((1, 0, 0, 1, 0, 0),), ((1, 0, 0, -1, 0, 0),)),
     ("plus", "minus")),
    (SalemDatum, lambda: salem_poly([[2, 1], [1, 1]]),
     ("matrix", "nr", "a_value", "is_salem", "symplectic")),
    (AutReport, lambda: analyze_picard(2, -2),
     ("k", "l", "is_m_n", "n", "signature", "hypotheses_met", "hypothesis_failures",
      "root_free", "disc", "group_model", "v_coset_present",
      "antisymplectic_exists", "image_order_m", "congruence", "samples", "bounds")),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


def imposter(x, fields):
    """An instance of a subclass of type(x) with the same field values."""
    sub = type(type(x).__name__, (type(x),), {"__slots__": ()})
    y = object.__new__(sub)
    for f in fields:
        object.__setattr__(y, f, getattr(x, f))
    return y


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_equal_fields_give_equal_values(cls, make, fields):
    x, y = make(), make()
    assert type(x) is cls and x is not y
    assert x == y and not x != y
    if cls is AutReport:   # congruence and bounds are dicts
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_equality_needs_the_same_type(cls, make, fields):
    x = make()
    assert x != imposter(x, fields) and imposter(x, fields) != x
    assert x != tuple(getattr(x, f) for f in fields)


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_values_are_frozen(cls, make, fields):
    x = make()
    before = [getattr(x, f) for f in fields]
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert [getattr(x, f) for f in fields] == before


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_values_pickle(cls, make, fields):
    x = make()
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is cls and y == x
    assert [getattr(y, f) for f in fields] == [getattr(x, f) for f in fields]


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_values_hold_only_their_fields(cls, make, fields):
    assert cls.__slots__ == cls._fields == fields
    x, cold = make(), make()
    properties = [name for klass in cls.__mro__ for name, attr in vars(klass).items()
                  if isinstance(attr, property)]
    for name in properties:
        with suppress(ValueError):   # coords of an element with both grades
            getattr(x, name)
    assert not hasattr(x, "__dict__")
    assert x == cold and pickle.loads(pickle.dumps(x)) == cold
    if cls is not AutReport:   # congruence and bounds are dicts
        assert hash(x) == hash(cold)


# The records: types whose fields are exactly their constructor's arguments.
RECORDS = [v for v in VALUES if v[0] in (DiscriminantGroup, FiniteQuadraticForm,
                                         CliffordUnit, PBasis, SalemDatum, AutReport)]


@pytest.mark.parametrize("cls, make, fields", RECORDS, ids=[v[0].__name__ for v in RECORDS])
def test_records_take_exactly_their_fields(cls, make, fields):
    x = make()
    values = [getattr(x, f) for f in fields]
    assert cls(*values) == x
    for wrong in (values[:-1], values + [None], []):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes {len(fields)} fields"):
            cls(*wrong)


def test_isometry_repr_names_its_fields():
    g = Isometry3(ROT, family_lattice(2, -3))
    assert repr(g) == ("Isometry3(matrix=((0, 0, 1), (0, -1, 0), (1, 0, 0)), "
                       "lattice=Lattice(gram=((0, 0, 2), (0, -6, 0), (2, 0, 0))))")


def test_suite_results_keep_their_own_failures():
    a, b = SuiteResult("a"), SuiteResult("b")
    a.check(False, "x")
    a.check(True, "y")
    assert (a.name, a.passed, a.failed, a.failures) == ("a", 1, 1, ["x"])
    assert (b.name, b.passed, b.failed, b.failures) == ("b", 0, 0, [])
    assert not a.ok and b.ok


def test_values_refuse_new_attributes():
    for _, make, _ in VALUES:
        with pytest.raises(AttributeError):
            make().extra = 1
