"""The value records: equality, hashing, immutability and repr.

Every record compares and hashes by its fields, only against its own
class, refuses assignment and deletion, and prints as
`Name(field=value, ...)`.
"""

import copy
import pickle

import pytest

from homolink import seifert
from homolink.enumeration import ClassificationReport, LinkClass, SearchSpace
from homolink.errors import BraidSyntaxError
from homolink.monodromy import HomologyAction
from homolink.polynomials import ConwayPolynomial, LaurentPolynomial
from homolink.reference import LinkSignature, ReferenceEntry
from homolink.seifert import BraidedSurface, SeifertMatrix
from homolink.words import BraidWord

TREFOIL = BraidWord(2, (1, 1, 1))
TREFOIL_TEXT = "BraidWord(strands=2, letters=(1, 1, 1))"
ALEX = LaurentPolynomial(2, ((-2, 1), (0, -1), (2, 1)))
ALEX_TEXT = "LaurentPolynomial(scale=2, coeffs=((-2, 1), (0, -1), (2, 1)))"
SIG = LinkSignature(1, ((0, 1), (2, 1)), ((-16, -1), (-12, 1), (-4, 1)))
SIG_TEXT = ("LinkSignature(component_count=1, conway=((0, 1), (2, 1)), "
            "jones_pair=((-16, -1), (-12, 1), (-4, 1)))")
CLASS = LinkClass(SIG, TREFOIL, "3_1", 2)
CLASS_TEXT = (f"LinkClass(signature={SIG_TEXT}, "
              f"representative={TREFOIL_TEXT}, matched='3_1', size=2)")

# (class, its fields in order, the repr the frozen dataclasses printed)
RECORDS = [
    (BraidWord, dict(strands=2, letters=(1, 1, 1)), TREFOIL_TEXT),
    (BraidedSurface, dict(word=TREFOIL,
                          bands=((1, 1, 1), (1, 2, 1), (1, 3, 1)),
                          basis_loops=((1, 1), (1, 2))),
     f"BraidedSurface(word={TREFOIL_TEXT}, bands=((1, 1, 1), (1, 2, 1), "
     "(1, 3, 1)), basis_loops=((1, 1), (1, 2)))"),
    (SeifertMatrix, dict(entries=((1, 0), (1, -1)), loops=((1, 1), (2, 1)),
                         band_order=(0, 1)),
     "SeifertMatrix(entries=((1, 0), (1, -1)), loops=((1, 1), (2, 1)), "
     "band_order=(0, 1))"),
    (HomologyAction, dict(matrix=((1, -1), (1, 0)),
                          intersection_form=((0, 1), (-1, 0))),
     "HomologyAction(matrix=((1, -1), (1, 0)), "
     "intersection_form=((0, 1), (-1, 0)))"),
    (ConwayPolynomial, dict(coeffs=((0, 1), (2, 1))),
     "ConwayPolynomial(coeffs=((0, 1), (2, 1)))"),
    (LaurentPolynomial, dict(scale=2, coeffs=((-2, 1), (0, -1), (2, 1))),
     ALEX_TEXT),
    (LinkSignature, dict(component_count=1, conway=((0, 1), (2, 1)),
                         jones_pair=((-16, -1), (-12, 1), (-4, 1))),
     SIG_TEXT),
    (ReferenceEntry, dict(name="3_1", word=TREFOIL, verified=True,
                          published_alexander=ALEX, note=""),
     f"ReferenceEntry(name='3_1', word={TREFOIL_TEXT}, verified=True, "
     f"published_alexander={ALEX_TEXT}, note='')"),
    (SearchSpace, dict(degree=None, genus=1),
     "SearchSpace(degree=None, genus=1)"),
    (LinkClass, dict(signature=SIG, representative=TREFOIL, matched="3_1",
                     size=2), CLASS_TEXT),
    (ClassificationReport, dict(space=SearchSpace(2), classes=(CLASS,),
                                notes=("a note",)),
     f"ClassificationReport(space=SearchSpace(degree=2, genus=None), "
     f"classes=({CLASS_TEXT},), notes=('a note',))"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls, values, text):
    a, b = cls(*values.values()), cls(**values)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert {name: getattr(a, name) for name in values} == values


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_another_class_is_never_equal(cls, values, text):
    a = cls(**values)
    twin = type("Twin", (cls,), {"__slots__": ()})(**values)
    assert a != twin and twin != a
    assert a.__eq__(twin) is NotImplemented
    fields = tuple(values.values())
    assert a != fields and a.__eq__(fields) is NotImplemented
    assert a != repr(a)


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, values, text):
    a = cls(**values)
    for name in [*values, "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert {name: getattr(a, name) for name in values} == values


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(cls, values, text):
    assert repr(cls(**values)) == text


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_record(cls, values, text):
    a = cls(**values)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and type(b) is cls


def test_different_fields_give_unequal_records():
    assert BraidWord(2, (1, 1)) != BraidWord(2, (1, 1, 1))
    assert BraidWord(3, (1, 1)) != BraidWord(2, (1, 1))
    assert ALEX != LaurentPolynomial(4, ALEX.coeffs)
    assert SearchSpace(degree=1) != SearchSpace(genus=1)
    assert CLASS != LinkClass(SIG, TREFOIL, "3_1", 3)


def test_braid_word_keeps_its_validation():
    assert BraidWord(2, [1, 1]).letters == (1, 1)
    assert type(BraidWord(2, [1, 1]).letters) is tuple
    assert BraidWord(2, iter([1, -1])) == BraidWord(2, (1, -1))
    assert BraidWord(3).letters == ()
    for strands, letters in ((0, ()), (2, (0,)), (2, (2,)), (3, (-3,))):
        with pytest.raises(BraidSyntaxError):
            BraidWord(strands, letters)


def test_search_space_keeps_its_validation():
    assert SearchSpace(degree=3).conway_degree == 3
    assert SearchSpace(genus=2).conway_degree == 4
    for kwargs in ({}, {"degree": 1, "genus": 1}, {"degree": -1},
                   {"genus": -1}):
        with pytest.raises(ValueError):
            SearchSpace(**kwargs)


def test_seifert_matrix_ignores_band_order():
    entries, loops = ((1, 0), (1, -1)), ((1, 1), (2, 1))
    a = SeifertMatrix(entries, loops, (0, 1))
    b = SeifertMatrix(entries, loops, (1, 0))
    assert a == b and hash(a) == hash(b)
    assert a != SeifertMatrix(entries, ((1, 1), (2, 2)), (0, 1))


def test_seifert_matrix_computes_its_derived_values_once(monkeypatch):
    calls = {"pencil_det": 0, "transpose": 0}

    def counted(name):
        real = getattr(seifert, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(seifert, name, counted(name))
    V = SeifertMatrix(((1, 0), (1, -1)), ((1, 1), (2, 1)), (0, 1))
    first = V.symmetrized_det, V.intersection_form
    assert (V.symmetrized_det, V.intersection_form) == first
    assert V.symmetrized_det is first[0]
    assert V.intersection_form is first[1]
    assert calls == {"pencil_det": 1, "transpose": 1}
    assert V.intersection_form == ((0, -1), (1, 0))
