"""Unreduced-Burau Alexander route, the engine that works on any braid word."""

from hypothesis import given, settings

from conftest import any_words, homogeneous_connected
from homolink.burau import alexander_via_burau, unreduced_burau
from homolink.polynomials import conway_to_laurent, mul
from homolink.skein import conway_skein
from homolink.words import BraidWord, component_count, cyclic_permute, parse_word


def alex(text, strands=None):
    return alexander_via_burau(parse_word(text, strands=strands)).as_dict()


def test_published_values():
    assert alex("") == {0: 1}
    assert alex("1 1 1") == {2: 1, 0: -1, -2: 1}
    assert alex("1 -2 1 -2") == {2: -1, 0: 3, -2: -1}
    assert alex("1 1") == {1: 1, -1: -1}
    assert alex("1 1 -2 1 -2") == {3: 1, 1: -3, -1: 3, -3: -1}


def test_mixed_sign_word():
    # 8_20, closing an inhomogeneous word; test_seifert.py anchors its Conway
    w = parse_word("1 1 1 -2 -1 -1 -1 -2")
    assert alexander_via_burau(w).as_dict() == {4: 1, 2: -2, 0: 3, -2: -2, -4: 1}


def test_unreduced_matrix_shape():
    u = unreduced_burau(parse_word("1"))
    assert u == [[{0: 1, 1: -1}, {1: 1}], [{0: 1}, {}]]
    # inverse letter composes to the identity
    v = unreduced_burau(parse_word("1 -1"))
    ident = [[{0: 1}, {}], [{}, {0: 1}]]
    assert v == ident


def burau(text, strands):
    return unreduced_burau(parse_word(text, strands=strands))


def test_braid_relations():
    assert burau("1 2 1", 3) == burau("2 1 2", 3)
    assert burau("-1 -2 -1", 3) == burau("-2 -1 -2", 3)
    assert burau("1 3", 4) == burau("3 1", 4)
    assert burau("1 3", 4) != burau("1 2", 4)
    ident = [[{0: 1} if r == c else {} for c in range(3)] for r in range(3)]
    assert burau("-2 2", 3) == ident
    assert burau("", 3) == ident


def test_row_sums_are_stochastic():
    # unreduced Burau fixes the all-ones column vector
    u = unreduced_burau(parse_word("1 -2 1 3 -2"))
    for row in u:
        total = {}
        for cell in row:
            for e, c in cell.items():
                total[e] = total.get(e, 0) + c
        assert {e: c for e, c in total.items() if c} == {0: 1}


@given(homogeneous_connected(max_n=4, max_m=7))
@settings(max_examples=120, deadline=None)
def test_agrees_with_skein(w):
    lau = conway_to_laurent(conway_skein(w))
    bur = alexander_via_burau(w)
    if component_count(w) == 1:
        assert bur == lau
    else:
        d = bur.as_dict()
        ref = lau.as_dict()
        assert d == ref or d == {e: -c for e, c in ref.items()}


@given(any_words(max_n=4, max_m=7))
@settings(max_examples=80, deadline=None)
def test_cyclic_invariance(w):
    assert alexander_via_burau(cyclic_permute(w, 1)) == alexander_via_burau(w)


@given(any_words(max_n=4, max_m=6))
@settings(max_examples=60, deadline=None)
def test_mirror_symmetry(w):
    m = BraidWord(w.strands, tuple(-x for x in w.letters))
    a = alexander_via_burau(w)
    b = alexander_via_burau(m)
    d, ref = b.as_dict(), a.mirror().as_dict()
    assert d == ref or d == {e: -c for e, c in ref.items()}


def test_stabilization_invariance():
    w = parse_word("1 1 1")
    stab = BraidWord(3, w.letters + (2,))
    assert alexander_via_burau(stab) == alexander_via_burau(w)


def test_connected_sum_multiplies():
    # granny = trefoil # trefoil on a shared strand
    granny = parse_word("1 1 1 2 2 2")
    tref = alexander_via_burau(parse_word("1 1 1")).as_dict()
    assert alexander_via_burau(granny).as_dict() == mul(tref, tref)
