"""Unreduced-Burau Alexander route, the engine that works on any braid word."""

import pytest
from hypothesis import example, given, settings

from conftest import (any_words, cyclic_permute, homogeneous_connected,
                      invert_t)
from homolink.burau import alexander_via_burau
from homolink.polynomials import (ONE, add, det, eshift, mul, neg,
                                  units_equal)
from homolink.skein import conway_skein
from homolink.words import BraidWord, component_count, parse_word
from oracles import burau_rows, burau_two_pass, conway_to_laurent


def sub(a, b):
    return add(a, neg(b))


def burau_letter(U, x):
    """U times the image of the letter x, on Laurent dicts, as a new matrix.
    Right multiplication changes only columns i and i+1 of each row,
    (a, b) -> ((1-t)a + b, t*a) for sigma_i and
    (a, b) -> (b/t, a + (1 - 1/t)b) for its inverse."""
    i = abs(x) - 1
    out = []
    for row in U:
        row = list(row)
        a, b = row[i], row[i + 1]
        if x > 0:
            ta = eshift(a, 1)
            row[i], row[i + 1] = add(sub(a, ta), b), ta
        else:
            b_t = eshift(b, -1)
            row[i], row[i + 1] = b_t, add(a, sub(b, b_t))
        out.append(row)
    return out


def burau_identity(n):
    return [[dict(ONE) if r == c else {} for c in range(n)] for r in range(n)]


def reference_burau(w):
    """The unreduced Burau product on Laurent dicts, letter by letter: the
    oracle for the packed-integer product, whose first n-1 rows the
    program builds."""
    U = burau_identity(w.strands)
    for x in w.letters:
        U = burau_letter(U, x)
    return U


def assert_matches_reference(w):
    U = reference_burau(w)
    n = w.strands
    assert burau_rows(w) == U[:n - 1], w
    # the minor of I - U, decoded from the packed rows, against the one
    # built from the reference; the value is centered, so compare up to a
    # unit, with the reference's exponents put on scale 2
    d = det([[sub(ONE, U[i][j]) if i == j else neg(U[i][j])
              for j in range(n - 1)] for i in range(n - 1)])
    assert units_equal(alexander_via_burau(w).as_dict(),
                       {2 * e: c for e, c in d.items()}), w


def test_matches_reference_on_every_small_word():
    # every word with n <= 4 and m <= 6, every sign pattern; the reference
    # matrix of a word is its prefix's times its last letter
    def visit(n, word, U):
        assert burau_rows(BraidWord(n, word)) == U[:n - 1], word
        if len(word) < 6:
            for x in letters:
                visit(n, word + (x,), burau_letter(U, x))

    for n in range(1, 5):
        letters = [s * i for i in range(1, n) for s in (1, -1)]
        visit(n, (), burau_identity(n))


@given(any_words(max_n=8, max_m=40))
@settings(max_examples=150, deadline=None)
def test_matches_reference(w):
    assert_matches_reference(w)


def test_matches_reference_on_all_inverse_words():
    # every letter divides by t: each right shift must drop only zero bits,
    # and the factor t^k is largest
    for n, reps in ((2, 30), (3, 12), (6, 6), (10, 4)):
        down = tuple(-i for i in range(1, n))
        assert_matches_reference(BraidWord(n, down * reps))
        assert_matches_reference(BraidWord(n, down[::-1] * reps))
    assert_matches_reference(BraidWord(10, tuple(range(1, 10)) * 2
                                       + tuple(range(-1, -10, -1)) * 2))


@given(any_words(max_n=7, max_m=40))
@settings(max_examples=200, deadline=None)
@example(BraidWord(1, ()))
@example(BraidWord(4, ()))
@example(BraidWord(4, (1, -1, 3, 3)))
@example(BraidWord(5, (2, -1, 2, -4, -4, 1)))
def test_one_pass_matches_two_pass(w):
    # the surface width reads back what the letter-bound width and a second
    # packing read, split words (value 0) and one strand included
    assert alexander_via_burau(w) == burau_two_pass(w), w


SEED_7_WORD = (  # perfbench.inputs.random_word(random.Random(7), 6, 70)
    "-3 -2 -4 -1 -1 -5 -1 -3 -5 -1 -5 -2 -1 -1 -4 -4 -1 -2 -1 -5 -4 -1 -5 "
    "-1 -2 -5 -1 -5 -5 -4 -1 -2 -1 -5 -2 -3 -4 -2 -5 -1 -5 -3 -5 -2 -1 -5 "
    "-5 -2 -3 -1 -5 -1 -5 -1 -5 -2 -4 -5 -4 -3 -4 -5 -4 -3 -3 -2 -2 -2 -1 -5")

LONG_WORDS = {
    "(1 -2)^30": BraidWord(3, (1, -2) * 30),
    "sigma1^120": BraidWord(2, (1,) * 120),
    "sigma1^-120": BraidWord(2, (-1,) * 120),
    "(-1 ... -9)^20": BraidWord(10, tuple(range(-1, -10, -1)) * 20),
    "seed 7, 6 strands, m = 70": parse_word(SEED_7_WORD),
}


@pytest.mark.parametrize("name", LONG_WORDS)
def test_one_pass_matches_two_pass_on_long_words(name):
    w = LONG_WORDS[name]
    assert alexander_via_burau(w) == burau_two_pass(w)


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
    u = burau_rows(parse_word("1"))
    assert u == [[{0: 1, 1: -1}, {1: 1}]]
    # inverse letter composes to the identity
    v = burau_rows(parse_word("1 -1"))
    assert v == [[{0: 1}, {}]]


def burau(text, strands):
    return burau_rows(parse_word(text, strands=strands))


def test_braid_relations():
    assert burau("1 2 1", 3) == burau("2 1 2", 3)
    assert burau("-1 -2 -1", 3) == burau("-2 -1 -2", 3)
    assert burau("1 3", 4) == burau("3 1", 4)
    assert burau("1 3", 4) != burau("1 2", 4)
    ident = [[{0: 1} if r == c else {} for c in range(3)] for r in range(2)]
    assert burau("-2 2", 3) == ident
    assert burau("", 3) == ident


def test_row_sums_are_stochastic():
    # unreduced Burau fixes the all-ones column vector
    u = burau_rows(parse_word("1 -2 1 3 -2"))
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
    d, ref = b.as_dict(), invert_t(a).as_dict()
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
