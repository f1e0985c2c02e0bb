"""Surface route: disks-and-bands data, Seifert matrices, Alexander values."""

import itertools
import json
import operator
from math import isqrt

from hypothesis import assume, given, settings

from conftest import (any_words, basis_order_matrix, homogeneous_connected,
                      invert_t, surface_conway)
from homolink.burau import alexander_via_burau
from homolink import seifert
from homolink.cli import main
from homolink.enumeration import orbit_canonical, words_with_counts
from homolink.polynomials import (LaurentPolynomial, det, equal_up_to_unit,
                                  pencil_det)
from homolink.seifert import (
    alexander_from_seifert,
    build_surface,
    conway_from_seifert,
    seifert_matrix,
)
from homolink.skein import conway_skein
from homolink.words import (BraidWord, component_count, connected,
                            is_homogeneous, parse_word)


def test_surface_shape_trefoil():
    s = build_surface(parse_word("1 1 1"))
    assert s.word.strands == 2
    assert len(s.bands) == 3
    assert s.bands == ((1, 1, 1), (1, 2, 1), (1, 3, 1))
    assert set(s.basis_loops) == {(1, 1), (1, 2)}


def test_surface_shape_figure_eight():
    s = build_surface(parse_word("1 -2 1 -2"))
    assert s.word.strands == 3
    assert len(s.bands) == 4
    assert s.bands == ((1, 1, 1), (2, 1, -1), (1, 2, 1), (2, 2, -1))
    assert set(s.basis_loops) == {(1, 1), (2, 1)}


def test_surface_shape_empty():
    s = build_surface(BraidWord(1, ()))
    assert s.word.strands == 1
    assert s.bands == ()
    assert s.basis_loops == ()


def test_decompose_examples(capsys):
    # the fiber is the Murasugi sum of one (2, q_i) torus-link fiber per
    # column i: its q_i bands, all of sign alpha(i), which analyze prints
    # as its q and alpha lines
    for text, q, alpha in [("1 1 2 2", [2, 2], [1, 1]),
                           ("1 1 -2 -2", [2, 2], [1, -1]),
                           ("1 1 1 1 1", [5], [1])]:
        bands = build_surface(parse_word(text)).bands
        assert [[s for c, _, s in bands if c == i]
                for i in range(1, len(q) + 1)] == [
                    [a] * k for a, k in zip(alpha, q)]
        assert main(["analyze", text, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["q"], report["alpha"]) == (q, alpha)


def test_seifert_matrix_trefoil():
    V = seifert_matrix(build_surface(parse_word("1 1 1")))
    assert V.entries == ((1, 0), (-1, 1))
    assert V.loops == ((1, 1), (1, 2))
    assert V.intersection_form == ((0, 1), (-1, 0))


def test_seifert_matrix_figure_eight():
    V = seifert_matrix(build_surface(parse_word("1 -2 1 -2")))
    assert V.dimension == 2
    assert conway_from_seifert(V).as_dict() == {2: -1, 0: 1}


def test_conway_from_fixed_matrices():
    loops = ((1, 1), (1, 2))
    V = basis_order_matrix(((-1, 1), (0, -1)), loops)
    assert conway_from_seifert(V).as_dict() == {2: 1, 0: 1}
    W = basis_order_matrix(((-1, 1), (0, 1)), loops)
    assert conway_from_seifert(W).as_dict() == {2: -1, 0: 1}


def test_symmetrized_det_computed_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return pencil_det(*args)

    monkeypatch.setattr(seifert, "pencil_det", counting)
    V = seifert_matrix(build_surface(parse_word("1 -2 1 -2")))
    conway_from_seifert(V)
    alexander_from_seifert(V)
    assert len(calls) == 1


def test_symmetrized_det_cache_is_not_shared_mutable_state():
    V = seifert_matrix(build_surface(parse_word("1 1 1")))
    sym = V.symmetrized_det.as_dict()
    sym[0] = 99
    conway = conway_from_seifert(V).as_dict()
    conway.clear()
    alex = alexander_from_seifert(V).as_dict()
    alex.clear()
    assert V.symmetrized_det.as_dict() == {2: 1, 0: -1, -2: 1}
    assert conway_from_seifert(V).as_dict() == {2: 1, 0: 1}
    assert alexander_from_seifert(V).as_dict() == {2: 1, 0: -1, -2: 1}


def test_alexander_values():
    trefoil = seifert_matrix(build_surface(parse_word("1 1 1")))
    assert alexander_from_seifert(trefoil).as_dict() == {2: 1, 0: -1, -2: 1}
    hopf = seifert_matrix(build_surface(parse_word("1 1")))
    assert equal_up_to_unit(
        alexander_from_seifert(hopf),
        LaurentPolynomial.from_dict({1: 1, -1: -1}, scale=2))
    empty = seifert_matrix(build_surface(BraidWord(1, ())))
    assert alexander_from_seifert(empty).as_dict() == {0: 1}


def test_alexander_sign_rule():
    # knots evaluate positive at t = 1
    for text in ["1 1 1", "1 -2 1 -2", "-1 -1 -1"]:
        p = alexander_from_seifert(
            seifert_matrix(build_surface(parse_word(text))))
        assert sum(p.as_dict().values()) > 0
    # even-component links vanish at t = 1; the leading coefficient decides
    wh = alexander_from_seifert(
        seifert_matrix(build_surface(parse_word("1 1 -2 1 -2"))))
    d = wh.as_dict()
    assert sum(d.values()) == 0
    assert d[max(d)] > 0


@given(homogeneous_connected(max_n=4, max_m=7))
@settings(max_examples=120, deadline=None)
def test_surface_route_matches_skein(w):
    assert surface_conway(w) == conway_skein(w)


def test_surface_route_matches_burau_on_every_small_word():
    # the disks-and-bands surface is a Seifert surface for every connected
    # word, mixed signs included, so the two Alexander routes agree exactly
    count = 0
    for n in range(1, 4):
        alphabet = [s * i for i in range(1, n) for s in (1, -1)]
        for m in range(n - 1, 7):
            for letters in itertools.product(alphabet, repeat=m):
                if not connected(letters, n):
                    continue
                w = BraidWord(n, letters)
                V = seifert_matrix(build_surface(w))
                assert alexander_from_seifert(V) == alexander_via_burau(w), w
                count += 1
    assert count == 5335


@given(any_words(max_n=5, max_m=10))
@settings(max_examples=150, deadline=None)
def test_surface_route_matches_burau(w):
    assume(connected(w.letters, w.strands))
    V = seifert_matrix(build_surface(w))
    assert alexander_from_seifert(V) == alexander_via_burau(w)


CONVENTIONS = ("_SELF", "_SAME_COL_POS", "_SAME_COL_NEG", "_CROSS_OPEN",
               "_CROSS_CLOSE")
# the last two seeds alone cut the 256 survivors of the first five to the
# final eight
CONVENTION_SEEDS = ("1 1", "1 1 1", "-1 -1 -1", "1 1 2 2", "1 -2 1 -2",
                    "1 -2 1 -2 1 -2", "1 -2 1 1 -2 1")
# transposing V, or flipping the signs of both off-diagonal contributions,
# leaves the symmetrized determinant alone
SURVIVING_CONVENTIONS = {
    (1, same_col_pos, same_col_neg, cross_open, cross_close)
    for same_col_pos, same_col_neg in [((0, -1), (1, 0)), ((-1, 0), (0, 1))]
    for cross_open, cross_close in [((0, 1), (0, -1)), ((0, -1), (0, 1)),
                                    ((1, 0), (-1, 0)), ((-1, 0), (1, 0))]}


def test_linking_conventions_are_the_ones_the_other_routes_allow(
        monkeypatch):
    # the five constants of seifert are not forced by the combinatorics, so
    # every assignment of them is scanned: those whose Conway matches the
    # skein route on the seeds and on every homogeneous connected non-weak
    # word with n <= 3, m <= 5, and whose Alexander matches Burau on one
    # mixed-sign word per symmetry orbit of those words' sequences
    shipped = tuple(getattr(seifert, name) for name in CONVENTIONS)
    pairs = ((0, 1), (0, -1), (1, 0), (-1, 0))
    candidates = [(self_sign,) + rules for self_sign in (1, -1)
                  for rules in itertools.product(pairs, repeat=4)]
    homogeneous = [w for n in (2, 3) for m in range(2 * (n - 1), 6)
                   for w in words_with_counts(n, m)]
    mixed = [BraidWord(w.strands, letters) for w in homogeneous
             if min(w.letters) > 0
             for signs in itertools.product((1, -1), repeat=len(w.letters))
             for letters in [tuple(map(operator.mul, signs, w.letters))]
             if orbit_canonical(letters, w.strands) == letters
             and not is_homogeneous(BraidWord(w.strands, letters))]
    assert (len(candidates), len(homogeneous), len(mixed)) == (512, 112, 29)

    def survivors(candidates, words, route, invariant):
        cases = [(build_surface(w), route(w)) for w in words]
        kept = []
        for consts in candidates:
            for name, value in zip(CONVENTIONS, consts):
                monkeypatch.setattr(seifert, name, value)
            try:
                if all(invariant(seifert_matrix(s)) == want
                       for s, want in cases):
                    kept.append(consts)
            except RuntimeError:
                pass    # the determinant is not a polynomial in x - 1/x
        return kept

    seeds = [parse_word(text) for text in CONVENTION_SEEDS]
    kept = survivors(candidates, seeds, conway_skein, conway_from_seifert)
    assert set(kept) == SURVIVING_CONVENTIONS
    kept = survivors(kept, homogeneous, conway_skein, conway_from_seifert)
    kept = survivors(kept, mixed, alexander_via_burau, alexander_from_seifert)
    assert set(kept) == SURVIVING_CONVENTIONS
    assert shipped in SURVIVING_CONVENTIONS


@given(any_words(max_n=7, max_m=30))
@settings(max_examples=150, deadline=None)
def test_surface_facts_that_fix_the_burau_width(w):
    # Burau's packing width reads the Alexander coefficient bound
    # isqrt(10^k) off these facts, so a change of surface conventions that
    # breaks one fails here
    assume(connected(w.letters, w.strands))
    S = seifert_matrix(build_surface(w))
    V, k = S.entries, S.dimension
    assert k == len(w.letters) - w.strands + 1
    for a, row in enumerate(V):
        assert set(row) <= {-1, 0, 1}
        linked = [b for b in range(k) if b != a and (row[b] or V[b][a])]
        assert all(not (row[b] and V[b][a]) for b in linked)
        assert len(linked) <= 6
    bound = isqrt(10 ** k)
    assert all(abs(c) <= bound for _, c in alexander_from_seifert(S).coeffs)


def test_inhomogeneous_8_20():
    # the paper's inhomogeneous fibred knot: the braided surface is a Seifert
    # surface (genus 3, not minimal), though not a fiber of this word
    w = parse_word("1 1 1 -2 -1 -1 -1 -2")
    V = seifert_matrix(build_surface(w))
    assert V.dimension == 6
    assert conway_from_seifert(V).as_dict() == {4: 1, 2: 2, 0: 1}
    assert alexander_from_seifert(V).as_dict() == {
        4: 1, 2: -2, 0: 3, -2: -2, -4: 1}
    # a loop through one positive and one negative band has no self-linking
    assert V.entries[V.loops.index((1, 3))][V.loops.index((1, 3))] == 0


@given(homogeneous_connected(max_n=4, max_m=7))
@settings(max_examples=100, deadline=None)
def test_intersection_form_is_unimodular_for_knots(w):
    if component_count(w) != 1:
        return
    J = seifert_matrix(build_surface(w)).intersection_form
    d = det([[{0: v} if v else {} for v in row] for row in J])
    assert d == {0: 1}


@given(homogeneous_connected(max_n=4, max_m=7))
@settings(max_examples=100, deadline=None)
def test_alexander_palindromic(w):
    p = alexander_from_seifert(seifert_matrix(build_surface(w)))
    flipped = invert_t(p)
    c = component_count(w)
    if c % 2:
        assert flipped == p
    else:
        assert flipped.as_dict() == {e: -v for e, v in p.as_dict().items()}


def test_basis_loop_count_matches_first_homology():
    for text in ["1 1 1", "1 1 2 2", "1 -2 1 -2 3 3"]:
        s = build_surface(parse_word(text))
        assert len(s.basis_loops) == 1 - (s.word.strands - len(s.bands))
