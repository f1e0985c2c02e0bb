"""Twist words, homology actions, and the Seifert cross-route."""

import pytest
from hypothesis import given, settings

from conftest import basis_order_matrix, homogeneous_connected
from homolink.errors import DisconnectedWordError, InhomogeneousWordError
from homolink.monodromy import (
    HomologyAction,
    action_of_word,
    char_poly,
    homology_action,
    matrix_order,
    monodromy_from_seifert,
    monodromy_order_bound,
    twist_sequence,
)
from homolink.burau import alexander_via_burau
from homolink.polynomials import bareiss, equal_up_to_unit
from homolink.seifert import (alexander_from_seifert, build_surface,
                              seifert_matrix)
from homolink.words import BraidWord, parse_word


def test_twist_sequence_examples():
    assert twist_sequence(parse_word("1 1 1")) == (((1, 1), 1), ((1, 2), 1))
    assert twist_sequence(parse_word("-1 -1 -1")) == (
        ((1, 2), -1), ((1, 1), -1))
    assert twist_sequence(parse_word("1 1 -2 -2 -2")) == (
        ((1, 1), 1), ((2, 2), -1), ((2, 1), -1))
    assert twist_sequence(parse_word("")) == ()


def test_twist_sequence_errors():
    with pytest.raises(InhomogeneousWordError):
        twist_sequence(parse_word("1 -1"))
    with pytest.raises(DisconnectedWordError):
        twist_sequence(parse_word("1 1", strands=3))


def test_twist_count_is_first_betti():
    for text in ["1 1 1", "1 -2 1 -2", "1 1 2 2 3 3", "1 1 1 2 2"]:
        w = parse_word(text)
        twists = twist_sequence(w)
        assert len(twists) == len(w.letters) - w.strands + 1
        # each loop of V's basis is twisted exactly once
        V = seifert_matrix(build_surface(w))
        assert sorted(loop for loop, _ in twists) == sorted(V.loops)


def test_trefoil_action():
    act = action_of_word(parse_word("1 1 1"))
    assert act.matrix == ((1, -1), (1, 0))
    assert act.intersection_form == ((0, 1), (-1, 0))
    assert act.preserves_form()
    assert bareiss([list(row) for row in act.matrix]) == 1
    assert char_poly(act).as_dict() == {2: 1, 1: -1, 0: 1}
    assert matrix_order(act, 12) == 6


def test_homology_action_identity_when_no_twists():
    act = homology_action((), basis_order_matrix((), ()))
    assert act.matrix == ()
    assert matrix_order(act, 1) == 1


def test_homology_action_dimension_mismatch():
    twists = twist_sequence(parse_word("1 1 1"))
    # V of another word: other size, then same size but other loops
    for text in ["1 1 1 1", "1 1 2 2", "1 1"]:
        V = seifert_matrix(build_surface(parse_word(text)))
        with pytest.raises(ValueError, match="Seifert basis"):
            homology_action(twists, V)


@pytest.mark.parametrize("text", ["1 1 1 2 2", "1 -2 1 -2 1 -2",
                                  "1 1 2 2 3 3 3"])
def test_twist_route_follows_seifert_basis(text):
    # reversing V's loop order, entries permuted to match, conjugates the
    # twist-route matrix by the reversal, as it does V^(-1) V^T
    w = parse_word(text)
    V = seifert_matrix(build_surface(w))
    rev = range(V.dimension - 1, -1, -1)
    V_rev = basis_order_matrix(tuple(tuple(V.entries[a][b] for b in rev)
                                     for a in rev), V.loops[::-1])
    M = action_of_word(w).matrix
    act = homology_action(twist_sequence(w), V_rev)
    assert act.matrix == tuple(tuple(M[a][b] for b in rev) for a in rev)
    assert act.matrix != M
    assert act.intersection_form == V_rev.intersection_form
    assert act.matrix == monodromy_from_seifert(V_rev).matrix


def test_seifert_route_matches_twist_route():
    for text in ["1 1 1", "1 -2 1 -2", "1 1 1 2 2", "-1 -1 -1 -1"]:
        w = parse_word(text)
        V = seifert_matrix(build_surface(w))
        assert monodromy_from_seifert(V).matrix == action_of_word(w).matrix


def test_seifert_route_rejects_singular():
    V = seifert_matrix(build_surface(parse_word("1 1 1")))
    broken = basis_order_matrix(((0, 0), (0, 0)), V.loops)
    with pytest.raises(RuntimeError):
        monodromy_from_seifert(broken)


def test_seifert_route_rejects_fractional_entries():
    V = seifert_matrix(build_surface(parse_word("1 1 1")))
    with pytest.raises(RuntimeError):
        monodromy_from_seifert(basis_order_matrix(((2, 1), (0, 1)), V.loops))
    # det 2 but V^(-1) V^T = I is integral, so it is returned as is
    act = monodromy_from_seifert(basis_order_matrix(((2, 0), (0, 1)), V.loops))
    assert act.matrix == ((1, 0), (0, 1))


def test_determinant_sign_and_singular():
    assert bareiss([[0, 1], [1, 0]]) == -1
    assert bareiss([[2, 1], [4, 2]]) == 0
    assert bareiss([]) == 1


@pytest.mark.parametrize("r", [11, 16, 20])
def test_long_words_cross_routes(r):
    # (1 -2)^r has k = 2r - 2 loops: 20, 30 and 38
    w = BraidWord(3, (1, -2) * r)
    V = seifert_matrix(build_surface(w))
    assert V.dimension == 2 * r - 2
    alex = alexander_from_seifert(V)
    assert alex == alexander_via_burau(w)
    act = action_of_word(w)
    assert equal_up_to_unit(char_poly(act), alex)
    assert monodromy_from_seifert(V).matrix == act.matrix


def test_preserves_form_detects_non_symplectic_matrix():
    act = HomologyAction(((2, 0), (0, 1)), ((0, 1), (-1, 0)))
    assert not act.preserves_form()


def test_char_poly_matches_alexander_up_to_unit():
    for text in ["1 1 1", "1 -2 1 -2", "1 1 2 2", "1 1 -2 1 -2"]:
        w = parse_word(text)
        V = seifert_matrix(build_surface(w))
        assert equal_up_to_unit(char_poly(action_of_word(w)),
                                alexander_from_seifert(V))


def test_torus_orders():
    # the q = 2 fiber is an annulus: rank-1 homology, skew form zero, so
    # the action is the identity and its order is 1, below the lcm bound
    expected = {2: 1, 3: 6, 4: 4, 5: 10, 6: 6, 7: 14}
    for q, order in expected.items():
        w = BraidWord(2, (1,) * q)
        assert matrix_order(action_of_word(w), 2 * q) == order
        assert monodromy_order_bound(w) == (2 if q == 2 else order)
    assert monodromy_order_bound(BraidWord(2, (-1,) * 5)) == 10
    assert matrix_order(action_of_word(BraidWord(2, (-1, -1, -1))), 6) == 6


def test_torus_action_shifts_basis_classes():
    # [gamma_i] -> -[gamma_(i-1)] and the first column is all ones
    for q in (3, 5, 6):
        M = action_of_word(BraidWord(2, (1,) * q)).matrix
        k = q - 1
        assert all(M[r][0] == 1 for r in range(k))
        for c in range(1, k):
            for r in range(k):
                assert M[r][c] == (-1 if r == c - 1 else 0)


def test_order_bound_rejects_other_words():
    for w in [parse_word("1 1 2"), BraidWord(2, (1,)), BraidWord(3, (2, 2)),
              parse_word("1 -2 1 -2")]:
        with pytest.raises(ValueError):
            monodromy_order_bound(w)


@given(homogeneous_connected(max_n=4, max_m=7))
@settings(max_examples=100, deadline=None)
def test_action_properties(w):
    act = action_of_word(w)
    assert act.preserves_form()
    assert bareiss([list(row) for row in act.matrix]) == 1
    V = seifert_matrix(build_surface(w))
    assert monodromy_from_seifert(V).matrix == act.matrix
    assert equal_up_to_unit(char_poly(act), alexander_from_seifert(V))


def test_action_is_dataclass_value():
    a = action_of_word(parse_word("1 1 1"))
    b = action_of_word(parse_word("1 1 1"))
    assert a == b and isinstance(a, HomologyAction)
