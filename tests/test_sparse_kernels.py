"""The sparse monodromy kernels against dense references.

The twist route, the form check, the order search and the Seifert matrix
read only the nonzero entries of their matrices, and `bareiss` leaves alone
the rows with a zero in the pivot column. Each is held here to the
plain dense computation it replaces: explicit products of the matrices
I + E, M^T J M by full sums, a Gauss-Jordan elimination over Fraction,
repeated dense products, and the all-pairs Seifert loop. The symmetrized
Seifert determinant and the characteristic polynomial eliminate in a
permuted order, and are held to the same pencils in the basis order; the
integer rows they hand `bareiss` are held to those of the dense pencils in
their own order.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (any_words, basis_order_matrix, homogeneous_connected,
                      pencil_entries)
from homolink import polynomials, seifert
from homolink.monodromy import (_EPS, HomologyAction, action_of_word,
                                char_poly, homology_action, matrix_order,
                                twist_sequence)
from homolink.polynomials import (LaurentPolynomial, bareiss, identity,
                                  nonzero, pencil_det, sparse_matmul,
                                  transpose)
from homolink.seifert import build_surface, seifert_matrix
from homolink.words import BraidWord, connected, is_homogeneous, parse_word


def dense_mul(A, B):
    inner = len(B)
    width = len(B[0]) if B else 0
    return tuple(tuple(sum(A[r][l] * B[l][c] for l in range(inner))
                       for c in range(width)) for r in range(len(A)))


def dense_form(V):
    k = len(V)
    return tuple(tuple(V[a][b] - V[b][a] for b in range(k)) for a in range(k))


def transvection_product(twists, V):
    """T(last) * ... * T(first), T = I + E with E[idx][l] = eps*s*J[l][idx]
    the only nonzero row, each T written out in full."""
    J = dense_form(V.entries)
    index = {loop: a for a, loop in enumerate(V.loops)}
    k = len(J)
    M = identity(k)
    for loop, s in twists:
        idx = index[loop]
        T = tuple(tuple(int(r == c) + (_EPS * s * J[c][idx] if r == idx else 0)
                        for c in range(k)) for r in range(k))
        M = dense_mul(T, M)
    return M


def fraction_gauss_jordan(A, B):
    """(det A, A^(-1) B) over Fraction, the inverse part None when A is
    singular."""
    k = len(A)
    rows = [[Fraction(v) for v in a] + [Fraction(v) for v in b]
            for a, b in zip(A, B)]
    d = Fraction(1)
    for c in range(k):
        piv = next((r for r in range(c, k) if rows[r][c]), None)
        if piv is None:
            return 0, None
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        p = rows[c][c]
        d *= p
        rows[c] = [v / p for v in rows[c]]
        for r in range(k):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return d, [row[k:] for row in rows]


ORDER_LIMIT = 512  # the powers the order tests try


def dense_order(M):
    ident = identity(len(M))
    P = ident
    for order in range(1, ORDER_LIMIT + 1):
        P = dense_mul(P, M)
        if P == ident:
            return order
    return None


def all_pairs_seifert(s):
    """The Seifert matrix by checking every pair of loops."""
    eps = [sign for _, _, sign in s.bands]
    pos = {(i, j): p for p, (i, j, _) in enumerate(s.bands)}
    spans = [(i, pos[i, j], pos[i, j + 1]) for i, j in s.basis_loops]
    g = len(spans)
    V = [[0] * g for _ in range(g)]
    for a, (ia, p1, p2) in enumerate(spans):
        V[a][a] = seifert._SELF * (eps[p1] + eps[p2]) // 2
        for b, (ib, r1, r2) in enumerate(spans):
            if ib == ia and r1 == p2:
                pr = (seifert._SAME_COL_POS if eps[p2] > 0
                      else seifert._SAME_COL_NEG)
            elif ib == ia + 1 and (p1 < r1 < p2) != (p1 < r2 < p2):
                pr = (seifert._CROSS_OPEN if p1 < r1 < p2
                      else seifert._CROSS_CLOSE)
            else:
                continue
            V[a][b] += pr[0]
            V[b][a] += pr[1]
    return tuple(tuple(row) for row in V)


def square(k, values):
    return st.lists(st.lists(values, min_size=k, max_size=k),
                    min_size=k, max_size=k).map(
                        lambda rows: tuple(tuple(r) for r in rows))


# mostly zeros and units, like the fibred matrices, with a few larger values
sparse_entries = st.sampled_from((0, 0, 0, 0, 1, -1, 1, -1, 2, -3))


@st.composite
def seifert_with_twists(draw):
    """A random integer V on loops (1, 1)..(1, k), with twists covering
    every loop, some more than once, in random order and sign."""
    k = draw(st.integers(1, 6))
    V = draw(square(k, st.integers(-3, 3)))
    loops = tuple((1, j) for j in range(1, k + 1))
    extra = draw(st.lists(st.sampled_from(loops), max_size=4))
    order = draw(st.permutations(list(loops) + extra))
    twists = tuple((loop, draw(st.sampled_from((1, -1)))) for loop in order)
    return basis_order_matrix(V, loops), twists


@given(homogeneous_connected(max_n=4, max_m=8))
@settings(max_examples=80, deadline=None)
def test_homology_action_is_the_product_of_transvections(w):
    V = seifert_matrix(build_surface(w))
    twists = twist_sequence(w)
    assert V.intersection_form == dense_form(V.entries)
    assert homology_action(twists, V).matrix == transvection_product(twists,
                                                                      V)


@given(seifert_with_twists())
@settings(max_examples=80, deadline=None)
def test_homology_action_on_random_integer_forms(case):
    V, twists = case
    act = homology_action(twists, V)
    assert act.matrix == transvection_product(twists, V)
    assert act.intersection_form == dense_form(V.entries)
    # products of transvections of a skew form preserve it
    assert act.preserves_form()


def dense_preserves(M, J):
    return dense_mul(dense_mul(tuple(zip(*M)), J), M) == J


@given(homogeneous_connected(max_n=4, max_m=8), st.data())
@settings(max_examples=60, deadline=None)
def test_preserves_form_matches_the_dense_product(w, data):
    act = action_of_word(w)
    assert act.preserves_form() and dense_preserves(act.matrix,
                                                    act.intersection_form)
    k = act.dimension
    if not k:
        return
    # one entry changed: the two checks agree whether or not J survives
    r, c = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    delta = data.draw(st.integers(-2, 2).filter(bool))
    M = tuple(tuple(v + delta * (a == r and b == c) for b, v in enumerate(row))
              for a, row in enumerate(act.matrix))
    bent = HomologyAction(M, act.intersection_form)
    assert bent.preserves_form() == dense_preserves(M, act.intersection_form)


@given(st.integers(1, 6).flatmap(
    lambda k: st.tuples(square(k, st.integers(-2, 2)),
                        square(k, sparse_entries))))
@settings(max_examples=100, deadline=None)
def test_preserves_form_on_random_matrices(pair):
    M, J = pair
    assert (HomologyAction(M, J).preserves_form()
            == dense_preserves(M, J))


def test_preserves_form_refuses_what_breaks_the_form():
    J = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    assert HomologyAction(identity(3), J).preserves_form()
    assert not HomologyAction(((1, 1, 0), (0, 1, 0), (0, 0, 2)),
                              J).preserves_form()
    assert not dense_preserves(((1, 1, 0), (0, 1, 0), (0, 0, 2)), J)


@given(st.integers(0, 6).flatmap(
    lambda k: st.tuples(square(k, sparse_entries),
                        square(k, st.integers(-4, 4)))))
@settings(max_examples=100, deadline=None)
def test_sparse_matmul_matches_dense(pair):
    A, B = pair
    assert sparse_matmul(nonzero(A), B) == dense_mul(A, B)


def check_bareiss(A, B):
    d, inverse = fraction_gauss_jordan(A, B)
    assert bareiss([list(a) for a in A]) == d
    rows = [list(a) + list(b) for a, b in zip(A, B)]
    assert bareiss(rows) == d
    if d and B and B[0]:
        k = len(A)
        assert [row[k:] for row in rows] == [[d * v for v in row]
                                             for row in inverse]


@pytest.mark.parametrize("A", [
    # pivots 1, -1, -1: rows with a zero in the pivot column are left alone
    # where the plain update would negate them (p = -prev) and where it would
    # return them unchanged (p = prev)
    ((1, 0, 1), (0, -1, 0), (0, 0, 1)),
    # pivots 2, 6, 30: every later pivot row was left alone and is scaled
    # back before it is used
    ((2, 0, 0), (0, 3, 0), (0, 0, 5)),
    # tridiagonal: only the row below the pivot is updated
    ((2, 1, 0, 0), (1, 2, 1, 0), (0, 1, 2, 1), (0, 0, 1, 2)),
    # a zero on the diagonal: row swaps before the first two pivots
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 1, 1), (1, 1, 0)),
    # unit pivots of alternating sign with fill-in
    ((-1, 1, 0, 0), (0, 1, -1, 0), (1, 0, -1, 1), (0, 0, 1, -1)),
    # a non-unit pivot, and a singular matrix
    ((2, 1), (1, 1)),
    ((1, 2, 0), (2, 4, 0), (0, 1, 1)),
])
def test_bareiss_examples_match_fraction_elimination(A):
    check_bareiss(A, tuple(zip(*A)))
    check_bareiss(A, identity(len(A)))


@given(st.integers(1, 7).flatmap(
    lambda k: st.tuples(square(k, sparse_entries), square(k, sparse_entries))))
@settings(max_examples=150, deadline=None)
def test_bareiss_matches_fraction_elimination(pair):
    check_bareiss(*pair)


@st.composite
def unimodular(draw):
    """P * L * U with L, U sparse unit triangular and P a signed row
    permutation: determinant +-1, unit pivots, zero-column rows, and row
    swaps when P is not the identity."""
    k = draw(st.integers(1, 7))
    offdiag = st.sampled_from((0, 0, 0, 1, -1))
    L = [[int(r == c) * draw(st.sampled_from((1, -1))) if c >= r
          else draw(offdiag) for c in range(k)] for r in range(k)]
    U = [[int(r == c) if c <= r else draw(offdiag) for c in range(k)]
         for r in range(k)]
    perm = draw(st.permutations(range(k)))
    LU = dense_mul(L, U)
    return tuple(tuple(draw(st.sampled_from((1, -1))) * v for v in LU[p])
                 for p in perm)


@given(unimodular())
@settings(max_examples=150, deadline=None)
def test_bareiss_solves_unit_pivot_matrices(A):
    check_bareiss(A, tuple(zip(*A)))


@pytest.mark.parametrize("q", range(2, 13))
@pytest.mark.parametrize("sign", [1, -1])
def test_torus_order_matches_dense_powers(q, sign):
    act = action_of_word(BraidWord(2, (sign,) * q))
    assert matrix_order(act, ORDER_LIMIT) == dense_order(act.matrix)


@given(homogeneous_connected(max_n=4, max_m=6))
@settings(max_examples=20, deadline=None)
def test_order_matches_dense_powers_on_fibred_words(w):
    act = action_of_word(w)
    assert matrix_order(act, ORDER_LIMIT) == dense_order(act.matrix)


@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.permutations(range(k)),
    st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))))
@settings(max_examples=50, deadline=None)
def test_order_of_signed_permutations(case):
    perm, signs = case
    k = len(perm)
    M = tuple(tuple(signs[r] * (c == perm[r]) for c in range(k))
              for r in range(k))
    act = HomologyAction(M, identity(k))
    assert matrix_order(act, ORDER_LIMIT) == dense_order(M)


@given(homogeneous_connected(max_n=5, max_m=10))
@settings(max_examples=80, deadline=None)
def test_seifert_matrix_matches_the_all_pairs_loop(w):
    s = build_surface(w)
    assert seifert_matrix(s).entries == all_pairs_seifert(s)


def basis_order_symmetrized_det(V):
    E = V.entries
    negT = [[-v for v in row] for row in transpose(E)]
    return LaurentPolynomial.from_dict(
        pencil_det(*pencil_entries(((1, E), (-1, negT)))), scale=2)


@given(any_words(max_n=5, max_m=10))
@settings(max_examples=150, deadline=None)
def test_symmetrized_det_in_band_order_is_the_basis_order_det(w):
    # any connected word, mixed signs included
    assume(connected(w.letters, w.strands))
    V = seifert_matrix(build_surface(w))
    assert sorted(V.band_order) == list(range(V.dimension))
    assert V.symmetrized_det == basis_order_symmetrized_det(V)
    plain = basis_order_matrix(V.entries, V.loops)
    assert plain == V
    assert plain.symmetrized_det == V.symmetrized_det


def bandwidth(V, order):
    at = {a: i for i, a in enumerate(order)}
    return max(abs(at[a] - at[b]) for a, row in enumerate(V.entries)
               for b, v in enumerate(row) if v)


@pytest.mark.parametrize("text, r", [("1 -2 ", 12), ("1 -2 3 ", 8),
                                     ("1 -2 3 -4 ", 6)])
def test_band_order_is_banded_and_keeps_the_det(text, r):
    # on these words V has width n - 1 in band order and about k/n in the
    # basis order
    w = parse_word(text * r)
    V = seifert_matrix(build_surface(w))
    assert (bandwidth(V, V.band_order) <= w.strands - 1
            < bandwidth(V, range(V.dimension)))
    assert V.symmetrized_det == basis_order_symmetrized_det(V)


def basis_order_char_poly(act):
    M = act.matrix
    negM = [[-v for v in row] for row in M]
    return LaurentPolynomial.from_dict(
        pencil_det(*pencil_entries(((1, identity(len(M))), (0, negM)))),
        scale=1)


@given(homogeneous_connected(max_n=4, max_m=9))
@settings(max_examples=100, deadline=None)
def test_char_poly_in_reverse_order_is_the_basis_order_pencil(w):
    act = action_of_word(w)
    assert char_poly(act) == basis_order_char_poly(act)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 12, 25, 40])
def test_char_poly_of_torus_words_is_the_basis_order_pencil(q):
    for s in (1, -1):
        act = action_of_word(BraidWord(2, (s,) * q))
        assert char_poly(act) == basis_order_char_poly(act)


def bareiss_inputs(compute):
    """compute()'s value and the rows of each `bareiss` call it made,
    copied before the elimination changes them."""
    seen = []
    real = polynomials.bareiss

    def recording(rows):
        seen.append([list(row) for row in rows])
        return real(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomials, "bareiss", recording)
        value = compute()
    return value, seen


def check_packing(w):
    """symmetrized_det and char_poly hand `bareiss` exactly the integers of
    the dense pencils tV - V^T in band order and tI - M in reverse basis
    order, packed through `pencil_entries`: same B, same elimination order.
    The Seifert value is that of the x-pencil xV - V^T/x, x = t^(1/2)."""
    V = seifert_matrix(build_surface(w))
    E, order = V.entries, V.band_order
    banded = [[E[a][b] for b in order] for a in order]
    neg_t = [[-E[b][a] for b in order] for a in order]
    got, rows = bareiss_inputs(lambda: V.symmetrized_det.as_dict())
    _, dense_rows = bareiss_inputs(
        lambda: pencil_det(*pencil_entries(((1, banded), (0, neg_t)))))
    assert rows == dense_rows and len(rows) == 1
    assert got == pencil_det(*pencil_entries(((1, banded), (-1, neg_t))))
    if not is_homogeneous(w):
        return
    act = action_of_word(w)
    negM = [[-v for v in row[::-1]] for row in act.matrix[::-1]]
    dense = pencil_entries(((1, identity(act.dimension)), (0, negM)))
    got, rows = bareiss_inputs(lambda: char_poly(act).as_dict())
    assert (got, rows) == bareiss_inputs(lambda: pencil_det(*dense))
    assert len(rows) == 1


@given(any_words(max_n=5, max_m=10))
@settings(max_examples=150, deadline=None)
def test_pencils_pack_the_dense_construction(w):
    assume(connected(w.letters, w.strands))
    check_packing(w)


def test_pencils_pack_the_dense_construction_on_torus_words():
    for q in range(1, 41):
        for s in (1, -1):
            check_packing(BraidWord(2, (s,) * q))


@pytest.mark.parametrize("r", range(1, 13))
def test_pencils_pack_the_dense_construction_on_banded_words(r):
    check_packing(parse_word("1 -2 " * r))
