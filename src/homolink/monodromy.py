"""Homological monodromy of fibred homogeneous closures.

The fiber surface of a homogeneous connected word carries a monodromy that
factors as one Dehn twist per basis loop, columns composed left to right,
negative columns contributing inverse twists. This module keeps only the
homological shadow: the twist word itself and the induced matrix on first
homology, plus the independent Seifert-form route V^(-1) V^T.

The intersection form J = V - V^T is sparse. The basis loop (i, j) runs
through bands j and j+1 of column i, and its span is the stretch of the
word between them. It links only the loops (i, j-1) and (i, j+1), which
share a band with it, and the loops of columns i-1 and i+1 whose bands
interleave with its own. The loops of one column have disjoint spans, so
in each neighbouring column only the loop whose span holds its first band
and the loop whose span holds its second can interleave with it. A row of
J therefore has at most 6 nonzero entries at any word length, and the
twist route and the form check read only those.

Conventions (transvection sign, which of V^(-1)V^T vs its inverse) were
calibrated once on the trefoil so that the twist route, the matrix route
and the Alexander polynomial all agree, and are frozen here. Reversing the
composition order would conjugate the action; the cross-route equality
test pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .polynomials import (LaurentPolynomial, bareiss, identity, matmul,
                          nonzero, pencil_det, sparse_matmul, transpose)
from .seifert import SeifertMatrix, build_surface, seifert_matrix
from .words import (BraidWord, generator_signs, letter_counts,
                    require_connected, require_homogeneous)

_EPS = 1  # transvection sign for a positive twist, calibrated
ORDER_CAP = 512  # matrix_order gives up past this power


@dataclass(frozen=True)
class HomologyAction:
    """Integer matrix of the monodromy on H1 of the fiber, with its form."""

    matrix: tuple
    intersection_form: tuple

    @property
    def dimension(self):
        return len(self.matrix)

    def preserves_form(self) -> bool:
        """M^T J M == J, with J M formed through J's nonzero entries."""
        M, J = self.matrix, self.intersection_form
        return matmul(transpose(M), sparse_matmul(nonzero(J), M)) == J


def twist_sequence(w: BraidWord) -> tuple:
    """Ordered Dehn twists ((i, j), sign), first-applied first.

    Per column i: loops (i,1)..(i,q_i - 1), sign alpha(i). A negative
    column is the inverse of the positive product, so its twists come out
    reversed and negated. Total length is m - n + 1 for any connected word.
    As mapping classes the product reads right to left, so the matrix of
    the sequence is T(last) * ... * T(first).
    """
    require_homogeneous(w, "twist_sequence")
    require_connected(w, "twist_sequence")
    q = letter_counts(w.letters, w.strands)
    sgn = generator_signs(w.letters, w.strands)
    out = []
    for i in range(1, w.strands):
        col = [((i, j), sgn[i]) for j in range(1, q[i])]
        if sgn[i] < 0:
            col.reverse()
        out.extend(col)
    return tuple(out)


def homology_action(twists, V: SeifertMatrix) -> HomologyAction:
    """Compose the transvections x -> x + sign * <x, loop> * loop in the
    basis V.loops, paired by V's intersection form; the twisted loops must
    be exactly V.loops."""
    index = {loop: a for a, loop in enumerate(V.loops)}
    if {loop for loop, _ in twists} != index.keys():
        raise ValueError("twisted loops do not match the Seifert basis "
                         f"{V.loops}")
    J = V.intersection_form
    # left-multiplying by T^s = I + E, E[idx][l] = eps*s*J[l][idx], changes
    # only row idx, by the rows l where column idx of J is nonzero; l != idx
    # because J is skew
    cols = nonzero(transpose(J))
    M = [list(row) for row in identity(len(J))]
    for loop, s in twists:
        idx = index[loop]
        row = M[idx]
        for l, v in cols[idx]:
            f = _EPS * s * v
            row = [a + f * b for a, b in zip(row, M[l])]
        M[idx] = row
    return HomologyAction(tuple(tuple(rw) for rw in M), J)


def monodromy_from_seifert(V: SeifertMatrix) -> HomologyAction:
    """The matrix V^(-1) V^T; V is unimodular for fibred data.

    Fraction-free Gauss-Jordan (`bareiss`) on the integer block [V | V^T]
    leaves d * V^(-1) V^T in the right block, d = det V, so the answer is
    that block divided by d.
    """
    k = V.dimension
    E = V.entries
    rows = [list(E[r]) + list(col) for r, col in enumerate(transpose(E))]
    d = bareiss(rows)
    if not d:
        raise RuntimeError(
            "Seifert matrix is singular; fibred data must be unimodular")
    if any(v % d for row in rows for v in row[k:]):
        raise RuntimeError(
            "Seifert matrix is not unimodular; fibred data cannot "
            "produce fractional monodromy entries")
    M = tuple(tuple(v // d for v in row[k:]) for row in rows)
    return HomologyAction(M, V.intersection_form)


def action_of_word(w: BraidWord) -> HomologyAction:
    """Twist-route action of a homogeneous connected word, one call."""
    V = seifert_matrix(build_surface(w))
    return homology_action(twist_sequence(w), V)


def char_poly(action: HomologyAction) -> LaurentPolynomial:
    """det(tI - M), integer t-exponents (scale 1).

    The pencil is eliminated in reverse basis order, a simultaneous
    permutation of rows and columns that leaves the determinant unchanged.
    The twist matrix of sigma_1^q has about two nonzeros per row, but its
    first column is full, so eliminating that column first fills every
    row; taken last, it meets rows already reduced.
    """
    k = action.dimension
    entries = [(r, r, 1, 1) for r in range(k)]
    for r, row in enumerate(action.matrix, 1):
        for c, v in enumerate(row, 1):
            if v:
                entries.append((k - r, k - c, -v, 0))
    return LaurentPolynomial.from_dict(pencil_det(k, entries, 0), scale=1)


def matrix_order(action: HomologyAction):
    """Least positive power equal to the identity, or None to ORDER_CAP.

    Each step is P <- M * P through the nonzero entries of M's rows; M
    commutes with its powers, so these are the powers M^order."""
    ident = identity(action.dimension)
    S = nonzero(action.matrix)
    P = ident
    for order in range(1, ORDER_CAP + 1):
        P = sparse_matmul(S, P)
        if P == ident:
            return order
    return None


def monodromy_order_bound(w: BraidWord) -> int:
    """lcm(2, q) for the (2, +-q) torus word sigma_1^(+-q), q >= 2."""
    letters = w.letters
    if w.strands != 2 or len(letters) < 2 or len(set(letters)) != 1:
        raise ValueError(
            f"order bound is stated for sigma_1^q words only, got {w}")
    return lcm(2, len(letters))
