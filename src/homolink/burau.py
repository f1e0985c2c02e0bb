"""Alexander polynomial from the unreduced Burau representation.

The Alexander route independent of the Seifert surface: every value the
surface route gives, for homogeneous and mixed-sign words alike, is
checked against this one. It also accepts split words, which have no
connected surface. The first n-1 rows of the matrix U are built letter
by letter as updates of two columns, and the value is the determinant of
the minor of I - U on those rows and columns, with no strand-sum
reduction and no
polynomial division. For knots the output pins the Conway normalization
exactly; for links the overall sign is not observable from the
determinant, so values are symmetric up to that sign.

The product runs on integers: each row holds t^k U at t = 2^B, with k the
number of inverse letters. Evaluation is a ring map, so t is a left shift
by B bits, and the factor t^k keeps every entry a polynomial: before the
j-th inverse letter each entry is a multiple of t^(k-j+1), so its 1/t is
an exact right shift. B need only let `unpack` read the digits back. The
l1 norms L of a row's entries obey (L_i, L_i+1) -> (2L_i + L_i+1, L_i)
for sigma_i and (L_i+1, L_i + 2L_i+1) for its inverse, which bounds every
coefficient of U, and one unit more bounds those of I - U.
"""

from __future__ import annotations

from .polynomials import LaurentPolynomial, alexander_sign, det, unpack
from .words import BraidWord


def _packed_rows(w: BraidWord):
    """(rows, B, k): the first n-1 rows of t^k U at t = 2^B, the rows the
    minor reads; each row evolves on its own under right multiplication,
    (a, b) -> ((1-t)a + b, t*a) in columns i and i+1 for sigma_i and
    (a, b) -> (b/t, a + (1 - 1/t)b) for its inverse."""
    n, letters = w.strands, w.letters
    k = sum(x < 0 for x in letters)
    bounds = [[int(r == c) for c in range(n)] for r in range(n - 1)]
    for x in letters:
        i = abs(x) - 1
        for L in bounds:
            a, b = L[i], L[i + 1]
            L[i], L[i + 1] = (2 * a + b, a) if x > 0 else (b, a + 2 * b)
    B = (max(map(max, bounds), default=0) + 1).bit_length() + 1
    rows = [[(r == c) << B * k for c in range(n)] for r in range(n - 1)]
    for x in letters:
        i = abs(x) - 1
        for row in rows:
            a, b = row[i], row[i + 1]
            if x > 0:
                ta = a << B
                row[i], row[i + 1] = a - ta + b, ta
            else:
                b_t = b >> B
                row[i], row[i + 1] = b_t, a + b - b_t
    return rows, B, k


def alexander_via_burau(w: BraidWord) -> LaurentPolynomial:
    """Symmetric-normalized Alexander polynomial of the closure.

    det of I - U over its first n-1 rows and columns, then centered
    (exponents at scale 2) and sign-normalized the same way as
    alexander_from_seifert. No division is needed: I - U kills the
    all-ones column, and (1, t, ..., t^(n-1)) kills it from the left, so
    its adjugate has rank at most 1 and that minor is the Alexander
    polynomial times a unit +-t^k.
    """
    rows, B, k = _packed_rows(w)
    tk = 1 << B * k
    d = det([[unpack((tk if i == j else 0) - v, B, -k)
              for j, v in enumerate(row[:-1])] for i, row in enumerate(rows)])
    if not d:
        return LaurentPolynomial.from_dict({}, scale=2)
    lo2, hi2 = 2 * min(d), 2 * max(d)
    centered = {2 * e - (lo2 + hi2) // 2: c for e, c in d.items()}
    return LaurentPolynomial.from_dict(alexander_sign(centered), scale=2)
