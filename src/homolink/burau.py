"""Alexander polynomial from the unreduced Burau representation.

The Alexander route independent of the Seifert surface: every value the
surface route gives, for homogeneous and mixed-sign words alike, is
checked against this one. It also accepts split words, which have no
connected surface. The matrix U is built letter by letter as updates of
two columns, and the value is the determinant of the minor of I - U on
its first n-1 rows and columns, with no strand-sum reduction and no
polynomial division. For knots the output pins the Conway normalization
exactly; for links the overall sign is not observable from the
determinant, so values are symmetric up to that sign.
"""

from __future__ import annotations

from .polynomials import (LaurentPolynomial, ONE, add, alexander_sign, det,
                          eshift, neg, sub)
from .words import BraidWord


def unreduced_burau(w: BraidWord):
    """Unreduced Burau matrix of the word, entries {t-exponent: coeff}.

    Right-multiplying by the image of a letter changes only columns i and
    i+1 of each row, (a, b) -> ((1-t)a + b, t*a) for sigma_i and
    (a, b) -> (b/t, a + (1 - 1/t)b) for its inverse.
    """
    n = w.strands
    U = [[dict(ONE) if r == c else {} for c in range(n)] for r in range(n)]
    for x in w.letters:
        i = abs(x) - 1
        for row in U:
            a, b = row[i], row[i + 1]
            if x > 0:
                ta = eshift(a, 1)
                row[i], row[i + 1] = add(sub(a, ta), b), ta
            else:
                b_t = eshift(b, -1)
                row[i], row[i + 1] = b_t, add(a, sub(b, b_t))
    return U


def alexander_via_burau(w: BraidWord) -> LaurentPolynomial:
    """Symmetric-normalized Alexander polynomial of the closure.

    det of I - U over its first n-1 rows and columns, then centered
    (exponents at scale 2) and sign-normalized the same way as
    alexander_from_seifert. No division is needed: I - U kills the
    all-ones column, and (1, t, ..., t^(n-1)) kills it from the left, so
    its adjugate has rank at most 1 and that minor is the Alexander
    polynomial times a unit +-t^k.
    """
    n = w.strands
    U = unreduced_burau(w)
    d = det([[sub(ONE, U[i][j]) if i == j else neg(U[i][j])
              for j in range(n - 1)] for i in range(n - 1)])
    if not d:
        return LaurentPolynomial.from_dict({}, scale=2)
    lo2, hi2 = 2 * min(d), 2 * max(d)
    centered = {2 * e - (lo2 + hi2) // 2: c for e, c in d.items()}
    return LaurentPolynomial.from_dict(alexander_sign(centered), scale=2)
