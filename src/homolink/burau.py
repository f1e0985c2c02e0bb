"""Alexander polynomial from the unreduced Burau representation.

The Alexander route independent of the Seifert surface: every value the
surface route gives, for homogeneous and mixed-sign words alike, is
checked against this one. It also accepts split words, which have no
connected surface. The first n-1 rows of the matrix U are built letter
by letter as updates of two columns, and the value is the determinant of
the minor of I - U on those rows and columns, with no strand-sum
reduction and no polynomial division. For knots the output pins the
Conway normalization exactly; for links the overall sign is not
observable from the determinant, so values are symmetric up to that sign.

It runs in one pass on integers at t = 2^B, exact at any B since
evaluation is a ring map; each row holds t^k U, k the number of inverse
letters, so 1/t is an exact right shift. B need only let `unpack` read
back the minor, a unit times the Alexander polynomial. A connected word
closes on the braided surface of `seifert`, of first Betti number
g = m - n + 1, whose Seifert matrix V has entries in {-1, 0, 1}, one of
V[a][b], V[b][a] zero and at most 6 links per loop: by Hadamard on
tV - V^T (row l1 norms squared at most 2^2 + 6) no coefficient exceeds
isqrt(10^g). B rests on that theorem, not on a value `seifert` computes,
so the two routes share no code and neither can hide a fault of the other.
"""

from __future__ import annotations

from math import gcd, isqrt

from .polynomials import LaurentPolynomial, alexander_sign, bareiss, unpack
from .words import BraidWord


def _packed_rows(w: BraidWord, B):
    """(rows, k): the first n-1 rows of t^k U at t = 2^B, each updated
    on its own: (a, b) -> ((1-t)a + b, t*a) in columns i, i+1 for sigma_i,
    (a, b) -> (b/t, a + (1 - 1/t)b) for its inverse."""
    n, letters = w.strands, w.letters
    k = sum(x < 0 for x in letters)
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
    return rows, k


def alexander_via_burau(w: BraidWord) -> LaurentPolynomial:
    """Symmetric-normalized Alexander polynomial of the closure.

    det of I - U over its first n-1 rows and columns, then centered
    (exponents at scale 2) and sign-normalized the same way as
    alexander_from_seifert. No division is needed: I - U kills the
    all-ones column, and (1, t, ..., t^(n-1)) kills it from the left, so
    its adjugate has rank at most 1 and that minor is the Alexander
    polynomial times a unit. So is the power of t that a row's entries
    share, the power of 2^B in their gcd, which is shifted out.
    """
    B = isqrt(10 ** max(len(w.letters) - w.strands + 1, 0)).bit_length() + 1
    rows, k = _packed_rows(w, B)
    for r, row in enumerate(rows):
        row.pop()
        row[r] -= 1 << B * k  # U - I, whose minor is I - U's up to sign
        g = gcd(*row) or 1  # a zero row, whose minor is 0, is not shifted
        s = ((g & -g).bit_length() - 1) // B * B
        rows[r] = [v >> s for v in row]
    d = unpack(bareiss(rows), B, 0)
    mid = min(d, default=0) + max(d, default=0)
    centered = {2 * e - mid: c for e, c in d.items()}
    return LaurentPolynomial.from_dict(alexander_sign(centered), scale=2)
