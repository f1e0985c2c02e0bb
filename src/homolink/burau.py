"""Alexander polynomial from the unreduced Burau representation.

A third, fully independent engine. Unlike the skein and surface routes it
accepts arbitrary words (mixed signs welcome), which makes it the verifier
of choice for reference links given by non-homogeneous braids. For knots
the output pins the Conway normalization exactly; for links the overall
sign is not observable from the determinant, so values are symmetric up to
that sign.
"""

from __future__ import annotations

from .polynomials import (LaurentPolynomial, ONE, add, alexander_sign, det,
                          eshift, mul, smul, sub, z_extract)
from .words import BraidWord


def _gen_matrix(n, x):
    """Unreduced Burau image of one letter, entries {t-exponent: coeff}."""
    G = [[dict(ONE) if r == c else {} for c in range(n)] for r in range(n)]
    i = abs(x) - 1
    if x > 0:
        G[i][i] = {0: 1, 1: -1}
        G[i][i + 1] = {1: 1}
        G[i + 1][i] = {0: 1}
        G[i + 1][i + 1] = {}
    else:
        G[i][i] = {}
        G[i][i + 1] = {0: 1}
        G[i + 1][i] = {-1: 1}
        G[i + 1][i + 1] = {0: 1, -1: -1}
    return G


def _mat_mul(A, B):
    n = len(A)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for k in range(n):
            a = A[r][k]
            if not a:
                continue
            for c in range(n):
                b = B[k][c]
                if b:
                    out[r][c] = add(out[r][c], mul(a, b))
    return out


def unreduced_burau(w: BraidWord):
    n = w.strands
    U = [[dict(ONE) if r == c else {} for c in range(n)] for r in range(n)]
    for x in w.letters:
        U = _mat_mul(U, _gen_matrix(n, x))
    return U


def _div_exact(num, den):
    """Exact Laurent division; ArithmeticError if it does not come out even."""
    if not num:
        return {}
    sn, sd = min(num), min(den)
    num = eshift(num, -sn)
    den = eshift(den, -sd)
    dd = max(den)
    dc = den[dd]
    out = {}
    cur = dict(num)
    while cur:
        e = max(cur)
        if e < dd or cur[e] % dc:
            raise ArithmeticError("inexact polynomial division")
        k = cur[e] // dc
        out[e - dd] = k
        cur = sub(cur, smul(eshift(den, e - dd), k))
    return eshift(out, sn - sd)


def alexander_via_burau(w: BraidWord) -> LaurentPolynomial:
    """Symmetric-normalized Alexander polynomial of the closure.

    det(B - I) over the first n-1 rows and columns of the strand-sum
    reduction of the Burau matrix, divided by 1 + t + ... + t^(n-1), then
    centered (exponents at scale 2) and sign-normalized the same way as
    alexander_from_seifert.
    """
    n = w.strands
    U = unreduced_burau(w)
    B = [[sub(U[i][j], U[n - 1][j]) for j in range(n - 1)]
         for i in range(n - 1)]
    for i in range(n - 1):
        B[i][i] = sub(B[i][i], ONE)
    d = det(B)
    d = _div_exact(d, {e: 1 for e in range(n)}) if n > 1 else d
    if not d:
        return LaurentPolynomial.from_dict({}, scale=2)
    lo2, hi2 = 2 * min(d), 2 * max(d)
    centered = {2 * e - (lo2 + hi2) // 2: c for e, c in d.items()}
    return LaurentPolynomial.from_dict(alexander_sign(centered), scale=2)


def conway_via_burau(w: BraidWord):
    """Conway coefficients recovered from the Burau Alexander value.

    Exact for knots; for links the overall sign is the symmetric-form
    convention, not necessarily the skein sign.
    """
    from .polynomials import ConwayPolynomial
    alex = alexander_via_burau(w)
    return ConwayPolynomial.from_dict(z_extract(alex.as_dict()))
