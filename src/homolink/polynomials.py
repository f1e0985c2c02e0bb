"""Exact integer polynomial arithmetic for link invariants.

Three flavours share one raw representation, a dict {exponent: coefficient}
with int keys and no stored zeros:

  * Conway polynomials in z: non-negative exponents, scale 1;
  * Alexander-side Laurent polynomials in t: exponents scaled by 2 so that
    half-integer powers of t stay integral;
  * Jones polynomials in t: exponents scaled by 4 (quarter powers).

All hot loops work on the raw dicts. The wrapper classes below fix the scale
and keep a sorted coefficient tuple, so values are hashable, comparable and
printable. Determinants are exact (no floats anywhere) and all run on one
integer elimination, `bareiss`, which `pencil_det` reaches from a polynomial
matrix's (row, col, coefficient, exponent) entries. The only other matrix
code is here: `transpose`, `matmul`, `identity` on integer tuples, `nonzero`
and `sparse_matmul` for products with a sparse left factor. `unpack` is the
one digit reader of polynomials packed at t = 2^B.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, lcm

ONE = {0: 1}


def add(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def neg(a):
    return {e: -c for e, c in a.items()}


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def eshift(a, k):
    return {e + k: c for e, c in a.items()}


def bareiss(rows):
    """Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968), in place,
    on k integer rows over their first k columns; returns the determinant of
    that block, 0 if singular. A row swap negates the row moved down, so the
    determinant is unchanged. For rows [A | B] the columns past k end as
    det * A^(-1) B; without them, rows above the pivot are left alone, which
    keeps the zeros of banded matrices.

    A row whose entry in the pivot column is 0 is left alone too, where the
    plain update (p * a - 0 * b) // prev would only scale it by p / prev.
    Each row r keeps div[r], the pivot of the last step that updated it or
    pivoted on it, so the plain row is the stored one times prev / div[r].
    Its next update divides by div[r] in place of prev, which gives the
    plain result exactly; a pivot row, and when solving every row at the
    end, is scaled by prev / div[r] first. On a banded matrix only the rows
    of the band are updated, and on the unit pivots of a fibred Seifert
    matrix most of the solve is skipped.
    """
    k = len(rows)
    solve = k and len(rows[0]) > k
    div = [1] * k
    prev = 1
    for c in range(k):
        piv = next((r for r in range(c, k) if rows[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], [-v for v in rows[c]]
            div[c], div[piv] = div[piv], div[c]
        if div[c] != prev:
            rows[c][c:] = [v * prev // div[c] for v in rows[c][c:]]
        tail = rows[c][c:]
        p = div[c] = tail[0]
        for r in range(0 if solve else c + 1, k):
            row = rows[r]
            f = row[c]
            if f and r != c:
                # columns left of c are never read again
                row[c:] = [(p * a - f * b) // div[r]
                           for a, b in zip(row[c:], tail)]
                div[r] = p
        prev = p
    if solve:
        for row, d in zip(rows, div):
            if d != prev:
                row[k:] = [v * prev // d for v in row[k:]]
    return prev


def unpack(d, B, e):
    """The Laurent dict whose coefficients are the balanced base-2^B digits
    of the integer d, the lowest at exponent e: the inverse of evaluating a
    polynomial at t = 2^B, exact when every coefficient has absolute value
    below 2^(B-1). The package's one digit reader."""
    half, mask = 1 << (B - 1), (1 << B) - 1
    out = {}
    if d:  # the zero digits below the lowest term go in one shift
        z = ((d & -d).bit_length() - 1) // B
        d, e = d >> B * z, e + z
    while d:
        c = ((d + half) & mask) - half
        if c:
            out[e] = c
        d = (d - c) >> B
        e += 1
    return out


def pencil_det(k, entries, lo):
    """det of the k x k matrix whose entry (r, c) is the sum of v * t^e over
    the entries (r, c, v, e), all e >= 0, as a Laurent dict whose exponents
    start at lo, by Kronecker substitution onto `bareiss`: entries packed as
    the sum of v * 2^(B*e), digits read back by `unpack`.

    A coefficient is a Fourier coefficient of the det at t = e^(i*x), so at
    most its largest absolute value. Hadamard's inequality bounds that by
    the product of the rows' Euclidean norms, and entry (r, c) is at most
    l1[r][c], the sum of its absolute coefficients. Being an integer, a
    coefficient is then at most isqrt(prod_r sum_c l1[r][c]^2); 2^(B-1)
    exceeds that, so the digits are exactly the coefficients.
    """
    l1 = [[0] * k for _ in range(k)]
    for r, c, v, _ in entries:
        l1[r][c] += abs(v)
    squares = 1
    for row in l1:
        squares *= sum(x * x for x in row)
    B = isqrt(squares).bit_length() + 1
    rows = [[0] * k for _ in range(k)]
    for r, c, v, e in entries:
        rows[r][c] += v << B * e
    return unpack(bareiss(rows), B, lo)


def det(M):
    """Exact determinant of a square matrix of Laurent dicts by
    `pencil_det`, each row shifted to non-negative exponents."""
    shifts = [min((e for ent in row for e in ent), default=0) for row in M]
    return pencil_det(len(M), [(r, c, v, e - s)
                               for r, (row, s) in enumerate(zip(M, shifts))
                               for c, ent in enumerate(row)
                               for e, v in ent.items()], sum(shifts))


def transpose(A):
    return tuple(zip(*A))


def matmul(A, B):
    cols = transpose(B)
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols)
                 for row in A)


def nonzero(A):
    """Each row of A as its (column, value) pairs with value != 0."""
    return [[(c, v) for c, v in enumerate(row) if v] for row in A]


def sparse_matmul(S, B):
    """A * B for A given as nonzero(A): row r is the sum of v * B[l] over
    the pairs (l, v) of S[r], so the cost is the number of A's nonzero
    entries times the width of B."""
    k = len(B[0]) if B else 0
    out = []
    for pairs in S:
        acc = [0] * k
        for l, v in pairs:
            acc = [a + v * b for a, b in zip(acc, B[l])]
        out.append(tuple(acc))
    return tuple(out)


def identity(k):
    return tuple((0,) * r + (1,) + (0,) * (k - r - 1) for r in range(k))


def _zx_power(d):
    """(x - 1/x)^d as a Laurent dict in x, by the binomial theorem."""
    return {d - 2 * k: (-1) ** k * comb(d, k) for k in range(d + 1)}


def z_extract(balanced):
    """Rewrite a balanced Laurent dict in x as a polynomial in z = x - 1/x.

    Peels c * (x - 1/x)^d off a coefficient list in one pass from the top
    degree d down. Raises ArithmeticError if the input is not in the image
    of the substitution (negative degree left over), which for our callers
    signals a sign-convention bug rather than bad data.
    """
    hi = max(balanced, default=0)
    lo = min(min(balanced, default=0), -hi)
    rem = [balanced.get(e, 0) for e in range(lo, hi + 1)]
    out = {}
    for d in range(hi, -1, -1):
        if c := rem[d - lo]:
            out[d] = c
            for e, b in _zx_power(d).items():
                rem[e - lo] -= c * b
    if any(rem):
        raise ArithmeticError("leftover terms of negative degree")
    return out


def z_substitute(conway_coeffs):
    """Expand a z-polynomial dict under z = x - 1/x (x-exponent Laurent)."""
    out = {}
    for d, c in conway_coeffs.items():
        out = add(out, {e: c * b for e, b in _zx_power(d).items()})
    return out


def units_equal(p, q):
    """True iff p == +- t^k * q for some exponent shift k (same scale)."""
    if not p or not q:
        return p == q
    if len(p) != len(q):
        return False
    sh = max(p) - max(q)
    shifted = eshift(q, sh)
    return p == shifted or p == neg(shifted)


def alexander_sign(d):
    """d or -d, whichever is positive at t = 1; when that value is 0 (links),
    whichever has a positive leading coefficient."""
    total = sum(d.values())
    if total < 0 or (total == 0 and d and d[max(d)] < 0):
        return neg(d)
    return d


def _sorted_items(coeffs):
    return tuple(sorted((int(e), int(c)) for e, c in coeffs.items() if c))


class _Polynomial:
    """Printing and serialization shared by the two value classes: c at
    exponent e stands for c * var^(e/scale)."""

    def as_dict(self):
        return dict(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs, reverse=True):
            mag = abs(c)
            ex = Fraction(e, self.scale)
            if ex == 0:
                body = str(mag)
            else:
                var = (self.var if ex == 1 else f"{self.var}^({ex})"
                       if ex.denominator > 1 else f"{self.var}^{ex}")
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0]
        head = head[2:] if head.startswith("+ ") else "-" + head[2:]
        return " ".join([head] + parts[1:])

    def to_json(self):
        return {"var": self.var, "scale": self.scale,
                "coeffs": {str(e): c for e, c in self.coeffs}}


@dataclass(frozen=True)
class ConwayPolynomial(_Polynomial):
    """Integer polynomial in z, coefficients sorted by ascending degree.

    The zero polynomial has an empty coefficient tuple and degree None.
    """

    coeffs: tuple = ()
    var = "z"
    scale = 1

    @classmethod
    def from_dict(cls, d):
        return cls(_sorted_items(d))

    @property
    def degree(self):
        return self.coeffs[-1][0] if self.coeffs else None

    @property
    def leading_coefficient(self):
        return self.coeffs[-1][1] if self.coeffs else 0


@dataclass(frozen=True)
class LaurentPolynomial(_Polynomial):
    """Integer Laurent polynomial in t with scaled exponents.

    An entry (e, c) means c * t^(e/scale); scale is 2 for Alexander-type
    values (half powers) and 4 for Jones (quarter powers).
    """

    scale: int = 2
    coeffs: tuple = ()
    var = "t"

    @classmethod
    def from_dict(cls, d, scale=2):
        return cls(scale, _sorted_items(d))

    def mirror(self):
        """t -> 1/t."""
        return LaurentPolynomial(self.scale,
                                 _sorted_items({-e: c for e, c in self.coeffs}))

    def rescaled(self, scale):
        if scale == self.scale:
            return self
        if scale % self.scale:
            raise ValueError(f"cannot rescale {self.scale} -> {scale}")
        f = scale // self.scale
        return LaurentPolynomial(scale, tuple((e * f, c) for e, c in self.coeffs))


def polynomial_from_json(obj):
    """Inverse of to_json; coefficients and a t-polynomial's scale must be
    JSON integers, so a float, string or boolean is refused, not truncated.
    An exponent key must be written as to_json writes it, str(e) for an
    int e, so "02", "+2" or "1_0" is refused and no two keys name one
    exponent."""
    raw = obj["coeffs"]
    if type(raw) is not dict or any(type(c) is not int for c in raw.values()):
        raise ValueError(f"coefficients must be an object of integers, "
                         f"got {raw!r}")
    loose = [e for e in raw if not re.fullmatch("0|-?[1-9][0-9]*", e)]
    if loose:
        raise ValueError(f"exponent keys must be plain decimal integers, "
                         f"got {loose[0]!r}")
    coeffs = {int(e): c for e, c in raw.items()}
    if obj["var"] == "z":
        return ConwayPolynomial.from_dict(coeffs)
    if obj["var"] != "t":
        raise ValueError(f"unknown polynomial variable {obj['var']!r}")
    scale = obj["scale"]
    if type(scale) is not int or scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale!r}")
    return LaurentPolynomial.from_dict(coeffs, scale=scale)


def conway_to_laurent(poly: ConwayPolynomial) -> LaurentPolynomial:
    """Substitute z = t^(1/2) - t^(-1/2); x-exponents are scale-2 exponents."""
    return LaurentPolynomial.from_dict(z_substitute(poly.as_dict()), scale=2)


def equal_up_to_unit(p: LaurentPolynomial, q: LaurentPolynomial) -> bool:
    """p == +- t^(k/scale) * q after putting both on a common scale."""
    s = lcm(p.scale, q.scale)
    return units_equal(p.rescaled(s).as_dict(), q.rescaled(s).as_dict())
