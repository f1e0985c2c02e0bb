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
integer elimination, `bareiss`. The small matrix layer next to it
(`transpose`, `matmul`, `identity` on integer tuples, `nonzero` and
`sparse_matmul` for products with a sparse left factor, and `pencil_det` for
det(sum t^e * A) over integer matrices A) is the only matrix code in the
package. `unpack` is the one digit reader of polynomials packed at t = 2^B.
"""

from __future__ import annotations

import operator
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


def smul(a, k):
    return {e: c * k for e, c in a.items()} if k else {}


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


def det(M):
    """Exact determinant of a square matrix of Laurent dicts, by Kronecker
    substitution onto `bareiss`: rows shifted to non-negative exponents,
    entries packed as the sum of c * 2^(B*e), digits read back by `unpack`.
    A coefficient is a Fourier coefficient of det M(e^(i*t)), so at most
    max_t |det M(e^(i*t))|. Hadamard's inequality bounds that by the product
    of the rows' Euclidean norms, and |M_rc(e^(i*t))| <= l1(M_rc), the sum
    of the entry's absolute coefficients. Being an integer, a coefficient is
    then at most isqrt(prod_r sum_c l1(M_rc)^2); 2^(B-1) exceeds that, so
    the digits are exactly the coefficients.
    """
    shifts = [min((e for ent in row for e in ent), default=0) for row in M]
    squares = 1
    for row in M:
        squares *= sum(sum(map(abs, ent.values())) ** 2 for ent in row if ent)
    B = isqrt(squares).bit_length() + 1
    d = bareiss([[sum(c << B * (e - s) for e, c in ent.items()) for ent in row]
                 for row, s in zip(M, shifts)])
    return unpack(d, B, sum(shifts))


def pencil_det(terms):
    """det(sum t^e * A) as a Laurent dict, over (e, A) pairs with distinct e
    and integer k x k matrices A. Entries are packed at t = 2^B straight
    from the integers, under `det`'s bound: the l1 norm of entry (r, c) is
    the sum over the terms of |A[r][c]|. One pass over the terms collects
    their nonzero entries and those norms; the packing reads only the
    nonzero entries."""
    k = len(terms[0][1])
    lo = min(e for e, _ in terms)
    l1 = [[0] * k for _ in range(k)]
    entries = []
    for e, A in terms:
        e -= lo
        for r, (row, bound) in enumerate(zip(A, l1)):
            for c, v in enumerate(row):
                if v:
                    bound[c] += abs(v)
                    entries.append((r, c, v, e))
    squares = 1
    for row in l1:
        squares *= sum(x * x for x in row)
    B = isqrt(squares).bit_length() + 1
    rows = [[0] * k for _ in range(k)]
    for r, c, v, e in entries:
        rows[r][c] += v << B * e
    return unpack(bareiss(rows), B, k * lo)


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

    Peels the top degree repeatedly. Raises ArithmeticError if the input is
    not in the image of the substitution (negative degree left over), which
    for our callers signals a sign-convention bug rather than bad data.
    """
    rem = dict(balanced)
    out = {}
    while rem:
        d = max(rem)
        if d < 0:
            raise ArithmeticError("leftover terms of negative degree")
        c = rem[d]
        out[d] = c
        rem = sub(rem, smul(_zx_power(d), c))
    return out


def z_substitute(conway_coeffs):
    """Expand a z-polynomial dict under z = x - 1/x (x-exponent Laurent)."""
    out = {}
    for d, c in conway_coeffs.items():
        out = add(out, smul(_zx_power(d), c))
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
    JSON integers, so a float, string or boolean is refused, not truncated."""
    raw = obj["coeffs"]
    if type(raw) is not dict or any(type(c) is not int for c in raw.values()):
        raise ValueError(f"coefficients must be an object of integers, "
                         f"got {raw!r}")
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
