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
(`transpose`, `matmul`, `identity` on integer tuples, and `pencil_det` for
det(sum t^e * A) over integer matrices A) is the only matrix code in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

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
    """
    k = len(rows)
    solve = k and len(rows[0]) > k
    prev = 1
    for c in range(k):
        piv = next((r for r in range(c, k) if rows[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], [-v for v in rows[c]]
        tail = rows[c][c:]
        p = tail[0]
        for r in range(0 if solve else c + 1, k):
            if r != c:
                row = rows[r]
                f = row[c]
                # columns left of c are never read again
                row[c:] = [(p * a - f * b) // prev
                           for a, b in zip(row[c:], tail)]
        prev = p
    return prev


def det(M):
    """Exact determinant of a square matrix of Laurent dicts, by Kronecker
    substitution onto `bareiss`: rows shifted to non-negative exponents,
    entries packed as the sum of c * 2^(B*e), digits read back balanced.
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
    bound = isqrt(squares)
    B = bound.bit_length() + 1
    d = bareiss([[sum(c << B * (e - s) for e, c in ent.items()) for ent in row]
                 for row, s in zip(M, shifts)])
    half, mask = 1 << (B - 1), (1 << B) - 1
    out, e = {}, sum(shifts)
    while d:
        c = ((d + half) & mask) - half
        if c:
            out[e] = c
        d = (d - c) >> B
        e += 1
    return out


def pencil_det(terms):
    """det(sum t^e * A) as a Laurent dict, over (e, A) pairs with distinct e
    and integer k x k matrices A."""
    k = len(terms[0][1])
    return det([[{e: A[r][c] for e, A in terms if A[r][c]} for c in range(k)]
                for r in range(k)])


def transpose(A):
    return tuple(zip(*A))


def matmul(A, B):
    cols = transpose(B)
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in A)


def identity(k):
    return tuple(tuple(int(r == c) for c in range(k)) for r in range(k))


def z_extract(balanced):
    """Rewrite a balanced Laurent dict in x as a polynomial in z = x - 1/x.

    Peels the top degree repeatedly. Raises ArithmeticError if the input is
    not in the image of the substitution (negative degree left over), which
    for our callers signals a sign-convention bug rather than bad data.
    """
    rem = dict(balanced)
    zx = {1: 1, -1: -1}
    out = {}
    while rem:
        d = max(rem)
        if d < 0:
            raise ArithmeticError("leftover terms of negative degree")
        c = rem[d]
        out[d] = c
        pw = dict(ONE)
        for _ in range(d):
            pw = mul(pw, zx)
        rem = sub(rem, smul(pw, c))
    return out


def z_substitute(conway_coeffs):
    """Expand a z-polynomial dict under z = x - 1/x (x-exponent Laurent)."""
    zx = {1: 1, -1: -1}
    out = {}
    for d, c in conway_coeffs.items():
        pw = dict(ONE)
        for _ in range(d):
            pw = mul(pw, zx)
        out = add(out, smul(pw, c))
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


@dataclass(frozen=True)
class ConwayPolynomial:
    """Integer polynomial in z, coefficients sorted by ascending degree.

    The zero polynomial has an empty coefficient tuple and degree None.
    """

    coeffs: tuple = ()

    @classmethod
    def from_dict(cls, d):
        return cls(_sorted_items(d))

    def as_dict(self):
        return dict(self.coeffs)

    @property
    def degree(self):
        return self.coeffs[-1][0] if self.coeffs else None

    @property
    def leading_coefficient(self):
        return self.coeffs[-1][1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in reversed(self.coeffs):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "z" if e == 1 else f"z^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0]
        head = head[2:] if head.startswith("+ ") else "-" + head[2:]
        return " ".join([head] + parts[1:])

    def to_json(self):
        return {"var": "z", "scale": 1,
                "coeffs": {str(e): c for e, c in self.coeffs}}


@dataclass(frozen=True)
class LaurentPolynomial:
    """Integer Laurent polynomial in t with scaled exponents.

    An entry (e, c) means c * t^(e/scale); scale is 2 for Alexander-type
    values (half powers) and 4 for Jones (quarter powers).
    """

    scale: int = 2
    coeffs: tuple = ()

    @classmethod
    def from_dict(cls, d, scale=2):
        return cls(scale, _sorted_items(d))

    def as_dict(self):
        return dict(self.coeffs)

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
                var = "t" if ex == 1 else f"t^({ex})" if ex.denominator > 1 else f"t^{ex}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0]
        head = head[2:] if head.startswith("+ ") else "-" + head[2:]
        return " ".join([head] + parts[1:])

    def to_json(self):
        return {"var": "t", "scale": self.scale,
                "coeffs": {str(e): c for e, c in self.coeffs}}


def polynomial_from_json(obj):
    coeffs = {int(e): int(c) for e, c in obj["coeffs"].items()}
    if obj["var"] == "z":
        return ConwayPolynomial.from_dict(coeffs)
    return LaurentPolynomial.from_dict(coeffs, scale=int(obj["scale"]))


def conway_to_laurent(poly: ConwayPolynomial) -> LaurentPolynomial:
    """Substitute z = t^(1/2) - t^(-1/2); x-exponents are scale-2 exponents."""
    return LaurentPolynomial.from_dict(z_substitute(poly.as_dict()), scale=2)


def equal_up_to_unit(p: LaurentPolynomial, q: LaurentPolynomial) -> bool:
    """p == +- t^(k/scale) * q after putting both on a common scale."""
    s = max(p.scale, q.scale)
    if s % min(p.scale, q.scale):
        s = p.scale * q.scale
    return units_equal(p.rescaled(s).as_dict(), q.rescaled(s).as_dict())
