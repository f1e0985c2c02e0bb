"""Test-only views and second routes over the package's kernels.

Nothing in the program reads these, so they live beside the tests and not
beside the kernels they check: an oracle kept in the package could be
changed along with the code it is meant to hold still.
"""

from homolink.burau import _packed_rows
from homolink.polynomials import LaurentPolynomial, mul, unpack
from homolink.skein import _reduce
from homolink.words import BraidWord


def burau_rows(w: BraidWord):
    """The first n-1 rows of the unreduced Burau matrix U that
    `alexander_via_burau` builds, entries {t-exponent: coeff}. They fix
    the last row, since (1, t, ..., t^(n-1)) U = (1, t, ..., t^(n-1))."""
    rows, B, k = _packed_rows(w)
    return [[unpack(v, B, -k) for v in row] for row in rows]


def z_substitute(conway_coeffs):
    """Expand a z-polynomial dict under z = x - 1/x (x-exponent Laurent),
    each power of x - 1/x multiplied out one factor at a time."""
    out, power = {}, {0: 1}
    for d in range(max(conway_coeffs, default=-1) + 1):
        for e, b in power.items():
            out[e] = out.get(e, 0) + conway_coeffs.get(d, 0) * b
        power = mul(power, {1: 1, -1: -1})
    return {e: c for e, c in out.items() if c}


def conway_to_laurent(poly):
    """Substitute z = t^(1/2) - t^(-1/2); x-exponents are scale-2 exponents."""
    return LaurentPolynomial.from_dict(z_substitute(poly.as_dict()), scale=2)


def reduction_step(w: BraidWord) -> tuple:
    """(kind, children): the relation `conway_skein` applies first to w,
    its children as BraidWords."""
    kind, terms = _reduce(w.letters, w.strands)
    return kind, tuple(BraidWord(n, letters) for _, (letters, n) in terms)
