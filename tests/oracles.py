"""Test-only views and second routes over the package's kernels.

Nothing in the program reads these, so they live beside the tests and not
beside the kernels they check: an oracle kept in the package could be
changed along with the code it is meant to hold still.
"""

from homolink.burau import _packed_rows
from homolink.jones import _CIRCLE, _closure_loops, _normalize
from homolink.polynomials import (LaurentPolynomial, add, alexander_sign, det,
                                  mul, unpack)
from homolink.skein import _reduce
from homolink.words import BraidWord


def _letter_width(w: BraidWord):
    """A width B at which every coefficient of U, and of I - U, reads back:
    the l1 norms L of a row's entries obey (L_i, L_i+1) -> (2L_i + L_i+1,
    L_i) for sigma_i and (L_i+1, L_i + 2L_i+1) for its inverse, which
    bounds every coefficient of U, and one unit more bounds those of
    I - U."""
    n = w.strands
    bounds = [[int(r == c) for c in range(n)] for r in range(n - 1)]
    for x in w.letters:
        i = abs(x) - 1
        for L in bounds:
            a, b = L[i], L[i + 1]
            L[i], L[i + 1] = (2 * a + b, a) if x > 0 else (b, a + 2 * b)
    return (max(map(max, bounds), default=0) + 1).bit_length() + 1


def burau_rows(w: BraidWord):
    """The first n-1 rows of the unreduced Burau matrix U, entries
    {t-exponent: coeff}, read back at the letter-bound width. They fix
    the last row, since (1, t, ..., t^(n-1)) U = (1, t, ..., t^(n-1))."""
    B = _letter_width(w)
    rows, k = _packed_rows(w, B)
    return [[unpack(v, B, -k) for v in row] for row in rows]


def burau_two_pass(w: BraidWord) -> LaurentPolynomial:
    """`alexander_via_burau` by two packings and no surface bound: every
    entry of the minor of I - U read back into a Laurent dict at the
    letter-bound width, then `det` packs them again at the Hadamard width
    of their own coefficients. Centered and sign-normalized the same way."""
    B = _letter_width(w)
    rows, k = _packed_rows(w, B)
    tk = 1 << B * k
    d = det([[unpack((tk if i == j else 0) - v, B, -k)
              for j, v in enumerate(row[:-1])] for i, row in enumerate(rows)])
    if not d:
        return LaurentPolynomial.from_dict({}, scale=2)
    lo2, hi2 = 2 * min(d), 2 * max(d)
    centered = {2 * e - (lo2 + hi2) // 2: c for e, c in d.items()}
    return LaurentPolynomial.from_dict(alexander_sign(centered), scale=2)


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


def jones_transfer_dicts(w: BraidWord) -> LaurentPolynomial:
    """The Temperley-Lieb transfer of `jones_polynomial` with each bracket
    weight a dict {A-exponent: coeff}, added term by term: the second
    route for words past the state sum's length cap."""
    n = w.strands
    states = {tuple(range(n, 2 * n)) + tuple(range(n)): {0: 1}}
    for x in w.letters:
        b = n + abs(x) - 1
        cup = 1 if x > 0 else -1  # A-exponent of the e_i smoothing
        nxt = {}
        for p, weight in states.items():
            _accumulate(nxt, p, weight, -cup, False)
            q = list(p)
            u, v = q[b], q[b + 1]
            loop = u == b + 1  # the cap closes bottom b onto bottom b + 1
            if not loop:
                q[u], q[v] = v, u
            q[b], q[b + 1] = b + 1, b
            _accumulate(nxt, tuple(q), weight, cup, loop)
        states = nxt
    total = {}
    for p, weight in states.items():
        for _ in range(_closure_loops(p, n) - 1):
            weight = mul(weight, _CIRCLE)
        total = add(total, weight)
    return _normalize(total, w.letters)


def _accumulate(states, key, weight, shift, loop):
    """states[key] += A^shift * weight, times d when a loop closed."""
    acc = states.get(key)
    if acc is None:
        acc = states[key] = {}
    if loop:
        for e, c in weight.items():
            acc[e + shift + 2] = acc.get(e + shift + 2, 0) - c
            acc[e + shift - 2] = acc.get(e + shift - 2, 0) - c
    else:
        for e, c in weight.items():
            acc[e + shift] = acc.get(e + shift, 0) + c
