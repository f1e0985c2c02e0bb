"""Jones polynomial of a braid closure from the Kauffman bracket.

Works for any word, homogeneous or not, which is the point: it is the
disambiguator used when Conway polynomials collide during classification.
Two routes compute the same bracket:

  * `jones_polynomial`, the working engine (used by classification and by
    `analyze`), is a Temperley-Lieb transfer (Kauffman, Topology 26, 1987;
    Jones, Bull. AMS 12, 1985). It carries the planar matchings of the n
    top and n current-bottom points, each with its bracket weight in A;
    letter sigma_i^(+1) acts as A*e_i + A^-1*1 and sigma_i^(-1) as
    A*1 + A^-1*e_i, a cap that closes a loop multiplies by d = -A^2 - A^-2,
    and the closure gives d^(loops - 1). At most min(Catalan(n), 2^m)
    matchings exist at any level, so it visits at most
    min(Catalan(n), 2^m) * m states, each carrying a weight of O(m) terms;
    it needs no cap.
  * `jones_kauffman`, the test oracle, is the brute-force state sum over
    all 2^m smoothings, so its length cap is a hard refusal, not a
    suggestion.

Exponents are quarter powers of t stored at scale 4. The chirality
convention is fixed by sigma_1^3 -> t^-1 + t^-3 - t^-4, the left-handed
trefoil value; mirroring the word inverts t.
"""

from __future__ import annotations

from .errors import CapExceededError
from .polynomials import LaurentPolynomial, add, mul
from .words import BraidWord

# Longest word that `analyze` prints Jones for, and the oracle's refusal
# length; `jones_polynomial` has no cap.
JONES_LENGTH_CAP = 16

_CIRCLE = {2: -1, -2: -1}  # -A^2 - A^-2


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def join(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def jones_kauffman(w: BraidWord) -> LaurentPolynomial:
    word, n, m = w.letters, w.strands, len(w.letters)
    if m > JONES_LENGTH_CAP:
        raise CapExceededError(f"word length {m} exceeds the Kauffman cap "
                               f"{JONES_LENGTH_CAP} (2^m states)")

    def nid(level, strand):
        return level * n + strand

    total = {}
    for state in range(1 << m):
        uf = _UnionFind((m + 1) * n)
        a_minus_b = 0
        for lv, x in enumerate(word):
            i = abs(x) - 1
            pick_a = not (state >> lv & 1)
            a_minus_b += 1 if pick_a else -1
            if pick_a != (x > 0):
                uf.join(nid(lv, i), nid(lv + 1, i))
                uf.join(nid(lv, i + 1), nid(lv + 1, i + 1))
            else:
                uf.join(nid(lv, i), nid(lv, i + 1))
                uf.join(nid(lv + 1, i), nid(lv + 1, i + 1))
            for st in range(n):
                if st != i and st != i + 1:
                    uf.join(nid(lv, st), nid(lv + 1, st))
        for st in range(n):
            uf.join(nid(m, st), nid(0, st))
        loops = len({uf.find(a) for a in range((m + 1) * n)})
        term = {a_minus_b: 1}
        for _ in range(loops - 1):
            term = mul(term, _CIRCLE)
        total = add(total, term)

    return _normalize(total, word)


def jones_polynomial(w: BraidWord) -> LaurentPolynomial:
    """Jones polynomial of the closure of w by Temperley-Lieb transfer."""
    n = w.strands
    # points 0..n-1 on top, n..2n-1 on the current bottom; a matching is
    # its partner tuple, mapped to its bracket weight {A-exponent: coeff}
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


def _closure_loops(p, n):
    """Loops of matching p once bottom point n+j is joined to top point j.

    Every loop passes through a top point, so walking from each unseen top
    point counts each loop once.
    """
    seen = [False] * (2 * n)
    loops = 0
    for start in range(n):
        if seen[start]:
            continue
        loops += 1
        a = start
        while not seen[a]:
            seen[a] = True
            b = p[a]
            seen[b] = True
            a = (b + n) % (2 * n)
    return loops


def _normalize(total, word):
    """Bracket in A to Jones in t: times (-A^3)^s, s the sum of the letter
    signs, then t^(1/4) = A^(-1), at scale 4."""
    writhe = -sum(1 if x > 0 else -1 for x in word)
    sign = -1 if writhe % 2 else 1
    normalized = mul(total, {-3 * writhe: sign})
    return LaurentPolynomial.from_dict({-e: c for e, c in normalized.items()},
                                       scale=4)
