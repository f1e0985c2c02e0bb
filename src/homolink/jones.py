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
    min(Catalan(n), 2^m) * m states, each carrying a weight of O(m) terms
    packed into one integer (below); it needs no cap.
  * `jones_kauffman`, the test oracle, is the brute-force state sum over
    all 2^m smoothings, so its length cap is a hard refusal, not a
    suggestion. No command runs it; it stays in the package only while
    perfbench/tracing.py wraps it, and moves to tests/oracles.py when the
    benchmark stops doing so (ROADMAP item 1).

The transfer's weights are integers. Each letter is multiplied by
A^(2-s), s its sign, so that every step is an even power of A with no
negative exponent: a weight is a polynomial in A^2, held as its value
at A^2 = 2^B, and evaluation is a ring map, so A^(2k) is a left shift
by kB bits. The identity smoothing is then 1 for sigma_i and A^4 for
its inverse, and the e_i smoothing is A^2 for both. When the cap
closes a loop, the e_i smoothing is -(A^4 + 1) and keeps the matching,
so the two smoothings add to -A^4 or -1 on the matching itself. The
closure of a matching with L loops multiplies by
d^(L-1) * A^(2(n-1)) = (-(A^4 + 1))^(L-1) * A^(2(n-L)). The bracket is
then the digits of the sum, read once by `polynomials.unpack`; digit e
is the coefficient of A^(2e - lift), lift = sum(2 - s) + 2(n-1).

The digits are the coefficients when every coefficient c has
|c| < 2^(B-1). Bound the l1 norm, the sum of absolute coefficients. A
weight goes, shifted, to two children, or to one when a loop closes,
so the l1 norms over the matchings of level j sum to at most 2^j. The
closure multiplies each weight by a polynomial of l1 norm
2^(L-1) <= 2^(n-1), and a sum's l1 norm is at most the sum of its
terms' norms. So |c| <= 2^(m+n-1), and B = m + n + 1 is enough. The
state sum below has no such bound: a loop there costs a factor d of
l1 norm 2, which the transfer cancels against the identity smoothing
before it is counted.

Exponents are quarter powers of t stored at scale 4. The chirality
convention is fixed by sigma_1^3 -> t^-1 + t^-3 - t^-4, the left-handed
trefoil value; mirroring the word inverts t.
"""

from __future__ import annotations

from .errors import CapExceededError
from .polynomials import LaurentPolynomial, add, mul, unpack
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
    """Jones polynomial by the state sum: the tests' second Jones route,
    here only because perfbench/tracing.py wraps it."""
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
    """Jones polynomial of the closure of w by Temperley-Lieb transfer,
    each bracket weight one integer at A^2 = 2^B (see the module
    docstring)."""
    n, m = w.strands, len(w.letters)
    B = m + n + 1
    # points 0..n-1 on top, n..2n-1 on the current bottom; a matching is
    # its partner tuple, mapped to its packed weight
    states = {tuple(range(n, 2 * n)) + tuple(range(n)): 1}
    for x in w.letters:
        b = n + abs(x) - 1
        keep = 0 if x > 0 else 2 * B  # the identity smoothing: 1 or A^4
        close = 2 * B - keep  # minus both when a loop closes: A^4 or 1
        nxt = {}
        get = nxt.get
        for p, weight in states.items():
            u, v = p[b], p[b + 1]
            if u == b + 1:  # the cap closes a loop and keeps the matching
                nxt[p] = get(p, 0) - (weight << close)
                continue
            nxt[p] = get(p, 0) + (weight << keep)
            q = list(p)
            q[u], q[v] = v, u
            q[b], q[b + 1] = b + 1, b
            q = tuple(q)
            nxt[q] = get(q, 0) + (weight << B)
        states = nxt
    by_loops = {}
    for p, weight in states.items():
        loops = _closure_loops(p, n)
        by_loops[loops] = by_loops.get(loops, 0) + weight
    d = -((1 << 2 * B) + 1)  # -(A^4 + 1) = d * A^2
    total = sum(weight * d ** (loops - 1) << (n - loops) * B
                for loops, weight in by_loops.items())
    # digit e is the bracket's coefficient of A^(2e - lift)
    lift = sum(1 if x > 0 else 3 for x in w.letters) + 2 * (n - 1)
    bracket = {2 * e - lift: c for e, c in unpack(total, B, 0).items()}
    return _normalize(bracket, w.letters)


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
