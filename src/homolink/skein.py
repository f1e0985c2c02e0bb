"""Conway polynomial of homogeneous closures by direct skein recursion.

This is the combinatorial route: no surface, no matrix, just the skein
relation driven by the word syntax. Every step removes, smooths or slides a
consecutive pair of same-index letters whose gap is simple enough, and each
child word is strictly smaller in the short-lex complexity order, so the
recursion terminates. Of the admissible pairs, a step takes the cheapest
relation, a smooth one first, then a slide, then an exchange (see
`_reduce`). The Seifert-matrix route in `seifert` computes the
same polynomial by a completely different method; the test suite holds the
two against each other.

A subtlety worth recording: when the gap between the chosen pair contains a
single letter of the neighbouring lower index with the opposite sign, the
naive two-term smoothing identity is short by one correction term. The
`exchange` case below carries the extra -a*z*nabla(u) summand; omitting it
is detectable on thousands of small words (first failures at n = 3, m = 7).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .polynomials import ONE, ConwayPolynomial
from .words import (BraidWord, generator_signs, letter_counts, min_rotation,
                    require_connected, require_homogeneous, shift_letters)


def complexity(w: BraidWord) -> tuple:
    """Occurrence counts (q_{n-1}, ..., q_1), compared short-lex."""
    q = letter_counts(w.letters, w.strands)
    return tuple(q[i] for i in range(w.strands - 1, 0, -1))


_memo: dict = {}
# `conway_skein` empties the memo before a call once it holds more entries
# than this, which bounds it over a long run (a single call may still pass
# it); 3,000 short words fill about 3,400 entries, (1 -2)^r fills 6r and
# (1 -2 3)^12 about 19,400.
_MEMO_LIMIT = 1 << 17


def _between(ps, p1, p2):
    """How many of the sorted positions ps lie strictly inside the cyclic
    interval from p1 to p2 (wrapping past the end of the word if p2 < p1)."""
    k = bisect_left(ps, p2) - bisect_right(ps, p1)
    return k if p2 > p1 else k + len(ps)


def _admissible(word, pos, n):
    """Admissible consecutive same-index pairs, in scan order: smallest
    index first, leftmost pair first, wrap-around pair last.

    Yields (rank, p1, p2, pl): rank 0 for a smooth pair, whose gap holds no
    letter of index j+1 or j-1; 1 for a slide and 2 for an exchange, whose
    gap holds one letter of index j-1, at pl, with the pair's sign or the
    opposite one. pos[i] lists the positions of the index-i letters.
    """
    for j in range(1, n):
        ps, up, down = pos[j], pos[j + 1], pos[j - 1]
        for t, p1 in enumerate(ps):
            p2 = ps[t + 1 - len(ps)]
            if _between(up, p1, p2):
                continue
            low = _between(down, p1, p2)
            if low == 0:
                yield 0, p1, p2, None
            elif low == 1:
                pl = down[bisect_right(down, p1) % len(down)]
                yield (1 if (word[pl] > 0) == (word[p1] > 0) else 2,
                       p1, p2, pl)


def _reduce(word, n):
    """Pick the single reduction applied to (word, n).

    Returns (kind, terms): the skein relation as data, nabla(word) being
    the sum of coef * nabla(child) over terms, each term a (coefficient
    dict in z, (letters, n)) pair. Pure syntax; the caller decides whether
    to evaluate or report. kind is one of:
      unknot       single strand, value 1
      split        a generator is absent, value 0
      destabilize  a generator occurs once; child is the shifted word
      smooth       adjacent pair with clean gap; children u and u+sigma_j
      slide        pair straddling one like-signed lower letter; one child
      exchange     pair straddling one opposite-signed lower letter; the
                   four children combine as t1 + a*z*(t2 + t3) - a*z*t0

    Destabilization comes first. Otherwise the cheapest admissible pair is
    taken: the first smooth pair in scan order (two shorter children), else
    the first slide (one child), else the first exchange (four children).
    On `(1 -2)^r` the first pair in scan order is always an exchange, and
    taking it made the memo grow exponentially in r; this choice leaves 6r
    entries.
    """
    if n == 1:
        return "unknot", ()
    pos = [[] for _ in range(n + 1)]
    for p, x in enumerate(word):
        pos[abs(x)].append(p)
    if not all(pos[1:n]):
        return "split", ()
    for i in range(1, n):
        if len(pos[i]) == 1:
            return "destabilize", ((ONE, (shift_letters(word, i), n - 1)),)
    best = None
    for pair in _admissible(word, pos, n):
        if best is None or pair[0] < best[0]:
            best = pair
            if not best[0]:
                break
    if best is None:
        raise AssertionError(
            f"no admissible pair in {word} on {n} strands; this cannot "
            "happen for a homogeneous word and indicates a bug")
    rank, p1, p2, pl = best
    if p2 > p1:
        gap = word[p1 + 1:p2]
        rest = word[p2 + 1:] + word[:p1]
    else:
        gap = word[p1 + 1:] + word[:p2]
        rest = word[p2 + 1:p1]
    sj = word[p1]
    a = 1 if sj > 0 else -1
    az = {1: a}
    if rank == 0:
        u = rest + gap
        return "smooth", ((ONE, (u, n)), (az, (u + (sj,), n)))
    ix = (pl - p1 - 1) % len(word)
    sk = gap[ix]
    u = gap[ix + 1:] + rest + gap[:ix]
    if rank == 1:
        return "slide", ((ONE, (u + (sk, sj, sk), n)),)
    return "exchange", ((ONE, (u + (sk, sj, sk), n)),
                        (az, (u + (sk, sj), n)),
                        (az, (u + (sj, sk), n)),
                        ({1: -a}, (u, n)))


def _conway(word, n):
    key = (min_rotation(word), n)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    kind, terms = _reduce(word, n)
    if kind == "unknot":
        val = dict(ONE)
    elif len(terms) == 1:
        # a unit step (destabilize, slide) shares its child's dict
        val = _conway(*terms[0][1])
    else:
        # one accumulator for the whole relation; zeros are dropped at the end
        acc = {}
        for coef, child in terms:
            for e2, c2 in _conway(*child).items():
                for e1, c1 in coef.items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        val = {e: c for e, c in acc.items() if c}
    _memo[key] = val
    return val


def conway_skein(w: BraidWord) -> ConwayPolynomial:
    """Conway polynomial of the closure of a homogeneous word.

    The word must be homogeneous and connected (every generator occurs, so
    the empty word only on one strand); a split word is rejected with its
    factors attached rather than silently returning 0.
    """
    require_homogeneous(w, "conway_skein")
    require_connected(w, "conway_skein")
    if len(_memo) > _MEMO_LIMIT:
        _memo.clear()
    return ConwayPolynomial.from_dict(_conway(w.letters, w.strands))


def reduction_step(w: BraidWord) -> tuple:
    """(kind, children): the reduction `conway_skein` would apply first,
    its children as BraidWords.

    Shares the dispatch with the evaluator, so a test walking steps and
    checking that every child has strictly smaller complexity exercises the
    actual termination argument.
    """
    require_homogeneous(w, "reduction_step")
    kind, terms = _reduce(w.letters, w.strands)
    return kind, tuple(BraidWord(cn, cw) for _, (cw, cn) in terms)


def degree_and_leading(w: BraidWord) -> tuple:
    """(m - n + 1, sign) read off the word with no recursion.

    The unknot gives (0, +1), and a word and its non-weak form agree.

    The sign is the product of all defined alpha(i) times the product of
    the signs of the letters themselves. The source formula indexes the
    first product up to n, one past where alpha is defined; we take it over
    i in [1, n-1].
    """
    require_homogeneous(w, "degree_and_leading")
    require_connected(w, "degree_and_leading")
    lead = 1
    for s in generator_signs(w.letters, w.strands)[1:]:
        lead *= s
    for x in w.letters:
        lead *= 1 if x > 0 else -1
    return len(w.letters) - w.strands + 1, lead
