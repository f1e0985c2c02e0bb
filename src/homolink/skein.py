"""Conway polynomial of homogeneous closures by direct skein recursion.

This is the combinatorial route: no surface, no matrix, just the skein
relation driven by the word syntax. Every step removes, smooths or slides a
consecutive pair of same-index letters whose gap is simple enough, and each
child word is strictly smaller in the short-lex complexity order, so the
recursion terminates. The Seifert-matrix route in `seifert` computes the
same polynomial by a completely different method; the test suite holds the
two against each other.

A subtlety worth recording: when the gap between the chosen pair contains a
single letter of the neighbouring lower index with the opposite sign, the
naive two-term smoothing identity is short by one correction term. The
`exchange` case below carries the extra -a*z*nabla(u) summand; omitting it
is detectable on thousands of small words (first failures at n = 3, m = 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from .polynomials import ONE, ConwayPolynomial, add, mul
from .words import (BraidWord, generator_signs, letter_counts, min_rotation,
                    require_connected, require_homogeneous, shift_letters)


def complexity(w: BraidWord) -> tuple:
    """Occurrence counts (q_{n-1}, ..., q_1), compared short-lex."""
    q = letter_counts(w.letters, w.strands)
    return tuple(q[i] for i in range(w.strands - 1, 0, -1))


@dataclass(frozen=True)
class SkeinStep:
    """One unfolding of the recursion: what was done and to whom.

    kind is one of:
      unknot       single strand, value 1
      split        a generator is absent, value 0
      destabilize  a generator occurs once; child is the shifted word
      smooth       adjacent pair with clean gap; children u and u+sigma_j
      slide        pair straddling one like-signed lower letter; one child
      exchange     pair straddling one opposite-signed lower letter; the
                   four children combine as t1 + a*z*(t2 + t3) - a*z*t0
    """

    kind: str
    children: tuple


_memo: dict = {}
# `conway_skein` empties the memo before a call once it holds more entries
# than this, which bounds it over a long run (a single call may still pass
# it); 3,000 short words or one 3-strand word of length 40 fill a few
# thousand.
_MEMO_LIMIT = 1 << 17


def _reduce(word, n):
    """Pick the single reduction applied to (word, n).

    Returns (kind, terms): the skein relation as data, nabla(word) being
    the sum of coef * nabla(child) over terms, each term a (coefficient
    dict in z, (letters, n)) pair. Pure syntax; the caller decides whether
    to evaluate or report.
    """
    if n == 1:
        return "unknot", ()
    q = letter_counts(word, n)
    if any(q[i] == 0 for i in range(1, n)):
        return "split", ()
    for i in range(1, n):
        if q[i] == 1:
            return "destabilize", ((ONE, (shift_letters(word, i), n - 1)),)
    # all q_i >= 2: scan consecutive same-index pairs, smallest index first,
    # leftmost pair first, wrap-around pair last
    sgn = generator_signs(word, n)
    for j in range(1, n):
        ps = [p for p, x in enumerate(word) if abs(x) == j]
        for t in range(len(ps)):
            p1 = ps[t]
            p2 = ps[(t + 1) % len(ps)]
            if p2 > p1:
                gap = word[p1 + 1:p2]
                rest = word[p2 + 1:] + word[:p1]
            else:
                gap = word[p1 + 1:] + word[:p2]
                rest = word[p2 + 1:p1]
            if any(abs(x) == j + 1 for x in gap):
                continue
            low = [ix for ix, x in enumerate(gap) if abs(x) == j - 1]
            if len(low) > 1:
                continue
            a = sgn[j]
            sj, az = j * a, {1: a}
            if not low:
                u = rest + gap
                return "smooth", ((ONE, (u, n)), (az, (u + (sj,), n)))
            ix = low[0]
            b = 1 if gap[ix] > 0 else -1
            sk = (j - 1) * b
            u = gap[ix + 1:] + rest + gap[:ix]
            if a == b:
                return "slide", ((ONE, (u + (sk, sj, sk), n)),)
            return "exchange", ((ONE, (u + (sk, sj, sk), n)),
                                 (az, (u + (sk, sj), n)),
                                 (az, (u + (sj, sk), n)),
                                 ({1: -a}, (u, n)))
    raise AssertionError(
        f"no admissible pair in {word} on {n} strands; this cannot happen "
        "for a homogeneous word and indicates a bug")


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
        val = {}
        for coef, child in terms:
            val = add(val, mul(coef, _conway(*child)))
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


def reduction_step(w: BraidWord) -> SkeinStep:
    """Expose the reduction `conway_skein` would apply first.

    Shares the dispatch with the evaluator, so a test walking steps and
    checking that every child has strictly smaller complexity exercises the
    actual termination argument.
    """
    require_homogeneous(w, "reduction_step")
    kind, terms = _reduce(w.letters, w.strands)
    return SkeinStep(kind, tuple(BraidWord(cn, cw) for _, (cw, cn) in terms))


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
