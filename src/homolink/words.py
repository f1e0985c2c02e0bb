"""Braid words on n strands and their structural combinatorics.

A word is stored as a tuple of nonzero ints: letter k > 0 is the positive
generator sigma_k (strand k passes under strand k+1), k < 0 its inverse.
The closure of a word is the link obtained by joining top ends to bottom
ends; most functions here are about properties of that closure that can be
read off the word: which generators occur with which signs, which occur
exactly once (weak indices), how strands are permuted.

The raw helpers at the bottom operate on plain (letters, n) pairs and are
shared by the invariant engines; the public operations wrap them in
BraidWord values. letter_counts gives the occurrences q_i and
generator_signs the signs alpha(i), both as n-entry lists read at 1..n-1;
generator_signs is the only code that decides which sign a generator has,
and is_homogeneous is the only homogeneity test. require_homogeneous and
require_connected are the one precondition layer: every engine refuses a
word through them, and nothing else raises InhomogeneousWordError or
DisconnectedWordError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (BraidSyntaxError, DisconnectedWordError,
                     InhomogeneousWordError)


_TOKEN = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class BraidWord:
    """Immutable braid word: strand count n and signed letter tuple."""

    strands: int
    letters: tuple = ()

    def __post_init__(self):
        if self.strands < 1:
            raise BraidSyntaxError(f"strand count must be >= 1, got {self.strands}")
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        for x in letters:
            if x == 0:
                raise BraidSyntaxError("letter 0 is not a generator")
            if abs(x) > self.strands - 1:
                raise BraidSyntaxError(
                    f"letter {x} out of range for {self.strands} strands")

    def __str__(self):
        return f"{word_text(self) or '(empty)'} on {self.strands} strands"


def parse_word(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated signed generator indices.

    A token is ASCII digits with an optional sign; int()'s other forms,
    such as "1_0" or non-ASCII digits, are refused. Without an explicit
    strand count the word gets the smallest braid group containing it:
    max |letter| + 1, or 1 for the empty text.
    """
    letters = []
    for tok in text.split():
        if not _TOKEN.fullmatch(tok):
            raise BraidSyntaxError(f"not an integer token: {tok!r}")
        x = int(tok)
        if x == 0:
            raise BraidSyntaxError("letter 0 is not a generator")
        letters.append(x)
    if strands is None:
        strands = max(map(abs, letters), default=0) + 1
    return BraidWord(strands, tuple(letters))


def is_homogeneous(w: BraidWord) -> bool:
    """Each occurring generator has a single sign (empty word counts)."""
    return None not in generator_signs(w.letters, w.strands)


def weak_indices(w: BraidWord) -> set:
    """Generator indices that occur exactly once; w is weak iff non-empty."""
    q = letter_counts(w.letters, w.strands)
    return {i for i in range(1, w.strands) if q[i] == 1}


def shift(w: BraidWord, i: int) -> BraidWord:
    """Drop generator i and one strand; for i-weak words closure-preserving.

    Letters below i keep their place, letters above i come after, decremented.
    The block order matters: deleting the single sigma_i band merges two
    disks, after which low letters commute past high ones but an interleaved
    order is not otherwise legal. In-place deletion can change the closure
    (first failing case: 1 2 3 1 3, whose closure is a 3-chain, not a knot).
    """
    if not 1 <= i <= w.strands - 1:
        raise ValueError(f"shift index {i} out of range for {w.strands} strands")
    return BraidWord(w.strands - 1, shift_letters(w.letters, i))


def normalize_nonweak(w: BraidWord) -> BraidWord:
    """Shift away weak indices (smallest first) until none remain.

    A split closure raises DisconnectedWordError carrying its connected
    factors. Shifting keeps a connected word connected, so a fully
    reducible word ends as the empty word on one strand.
    """
    require_connected(w, "normalize_nonweak")
    while weak := weak_indices(w):
        w = shift(w, min(weak))
    return w


def require_homogeneous(w: BraidWord, what: str) -> None:
    """Refuse a word in which some generator occurs with both signs."""
    if not is_homogeneous(w):
        raise InhomogeneousWordError(
            f"{what} needs a homogeneous word, got {w}")


def require_connected(w: BraidWord, what: str) -> None:
    """Refuse a split closure, attaching its connected factors.

    A word is connected when every generator occurs, so the empty word is
    connected only on one strand.
    """
    if not connected(w.letters, w.strands):
        raise DisconnectedWordError(
            f"{what} needs a connected word, {w} skips a generator",
            factors=split_factors(w))


def split_factors(w: BraidWord) -> list:
    """Connected factors of a split closure, one per strand interval.

    Strand intervals are separated by absent generators; each interval's
    letters are re-indexed to start at 1. Intervals with no letters are
    unknot factors (empty word on one strand).
    """
    q = letter_counts(w.letters, w.strands)
    factors = []
    start = 1  # first strand of the current interval
    for gap in [i for i in range(1, w.strands) if q[i] == 0] + [w.strands]:
        letters = tuple((abs(x) - start + 1) * (1 if x > 0 else -1)
                        for x in w.letters if start <= abs(x) < gap)
        factors.append(BraidWord(gap - start + 1, letters))
        start = gap + 1
    return factors


def permutation(w: BraidWord) -> tuple:
    """Images of 1..n under the transpositions (|x|, |x|+1) in letter order."""
    p = list(range(1, w.strands + 1))
    for x in w.letters:
        i = abs(x) - 1
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def component_count(w: BraidWord) -> int:
    """Cycles of the permutation, one per closure component."""
    images = permutation(w)
    seen = [False] * len(images)
    count = 0
    for s in range(len(images)):
        count += not seen[s]
        j = s
        while not seen[j]:
            seen[j] = True
            j = images[j] - 1
    return count


def word_text(w: BraidWord) -> str:
    """The letters as whitespace-separated text, the form parse_word reads."""
    return " ".join(str(x) for x in w.letters)


def word_to_json(w: BraidWord) -> dict:
    return {"n": w.strands, "word": list(w.letters)}


def word_from_json(obj) -> BraidWord:
    """Inverse of word_to_json; n and the letters must be JSON integers, so
    a float, string or boolean is refused rather than truncated."""
    n, letters = obj["n"], obj["word"]
    if (type(n) is not int or type(letters) is not list
            or any(type(x) is not int for x in letters)):
        raise ValueError(f"word needs integer n and letters, got n {n!r}, "
                         f"word {letters!r}")
    return BraidWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# raw (letters, n) helpers shared by the invariant engines

def letter_counts(letters, n):
    """q[i] = occurrences of generator i for i in 1..n-1; q[0] unused."""
    q = [0] * n
    for x in letters:
        q[abs(x)] += 1
    return q


def generator_signs(letters, n):
    """alpha(i) at s[i] for i in 1..n-1, s[0] unused: +1 or -1 when every
    sigma_i has that sign, 0 when sigma_i is absent, None when it occurs
    with both signs. The one reading of a word's generator signs."""
    s = [0] * n
    for x in letters:
        i, e = (x, 1) if x > 0 else (-x, -1)
        if s[i] == 0:
            s[i] = e
        elif s[i] != e:
            s[i] = None
    return s


def shift_letters(letters, i):
    low = [x for x in letters if abs(x) < i]
    high = [x - 1 if x > 0 else x + 1 for x in letters if abs(x) > i]
    return tuple(low + high)


def min_rotation(letters):
    """Lexicographically smallest rotation; memo key for cyclic invariants.

    Only a rotation that starts at the least letter can be smallest, so only
    those are compared."""
    if not letters:
        return letters
    lo, m = min(letters), len(letters)
    twice = letters + letters
    return min(twice[k:k + m] for k, x in enumerate(letters) if x == lo)


def connected(letters, n) -> bool:
    """Every generator occurs; False for the empty word on n >= 2."""
    q = letter_counts(letters, n)
    return all(q[i] > 0 for i in range(1, n))
