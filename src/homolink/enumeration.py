"""Exhaustive search over homogeneous non-weak words and classification.

Fixing the Conway degree k forces n <= k + 1 and m = k + n - 1 on a
non-weak connected homogeneous word, so for each k there are finitely many
words to look at; a genus-g knot has Conway degree 2g, so genus g is the
degree-2g space kept to knots. This module generates the words, quotients
by the evident symmetries, computes one signature per far-commutation
class of orbits, and groups orbits into link classes matched against the
shipped reference table.

enumerate_words backtracks over every column sequence and dresses it
with every sign choice (the raw count the paper's bounds speak of).
_orbits is the one orbit walk, and classify reads it: it starts from the
column sequences that are least in their symmetry orbit, generated
directly as the necklaces (least among their rotations) that no reversed
or flipped image undercuts, and fixes the first letter's sign, so it
meets every orbit while skipping almost all raw words (138 of 3,201
sequences and 941 dressed words for 45,562 raw words at degree 4).

Letters whose columns differ by 2 or more commute, and that swap, across
the wrap-around too, is a braid relation: it keeps the closure and so its
signature. classify therefore computes one signature per class of orbits
under rotation and far commutation (119 classes for 873 orbits at degree
4, 777 for 53,600 at degree 5), named by _class_key. The columns'
dependence graph is the path 1-2-...-(n-1), so a cyclic word up to
rotation and far commutation is a closed heap of pieces (a cyclic trace,
Cartier-Foata 1969; Diekert-Rozenberg, The Book of Traces, 1995), and a
closed heap is fixed by its cyclic projections onto the path's edges,
aligned by rank. Edge {i, i+1} is read as the gap vector of column i
(the column-(i+1) letters between consecutive column-i letters), and the
first column-(i+1) letter after a column-i letter ties each edge's start
to the next one's. A far swap never exchanges two letters of one edge,
so it keeps every projection; the aligned projections rebuild the heap,
so distinct classes get distinct keys. The key is the least such reading
over the starts in column 1 and the symmetries, with the sign vector in
front. The gap vectors depend only on the unsigned sequence, so _orbits
reads them once per least sequence and pairs them with each sign
choice. The component count is also a function of the sequence and
constant on a class, so a genus search drops a sequence whose closure is
not a knot before any key and signs only knot classes.

classify folds the orbits into one record per class, its least orbit
and its orbit count, and builds a word and a signature only on that
orbit; no orbit list is kept or sorted.

Signatures and the table they are matched against belong to `reference`;
two closures with equal signatures are reported as one class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CapExceededError
from .reference import LinkSignature, link_signature, signature_index
from .words import BraidWord, component_count, word_text, word_to_json

# Largest Conway degree a search space may reach. Degree 6 (genus 3) has
# 9,801,947 column sequences and cannot finish, so it is refused up front.
SEARCH_CAP = 5
# Largest k whose bound_p(k) prints within Python's 4,300-digit default for
# int-to-str conversion (bound_p(715) has 4,297 digits, bound_p(716) 4,304).
BOUND_CAP = 715


@dataclass(frozen=True)
class SearchSpace:
    """Degree-k or genus-g (Conway degree 2g) window; exactly one is set."""

    degree: int | None = None
    genus: int | None = None

    def __post_init__(self):
        if (self.degree is None) == (self.genus is None):
            raise ValueError("set exactly one of degree or genus")
        if self.conway_degree < 0:
            raise ValueError("search parameter must be non-negative")

    @property
    def conway_degree(self):
        return self.degree if self.degree is not None else 2 * self.genus

    @property
    def knots_only(self):
        return self.genus is not None

    def lengths(self):
        """The (n, m) of the space's words, m = k + n - 1 on n = 2..k+1
        strands at Conway degree k, or (1, 0), the empty word, at degree
        0; refuses a space over cap."""
        k = self.conway_degree
        if k > SEARCH_CAP:
            raise CapExceededError(
                f"Conway degree {k} exceeds cap {SEARCH_CAP}")
        if k == 0:
            return [(1, 0)]
        return [(n, k + n - 1) for n in range(2, k + 2)]


def _column_sequences(n: int, m: int):
    """Column sequences of the connected non-weak words with exactly (n, m),
    in lex order; (1, 0) has the empty sequence.

    Backtracks over the column of each letter, pruning when the remaining
    slots cannot lift every column count to 2.
    """
    def fill(seq, q):
        left = m - len(seq)
        deficit = sum(max(0, 2 - q[i]) for i in range(1, n))
        if deficit > left:
            return
        if left == 0:
            yield tuple(seq)
            return
        for c in range(1, n):
            q[c] += 1
            yield from fill(seq + [c], q)
            q[c] -= 1

    yield from fill([], [0] * n)


def _images(letters: tuple, n: int) -> tuple:
    """letters under identity, reversal, flip (column c to n - c, each
    letter keeping its sign) and flip-reversal."""
    flip = tuple(n - x if x > 0 else -n - x for x in letters)
    return letters, letters[::-1], flip, flip[::-1]


def _least_sequences(n: int, m: int):
    """The column sequences of _column_sequences(n, m) that are lex-least
    among the rotations of their reversal, flip and flip-reversal and of
    themselves: one per orbit, each once, in lex order.

    The Fredricksen-Kessler-Maiorana recursion (Ruskey, Savage and Wang,
    J. Algorithms 13, 1992) extends a prenecklace a[1..t-1] of period p by
    a[t-p], keeping p, or by a larger column, making the period t; a full
    prenecklace is a necklace, least among its rotations, exactly when p
    divides m, and each necklace is reached once. A prefix is cut off, the
    full sequence included, when the slots left cannot lift every column
    count to 2. A necklace starts with its least column, so an image beats
    it only through a smaller column or a rotation starting at that one.
    """
    a = [1] * (m + 1)  # a[1..m] is the sequence; a[0] lets a[1] be any column
    q = [0] * n        # column counts of a[1..t-1]

    def extend(t, p, deficit):
        if deficit > m - t + 1:
            return
        if t > m:
            if m % p == 0:
                seq = tuple(a[1:])
                if _least_image(seq, n):
                    yield seq
            return
        for c in range(a[t - p], n):
            a[t] = c
            q[c] += 1
            yield from extend(t + 1, p if c == a[t - p] else t,
                              deficit - (q[c] <= 2))
            q[c] -= 1

    yield from extend(1, 1, 2 * (n - 1))


def _least_image(seq: tuple, n: int) -> bool:
    """Has no rotation of seq's reversal, flip or flip-reversal a smaller
    sequence than the necklace seq?"""
    m = len(seq)
    for t in _images(seq, n)[1:]:
        if m and min(t) < seq[0]:
            return False
        tt = t + t
        for k in range(m):
            if t[k] == seq[0] and tt[k:k + m] < seq:
                return False
    return True


@lru_cache(maxsize=SEARCH_CAP + 1)
def _sign_choices(n: int) -> tuple:
    """The 2^(n-1) sign vectors of the columns 1..n-1."""
    return tuple(tuple(1 if s >> i & 1 else -1 for i in range(n - 1))
                 for s in range(1 << (n - 1)))


def words_with_counts(n: int, m: int):
    """All homogeneous connected non-weak words with exactly (n, m).

    Dresses each column sequence with all 2^(n-1) sign choices.
    """
    return (BraidWord(n, tuple(c * signs[c - 1] for c in seq))
            for seq in _column_sequences(n, m) for signs in _sign_choices(n))


def enumerate_words(space: SearchSpace):
    """Stream the space's words; degree or genus 0 is the lone empty word."""
    return (w for n, m in space.lengths() for w in words_with_counts(n, m))


# --- symmetry reduction ----------------------------------------------------

def orbit_canonical(letters: tuple, n: int) -> tuple:
    """Lex-min letters over mirror, reversal, column flip and rotation of
    the word letters on n strands.

    The least of all those rotations starts with the least letter of the
    eight images, so only the rotations starting there are compared.
    """
    if not letters:
        return letters
    images = (_images(letters, n)
              + _images(tuple(-x for x in letters), n))
    low = min(map(min, images))
    return min(t[k:] + t[:k] for t in images
               for k, x in enumerate(t) if x == low)


def symmetry_reduce(words) -> list:
    """One word per orbit, its orbit_canonical letters, sorted by
    (strands, letters)."""
    keys = {(w.strands, orbit_canonical(w.letters, w.strands)) for w in words}
    return [BraidWord(n, canon) for n, canon in sorted(keys)]


# --- far-commutation classes -----------------------------------------------

def _gap_key(cols, n):
    """Least tuple of rank-aligned gap vectors over the column-1 starts.

    before[i][r] counts the column-(i+1) letters ahead of the r-th
    column-i letter, so that letter's gap is the next difference and the
    first column-(i+1) letter after it has rank before[i][r] mod q_(i+1).
    """
    count = [0] * (n + 1)
    before = [[] for _ in range(n)]
    for c in cols:
        before[c].append(count[c + 1])
        count[c] += 1
    gaps = [[b - a for a, b in zip(bs, bs[1:])]
            + [bs[0] + count[i + 1] - bs[-1]]
            for i, bs in enumerate(before[1:n - 1], 1)]

    def aligned(s):
        out = []
        for i, g in enumerate(gaps, 1):
            out.append(tuple(g[s:] + g[:s]))
            s = before[i][s] % count[i + 1]
        return tuple(out)

    return min(map(aligned, range(count[1])), default=())


def _sequence_gaps(cols: tuple, n: int) -> tuple:
    """The least _gap_key of the unflipped images of cols (identity and
    reversal) and of the flipped ones (flip and flip-reversal)."""
    keys = [_gap_key(t, n) for t in _images(cols, n)]
    return min(keys[:2]), min(keys[2:])


def _class_key(signs: tuple, m: int, gaps: tuple) -> tuple:
    """Key of a word's class under rotation, far commutation and the
    symmetries, from its column signs, its length m and its sequence's
    _sequence_gaps.

    The sign vector (least of it and its mirror) comes first, then the
    length and the aligned gap vectors of _gap_key; the least over
    identity, reversal, column flip and flip-reversal is the key. A flip
    reverses the sign vector and the mirror negates it.
    """
    flipped = signs[::-1]
    return min((min(signs, tuple(-x for x in signs)), m, gaps[0]),
               (min(flipped, tuple(-x for x in flipped)), m, gaps[1]))


def _orbits(n: int, m: int, knots_only: bool):
    """(orbit_canonical letters, _class_key) of each orbit of
    words_with_counts(n, m), each once; with knots_only, of the orbits
    whose closure is a knot.

    Mirror, reversal, column flip and rotation act on a word's column
    sequence through reversal, flip and rotation; the mirror fixes it and
    negates every sign. So every orbit holds a word whose sequence is
    _least_sequences' one for the orbit and whose first letter is
    positive, and only those words are dressed; an orbit that one sign
    choice reaches again is skipped, and no other sequence reaches it. The
    component count and the gap keys depend only on the sequence, so each
    is read once per sequence.
    """
    for seq in _least_sequences(n, m):
        if knots_only and component_count(BraidWord(n, seq)) != 1:
            continue
        gaps = _sequence_gaps(seq, n)
        seen = set()
        for signs in _sign_choices(n):
            if seq and signs[seq[0] - 1] < 0:
                continue
            canon = orbit_canonical(tuple(c * signs[c - 1] for c in seq), n)
            if canon not in seen:
                seen.add(canon)
                yield canon, _class_key(signs, m, gaps)


# --- classification --------------------------------------------------------

@dataclass(frozen=True)
class LinkClass:
    signature: LinkSignature
    representative: BraidWord
    matched: str
    size: int


@dataclass(frozen=True)
class ClassificationReport:
    space: SearchSpace
    classes: tuple
    notes: tuple = ()


def classify(space: SearchSpace) -> ClassificationReport:
    """Orbit representatives grouped by signature, matched by name.

    The table index (reference.signature_index) is built once the space
    has passed its cap and before any word is generated, so a defective
    table is refused before the search runs. The orbits come from
    _orbits, one walk over each (n, m) of the space, kept to knots on a
    genus space. Each far-commutation class keeps only its least orbit
    by (strands, letters) and its orbit count. In order of least orbit,
    each class is signed and checked against the space's Conway degree
    on that orbit and adds its count to the signature's group, so a
    group's representative is its least orbit; no orbit list is sorted.
    """
    lengths = space.lengths()
    by_sig, notes = signature_index()
    expected = space.conway_degree
    records = {}   # class key -> [least (strands, canonical letters), size]
    for n, m in lengths:
        for canon, key in _orbits(n, m, space.knots_only):
            record = records.setdefault(key, [(n, canon), 0])
            record[0] = min(record[0], (n, canon))
            record[1] += 1

    groups = {}    # signature -> [representative, orbit count]
    for (n, canon), size in sorted(records.values()):
        w = BraidWord(n, canon)
        sig = link_signature(w)
        if sig.conway_degree != expected:
            raise RuntimeError(f"degree cross-check failed on {w}: "
                               f"{sig.conway_degree} != {expected}")
        group = groups.setdefault(sig, [w, 0])
        group[1] += size

    classes = tuple(LinkClass(sig, rep, by_sig.get(sig, "unidentified"), size)
                    for sig, (rep, size) in groups.items())

    if space.degree == 2:
        notes.append(
            "the 3-component chain arises at degree 2 from a 4-letter word "
            "on 3 strands; the 6-letter word 1 1 2 2 3 3 sometimes quoted "
            "for it has degree 6-4+1 = 3 and belongs to the degree-3 table")
    if space.degree == 3:
        notes.append(
            "the words 1 1 2 2 3 3 and 1 1 2 3 3 2 close to the same "
            "4-component chain, so listing both as separate degree-3 links "
            "double-counts one class; the sixth degree-3 class is the "
            "Whitehead link (representative 1 1 -2 1 -2 up to symmetry)")
    return ClassificationReport(space, classes, tuple(notes))


def bound_p(k: int) -> int:
    """Crude count of degree-k candidate words, Sum 2^n n^(k+n), n <= k."""
    if k < 0:
        raise ValueError(f"degree must be non-negative, got {k}")
    if k > BOUND_CAP:
        raise CapExceededError(f"bound_p({k}) exceeds cap {BOUND_CAP}")
    if k == 0:
        return 1
    return sum(2 ** n * n ** (k + n) for n in range(1, k + 1))


def bound_n(g: int) -> int:
    """Genus-g analogue of bound_p: a genus-g knot has Conway degree 2g."""
    if g < 0:
        raise ValueError(f"genus must be non-negative, got {g}")
    return bound_p(2 * g)


# --- report serialization ---------------------------------------------------

CSV_COLUMNS = ("class_index", "strands", "representative", "components",
               "conway_degree", "conway", "matched", "size")


def report_to_json(report: ClassificationReport) -> dict:
    space = report.space
    return {
        "schema": 1,
        "space": {"degree": space.degree, "genus": space.genus,
                  "cap": SEARCH_CAP},
        "classes": [
            {
                "representative": word_to_json(c.representative),
                "components": c.signature.component_count,
                "conway": {str(e): v for e, v in c.signature.conway},
                "jones_pair": [[e, v] for e, v in c.signature.jones_pair],
                "matched": c.matched,
                "size": c.size,
            }
            for c in report.classes
        ],
        "notes": list(report.notes),
    }


def report_to_csv(report: ClassificationReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for ix, c in enumerate(report.classes):
        conway = " ".join(f"{v}z^{e}" for e, v in c.signature.conway) or "0"
        lines.append(",".join(str(v) for v in (
            ix, c.representative.strands, word_text(c.representative),
            c.signature.component_count,
            c.signature.conway_degree if c.signature.conway else 0,
            conway, c.matched, c.size)))
    return "\n".join(lines) + "\n"
