"""Exhaustive search over homogeneous non-weak words and classification.

Fixing the Conway degree k forces n <= k + 1 and m = k + n - 1 on a
non-weak connected homogeneous word, so for each k there are finitely many
words to look at; a genus-g knot has Conway degree 2g, so genus g is the
degree-2g space kept to knots. This module generates the words, quotients
by the evident symmetries, computes one signature per far-commutation
class of orbits, and groups orbits into link classes matched against the
shipped reference table.

Both word streams share one column-sequence backtracker. enumerate_words
dresses every sequence with every sign choice (the raw count the paper's
bounds speak of); orbit_candidates, which classification reduces, keeps a
sequence only if it is least in its symmetry orbit and fixes the first
letter's sign, so it meets every orbit while skipping almost all raw
words (941 candidates for 45,562 raw words at degree 4).

Letters whose columns differ by 2 or more commute, and that swap, across
the wrap-around too, is a braid relation: it keeps the closure and so its
signature. classify therefore computes one signature per class of orbits
under rotation and far commutation (119 classes for 873 orbits at degree
4, 777 for 53,600 at degree 5). class_key names the class. The columns'
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
front. The component count is constant on a class too, so a genus search
drops a non-knot orbit before its key and signs only knot classes.

Signatures and the table they are matched against belong to `reference`;
two closures with equal signatures are reported as one class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError
from .reference import LinkSignature, link_signature, signature_index
from .words import (BraidWord, component_count, generator_signs,
                    require_connected, require_homogeneous, word_text,
                    word_to_json)

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
        if self.parameter < 0:
            raise ValueError("search parameter must be non-negative")

    @property
    def parameter(self):
        return self.degree if self.degree is not None else self.genus

    @property
    def conway_degree(self):
        return self.degree if self.degree is not None else 2 * self.genus

    @property
    def knots_only(self):
        return self.genus is not None

    def strand_range(self):
        return range(2, self.conway_degree + 2)

    def length_for(self, n):
        return self.conway_degree + n - 1


def _column_sequences(n: int, m: int):
    """Column sequences of the connected non-weak words with exactly (n, m).

    Backtracks over the column of each letter, pruning when the remaining
    slots cannot lift every column count to 2.
    """
    if n < 2 or m < 2 * (n - 1):
        return

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


def _dressed(n: int, sequences, fix_first: bool):
    """Each column sequence with every sign choice, one sign per column;
    fix_first keeps only the choices that make the first letter positive."""
    signsets = [[1 if s >> i & 1 else -1 for i in range(n - 1)]
                for s in range(1 << (n - 1))]
    for seq in sequences:
        for signs in signsets:
            if not fix_first or signs[seq[0] - 1] > 0:
                yield BraidWord(n, tuple(c * signs[c - 1] for c in seq))


def words_with_counts(n: int, m: int):
    """All homogeneous connected non-weak words with exactly (n, m).

    Dresses each column sequence with all 2^(n-1) sign choices.
    """
    return _dressed(n, _column_sequences(n, m), fix_first=False)


def _images(letters: tuple, n: int) -> tuple:
    """letters under identity, reversal, flip (column c to n - c, each
    letter keeping its sign) and flip-reversal."""
    flip = tuple(n - x if x > 0 else -n - x for x in letters)
    return letters, letters[::-1], flip, flip[::-1]


def _least_in_orbit(seq: tuple, n: int) -> bool:
    """Is seq lex-least among its rotations, its reversal and its flip?"""
    m = len(seq)
    for t in _images(seq, n):
        tt = t + t
        for k in range(m):
            if tt[k:k + m] < seq:
                return False
    return True


def candidates_with_counts(n: int, m: int):
    """At least one word of every orbit of words_with_counts(n, m).

    Mirror, reversal, column flip and rotation act on a word's column
    sequence through reversal, flip and rotation; the mirror fixes it and
    negates every sign. So every orbit holds a word whose sequence is
    lex-least among those images and whose first letter is positive, and
    only those words are generated.
    """
    return _dressed(n, (seq for seq in _column_sequences(n, m)
                        if _least_in_orbit(seq, n)), fix_first=True)


def _space_stream(space: SearchSpace, per_length):
    """per_length(n, m) over the space's (n, m); refuses a space over cap."""
    k = space.conway_degree
    if k > SEARCH_CAP:
        raise CapExceededError(f"Conway degree {k} exceeds cap {SEARCH_CAP}")

    def gen():
        if k == 0:
            yield BraidWord(1, ())
            return
        for n in space.strand_range():
            yield from per_length(n, space.length_for(n))

    return gen()


def enumerate_words(space: SearchSpace):
    """Stream the space's words; degree or genus 0 is the lone empty word."""
    return _space_stream(space, words_with_counts)


def orbit_candidates(space: SearchSpace):
    """Stream words of the space that meet every symmetry orbit."""
    return _space_stream(space, candidates_with_counts)


# --- symmetry reduction ----------------------------------------------------

def orbit_canonical(w: BraidWord) -> tuple:
    """Lex-min letters over mirror, reversal, column flip and rotation."""
    m = len(w.letters)
    mirror = tuple(-x for x in w.letters)
    return min(t[k:] + t[:k] for s in (w.letters, mirror)
               for t in _images(s, w.strands) for k in range(max(m, 1)))


def symmetry_reduce(words) -> list:
    reps = {}
    for w in words:
        key = (w.strands, orbit_canonical(w))
        reps.setdefault(key, BraidWord(w.strands, key[1]))
    return [reps[k] for k in sorted(reps)]


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


def class_key(w: BraidWord) -> tuple:
    """Key of w's class under rotation, far commutation and the symmetries.

    The sign vector (least of it and its mirror) comes first, then the
    length and the aligned gap vectors of _gap_key; the least over
    identity, reversal, column flip and flip-reversal is the key.
    """
    require_connected(w, "class_key")
    require_homogeneous(w, "class_key")
    n = w.strands
    cols = tuple(abs(x) for x in w.letters)
    signs = tuple(generator_signs(w.letters, n)[1:])
    flip = tuple(n - c for c in cols)
    return min((min(s, tuple(-x for x in s)), len(cols), _gap_key(t, n))
               for t, s in ((cols, signs), (cols[::-1], signs),
                            (flip, signs[::-1]), (flip[::-1], signs[::-1])))


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

    @property
    def class_count(self):
        return len(self.classes)


def classify(space: SearchSpace) -> ClassificationReport:
    """Orbit representatives grouped by signature, matched by name.

    The table index (reference.signature_index) is built once the space
    has passed its cap and before any word is generated, so a defective
    table is refused before the search runs. Then one pass over the
    orbits, which symmetry_reduce sorts by (strands, letters); a genus
    space drops non-knot orbits first. Each far-commutation class gets one
    signature, computed and checked against the space's Conway degree on
    its first orbit and shared by all of its orbits. A group's first orbit
    is its representative, so groups come out in representative order.
    """
    words = orbit_candidates(space)
    by_sig, notes = signature_index()
    expected = space.conway_degree
    sig_of = {}
    groups = {}    # signature -> [first orbit, orbit count]
    for w in symmetry_reduce(words):
        if space.knots_only and component_count(w) != 1:
            continue
        key = class_key(w)
        sig = sig_of.get(key)
        if sig is None:
            sig = sig_of[key] = link_signature(w)
            if sig.conway_degree != expected:
                raise RuntimeError(f"degree cross-check failed on {w}: "
                                   f"{sig.conway_degree} != {expected}")
        group = groups.setdefault(sig, [w, 0])
        group[1] += 1

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
