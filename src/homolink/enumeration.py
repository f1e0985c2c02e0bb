"""Exhaustive search over homogeneous non-weak words and classification.

Fixing the Conway degree k forces n <= k + 1 and m = k + n - 1 on a
non-weak connected homogeneous word, so for each k there are finitely many
words to look at; same for fixed genus g with n <= 2g + 1, m = 2g + n - 1.
This module generates them, quotients by the evident symmetries, computes
an invariant signature per orbit, and groups orbits into link classes
matched against the shipped reference table.

Both word streams share one column-sequence backtracker. enumerate_words
dresses every sequence with every sign choice (the raw count the paper's
bounds speak of); orbit_candidates, which classification reduces, keeps a
sequence only if it is least in its symmetry orbit and fixes the first
letter's sign, so it meets every orbit while skipping almost all raw
words (941 candidates for 45,562 raw words at degree 4).

A signature's Conway comes from the Seifert matrix for every connected
word, homogeneous or not; a split word's Conway is 0. Two closures with
equal signatures are reported as one class; the signature (component
count, Conway, mirror-insensitive Jones) is an equality TEST, not a proof
of sameness, and collisions between reference entries are treated as
table defects rather than merged silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, TableDefectError
from .jones import jones_polynomial
from .polynomials import eshift
from .seifert import build_surface, conway_from_seifert, seifert_matrix
from .words import BraidWord, component_count, connected


@dataclass(frozen=True)
class SearchSpace:
    """Degree-k or genus-g search window; exactly one of the two is set."""

    degree: int | None = None
    genus: int | None = None
    cap: int = 6

    def __post_init__(self):
        if (self.degree is None) == (self.genus is None):
            raise ValueError("set exactly one of degree or genus")
        if self.parameter < 0:
            raise ValueError("search parameter must be non-negative")

    @property
    def parameter(self):
        return self.degree if self.degree is not None else self.genus

    @property
    def knots_only(self):
        return self.genus is not None

    def strand_range(self):
        p = self.parameter
        top = p + 1 if self.degree is not None else 2 * p + 1
        return range(2, top + 1)

    def length_for(self, n):
        p = self.parameter
        k = p if self.degree is not None else 2 * p
        return k + n - 1


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


def _signsets(n: int):
    return [[1 if s >> i & 1 else -1 for i in range(n - 1)]
            for s in range(1 << (n - 1))]


def words_with_counts(n: int, m: int):
    """All homogeneous connected non-weak words with exactly (n, m).

    Dresses each column sequence with all 2^(n-1) sign choices.
    """
    signsets = _signsets(n)
    for seq in _column_sequences(n, m):
        for signs in signsets:
            yield BraidWord(n, tuple(c * signs[c - 1] for c in seq))


def _least_in_orbit(seq: tuple, n: int) -> bool:
    """Is seq lex-least among its rotations, its reversal and its flip?"""
    m = len(seq)
    flip = tuple(n - c for c in seq)
    for t in (seq, seq[::-1], flip, flip[::-1]):
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
    signsets = _signsets(n)
    for seq in _column_sequences(n, m):
        if _least_in_orbit(seq, n):
            for signs in signsets:
                if signs[seq[0] - 1] > 0:
                    yield BraidWord(n, tuple(c * signs[c - 1] for c in seq))


def _space_stream(space: SearchSpace, per_length):
    """per_length(n, m) over the space's (n, m); refuses a space over cap."""
    if space.parameter > space.cap:
        raise CapExceededError(
            f"search parameter {space.parameter} exceeds cap {space.cap}")

    def gen():
        if space.parameter == 0:
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

def _transformed(letters, n, g):
    out = letters
    if g & 1:
        out = tuple(-x for x in out)
    if g & 2:
        out = out[::-1]
    if g & 4:
        out = tuple((1 if x > 0 else -1) * (n - abs(x)) for x in out)
    return out

def orbit_canonical(w: BraidWord) -> tuple:
    """Lex-min letters over mirror, reversal, column flip and rotation."""
    m = len(w.letters)
    best = None
    for g in range(8):
        t = _transformed(w.letters, w.strands, g)
        for k in range(max(m, 1)):
            r = t[k:] + t[:k]
            if best is None or r < best:
                best = r
    return best


def symmetry_reduce(words) -> list:
    reps = {}
    for w in words:
        key = (w.strands, orbit_canonical(w))
        reps.setdefault(key, BraidWord(w.strands, key[1]))
    return [reps[k] for k in sorted(reps)]


# --- signatures ------------------------------------------------------------

@dataclass(frozen=True)
class LinkSignature:
    """Mirror-insensitive equality key for closures.

    conway and jones_pair hold canonical coefficient tuples. For links the
    raw values depend on component orientations, which a braid word fixes
    but the underlying unoriented link does not: reorienting one component
    scales Jones by t^(3*lk) (a 12-step shift at quarter-power scale) and
    can flip the sign of Conway. The canonical forms mod out exactly that,
    plus the mirror pair.
    """

    component_count: int
    conway: tuple
    jones_pair: tuple

    @property
    def conway_degree(self):
        return self.conway[-1][0] if self.conway else None


def _conway_canonical(d: dict, comps: int) -> tuple:
    if d and comps != 1 and d[max(d)] < 0:
        d = {e: -c for e, c in d.items()}
    return tuple(sorted(d.items()))


def _jones_canonical(d: dict, comps: int) -> tuple:
    def canon(p):
        if not p:
            return ()
        if comps != 1:
            lo = min(p)
            p = eshift(p, (lo % 12) - lo)
        return tuple(sorted(p.items()))

    return min(canon(d), canon({-e: c for e, c in d.items()}))


def link_signature(w: BraidWord) -> LinkSignature:
    comps = component_count(w)
    conway = (conway_from_seifert(seifert_matrix(build_surface(w))).as_dict()
              if connected(w.letters, w.strands) else {})
    jones = jones_polynomial(w).as_dict()
    return LinkSignature(comps,
                         _conway_canonical(conway, comps),
                         _jones_canonical(jones, comps))


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

    Matching uses only verified reference entries; unverified entries are
    skipped with a note. Two verified entries sharing a signature are a
    table defect and abort the run.
    """
    from .reference import entry_signature, load_reference_table

    reps = symmetry_reduce(orbit_candidates(space))
    sigs = [link_signature(w) for w in reps]

    expected = 2 * space.parameter if space.knots_only else space.parameter
    for w, sig in zip(reps, sigs):
        if sig.conway_degree != expected:
            raise RuntimeError(f"degree cross-check failed on {w}: "
                               f"{sig.conway_degree} != {expected}")

    groups = {}
    for w, sig in zip(reps, sigs):
        if space.knots_only and sig.component_count != 1:
            continue
        groups.setdefault(sig, []).append(w)

    notes = []
    by_sig = {}
    for entry in load_reference_table():
        if not entry.verified:
            notes.append(f"reference entry {entry.name} is unverified; "
                         "matching against it is disabled")
            continue
        sig = entry_signature(entry)
        other = by_sig.get(sig)
        if other is not None:
            raise TableDefectError(
                f"reference entries {other} and {entry.name} share a "
                "signature; fix the table before classifying")
        by_sig[sig] = entry.name

    classes = []
    for sig, members in groups.items():
        rep = min(members, key=lambda w: (w.strands, w.letters))
        classes.append(LinkClass(sig, rep, by_sig.get(sig, "unidentified"),
                                 len(members)))
    classes.sort(key=lambda c: (c.representative.strands,
                                c.representative.letters))

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
    return ClassificationReport(space, tuple(classes), tuple(notes))


def bound_p(k: int) -> int:
    """Crude count of degree-k candidate words, Sum 2^n n^(k+n), n <= k."""
    if k < 0:
        raise ValueError(f"degree must be non-negative, got {k}")
    if k == 0:
        return 1
    return sum(2 ** n * n ** (k + n) for n in range(1, k + 1))


def bound_n(g: int) -> int:
    """Genus-g analogue of bound_p, Sum 2^n n^(2g+n) for n <= 2g."""
    if g < 0:
        raise ValueError(f"genus must be non-negative, got {g}")
    if g == 0:
        return 1
    return sum(2 ** n * n ** (2 * g + n) for n in range(1, 2 * g + 1))


def check_membership(entry, space: SearchSpace) -> bool:
    """Is the reference link among the space's classes?

    Absence is evidence of non-membership in the braid-positional sense:
    for genus spaces, a verified fibred knot signature missing from the
    table means no homogeneous word of that genus closes to it.
    """
    from .reference import entry_signature

    if not entry.verified:
        raise ValueError(
            f"reference entry {entry.name} is unverified; verify the table "
            "before membership tests")
    sig = entry_signature(entry)
    report = classify(space)
    return any(c.signature == sig for c in report.classes)


# --- report serialization ---------------------------------------------------

CSV_COLUMNS = ("class_index", "strands", "representative", "components",
               "conway_degree", "conway", "matched", "size")


def report_to_json(report: ClassificationReport) -> dict:
    space = report.space
    return {
        "schema": 1,
        "space": {"degree": space.degree, "genus": space.genus,
                  "cap": space.cap},
        "classes": [
            {
                "representative": {"n": c.representative.strands,
                                   "word": list(c.representative.letters)},
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
        word = " ".join(str(x) for x in c.representative.letters)
        conway = " ".join(f"{v}z^{e}" for e, v in c.signature.conway) or "0"
        lines.append(",".join(str(v) for v in (
            ix, c.representative.strands, word,
            c.signature.component_count,
            c.signature.conway_degree if c.signature.conway else 0,
            conway, c.matched, c.size)))
    return "\n".join(lines) + "\n"
