"""Shared strategies, fixtures and helpers.

Random words are drawn homogeneous by construction: a column sequence plus
one sign per column. Connectivity is enforced by rejection, which is cheap
at these sizes (n <= 4, m <= 8).

The helpers at the end (word moves, a table lookup, one-call routes) are
used only by the tests, so they live here and not in the package.
"""

import pytest
from hypothesis import assume, strategies as st

from homolink import (BraidWord, build_surface, classify, conway_from_seifert,
                      entry_signature, load_reference_table, seifert_matrix)


@st.composite
def homogeneous_connected(draw, max_n=4, max_m=8, min_count=1):
    n = draw(st.integers(2, max_n))
    lo = (2 if min_count >= 2 else 1) * (n - 1)
    assume(lo <= max_m)
    m = draw(st.integers(lo, max_m))
    seq = draw(st.lists(st.integers(1, n - 1), min_size=m, max_size=m))
    counts = [seq.count(i) for i in range(1, n)]
    assume(all(c >= min_count for c in counts))
    signs = draw(st.tuples(*[st.sampled_from((-1, 1)) for _ in range(n - 1)]))
    return BraidWord(n, tuple(c * signs[c - 1] for c in seq))


@st.composite
def any_words(draw, max_n=4, max_m=8):
    n = draw(st.integers(1, max_n))
    if n == 1:
        return BraidWord(1, ())
    m = draw(st.integers(0, max_m))
    letters = draw(st.lists(
        st.integers(1, n - 1).flatmap(
            lambda i: st.sampled_from((i, -i))),
        min_size=m, max_size=m))
    return BraidWord(n, tuple(letters))


@pytest.fixture(scope="session")
def reference_entries():
    from homolink import load_reference_table
    return load_reference_table()


def cyclic_permute(w: BraidWord, k: int) -> BraidWord:
    """Rotate letters left by k; conjugation, so closure-preserving."""
    if not w.letters:
        return w
    k %= len(w.letters)
    return BraidWord(w.strands, w.letters[k:] + w.letters[:k])


def far_commute(w: BraidWord, j: int) -> BraidWord:
    """Swap letters j and j+1 (1-based); legal when their indices differ by >= 2."""
    if not 1 <= j <= len(w.letters) - 1:
        raise ValueError(f"position {j} out of range for length {len(w.letters)}")
    a, b = w.letters[j - 1], w.letters[j]
    if abs(abs(a) - abs(b)) <= 1:
        raise ValueError(f"letters {a} and {b} do not commute")
    letters = w.letters[:j - 1] + (b, a) + w.letters[j + 1:]
    return BraidWord(w.strands, letters)


def complexity_less(a: tuple, b: tuple) -> bool:
    return (len(a), a) < (len(b), b)


def pencil_entries(terms):
    """The (k, entries, lo) arguments of `pencil_det` for det(sum t^e * A)
    over dense (e, A) terms with distinct e and integer k x k matrices A:
    the nonzero entries of each A at exponent e - min e, and lo = k * min e."""
    k = len(terms[0][1])
    lo = min(e for e, _ in terms)
    return k, [(r, c, v, e - lo) for e, A in terms
               for r, row in enumerate(A)
               for c, v in enumerate(row) if v], k * lo


def surface_conway(w: BraidWord):
    """Conway polynomial through the surface route, one call."""
    return conway_from_seifert(seifert_matrix(build_surface(w)))


def find_entry(name: str):
    for entry in load_reference_table():
        if entry.name == name:
            return entry
    raise KeyError(f"no reference entry named {name!r}")


def check_membership(entry, space) -> bool:
    """Is the reference link among the space's classes?

    Absence is evidence of non-membership in the braid-positional sense:
    for genus spaces, a verified fibred knot signature missing from the
    table means no homogeneous word of that genus closes to it.
    """
    if not entry.verified:
        raise ValueError(
            f"reference entry {entry.name} is unverified; verify the table "
            "before membership tests")
    sig = entry_signature(entry)
    report = classify(space)
    return any(c.signature == sig for c in report.classes)
