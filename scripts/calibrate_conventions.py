#!/usr/bin/env python3
"""Re-derive the Seifert linking conventions from the skein engine.

The five constants frozen in homolink.seifert (_SELF and the four pair
rules) encode which way adjacent basis loops link on the braided surface.
Rather than trusting a hand drawing, this script scans every candidate
assignment, keeps the ones whose symmetrized determinant reproduces the
skein-route Conway polynomial on a few seed words, and then validates the
survivors against every homogeneous connected non-weak word in a range.

Each band keeps its own sign, so the surface is a Seifert surface for
mixed-sign words too. The survivors are then validated on the connected
non-weak mixed-sign words of the same range, one word from each orbit of
mirror, reversal, column flip and rotation: there the Alexander polynomial
of the symmetrized determinant must equal the Burau route's. That is
14,699 words at the default range; all 887,750 mixed-sign words there
would take about half an hour.

Several assignments survive (transposing V, or flipping signs of both
off-diagonal contributions, leaves the determinant alone); the shipped
choice is asserted to be among them.
"""

import argparse
import itertools
import sys
import time

import homolink.seifert as seifert
from homolink.burau import alexander_via_burau
from homolink.enumeration import orbit_canonical, words_with_counts
from homolink.seifert import build_surface
from homolink.skein import conway_skein
from homolink.words import BraidWord, homogeneous_letters, parse_word

PAIR_CHOICES = ((0, 1), (0, -1), (1, 0), (-1, 0))
# the last two words alone cut the 256 survivors of the first five to the
# final eight, so a small range validates only those
SEEDS = [parse_word(text) for text in (
    "1 1", "1 1 1", "-1 -1 -1", "1 1 2 2", "1 -2 1 -2",
    "1 -2 1 -2 1 -2", "1 -2 1 1 -2 1")]

SHIPPED = (seifert._SELF, seifert._SAME_COL_POS, seifert._SAME_COL_NEG,
           seifert._CROSS_OPEN, seifert._CROSS_CLOSE)


def with_constants(consts, fn):
    names = ("_SELF", "_SAME_COL_POS", "_SAME_COL_NEG",
             "_CROSS_OPEN", "_CROSS_CLOSE")
    saved = [getattr(seifert, n) for n in names]
    try:
        for n, v in zip(names, consts):
            setattr(seifert, n, v)
        return fn()
    finally:
        for n, v in zip(names, saved):
            setattr(seifert, n, v)


def matches(cases, invariant):
    """For with_constants: does invariant(Seifert matrix) give the expected
    value on every (surface, expected) case?"""
    def run():
        for surface, want in cases:
            try:
                got = invariant(seifert.seifert_matrix(surface))
            except RuntimeError:
                return False
            if got != want:
                return False
        return True
    return run


def skein_check(words):
    """Seifert Conway must equal the skein route's on every word."""
    return matches([(build_surface(w), conway_skein(w)) for w in words],
                   seifert.conway_from_seifert)


def mixed_sign_orbit_words(homogeneous):
    """One word per symmetry orbit of the mixed-sign words on the column
    sequences of the given words."""
    for w in homogeneous:
        if min(w.letters) < 0:
            continue    # one all-positive word per column sequence
        for signs in itertools.product((1, -1), repeat=len(w.letters)):
            letters = tuple(s * x for s, x in zip(signs, w.letters))
            if (not homogeneous_letters(letters)
                    and orbit_canonical(BraidWord(w.strands, letters))
                    == letters):
                yield BraidWord(w.strands, letters)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--max-m", type=int, default=8)
    args = ap.parse_args(argv)

    candidates = [(self_sign,) + pairs
                  for self_sign in (1, -1)
                  for pairs in itertools.product(PAIR_CHOICES, repeat=4)]
    print(f"scanning {len(candidates)} candidate conventions "
          f"on {len(SEEDS)} seed words")
    t0 = time.monotonic()
    seeds = skein_check(SEEDS)
    survivors = [c for c in candidates if with_constants(c, seeds)]
    print(f"{len(survivors)} survive the seeds ({time.monotonic()-t0:.1f}s)")

    words = [w for n in range(2, args.max_n + 1)
             for m in range(2 * (n - 1), args.max_m + 1)
             for w in words_with_counts(n, m)]
    print(f"validating survivors on {len(words)} words "
          f"(n <= {args.max_n}, m <= {args.max_m})")
    t0 = time.monotonic()
    full = skein_check(words)
    survivors = [c for c in survivors if with_constants(c, full)]
    print(f"{len(survivors)} survive the homogeneous words "
          f"({time.monotonic()-t0:.1f}s)")

    t0 = time.monotonic()
    mixed = list(mixed_sign_orbit_words(words))
    print(f"validating survivors on {len(mixed)} mixed-sign orbit "
          "representatives against the burau alexander")
    burau = matches([(build_surface(w), alexander_via_burau(w))
                     for w in mixed], seifert.alexander_from_seifert)
    final = [c for c in survivors if with_constants(c, burau)]
    print(f"{len(final)} survive the full range ({time.monotonic()-t0:.1f}s)")
    for c in final:
        mark = "  <- shipped" if c == SHIPPED else ""
        print(f"  self={c[0]:+d} same_col_pos={c[1]} same_col_neg={c[2]} "
              f"cross_open={c[3]} cross_close={c[4]}{mark}")
    if SHIPPED not in final:
        print("ERROR: the shipped convention is not a survivor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
