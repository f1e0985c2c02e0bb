#!/usr/bin/env python3
"""Recompute every reference entry and print the hand-check notes.

Every entry of the shipped table is verified on two routes, the Burau
determinant and the Seifert matrix; the surface route takes mixed-sign
words such as 8_20's too, and only a split word would skip it. A few entries
were also worked through by hand when the table was assembled; those
derivations are reprinted here so they stay part of the record.
"""

import argparse
import sys

from homolink.reference import load_reference_table, verify_table

HAND_NOTES = """
hand derivations kept with the table:

  1 1 1 2 2 2 (granny, 3 strands)
    connected sum of two positive trefoils along the middle strand, so the
    conway value is (z^2 + 1)^2 and the alexander value the square of the
    trefoil's; both engines reproduce the product exactly.

  1 1 2 3 3 2 and 1 1 2 2 3 3 (4 strands)
    both close to the 4-component chain: each column is a positive (2,2)
    torus piece plumbed along consecutive disks, the same pattern in both
    words, and both have conway z^3 and equal signatures. Listing them as
    two different degree-3 links double-counts the class.

  1 1 2 -3 2 -3 (degree3_link_a, 4 strands)
    smoothing the positive 2-column pair splits off a hopf factor; a first
    hand pass gave z * (z^2 + 1), which is wrong because the straddling
    lower letter has opposite sign, so the expansion needs the correction
    term, and the value is z - z^3, matching both engines.

  1 -2 1 3 -2 3 (degree3_link_b, 4 strands)
    same shape with the middle column negative; the value is 2z - z^3 up
    to the sign fixed by the leading coefficient rule.

  1 1 -2 1 -2 (whitehead, 3 strands)
    the two components have linking number zero, so the degree-1 term
    vanishes and the polynomial is the bare -z^3; the canonical signature
    flips it positive.
"""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--table", default=None,
                    help="JSONL table path (default: the shipped table)")
    ap.add_argument("--notes", action="store_true",
                    help="print the hand-derivation notes")
    args = ap.parse_args(argv)

    entries = load_reference_table(args.table)
    refreshed, details = verify_table(entries)
    for line in details:
        print(line)
    ok = sum(1 for e in refreshed if e.verified)
    print(f"verified {ok} of {len(refreshed)} entries")
    if args.notes:
        print(HAND_NOTES)
    return 0 if ok == len(refreshed) else 1


if __name__ == "__main__":
    sys.exit(main())
