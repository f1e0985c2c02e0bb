#!/usr/bin/env python3
"""Regenerate the classification tables shipped in the README.

Writes one JSON and one CSV report per search space into --out (default
build/tables) and prints a short summary per space. Degrees 0..4 and
genera 0..2 take about a second together on a 2-core box; --full adds
degree 5, which takes about 12 s and 34 MB there.
"""

import argparse
import json
import pathlib
import sys
import time

from homolink.enumeration import (SearchSpace, classify, report_to_csv,
                                  report_to_json)
from homolink.reference import write_text


def spaces(full):
    for k in range(6 if full else 5):
        yield f"degree_{k}", SearchSpace(degree=k)
    for g in range(3):
        yield f"genus_{g}", SearchSpace(genus=g)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="build/tables", help="output directory")
    ap.add_argument("--full", action="store_true",
                    help="also run the degree-5 sweep")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for name, space in spaces(args.full):
        t0 = time.monotonic()
        report = classify(space)
        elapsed = time.monotonic() - t0

        write_text(json.dumps(report_to_json(report), sort_keys=True,
                              indent=2) + "\n", out / f"{name}.json")
        write_text(report_to_csv(report), out / f"{name}.csv")

        matched = sum(1 for c in report.classes if c.matched != "unidentified")
        print(f"{name}: {report.class_count} classes "
              f"({matched} matched) in {elapsed:.1f}s")
        for note in report.notes:
            print(f"  note: {note}")
    print(f"reports written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
