"""Command-line front end.

Subcommands: analyze, enumerate, monodromy, verify-table, bounds.
Exit codes: 0 success, 1 a verify-table entry that fails or a malformed
table line (the table is still written), 2 parse failure (a negative
--degree or --genus too), an output file that cannot be written or a
reference-table defect (two verified entries with one signature; one
`table defect: ...` line), 3 disconnected word (split factors listed), 4
inhomogeneous input where homogeneity is required, 5 work cap exceeded
(Conway degree over 5, a bound over degree 715). A word that is both split
and inhomogeneous is refused as split by every command. Engines and
commands refuse by raising; `main` alone maps each error type to its exit
code and stderr lines. Output is deterministic for a fixed configuration;
JSON reports carry a "schema": 1 version field, all file I/O is UTF-8 and
every file is written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .burau import alexander_via_burau
from .enumeration import (SearchSpace, bound_n, bound_p, classify,
                          report_to_csv, report_to_json)
from .errors import (BraidSyntaxError, CapExceededError,
                     DisconnectedWordError, InhomogeneousWordError,
                     TableDefectError)
from .jones import JONES_LENGTH_CAP, jones_polynomial
from .monodromy import (char_poly, homology_action, matrix_order,
                        monodromy_from_seifert, monodromy_order_bound,
                        twist_sequence)
from .polynomials import ConwayPolynomial, equal_up_to_unit
from .reference import table_rows, verify_entry, write_table, write_text
from .seifert import (alexander_from_seifert, build_surface,
                      conway_from_seifert, seifert_matrix)
from .skein import conway_skein, degree_and_leading
from .words import (component_count, generator_signs, is_homogeneous,
                    letter_counts, normalize_nonweak, parse_word,
                    require_connected, require_homogeneous, weak_indices,
                    word_text, word_to_json)

EXIT_OK = 0
EXIT_UNVERIFIED = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_INHOMOGENEOUS = 4
EXIT_CAP = 5


def _emit(text=""):
    sys.stdout.write(text + "\n")


def _fail(code, message):
    sys.stderr.write(message + "\n")
    return code


def _write(writer, data, path) -> int:
    """writer(data, path); a file that cannot be written is one stderr line
    and EXIT_PARSE."""
    try:
        writer(data, path)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot write {path}: "
                                 f"{exc.strerror or exc}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    w = parse_word(args.word, args.strands)
    require_connected(w, "analyze")

    # connected, so no generator is absent: alpha(i) is +-1, or None if mixed
    q = letter_counts(w.letters, w.strands)[1:]
    alpha = generator_signs(w.letters, w.strands)[1:]
    homogeneous = is_homogeneous(w)
    weak = sorted(weak_indices(w))
    comps = component_count(w)
    report = {
        "schema": 1,
        "word": word_to_json(w),
        "length": len(w.letters),
        "homogeneous": homogeneous,
        "weak_indices": weak,
        "q": q,
        "alpha": [0 if a is None else a for a in alpha],
        "components": comps,
        "euler_characteristic": w.strands - len(w.letters),
    }

    alex = alexander_via_burau(w)
    report["alexander"] = alex.to_json()

    skein = surface = norm = None
    if homogeneous:
        norm = normalize_nonweak(w)
        report["normalized"] = word_to_json(norm)
        deg, lead = degree_and_leading(w)
        report["degree"] = deg
        report["leading_coefficient"] = lead
        if comps == 1:
            report["genus"] = deg // 2
        skein = conway_skein(w)
        V = seifert_matrix(build_surface(w))
        surface = conway_from_seifert(V)
        if (surface.degree, surface.leading_coefficient) != (deg, lead):
            raise RuntimeError(f"degree cross-check failed on {w}: formula "
                               f"({deg}, {lead:+d}) != seifert "
                               f"({surface.degree}, "
                               f"{surface.leading_coefficient:+d})")
        report["conway_skein"] = skein.to_json()
        report["conway_seifert"] = surface.to_json()
        report["routes_agree"] = skein == surface
        seifert_alex = alexander_from_seifert(V)
        if seifert_alex != alex:
            raise RuntimeError(f"alexander cross-check failed on {w}: burau "
                               f"{alex.as_dict()} != seifert "
                               f"{seifert_alex.as_dict()}")

    jones = None
    if len(w.letters) <= JONES_LENGTH_CAP:
        jones = jones_polynomial(w)
    report["jones"] = None if jones is None else jones.to_json()

    if args.fmt == "json":
        _emit(json.dumps(report, sort_keys=True))
        return EXIT_OK

    _emit(f"word: [{word_text(w)}] on {w.strands} strands, length "
          f"{len(w.letters)}")
    _emit(f"homogeneous: {homogeneous}")
    _emit(f"occurrences q: {q}")
    _emit(f"signs alpha: {alpha}")
    _emit(f"weak indices: {weak or 'none'}")
    _emit(f"components: {comps}")
    _emit(f"surface euler characteristic: {report['euler_characteristic']}")
    if homogeneous:
        _emit(f"normalized (non-weak) word: [{word_text(norm)}] on "
              f"{norm.strands} strands")
        _emit(f"conway degree: {report['degree']}, leading coefficient "
              f"{report['leading_coefficient']:+d}")
        if "genus" in report:
            _emit(f"genus: {report['genus']}")
        _emit(f"conway (skein route):   {skein}")
        _emit(f"conway (seifert route): {surface}")
        _emit(f"routes agree: {report['routes_agree']}")
    else:
        _emit("word is not homogeneous: conway/degree formulas need a "
              "homogeneous word, reporting determinant-route alexander only")
    _emit(f"alexander (symmetric): {alex}")
    if jones is None:
        _emit(f"jones: skipped (length over cap {JONES_LENGTH_CAP})")
    else:
        _emit(f"jones: {jones}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    space = SearchSpace(degree=args.degree, genus=args.genus)
    report = classify(space)

    payload = report_to_json(report)
    csv_text = report_to_csv(report)
    if args.json_path and _write(
            write_text, json.dumps(payload, sort_keys=True, indent=2) + "\n",
            args.json_path):
        return EXIT_PARSE
    if args.csv_path and _write(write_text, csv_text, args.csv_path):
        return EXIT_PARSE

    if args.fmt == "json":
        _emit(json.dumps(payload, sort_keys=True))
    elif args.fmt == "csv":
        sys.stdout.write(csv_text)
    else:
        mode = (f"degree {space.degree}" if space.degree is not None
                else f"genus {space.genus} (knots)")
        _emit(f"{mode}: {len(report.classes)} classes")
        for ix, c in enumerate(report.classes):
            conway = ConwayPolynomial(c.signature.conway)
            _emit(f"  [{ix}] rep [{word_text(c.representative)}] on "
                  f"{c.representative.strands} strands | components "
                  f"{c.signature.component_count} | conway {conway} | "
                  f"{c.matched} | orbits {c.size}")
        for note in report.notes:
            _emit(f"note: {note}")
    return EXIT_OK


def cmd_monodromy(args) -> int:
    w = parse_word(args.word, args.strands)
    require_connected(w, "monodromy")
    require_homogeneous(w, "monodromy")
    norm = normalize_nonweak(w)
    twists = twist_sequence(norm)
    V = seifert_matrix(build_surface(norm))
    act = homology_action(twists, V)
    seif_act = monodromy_from_seifert(V)
    cp = char_poly(act)
    alex = alexander_from_seifert(V)
    verdict = equal_up_to_unit(cp, alex)

    report = {
        "schema": 1,
        "word": word_to_json(norm),
        "twists": [{"loop": [i, j], "sign": s} for (i, j), s in twists],
        "homology_matrix": [list(row) for row in act.matrix],
        "char_poly": cp.to_json(),
        "alexander": alex.to_json(),
        "alexander_match": verdict,
        "form_preserved": act.preserves_form(),
        "routes_agree": act.matrix == seif_act.matrix,
    }
    # a homogeneous word without weak indices on 2 strands is sigma_1^(+-q)
    # with q >= 2, the torus shape monodromy_order_bound accepts
    is_torus = norm.strands == 2
    if is_torus:
        report["order_bound"] = monodromy_order_bound(norm)
        report["order"] = matrix_order(act, report["order_bound"])

    if args.fmt == "json":
        _emit(json.dumps(report, sort_keys=True))
        return EXIT_OK

    if norm.letters != w.letters or norm.strands != w.strands:
        _emit(f"normalized to [{word_text(norm)}] on {norm.strands} strands")
    _emit(f"twists ({len(twists)}):")
    for (i, j), s in twists:
        _emit(f"  loop ({i},{j}) sign {s:+d}")
    _emit("homology action:")
    for row in act.matrix:
        _emit("  " + " ".join(f"{v:4d}" for v in row))
    _emit(f"characteristic polynomial: {cp}")
    _emit(f"alexander polynomial:      {alex}")
    _emit(f"char poly matches alexander up to unit: {verdict}")
    _emit(f"intersection form preserved: {report['form_preserved']}")
    _emit(f"twist route equals seifert route: {report['routes_agree']}")
    if is_torus:
        _emit(f"torus link order bound lcm(2,q): {report['order_bound']}, "
              f"computed homology order: {report['order']}")
    return EXIT_OK


def cmd_verify_table(args) -> int:
    path = args.table
    out_path = args.out_path or (path + ".verified")
    if os.path.realpath(out_path) == os.path.realpath(path):
        return _fail(EXIT_PARSE, f"--out {out_path} is the input table; "
                                 "verify-table never rewrites its input")
    try:
        with open(path, encoding="utf-8") as fh:
            rows = list(table_rows(fh.read()))
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_PARSE, f"cannot read {path}: {exc}")

    entries, lines = [], []
    for ln, row in rows:
        if isinstance(row, Exception):
            lines.append(f"line {ln}: malformed entry skipped ({row})")
            continue
        entry, detail = verify_entry(row)
        entries.append(entry)
        lines.append(f"{entry.name}: {'ok' if entry.verified else 'FAIL'} "
                     f"({detail})")
    if _write(write_table, entries, out_path):
        return EXIT_PARSE

    for line in lines:
        _emit(line)
    ok_count = sum(entry.verified for entry in entries)
    _emit(f"verified {ok_count}, failed {len(entries) - ok_count}, "
          f"malformed {len(rows) - len(entries)}; wrote {out_path}")
    return (EXIT_OK if ok_count == len(entries) == len(rows)
            else EXIT_UNVERIFIED)


def cmd_bounds(args) -> int:
    if args.degree is None and args.genus is None:
        return _fail(EXIT_PARSE, "bounds needs --degree and/or --genus")
    # both values before any output, so a refused bound prints nothing
    lines = [f"{name}({v}) = {bound(v)}" for name, bound, v in (
        ("bound_p", bound_p, args.degree), ("bound_n", bound_n, args.genus))
        if v is not None]
    _emit("\n".join(lines))
    return EXIT_OK


def _build_parser():
    p = argparse.ArgumentParser(
        prog="homolink",
        description="invariants and classification of homogeneous braid "
                    "closures")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_word(sp):
        sp.add_argument("word", help="whitespace-separated signed letters, "
                                     "e.g. \"1 -2 1 -2\"")
        sp.add_argument("--strands", type=int, default=None)
        sp.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json"))

    sp = sub.add_parser("analyze", help="invariants of one closure")
    add_word(sp)

    sp = sub.add_parser("enumerate", help="classify a degree or genus range")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=int)
    group.add_argument("--genus", type=int)
    sp.add_argument("--format", dest="fmt", default="text",
                    choices=("text", "json", "csv"))
    sp.add_argument("--json", dest="json_path", default=None,
                    help="also write the JSON report here")
    sp.add_argument("--csv", dest="csv_path", default=None,
                    help="also write the CSV summary here")

    sp = sub.add_parser("monodromy", help="twist factorization and "
                                          "homology action")
    add_word(sp)

    sp = sub.add_parser("verify-table", help="recompute reference entries")
    sp.add_argument("table", help="JSONL reference table path")
    sp.add_argument("--out", dest="out_path", default=None,
                    help="output path (default: <table>.verified)")

    sp = sub.add_parser("bounds", help="candidate-count bounds")
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--genus", type=int, default=None)
    return p


_PARSER = _build_parser()
_COMMANDS = {
    "analyze": cmd_analyze,
    "enumerate": cmd_enumerate,
    "monodromy": cmd_monodromy,
    "verify-table": cmd_verify_table,
    "bounds": cmd_bounds,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    for flag in ("degree", "genus"):    # enumerate and bounds take these
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            return _fail(EXIT_PARSE,
                         f"--{flag} must be non-negative, got {value}")
    try:
        return _COMMANDS[args.subcommand](args)
    except BraidSyntaxError as exc:
        return _fail(EXIT_PARSE, f"parse error: {exc}")
    except DisconnectedWordError as exc:
        return _fail(EXIT_DISCONNECTED, "\n".join(
            ["disconnected word; split closure with factors:"]
            + [f"  [{word_text(f)}] on {f.strands} strands"
               for f in exc.factors]))
    except InhomogeneousWordError as exc:
        return _fail(EXIT_INHOMOGENEOUS, str(exc))
    except CapExceededError as exc:
        return _fail(EXIT_CAP, f"cap exceeded: {exc}")
    except TableDefectError as exc:
        return _fail(EXIT_PARSE, f"table defect: {exc}")


if __name__ == "__main__":
    sys.exit(main())
