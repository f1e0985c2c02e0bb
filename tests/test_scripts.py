"""Smoke runs of the scripts under scripts/, so they do not rot."""

import ast
import re
import runpy
from pathlib import Path

import homolink

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    # run_path does not set __name__ to "__main__", so main() is not called
    return runpy.run_path(str(SCRIPTS / f"{name}.py"))


def test_calibrate_conventions_keeps_the_shipped_constants(capsys):
    script = load("calibrate_conventions")
    assert script["main"](["--max-n", "3", "--max-m", "5"]) == 0
    out = capsys.readouterr().out
    assert "8 survive the full range" in out
    assert out.count("<- shipped") == 1


def test_no_second_front_end():
    # the CLI alone verifies the table and writes the reports, and the
    # report-file format (json.dumps with indent=) lives only in cli.py
    calls = re.compile(r"\b(verify_entry|classify|report_to_json|"
                       r"report_to_csv|write_text)\(")
    scripts = sorted(SCRIPTS.glob("*.py"))
    for path in scripts:
        assert not calls.search(path.read_text(encoding="utf-8")), path.name
    package = sorted(Path(homolink.__file__).parent.glob("*.py"))
    assert {path.name for path in scripts + package
            if "indent=" in path.read_text(encoding="utf-8")} == {"cli.py"}


# exported names that no module of the package reads, each a test oracle or
# a seam, with the reason it stays exported
ORACLES_AND_SEAMS = {
    "jones_kauffman": "brute-force state sum, the tests' second Jones route",
    "enumerate_words": "raw word stream, the oracle for orbit_candidates",
    "words_with_counts": "raw words of one (n, m), read by enumerate_words",
    "unreduced_burau": "Burau matrix, held to the braid relations in tests",
    "conway_to_laurent": "z = t^1/2 - t^-1/2, the tests' Conway-Alexander "
                         "bridge",
    "reduction_step": "one skein step, for the termination tests",
    "complexity": "the skein recursion's termination order",
    "action_of_word": "twist-route action in one call; perfbench reads it",
    "symmetry_reduce": "orbit reduction of any word stream, the oracle for "
                       "classify's orbits; perfbench wraps it",
    "class_key": "class key of one word, the oracle for classify's "
                 "per-sequence keys",
}


def _names_read(tree, skip):
    """Names a module reads, leaving out each top-level definition's reads
    of its own name and everything read inside a definition named in
    skip, so a name that only an oracle reads counts as unread."""
    read = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        if own in skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != own:
                read.add(name)
    return read


def test_package_exports_what_the_program_runs():
    read = set()
    for path in Path(homolink.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read |= _names_read(tree, ORACLES_AND_SEAMS)
    # __version__ is package metadata, not code
    unread = {name for name in homolink.__all__
              if not name.startswith("__") and name not in read}
    assert unread == ORACLES_AND_SEAMS.keys()
