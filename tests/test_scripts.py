"""The package's one front end and its export guard: every definition is
read by live package code, or allowlisted with a reader outside the tests."""

import ast
from pathlib import Path

import homolink
from test_perfbench_names import load_tracing, worker_reads

ROOT = Path(__file__).resolve().parent.parent


def test_no_second_front_end():
    # the report-file format (json.dumps with indent=) lives only in cli.py
    package = sorted(Path(homolink.__file__).parent.glob("*.py"))
    assert {path.name for path in package
            if "indent=" in path.read_text(encoding="utf-8")} == {"cli.py"}


# exported names that no module of the package reads, each a test oracle or
# a seam that perfbench/ reads, with that reader; the oracles move to
# tests/oracles.py once perfbench/ stops reading them
ORACLES_AND_SEAMS = {
    "jones_kauffman": "brute-force state sum, the tests' second Jones route; "
                      "perfbench/tracing.py wraps it",
    "enumerate_words": "raw word stream, the oracle for classify's orbit "
                       "walk; perfbench/tracing.py streams it",
    "action_of_word": "twist-route action in one call; perfbench/worker.py "
                      "and perfbench/tracing.py read it",
    "symmetry_reduce": "orbit reduction of any word stream, the oracle for "
                       "classify's orbits; perfbench/tracing.py wraps it",
}

# unexported definitions that only the oracles above read, directly or
# through one another
ORACLE_HELPERS = {"words_with_counts", "_column_sequences", "orbit_canonical",
                  "_UnionFind", "_CIRCLE", "add"}

# unexported definitions that no module of the package reads, kept so that
# a reader outside the tests still resolves them, with that reader
TRACED_SEAMS = {
    "det": "determinant of a Laurent-dict matrix, no package caller since "
           "Burau packs its own minor; perfbench/tracing.py wraps it and "
           "tests/test_perfbench_names.py asserts that boundary",
}


def _own_names(top):
    """The names a top-level statement defines."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    if isinstance(top, ast.Assign):
        return {t.id for t in top.targets if isinstance(t, ast.Name)}
    return set()


def _own_keys(module, top):
    return {(module, name) for name in _own_names(top)}


def _scopes(statements):
    """Per module, the (module, name) that each name it reads stands for:
    its own top-level names, then those it takes by `from .mod import`."""
    scopes = {}
    for module, top in statements:
        scope = scopes.setdefault(module, {})
        for name in _own_names(top):
            scope[name] = (module, name)
        if isinstance(top, ast.ImportFrom) and top.level == 1:
            for alias in top.names:
                scope.setdefault(alias.asname or alias.name,
                                 (top.module, alias.name))
    return scopes


def _reads(module, top, scopes):
    """The top-level definitions a statement reads as names, resolved in
    its own module and leaving out its own names."""
    scope = scopes[module]
    return {scope[node.id] for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id in scope
            } - _own_keys(module, top)


def _package_statements():
    """(module, statement) for each top-level statement of the package."""
    return [(path.stem, top)
            for path in Path(homolink.__file__).parent.glob("*.py")
            if path.name != "__init__.py"
            for top in ast.parse(path.read_text(encoding="utf-8")).body]


def _unread(statements, skip):
    """The names of definitions that nothing live reads.

    A top-level definition is read where a statement names it, in its own
    module or in one that imports it, so a local variable of another module
    that shares its name does not count. A definition named in skip, or one
    found unread, has its own reads left out, until no more fall, so a name
    that only an oracle or dead code reads counts as unread. A method or
    property of a live class, "Class.name", is read where a live statement
    reads it as an attribute.
    """
    scopes = _scopes(statements)
    defined = set().union(*(_own_keys(*st) for st in statements))
    dead = set()
    while True:
        live = [st for st in statements
                if not _own_keys(*st) & (skip | dead)]
        read = set().union(*(_reads(*st, scopes) for st in live))
        if defined - read == dead:
            break
        dead = defined - read
    attributes = {node.attr for _, top in live for node in ast.walk(top)
                  if isinstance(node, ast.Attribute)}
    # dunders are exempt, and record fields are not functions
    members = {f"{top.name}.{node.name}" for _, top in live
               if isinstance(top, ast.ClassDef) for node in top.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("__")
               and node.name not in attributes}
    return {name for _, name in dead} | members


def test_package_exports_what_the_program_runs():
    statements = _package_statements()
    skip = {key for st in statements for key in _own_keys(*st)
            if key[1] in ORACLES_AND_SEAMS}
    unread = _unread(statements, skip)
    # __version__ is package metadata, not code
    exported = {name for name in homolink.__all__ if not name.startswith("__")}
    assert exported & unread == ORACLES_AND_SEAMS.keys()
    assert unread == (ORACLES_AND_SEAMS.keys() | TRACED_SEAMS.keys()
                      | ORACLE_HELPERS)
    # once a statement reads each oracle, every helper is live: an oracle
    # reaches it, directly or through other helpers
    readers = [(module, ast.parse(name).body[0]) for module, name in skip]
    assert _unread(statements + readers, set()) == TRACED_SEAMS.keys()


def _outside_reads():
    """The package names that perfbench/ reads: the traced boundaries and
    stream and the worker's attribute paths. The files are read, not
    changed."""
    tracing = load_tracing()
    names = {attr for _, attr, _ in tracing.BOUNDARIES} | {tracing.STREAM[1]}
    return names | {path[-1] for path in worker_reads()}


def test_every_allowlisted_name_has_a_reader_outside_the_tests():
    # an oracle that perfbench/ stops reading is named here, to move to
    # tests/oracles.py; test_package_exports_what_the_program_runs holds
    # each helper to reads by these names alone
    allowed = ORACLES_AND_SEAMS.keys() | TRACED_SEAMS.keys()
    assert allowed - _outside_reads() == set()


def test_tests_run_this_checkout():
    # pyproject.toml puts src/ on the path, so an installed copy of the
    # package cannot stand in for the code under test
    here = Path(homolink.__file__).resolve()
    assert here.parent == ROOT / "src" / "homolink"
