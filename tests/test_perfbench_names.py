"""Every homolink name that perfbench reads still resolves.

perfbench/tracing.py wraps functions by module and attribute name, and
perfbench/worker.py calls the engines through the package. A rename in
the package would break traced runs and passes without any test failing,
so this test reads both files (it does not change them) and looks up each
name they use.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import homolink
import homolink.cli  # noqa: F401  (the worker imports it; hl.cli must exist)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_boundaries_resolve():
    tracing = load_tracing()
    targets = [(mod, attr) for mod, attr, _ in tracing.BOUNDARIES]
    targets.append(tracing.STREAM[:2])
    for mod, attr in targets:
        assert callable(getattr(importlib.import_module(mod), attr)), attr
    mod, cls, attr, _ = tracing.METHOD
    assert callable(getattr(getattr(importlib.import_module(mod), cls), attr))
    assert ("homolink.polynomials", "det") in targets
    assert tracing.METHOD[1:3] == ("HomologyAction", "preserves_form")


def _chain(node):
    """['a', 'b', 'c'] for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def worker_reads():
    """Attribute paths under the package that worker.py reads, through the
    package object `hl` or a local bound to one of its modules."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    alias = {"hl": []}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple)
                         and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                for name, value in pairs:
                    chain = _chain(value)
                    if (isinstance(name, ast.Name) and chain
                            and chain[0] == "hl"):
                        alias[name.id] = chain[1:]
    reads = set()
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in alias:
            reads.add(tuple(alias[chain[0]] + chain[1:]))
    return reads


def test_worker_reads_resolve():
    reads = worker_reads()
    assert {("monodromy", "action_of_word"), ("skein", "_memo"),
            ("polynomials", "equal_up_to_unit"), ("cli", "main")} <= reads
    for path in reads:
        obj = homolink
        for attr in path:
            obj = getattr(obj, attr)
    # the worker calls these on the values it gets back
    assert callable(homolink.monodromy.HomologyAction.preserves_form)
    assert callable(homolink.polynomials.det)
