"""Start-up cost: what `import homolink.cli` loads.

Each `homolink` command runs in a fresh process, and for the words the
paper works with the import takes longer than the command itself. The
records are plain slots classes and the polynomial printer uses
math.gcd, so the import needs neither `dataclasses` (which imports
`inspect`, `ast`, `dis` and `tokenize`) nor `fractions` (which imports
`decimal`).
"""

import ast
import subprocess
import sys
from pathlib import Path

import homolink

HEAVY = {"dataclasses", "inspect", "fractions", "decimal"}
PACKAGE = Path(homolink.__file__).resolve().parent

# Prints the modules that importing the CLI adds to those of the bare
# interpreter, so that what `site` preloads on a host does not count.
PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import homolink.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_heavy_module():
    out = subprocess.run([sys.executable, "-I", "-c", PROBE,
                          str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    added = set(out.split())
    assert "homolink.cli" in added
    assert added & HEAVY == set()


def test_package_source_imports_no_heavy_module():
    # the same rule read from the source, whatever the host preloads
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = {alias.name.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
        names |= {(node.module or "").split(".")[0]
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert not names & HEAVY, f"{path.name} imports {names & HEAVY}"
