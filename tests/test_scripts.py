"""Smoke runs of the scripts under scripts/, so they do not rot."""

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
    calls = re.compile(r"\b(verify_table|classify|report_to_json|"
                       r"report_to_csv|write_text)\(")
    scripts = sorted(SCRIPTS.glob("*.py"))
    for path in scripts:
        assert not calls.search(path.read_text(encoding="utf-8")), path.name
    package = sorted(Path(homolink.__file__).parent.glob("*.py"))
    assert {path.name for path in scripts + package
            if "indent=" in path.read_text(encoding="utf-8")} == {"cli.py"}
