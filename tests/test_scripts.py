"""Smoke runs of the scripts under scripts/, so they do not rot."""

import runpy
from pathlib import Path

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


def test_verify_reference_table_verifies_every_entry(capsys):
    script = load("verify_reference_table")
    assert script["main"]([]) == 0
    out = capsys.readouterr().out
    assert "verified 22 of 22 entries" in out
    assert out.count("(burau and seifert match published)") == 22
