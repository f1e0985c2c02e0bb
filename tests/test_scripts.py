"""Smoke runs of the scripts under scripts/, so they do not rot."""

import json
import runpy
from pathlib import Path

from homolink.enumeration import SearchSpace, classify, report_to_json

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


def test_reproduce_tables_writes_the_classification_reports(tmp_path, capsys):
    script = load("reproduce_tables")
    assert script["main"](["--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(f"{name}.{ext}" for name in (
        "degree_0", "degree_1", "degree_2", "degree_3", "degree_4",
        "genus_0", "genus_1", "genus_2") for ext in ("json", "csv"))
    expected = json.dumps(report_to_json(classify(SearchSpace(degree=2))),
                          sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "degree_2.json").read_text() == expected
    assert f"reports written to {tmp_path}/" in capsys.readouterr().out
