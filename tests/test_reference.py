"""Shipped reference table: loading, verification, defect detection."""

import json

import pytest

from conftest import find_entry
from homolink.enumeration import SearchSpace, classify
from homolink.errors import TableDefectError
from homolink.polynomials import LaurentPolynomial
from homolink.reference import (
    ReferenceEntry,
    entry_signature,
    entry_to_json,
    load_reference_table,
    parse_entry,
    table_rows,
    verify_entry,
    write_table,
)
from homolink.words import BraidWord, parse_word

EXPECTED_NAMES = {
    "unknot", "hopf", "3_1", "4_1", "chain_3", "torus_2_4", "chain_4",
    "3_1_meridian", "whitehead", "degree3_link_a", "degree3_link_b",
    "5_1", "6_2", "6_3", "7_6", "7_7", "8_12", "granny", "square",
    "sum_3_1_4_1", "sum_4_1_4_1", "8_20",
}


def test_table_contents(reference_entries):
    assert len(reference_entries) == 22
    assert {e.name for e in reference_entries} == EXPECTED_NAMES
    assert all(e.verified for e in reference_entries)


def test_every_entry_verifies(reference_entries):
    results = [verify_entry(e) for e in reference_entries]
    bad = [(e.name, d) for e, d in results if not e.verified]
    assert not bad, bad
    assert len(results) == 22
    # no entry rests on one route
    assert all(d == "burau and seifert match published"
               for _, d in results), results


def test_verify_entry_detail_mentions_both_routes():
    _, detail = verify_entry(find_entry("3_1"))
    assert "seifert" in detail
    # the mixed-sign word is checked on the surface route too
    _, detail = verify_entry(find_entry("8_20"))
    assert detail == "burau and seifert match published"


def test_verify_entry_flags_wrong_value():
    entry = find_entry("3_1")
    wrong = ReferenceEntry(entry.name, parse_word("1 1 1 1 1"), entry.verified,
                           entry.published_alexander, entry.note)
    new, detail = verify_entry(wrong)
    assert not new.verified
    assert "disagrees" in detail
    # the right coefficients at scale 3, t^(2/3) - 1 + t^(-2/3), are a
    # different polynomial
    pub = entry.published_alexander
    new, detail = verify_entry(ReferenceEntry(
        entry.name, entry.word, entry.verified,
        LaurentPolynomial(3, pub.coeffs), entry.note))
    assert not new.verified
    assert "t^(2/3)" in detail


def test_mixed_sign_entry_word():
    e = find_entry("8_20")
    assert e.word == BraidWord(3, (1, 1, 1, -2, -1, -1, -1, -2))
    assert "mixed-sign" in e.note


def test_find_entry_raises_on_unknown():
    with pytest.raises(KeyError):
        find_entry("9_99")


def test_parse_round_trip(reference_entries):
    for entry in reference_entries:
        assert parse_entry(entry_to_json(entry)) == entry


def test_write_table_round_trip(tmp_path, reference_entries):
    path = tmp_path / "table.jsonl"
    write_table(reference_entries, path)
    again = load_reference_table(path)
    assert again == reference_entries
    # a table path is read again on every call
    write_table(reference_entries[:1], path)
    assert load_reference_table(path) == reference_entries[:1]


def test_shipped_table_is_parsed_once_and_each_call_gets_its_own_list(
        monkeypatch):
    first = load_reference_table()
    names = [entry.name for entry in first]
    first.clear()
    # the warm call parses nothing
    monkeypatch.setattr("homolink.reference.table_rows", None)
    assert [entry.name for entry in load_reference_table()] == names


def test_load_reports_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = entry_to_json(find_entry("hopf"))
    path.write_text(json.dumps(good) + "\n\n{\"name\": \"broken\"}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_reference_table(path)


def _bad_rows():
    """(row, expected message) pairs, each row one defect away from 3_1."""
    def row():
        return entry_to_json(find_entry("3_1"))

    # only z and t are polynomial variables; "q" is not read as t
    unknown_var = row()
    unknown_var["published_alexander"]["var"] = "q"
    yield unknown_var, "'q'"
    # a value of the wrong JSON type is refused, never coerced
    flag = row()
    flag["verified"] = "false"
    yield flag, "verified"
    strands = row()
    strands["n"] = 2.9
    yield strands, "integer n"
    letter = row()
    letter["word"] = [1.9, 1, 1]
    yield letter, "integer n and letters"
    coeff = row()
    coeff["published_alexander"]["coeffs"]["0"] = -1.7
    yield coeff, "coefficients"
    scale = row()
    scale["published_alexander"]["scale"] = "2"
    yield scale, "scale"
    # the table holds Alexander values at scale 2 only, so the right
    # coefficients at scale 3 are refused, not compared
    thirds = row()
    thirds["published_alexander"]["scale"] = 3
    yield thirds, "scale 2"
    listed = row()
    listed["published_alexander"]["coeffs"] = [1, -1, 1]
    yield listed, "coefficients"
    named = row()
    named["name"] = 31
    yield named, "name and note must be strings"
    noted = row()
    noted["note"] = ["x"]
    yield noted, "name and note must be strings"


def test_table_in_an_unknown_variable_is_malformed(tmp_path):
    for row, message in _bad_rows():
        with pytest.raises(ValueError, match=message):
            parse_entry(row)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        [(ln, parsed)] = table_rows(path.read_text(encoding="utf-8"))
        assert ln == 1 and isinstance(parsed, ValueError)
        with pytest.raises(ValueError, match="line 1"):
            load_reference_table(path)


# raw text, because json.dumps cannot write a key twice; plain json.loads
# would keep the last value and read each line as a well-formed 3_1
_TREFOIL_LINE = ('{"name": "3_1", "n": 2, "word": [1, 1, 1], "verified": '
                 'true, "published_alexander": {"var": "t", "scale": 2, '
                 '"coeffs": {"2": 1, "0": -1, "-2": 1}}}')


@pytest.mark.parametrize("line, key", [
    (_TREFOIL_LINE.replace('"-2": 1', '"-2": 5, "-2": 1'), "'-2'"),
    (_TREFOIL_LINE.replace('"verified": true',
                           '"verified": false, "verified": true'),
     "'verified'"),
])
def test_repeated_key_is_malformed(tmp_path, line, key):
    assert parse_entry(json.loads(_TREFOIL_LINE)) == find_entry("3_1")
    [(ln, parsed)] = table_rows(line)
    assert ln == 1 and isinstance(parsed, ValueError)
    assert str(parsed) == f"repeated key {key}"
    path = tmp_path / "repeated.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: repeated key"):
        load_reference_table(path)


def test_entry_signature_matches_word_signature():
    from homolink.enumeration import link_signature
    e = find_entry("4_1")
    assert entry_signature(e) == link_signature(e.word)


def test_duplicate_signatures_abort_classification(monkeypatch):
    tref = find_entry("3_1")
    twin = ReferenceEntry("3_1_copy", tref.word, tref.verified,
                          tref.published_alexander, tref.note)
    monkeypatch.setattr("homolink.reference.load_reference_table",
                        lambda path=None: [tref, twin])
    with pytest.raises(TableDefectError):
        classify(SearchSpace(degree=2))


def test_unverified_entries_is_skipped_with_note(monkeypatch):
    tref = find_entry("3_1")
    off = ReferenceEntry(tref.name, tref.word, False,
                         tref.published_alexander, tref.note)
    monkeypatch.setattr("homolink.reference.load_reference_table",
                        lambda path=None: [off])
    report = classify(SearchSpace(degree=1))
    assert any("unverified" in note for note in report.notes)
    assert all(c.matched == "unidentified" for c in report.classes)


def test_granny_square_share_published_value():
    g = find_entry("granny").published_alexander
    s = find_entry("square").published_alexander
    assert g == s
    assert entry_signature(find_entry("granny")) != entry_signature(
        find_entry("square"))
