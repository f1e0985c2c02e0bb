"""Shipped reference table: loading, verification, defect detection."""

import json
from dataclasses import replace

import pytest

from homolink.enumeration import SearchSpace, classify
from homolink.errors import TableDefectError
from homolink.reference import (
    entry_signature,
    entry_to_json,
    find_entry,
    load_reference_table,
    parse_entry,
    verify_entry,
    verify_table,
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
    new, details = verify_table(reference_entries)
    bad = [d for e, d in zip(new, details) if not e.verified]
    assert not bad, bad
    assert len(details) == 22
    # no entry rests on one route
    assert all(d.endswith("(burau and seifert match published)")
               for d in details), details


def test_verify_entry_detail_mentions_both_routes():
    _, detail = verify_entry(find_entry("3_1"))
    assert "seifert" in detail
    # the mixed-sign word is checked on the surface route too
    _, detail = verify_entry(find_entry("8_20"))
    assert detail == "burau and seifert match published"


def test_verify_entry_flags_wrong_value():
    entry = find_entry("3_1")
    wrong = replace(entry, word=parse_word("1 1 1 1 1"))
    new, detail = verify_entry(wrong)
    assert not new.verified
    assert "disagrees" in detail


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


def test_load_reports_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = entry_to_json(find_entry("hopf"))
    path.write_text(json.dumps(good) + "\n\n{\"name\": \"broken\"}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_reference_table(path)


def test_entry_signature_matches_word_signature():
    from homolink.enumeration import link_signature
    e = find_entry("4_1")
    assert entry_signature(e) == link_signature(e.word)


def test_duplicate_signatures_abort_classification(monkeypatch):
    tref = find_entry("3_1")
    twin = replace(tref, name="3_1_copy")
    monkeypatch.setattr("homolink.reference.load_reference_table",
                        lambda path=None: [tref, twin])
    with pytest.raises(TableDefectError):
        classify(SearchSpace(degree=2))


def test_unverified_entries_is_skipped_with_note(monkeypatch):
    tref = find_entry("3_1")
    off = replace(tref, verified=False)
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
