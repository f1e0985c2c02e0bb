"""Search spaces, symmetry reduction, signatures and classification."""

import pytest
from hypothesis import given, settings

from conftest import homogeneous_connected
from homolink.enumeration import (
    CSV_COLUMNS,
    ClassificationReport,
    LinkSignature,
    SearchSpace,
    bound_n,
    bound_p,
    check_membership,
    classify,
    enumerate_words,
    link_signature,
    orbit_canonical,
    orbit_candidates,
    report_to_csv,
    report_to_json,
    symmetry_reduce,
    words_with_counts,
)
from homolink.errors import CapExceededError
from homolink.reference import find_entry
from homolink.words import (BraidWord, connected, homogeneous_letters,
                            parse_word, weak_indices)

SMALL_SPACES = ([SearchSpace(degree=k) for k in range(5)]
                + [SearchSpace(genus=g) for g in range(3)])


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace()
    with pytest.raises(ValueError):
        SearchSpace(degree=1, genus=1)
    with pytest.raises(ValueError):
        SearchSpace(degree=-1)
    s = SearchSpace(degree=3)
    assert s.parameter == 3 and not s.knots_only
    assert list(s.strand_range()) == [2, 3, 4]
    assert s.length_for(3) == 5
    g = SearchSpace(genus=2)
    assert g.parameter == 2 and g.knots_only
    assert list(g.strand_range()) == [2, 3, 4, 5]
    assert g.length_for(2) == 5


def test_enumerate_degree_one():
    words = set(enumerate_words(SearchSpace(degree=1)))
    assert words == {BraidWord(2, (1, 1)), BraidWord(2, (-1, -1))}


def test_enumerate_degree_zero_is_the_unknot_word():
    assert list(enumerate_words(SearchSpace(degree=0))) == [BraidWord(1, ())]
    assert list(enumerate_words(SearchSpace(genus=0))) == [BraidWord(1, ())]


def test_enumerated_words_are_nonweak_with_right_degree():
    for k in (2, 3):
        for w in enumerate_words(SearchSpace(degree=k)):
            assert not weak_indices(w)
            assert len(w.letters) - w.strands + 1 == k


def test_cap():
    for stream in (enumerate_words, orbit_candidates):
        with pytest.raises(CapExceededError):
            stream(SearchSpace(degree=7))
        assert next(stream(SearchSpace(degree=7, cap=7)))


def test_classify_refuses_over_cap_before_generating(monkeypatch):
    from homolink import enumeration

    def forbidden(n, m):
        raise AssertionError("generated words for a space over the cap")

    monkeypatch.setattr(enumeration, "_column_sequences", forbidden)
    with pytest.raises(CapExceededError):
        classify(SearchSpace(degree=7))


@pytest.mark.parametrize("space", SMALL_SPACES,
                         ids=lambda s: f"degree{s.degree}-genus{s.genus}")
def test_candidates_meet_every_orbit(space):
    candidates = list(orbit_candidates(space))
    assert (symmetry_reduce(candidates)
            == symmetry_reduce(enumerate_words(space)))
    for w in candidates:
        n, m = w.strands, len(w.letters)
        if space.parameter == 0:
            assert w == BraidWord(1, ())
            continue
        assert n in space.strand_range() and m == space.length_for(n)
        assert homogeneous_letters(w.letters) and connected(w.letters, n)
        assert not weak_indices(w)


def test_candidates_skip_most_raw_words():
    space = SearchSpace(degree=4)
    raw = sum(1 for _ in enumerate_words(space))
    assert raw == 45562
    assert 20 * sum(1 for _ in orbit_candidates(space)) <= raw


def test_raw_and_orbit_counts():
    expected = {0: (1, 1), 1: (2, 1), 2: (26, 5), 3: (802, 32)}
    for k, (raw, orbits) in expected.items():
        words = list(enumerate_words(SearchSpace(degree=k)))
        assert len(words) == raw
        assert len(symmetry_reduce(words)) == orbits


def test_orbit_canonical_identifies_symmetries():
    w = parse_word("1 1 -2 1 -2")
    mirror = BraidWord(3, tuple(-x for x in w.letters))
    reverse = BraidWord(3, w.letters[::-1])
    flip = BraidWord(3, tuple((1 if x > 0 else -1) * (3 - abs(x))
                              for x in w.letters))
    rot = BraidWord(3, w.letters[2:] + w.letters[:2])
    canon = orbit_canonical(w)
    for v in (mirror, reverse, flip, rot):
        assert orbit_canonical(v) == canon
    assert len(symmetry_reduce([w, mirror, reverse, flip, rot])) == 1


def test_bounds():
    assert bound_p(0) == 1
    assert bound_p(2) == 66
    assert bound_p(3) == 5962
    assert bound_n(0) == 1
    assert bound_n(1) == 66


def test_bounds_refuse_negative_arguments():
    with pytest.raises(ValueError, match="degree must be non-negative"):
        bound_p(-1)
    with pytest.raises(ValueError, match="genus must be non-negative"):
        bound_n(-1)


def test_raw_counts_respect_bounds():
    for k in (1, 2, 3):
        assert len(list(enumerate_words(SearchSpace(degree=k)))) <= bound_p(k)
    for g in (1,):
        assert len(list(enumerate_words(SearchSpace(genus=g)))) <= bound_n(g)


def test_signature_mirror_insensitive():
    for text in ["1 1 1", "1 1", "1 1 -2 1 -2", "1 1 2 2"]:
        w = parse_word(text)
        m = BraidWord(w.strands, tuple(-x for x in w.letters))
        assert link_signature(w) == link_signature(m)


def test_signature_distinguishes_granny_square():
    granny = link_signature(parse_word("1 1 1 2 2 2"))
    square = link_signature(parse_word("1 1 1 -2 -2 -2"))
    assert granny.conway == square.conway
    assert granny != square


@given(homogeneous_connected(max_n=3, max_m=6))
@settings(max_examples=40, deadline=None)
def test_signature_invariant_under_orbit(w):
    m = BraidWord(w.strands, tuple(-x for x in w.letters))
    r = BraidWord(w.strands, w.letters[::-1])
    base = link_signature(w)
    assert link_signature(m) == base
    assert link_signature(r) == base


def test_signature_degree_readoff():
    sig = link_signature(parse_word("1 1 1"))
    assert isinstance(sig, LinkSignature)
    assert sig.conway_degree == 2
    assert link_signature(BraidWord(1, ())).conway_degree == 0


def test_classify_degree_two():
    report = classify(SearchSpace(degree=2))
    assert isinstance(report, ClassificationReport)
    assert report.class_count == 3
    got = {(c.representative.strands, c.representative.letters,
            c.matched, c.size) for c in report.classes}
    assert got == {
        (2, (-1, -1, -1), "3_1", 2),
        (3, (-2, -2, -1, -1), "chain_3", 2),
        (3, (-2, 1, -2, 1), "4_1", 1),
    }
    assert any("chain" in note for note in report.notes)


def test_classify_genus_one():
    report = classify(SearchSpace(genus=1))
    assert report.class_count == 2
    assert {c.matched for c in report.classes} == {"3_1", "4_1"}
    # knots only: every class has one component
    assert all(c.signature.component_count == 1 for c in report.classes)


def test_classify_degree_cross_check_raises(monkeypatch):
    from homolink import enumeration
    monkeypatch.setattr(enumeration, "link_signature",
                        lambda w: LinkSignature(1, ((0, 1),), ()))
    with pytest.raises(RuntimeError, match="degree cross-check"):
        classify(SearchSpace(degree=1))


def test_package_has_no_assert_statements():
    # runtime checks must survive python -O, which strips assert
    import ast
    from pathlib import Path

    import homolink
    for path in sorted(Path(homolink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not found, f"{path.name} has assert on lines {found}"


def test_membership():
    assert check_membership(find_entry("3_1"), SearchSpace(genus=1))
    assert check_membership(find_entry("unknot"), SearchSpace(degree=0))
    assert not check_membership(find_entry("5_1"), SearchSpace(genus=1))


def test_membership_requires_verified_entry():
    from dataclasses import replace
    bad = replace(find_entry("3_1"), verified=False)
    with pytest.raises(ValueError):
        check_membership(bad, SearchSpace(genus=1))


def test_report_json_shape():
    report = classify(SearchSpace(degree=1))
    data = report_to_json(report)
    assert data["schema"] == 1
    assert data["space"] == {"degree": 1, "genus": None, "cap": 6}
    assert len(data["classes"]) == 1
    cls = data["classes"][0]
    assert cls["matched"] == "hopf"
    assert cls["components"] == 2
    assert cls["representative"] == {"n": 2, "word": [-1, -1]}
    assert set(cls) == {"representative", "components", "conway",
                        "jones_pair", "matched", "size"}


def test_report_csv_shape():
    report = classify(SearchSpace(degree=1))
    text = report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[2] == "-1 -1" and cells[6] == "hopf"
