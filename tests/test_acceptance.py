"""Acceptance gate: eight end-to-end criteria, all checked exactly.

Each criterion is one test named test_criterion_<k>_<slug>, so a verbose
run shows one pass/fail line per criterion; the tests also print a short
summary line. Expensive sweeps are shared through session fixtures.
"""

import time
from math import lcm

import pytest

from conftest import find_entry, surface_conway
from homolink.enumeration import (
    SearchSpace,
    bound_n,
    bound_p,
    classify,
    enumerate_words,
    symmetry_reduce,
    words_with_counts,
    _orbits,
)
from homolink.monodromy import (
    action_of_word,
    char_poly,
    matrix_order,
    monodromy_from_seifert,
    monodromy_order_bound,
    twist_sequence,
)
from homolink.polynomials import equal_up_to_unit
from homolink.reference import entry_signature
from homolink.seifert import (
    alexander_from_seifert,
    build_surface,
    seifert_matrix,
)
from homolink.skein import conway_skein, degree_and_leading
from homolink.words import BraidWord


@pytest.fixture(scope="session")
def survey_reps():
    """Orbit representatives of all non-weak words with n <= 4, m <= 9;
    classify's orbit walk names each of them once, past the cap too."""
    reps = []
    for n in range(2, 5):
        for m in range(2 * (n - 1), 10):
            full = symmetry_reduce(words_with_counts(n, m))
            walked = sorted(canon for canon, _ in _orbits(n, m, False))
            assert walked == [w.letters for w in full], (n, m)
            reps.extend(full)
    assert len(reps) == 2122, "survey enumeration drifted"
    return reps


@pytest.fixture(scope="session")
def degree_reports():
    return {k: classify(SearchSpace(degree=k)) for k in range(5)}


@pytest.fixture(scope="session")
def genus_reports():
    t0 = time.monotonic()
    reports = {g: classify(SearchSpace(genus=g)) for g in range(3)}
    return reports, time.monotonic() - t0


def test_criterion_1_degree_and_leading_formula(survey_reps):
    t0 = time.monotonic()
    for w in survey_reps:
        p = conway_skein(w)
        expected = len(w.letters) - w.strands + 1
        d, lead = degree_and_leading(w)
        assert d == expected
        assert p.degree == expected, w
        assert p.leading_coefficient == lead, w
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"criterion 1: PASS - degree and leading coefficient exact on "
          f"{len(survey_reps)} orbit representatives in {elapsed:.1f}s")


def test_criterion_2_skein_and_seifert_routes_agree(survey_reps):
    for w in survey_reps:
        assert surface_conway(w) == conway_skein(w), w
    print(f"criterion 2: PASS - both conway routes coefficient-exact on "
          f"{len(survey_reps)} orbit representatives")


def test_criterion_3_low_degree_classification(degree_reports):
    expected = {
        0: {"unknot"},
        1: {"hopf"},
        2: {"3_1", "4_1", "chain_3"},
        3: {"torus_2_4", "3_1_meridian", "whitehead", "chain_4",
            "degree3_link_a", "degree3_link_b"},
    }
    counts = {0: 1, 1: 1, 2: 3, 3: 6}
    for k, names in expected.items():
        report = degree_reports[k]
        assert len(report.classes) == counts[k], k
        assert {c.matched for c in report.classes} == names, k
    assert len(degree_reports[2].classes) <= 10
    assert len(degree_reports[3].classes) <= 22
    assert any("chain" in note for note in degree_reports[2].notes)
    assert any("double-counts" in note for note in degree_reports[3].notes)
    print("criterion 3: PASS - degree 0,1,2,3 give exactly 1,1,3,6 classes, "
          "all matched to verified reference links, table defects noted")


def test_criterion_4_low_genus_knot_classification(genus_reports):
    reports, elapsed = genus_reports
    expected = {
        0: {"unknot"},
        1: {"3_1", "4_1"},
        2: {"5_1", "6_2", "6_3", "7_6", "7_7", "8_12", "granny", "square",
            "sum_3_1_4_1", "sum_4_1_4_1"},
    }
    counts = {0: 1, 1: 2, 2: 10}
    for g, names in expected.items():
        report = reports[g]
        assert len(report.classes) == counts[g], g
        assert {c.matched for c in report.classes} == names, g
        assert all(c.signature.component_count == 1 for c in report.classes)
    assert elapsed < 600
    print(f"criterion 4: PASS - genus 0,1,2 give exactly 1,2,10 knot "
          f"classes in {elapsed:.1f}s")


def test_criterion_5_candidate_count_bounds():
    assert bound_p(2) == 66
    assert bound_p(3) == 5962
    raw = {k: sum(1 for _ in enumerate_words(SearchSpace(degree=k)))
           for k in (1, 2, 3)}
    assert raw == {1: 2, 2: 26, 3: 802}
    for k, count in raw.items():
        assert count <= bound_p(k), k
    assert sum(1 for _ in enumerate_words(SearchSpace(genus=1))) <= bound_n(1)
    assert sum(1 for _ in enumerate_words(SearchSpace(genus=2))) <= bound_n(2)
    print("criterion 5: PASS - bound_p(2) = 66 and bound_p(3) = 5962, raw "
          "enumeration counts stay within the bounds")


def test_criterion_6_mixed_sign_knot_is_absent(degree_reports, genus_reports):
    sig = entry_signature(find_entry("8_20"))
    reports, _ = genus_reports
    for g, report in reports.items():
        assert sig not in {c.signature for c in report.classes}, g
    for k, report in degree_reports.items():
        assert sig not in {c.signature for c in report.classes}, k
    print("criterion 6: PASS - the verified mixed-sign knot signature "
          "appears in no genus <= 2 and no degree <= 4 class")


def test_criterion_7_monodromy_cross_checks():
    t0 = time.monotonic()
    count = 0
    for n in range(2, 5):
        for m in range(2 * (n - 1), 9):
            for w in words_with_counts(n, m):
                count += 1
                seq = twist_sequence(w)
                betti = len(w.letters) - w.strands + 1
                assert len(seq) == betti <= len(w.letters), w
                act = action_of_word(w)
                assert act.preserves_form(), w
                V = seifert_matrix(build_surface(w))
                assert monodromy_from_seifert(V).matrix == act.matrix, w
                assert equal_up_to_unit(char_poly(act),
                                        alexander_from_seifert(V)), w
    elapsed = time.monotonic() - t0
    assert count == 30998, "monodromy sweep enumeration drifted"
    print(f"criterion 7: PASS - twist count, form preservation, "
          f"characteristic polynomial and route agreement hold on all "
          f"{count} words in {elapsed:.1f}s")


def test_criterion_8_torus_monodromy_orders():
    for q in range(2, 8):
        w = BraidWord(2, (1,) * q)
        act = action_of_word(w)
        M = act.matrix
        k = q - 1
        # the twist images: first basis class sums, later classes shift
        # down one slot and change sign
        assert all(M[r][0] == 1 for r in range(k)), q
        for c in range(1, k):
            for r in range(k):
                assert M[r][c] == (-1 if r == c - 1 else 0), (q, r, c)
        assert monodromy_order_bound(w) == lcm(2, q)
        if q >= 3:
            assert matrix_order(act, lcm(2, q)) == lcm(2, q), q
    print("criterion 8: PASS - torus word actions shift basis classes as "
          "required and realize order lcm(2,q) for q = 3..7")


@pytest.mark.xfail(
    strict=True,
    reason="the q = 2 fiber is an annulus: its rank-1 homology carries a "
           "zero intersection form, every twist acts as the identity, and "
           "the computed order is 1, not lcm(2,2) = 2; the order formula "
           "only holds from q = 3 up")
def test_criterion_8_annulus_order_matches_formula():
    act = action_of_word(BraidWord(2, (1, 1)))
    assert matrix_order(act, lcm(2, 2)) == lcm(2, 2)
