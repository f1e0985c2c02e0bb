import pytest
from hypothesis import given, settings, strategies as st

from homolink import (BraidSyntaxError, BraidWord, DisconnectedWordError,
                      InhomogeneousWordError, build_surface, component_count,
                      conway_skein, degree_and_leading, is_homogeneous,
                      normalize_nonweak, parse_word, permutation,
                      seifert_matrix, shift, split_factors, twist_sequence,
                      weak_indices, word_from_json, word_to_json)
from homolink.words import connected, generator_signs, letter_counts

from conftest import (any_words, cyclic_permute, far_commute,
                      homogeneous_connected, surface_conway)


def test_parse_defaults_strands():
    w = parse_word("1 1 1")
    assert (w.strands, w.letters) == (2, (1, 1, 1))


def test_parse_explicit_strands():
    w = parse_word("1 3 -5", 6)
    assert w.strands == 6
    assert w.letters == (1, 3, -5)


def test_parse_empty_is_unknot_word():
    w = parse_word("")
    assert (w.strands, w.letters) == (1, ())


def test_parse_rejects_zero_and_out_of_range():
    with pytest.raises(BraidSyntaxError):
        parse_word("0")
    with pytest.raises(BraidSyntaxError):
        parse_word("2", 2)
    with pytest.raises(BraidSyntaxError):
        parse_word("one")


def test_parse_reads_only_signed_ascii_digits():
    assert parse_word("+1 -2 01").letters == (1, -2, 1)
    # int() accepts all of these
    for text in ("1_0", "\uff11", "\u0662", "1 2_2"):
        with pytest.raises(BraidSyntaxError, match="not an integer token"):
            parse_word(text)


def test_profile_figure_eight():
    letters = parse_word("1 -2 1 -2").letters
    assert letter_counts(letters, 3) == [0, 2, 2]
    assert generator_signs(letters, 3) == [0, 1, -1]


def test_profile_mixed_sign_alpha_undefined():
    assert letter_counts((1, -1), 2) == [0, 2]
    assert generator_signs((1, -1), 2) == [0, None]
    # neither the first nor the last letter of a mixed generator decides
    assert generator_signs((-1, 2, 1, -1), 3) == [0, None, 1]
    assert generator_signs((1, 2, -1, 1), 3) == [0, None, 1]


def test_profile_empty():
    assert letter_counts((), 3) == [0, 0, 0]
    assert generator_signs((), 3) == [0, 0, 0]
    assert generator_signs((), 1) == [0]
    # an absent generator reads 0 next to present ones
    assert generator_signs((-1, -1), 4) == [0, -1, 0, 0]


@given(any_words())
def test_generator_signs_and_counts_match_definition(w):
    n, letters = w.strands, w.letters
    q = letter_counts(letters, n)
    s = generator_signs(letters, n)
    assert len(q) == len(s) == n
    for i in range(1, n):
        signs = {1 if x > 0 else -1 for x in letters if abs(x) == i}
        assert q[i] == sum(1 for x in letters if abs(x) == i)
        assert s[i] == (0 if not signs else
                        signs.pop() if len(signs) == 1 else None)
    assert is_homogeneous(w) == all(-x not in letters for x in letters)


def test_is_homogeneous():
    assert is_homogeneous(parse_word("1 -2 1 -2"))
    assert not is_homogeneous(parse_word("1 -1"))
    assert is_homogeneous(BraidWord(1, ()))
    # absent generators do not break homogeneity; connectivity is separate
    assert is_homogeneous(BraidWord(4, (1, 1)))


def test_weak_indices():
    assert weak_indices(parse_word("1 3 -5", 6)) == {1, 3, 5}
    assert weak_indices(parse_word("1 1 2")) == {2}
    assert weak_indices(parse_word("1 1")) == set()


def test_shift_examples():
    w = parse_word("1 3 -5", 6)
    assert shift(w, 1).letters == (2, -4)
    assert shift(w, 1).strands == 5
    assert shift(w, 4).letters == (1, 3, -4)
    assert shift(parse_word("1"), 1) == BraidWord(1, ())


def test_shift_regression_interleaved_word():
    # 1 2 3 1 3 is 2-weak and closes to the 3-component chain; deleting the
    # single index-2 letter in place would give 1 2 1 2 (a knot word).
    w = parse_word("1 2 3 1 3")
    s = shift(w, 2)
    assert s.letters == (1, 1, 2, 2)
    assert component_count(s) == component_count(w) == 3
    assert surface_conway(s) == surface_conway(w)


def test_shift_out_of_range():
    with pytest.raises(ValueError):
        shift(parse_word("1 1"), 2)


def test_normalize_examples():
    # each closes to a 3-component unlink, not the unknot
    for w in (parse_word("1 3 -5", 6), BraidWord(3, ())):
        with pytest.raises(DisconnectedWordError) as err:
            normalize_nonweak(w)
        assert list(err.value.factors) == split_factors(w)
    assert normalize_nonweak(parse_word("1 2")) == BraidWord(1, ())
    assert normalize_nonweak(parse_word("1 1 2")) == BraidWord(2, (1, 1))
    w = parse_word("1 1")
    assert normalize_nonweak(w) == w


def test_normalize_disconnected_reports_factors():
    with pytest.raises(DisconnectedWordError) as err:
        normalize_nonweak(BraidWord(5, (1, 1, 3, 3, 3)))
    # strand 5 sits beyond the last used column: a split unknot factor
    assert [f.letters for f in err.value.factors] == [(1, 1), (1, 1, 1), ()]


def _surface_engine(engine):
    return lambda w: engine(build_surface(w))


# (name, engine, refuses a split word, refuses an inhomogeneous word) for
# every engine that refuses either
REFUSING_ENGINES = [
    ("normalize_nonweak", normalize_nonweak, True, False),
    ("conway_skein", conway_skein, True, True),
    ("degree_and_leading", degree_and_leading, True, True),
    ("seifert_matrix", _surface_engine(seifert_matrix), True, False),
    ("twist_sequence", twist_sequence, True, True),
]


@pytest.mark.parametrize("name, engine, split, inhomogeneous",
                         REFUSING_ENGINES,
                         ids=[row[0] for row in REFUSING_ENGINES])
def test_engines_refuse_through_the_word_preconditions(name, engine, split,
                                                       inhomogeneous):
    if split:
        w = parse_word("1 1 -3 -3", 4)
        with pytest.raises(DisconnectedWordError) as err:
            engine(w)
        assert list(err.value.factors) == split_factors(w)
    if inhomogeneous:
        # 8_20: a connected knot word with both signs of sigma_1
        with pytest.raises(InhomogeneousWordError, match=name):
            engine(parse_word("1 1 1 -2 -1 -1 -1 -2"))


def test_split_factors_counts_unknot_gaps():
    fs = split_factors(BraidWord(4, (2, 2)))
    assert [(f.strands, f.letters) for f in fs] == [(1, ()), (2, (1, 1)),
                                                    (1, ())]


def test_permutation_and_components():
    assert permutation(parse_word("1 1 1")) == (2, 1)
    assert component_count(parse_word("1 1 1")) == 1
    assert component_count(parse_word("1 1")) == 2
    assert component_count(parse_word("1 1 2 2")) == 3
    assert permutation(parse_word("1 1 2 2")) == (1, 2, 3)
    assert permutation(parse_word("1 2")) == (2, 3, 1)
    assert component_count(parse_word("1 2")) == 1


def test_cyclic_permute():
    w = parse_word("1 2 1")
    assert cyclic_permute(w, 1).letters == (2, 1, 1)
    assert cyclic_permute(w, 3).letters == w.letters
    assert cyclic_permute(BraidWord(1, ()), 5) == BraidWord(1, ())


def test_far_commute():
    w = parse_word("1 3 2", 4)
    assert far_commute(w, 1).letters == (3, 1, 2)
    with pytest.raises(ValueError):
        far_commute(parse_word("1 2 1"), 1)
    with pytest.raises(ValueError):
        far_commute(w, 3)


def test_json_round_trip():
    w = parse_word("1 -2 1 -2")
    assert word_to_json(w) == {"n": 3, "word": [1, -2, 1, -2]}
    assert word_from_json(word_to_json(w)) == w


@given(any_words())
def test_structural_ops_preserve_homogeneity(w):
    hom = is_homogeneous(w)
    assert is_homogeneous(cyclic_permute(w, 1)) == hom
    for i in range(1, w.strands):
        assert not hom or is_homogeneous(shift(w, i))


@given(any_words(), st.integers(0, 20))
def test_cyclic_permute_preserves_components(w, k):
    assert component_count(cyclic_permute(w, k)) == component_count(w)


@given(homogeneous_connected())
@settings(max_examples=150)
def test_normalize_reaches_nonweak_fixed_point(w):
    norm = normalize_nonweak(w)
    assert not weak_indices(norm)
    assert is_homogeneous(norm)
    assert connected(norm.letters, norm.strands)
    assert normalize_nonweak(norm) == norm
    assert component_count(norm) == component_count(w)


def test_remark_short_words_are_weak():
    # homogeneous connected words with m < 2(n-1) always have a weak index
    from itertools import product
    for n in range(2, 6):
        for m in range(n - 1, 2 * (n - 1)):
            for seq in product(range(1, n), repeat=m):
                counts = [seq.count(i) for i in range(1, n)]
                if any(c == 0 for c in counts):
                    continue
                w = BraidWord(n, tuple(seq))
                assert weak_indices(w), w
