"""Conway skein evaluator: anchor values, degree formula, recursion shape."""

import pytest
from hypothesis import example, given, settings

from conftest import (any_words, complexity_less, cyclic_permute,
                      homogeneous_connected)
from homolink.errors import DisconnectedWordError, InhomogeneousWordError
from homolink.skein import (
    complexity,
    conway_skein,
    degree_and_leading,
    reduction_step,
)
from homolink.words import (
    BraidWord,
    component_count,
    is_homogeneous,
    normalize_nonweak,
    parse_word,
    weak_indices,
)


def conway(text):
    return conway_skein(parse_word(text)).as_dict()


def test_anchor_values():
    assert conway("") == {0: 1}
    assert conway("1") == {0: 1}
    assert conway("1 1") == {1: 1}
    assert conway("1 1 1") == {2: 1, 0: 1}
    assert conway("1 -2 1 -2") == {2: -1, 0: 1}
    assert conway("1 1 1 1") == {3: 1, 1: 2}
    assert conway("1 1 2 2") == {2: 1}
    assert conway("1 1 1 2 2") == {3: 1, 1: 1}
    assert conway("1 1 2 2 3 3") == {3: 1}
    assert conway("1 1 -2 1 -2") == {3: -1}


def test_mirror_images():
    assert conway("-1 -1 -1") == {2: 1, 0: 1}
    assert conway("-1 -1") == {1: -1}


def test_empty_word_on_wide_braid_is_a_split_unlink():
    # the unlink is split: refused like every other disconnected word
    with pytest.raises(DisconnectedWordError) as err:
        conway_skein(BraidWord(3, ()))
    assert list(err.value.factors) == [BraidWord(1, ())] * 3


def test_errors():
    with pytest.raises(InhomogeneousWordError):
        conway_skein(parse_word("1 -1 2"))
    with pytest.raises(DisconnectedWordError) as err:
        conway_skein(parse_word("1 1 3 3", strands=4))
    assert err.value.factors


def test_degree_and_leading_examples():
    assert degree_and_leading(parse_word("1 1 1")) == (2, 1)
    assert degree_and_leading(parse_word("1 -2 1 -2")) == (2, -1)
    assert degree_and_leading(parse_word("1 1")) == (1, 1)
    assert degree_and_leading(parse_word("-1 -1")) == (1, -1)
    assert degree_and_leading(parse_word("")) == (0, 1)     # the unknot


def test_degree_and_leading_matches_polynomial():
    for text in ["1 1 1", "1 -2 1 -2", "1 1 2 2", "-1 -1 -2 -2 -2",
                 "1 1 1 2 2", "1 1 -2 -2 -2"]:
        w = parse_word(text)
        p = conway_skein(w)
        d, lead = degree_and_leading(w)
        assert p.degree == d
        assert p.leading_coefficient == lead


def test_complexity_order():
    w = parse_word("1 1 2")
    assert complexity(w) == (1, 2)
    assert complexity_less((1, 1), (2, 1))
    assert complexity_less((2, 1), (1, 1, 1))
    assert not complexity_less((2, 1), (2, 1))


def test_reduction_step_kinds():
    assert reduction_step(parse_word("")) == ("unknot", ())
    assert reduction_step(parse_word("1 1 3 3", strands=4)) == ("split", ())
    assert reduction_step(parse_word("1 2 2"))[0] == "destabilize"
    kind, children = reduction_step(parse_word("1 1 1 2 2"))
    assert kind in {"smooth", "slide", "exchange"}
    assert children and all(isinstance(c, BraidWord) for c in children)


def test_smooth_pair_is_taken_before_an_earlier_exchange():
    # the first pair in scan order, the -2 pair around the 1, is an
    # exchange; the later adjacent -2 -2 pair smooths with two children
    kind, children = reduction_step(parse_word("1 -2 1 -2 -2"))
    assert kind == "smooth"
    assert children == (parse_word("1 -2 1"), parse_word("1 -2 1 -2"))


@example(parse_word("1 1 1 2 2 2"))
@given(homogeneous_connected(max_n=5, max_m=10))
@settings(max_examples=150, deadline=None)
def test_reduction_children_are_smaller(w):
    # whichever relation fires, every child is strictly smaller, so the
    # walk over all distinct descendants bottoms out
    seen = {w}
    stack = [w]
    while stack and len(seen) < 20000:
        cur = stack.pop()
        kind, children = reduction_step(cur)
        assert (kind in {"unknot", "split"}) == (not children)
        for child in children:
            assert complexity_less(complexity(child), complexity(cur))
            if child not in seen:
                seen.add(child)
                stack.append(child)
    assert not stack, "recursion did not bottom out in 20000 words"


@pytest.mark.parametrize("r", [10, 20, 40])
def test_memo_grows_linearly_on_alternating_words(monkeypatch, r):
    # a count, not a time: (1 -2)^r leaves 6 entries per period; taking the
    # first admissible pair instead left 2,625 at r = 20
    from homolink import skein
    monkeypatch.setattr(skein, "_memo", {})
    conway_skein(parse_word(" ".join(["1 -2"] * r)))
    assert len(skein._memo) == 6 * r


@given(homogeneous_connected(max_n=4, max_m=7))
@settings(max_examples=120, deadline=None)
def test_cyclic_invariance(w):
    base = conway_skein(w)
    assert conway_skein(cyclic_permute(w, 1)) == base
    assert conway_skein(cyclic_permute(w, len(w.letters) // 2 or 1)) == base


@given(homogeneous_connected(max_n=4, max_m=7))
@settings(max_examples=120, deadline=None)
def test_mirror_flips_odd_coefficients(w):
    mirror = BraidWord(w.strands, tuple(-x for x in w.letters))
    a = conway_skein(w).as_dict()
    b = conway_skein(mirror).as_dict()
    assert b == {e: c if e % 2 == 0 else -c for e, c in a.items()}


@given(homogeneous_connected(max_n=4, max_m=7))
@settings(max_examples=120, deadline=None)
def test_degree_formula(w):
    p = conway_skein(w)
    assert p.degree == len(w.letters) - w.strands + 1
    d, lead = degree_and_leading(w)
    assert (p.degree, p.leading_coefficient) == (d, lead)


@given(homogeneous_connected(max_n=5, max_m=9))
@settings(max_examples=120, deadline=None)
def test_degree_and_leading_ignore_weak_letters(w):
    # analyze reads degree, sign and genus off the word it was given
    d, lead = degree_and_leading(w)
    norm = normalize_nonweak(w)
    assert degree_and_leading(norm) == (d, lead)


@given(any_words(max_n=4, max_m=6))
@settings(max_examples=80, deadline=None)
def test_parity_matches_components(w):
    if not is_homogeneous(w):
        return
    try:
        p = conway_skein(w)
    except DisconnectedWordError:
        return
    if not p:
        return
    # degrees present in the Conway polynomial share the parity of c - 1
    parity = (component_count(w) - 1) % 2
    assert all(e % 2 == parity for e in p.as_dict())


@given(homogeneous_connected(max_n=4, max_m=7, min_count=2))
@settings(max_examples=60, deadline=None)
def test_nonweak_recursion_never_destabilizes(w):
    if weak_indices(w):
        return
    kind, _ = reduction_step(w)
    assert kind in {"unknot", "smooth", "slide", "exchange"}


def test_memo_is_emptied_past_its_limit(monkeypatch):
    from homolink import skein
    first = parse_word("1 -2 1 -2 1 -2 1 -2")
    second = parse_word("1 1 2 2 3 3 1 2")
    monkeypatch.setattr(skein, "_memo", {})
    values = [conway_skein(first), conway_skein(second)]
    skein._memo.clear()
    conway_skein(second)
    alone = set(skein._memo)

    skein._memo.clear()
    monkeypatch.setattr(skein, "_MEMO_LIMIT", 2)
    assert conway_skein(first) == values[0]
    assert len(skein._memo) > 2
    assert conway_skein(second) == values[1]
    assert set(skein._memo) == alone
    assert conway_skein(first) == values[0]
