"""Kauffman-bracket Jones values and their invariance properties.

`jones_kauffman` (the 2^m state sum) is the oracle; `jones_polynomial`
(the Temperley-Lieb transfer on packed integers) must equal it wherever
the oracle reaches. Past the state sum's cap it must equal the same
transfer on dict weights (`oracles.jones_transfer_dicts`), and it keeps
the invariance properties.
"""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import any_words, cyclic_permute, far_commute, invert_t
from oracles import jones_transfer_dicts
from homolink.errors import CapExceededError
from homolink.jones import JONES_LENGTH_CAP, jones_kauffman, jones_polynomial
from homolink.words import (
    BraidWord,
    component_count,
    parse_word,
)


def jones(text):
    return jones_kauffman(parse_word(text)).as_dict()


def test_anchor_values():
    assert jones("") == {0: 1}
    assert jones("1 1 1") == {-4: 1, -12: 1, -16: -1}
    assert jones("-1 -1 -1") == {4: 1, 12: 1, 16: -1}
    assert jones("1 1") == {-2: -1, -10: -1}
    assert jones("1 -2 1 -2") == {8: 1, 4: -1, 0: 1, -4: -1, -8: 1}
    assert jones_kauffman(BraidWord(2, ())).as_dict() == {2: -1, -2: -1}


def test_scale_is_quarter_powers():
    assert jones_kauffman(parse_word("1 1")).scale == 4


def test_mirror_inverts_t():
    for text in ["1 1 1", "1 1", "1 -2 1 -2", "1 1 2 2", "1 1 -2 1 -2"]:
        w = parse_word(text)
        m = BraidWord(w.strands, tuple(-x for x in w.letters))
        assert jones_kauffman(m) == invert_t(jones_kauffman(w))


def test_markov_stabilization_is_invisible():
    # adding sigma_n on one more strand keeps the closure, hence the value
    w = parse_word("1 1 1")
    stab = BraidWord(3, w.letters + (2,))
    assert jones_kauffman(stab) == jones_kauffman(w)
    stab_neg = BraidWord(3, w.letters + (-2,))
    assert jones_kauffman(stab_neg) == jones_kauffman(w)


def test_cyclic_and_commute_invariance_exhaustive():
    # every 3-strand word of length 4 with letters in both columns
    seen = 0
    for letters in product([1, -1, 2, -2], repeat=4):
        w = BraidWord(3, letters)
        base = jones_kauffman(w)
        for k in range(1, 4):
            assert jones_kauffman(cyclic_permute(w, k)) == base
        seen += 1
    assert seen == 256


def test_far_commute_invariance():
    w = parse_word("1 3 1 3")
    assert jones_kauffman(far_commute(w, 1)) == jones_kauffman(w)


def test_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        jones_kauffman(BraidWord(2, (1,) * (JONES_LENGTH_CAP + 1)))
    # the cap is read at call time: the boundary at a small value
    monkeypatch.setattr("homolink.jones.JONES_LENGTH_CAP", 2)
    assert jones_kauffman(parse_word("1 1")).as_dict() == {-2: -1, -10: -1}
    with pytest.raises(CapExceededError, match="length 3 exceeds .* cap 2"):
        jones_kauffman(parse_word("1 1 1"))


@given(any_words(max_n=4, max_m=8))
@settings(max_examples=60, deadline=None)
def test_value_at_one_counts_components(w):
    # evaluating at t = 1 gives (-2)^(c-1), c the component count
    total = sum(jones_kauffman(w).as_dict().values())
    assert total == (-2) ** (component_count(w) - 1)


def test_transfer_equals_state_sum_exhaustive():
    # every word on n <= 3 strands of length m <= 6, both signs everywhere
    seen = 0
    for n in (1, 2, 3):
        letters = [s * i for i in range(1, n) for s in (1, -1)]
        for m in range(7 if n > 1 else 1):
            for word in product(letters, repeat=m):
                w = BraidWord(n, word)
                assert jones_polynomial(w) == jones_kauffman(w), w
                seen += 1
    assert seen == 1 + 127 + 5461


@given(any_words(max_n=6, max_m=12))
@settings(max_examples=60, deadline=None)
@example(BraidWord(1, ()))
@example(BraidWord(4, ()))
@example(BraidWord(5, (1, -1, 3, 3, -4)))  # split, mixed signs
@example(BraidWord(3, (1, -2, -1, 2, 1, -2, -1, 2)))  # inhomogeneous
@example(BraidWord(6, (1, -2, 3, -4, 5, 5, -4, 3, -2, 1, 2, -3)))
def test_transfer_equals_state_sum(w):
    assert jones_polynomial(w) == jones_kauffman(w)


@st.composite
def length_40_words(draw):
    n = draw(st.integers(2, 5))
    letters = draw(st.lists(
        st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))),
        min_size=40, max_size=40))
    return BraidWord(n, tuple(letters))


@given(length_40_words(), st.integers(1, 39), st.sampled_from((1, -1)))
@settings(max_examples=40, deadline=None)
def test_transfer_invariances_past_the_oracle(w, k, s):
    base = jones_polynomial(w)
    mirror = BraidWord(w.strands, tuple(-x for x in w.letters))
    assert jones_polynomial(mirror) == invert_t(base)
    stab = BraidWord(w.strands + 1, w.letters + (s * w.strands,))
    assert jones_polynomial(stab) == base
    assert jones_polynomial(cyclic_permute(w, k)) == base
    total = sum(base.as_dict().values())
    assert total == (-2) ** (component_count(w) - 1)


def _seeded_word(n, m, seed):
    """A mixed-sign word of m letters on n strands from random.Random(seed)."""
    rng = random.Random(seed)
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                              for _ in range(m)))


@given(length_40_words())
@settings(max_examples=40, deadline=None)
@example(_seeded_word(4, 80, 1))
@example(_seeded_word(6, 40, 2))
@example(BraidWord(4, (1, 2, 3) * 26 + (1, 1)))  # positive: no cancellation
@example(BraidWord(3, (1, -2) * 40))  # alternating: coefficients near 2^52
def test_packed_transfer_equals_dict_transfer(w):
    # the packed weights must read back as the term-by-term weights at
    # lengths where the state sum refuses; a digit width short of the
    # docstring's bound shows on the alternating word
    assert jones_polynomial(w) == jones_transfer_dicts(w)
