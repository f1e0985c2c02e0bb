"""Exact bytes of `analyze` and `monodromy` on words that exercise every
reading of q, alpha, homogeneity and the weak indices: a two-sign
homogeneous word, a weak word, a mixed generator (alpha None in text, 0 in
JSON), the mixed-sign knot 8_20, and the empty word; and the sha256 of
`analyze` on two long words, (1 -2)^30 and (1 -2 3)^12."""

import hashlib

import pytest

from homolink.cli import main

GOLDEN = {
    ('analyze', '1 -2 1 -2', 'text'): (
        0,
        """\
word: [1 -2 1 -2] on 3 strands, length 4
homogeneous: True
occurrences q: [2, 2]
signs alpha: [1, -1]
weak indices: none
components: 1
surface euler characteristic: -1
normalized (non-weak) word: [1 -2 1 -2] on 3 strands
conway degree: 2, leading coefficient -1
genus: 1
conway (skein route):   -z^2 + 1
conway (seifert route): -z^2 + 1
routes agree: True
alexander (symmetric): -t + 3 - t^-1
jones: t^2 - t + 1 - t^-1 + t^-2
""",
        ''),
    ('analyze', '1 -2 1 -2', 'json'): (
        0,
        '{"alexander": {"coeffs": {"-2": -1, "0": 3, "2": -1}, "scale": '
        '2, "var": "t"}, "alpha": [1, -1], "components": 1, '
        '"conway_seifert": {"coeffs": {"0": 1, "2": -1}, "scale": 1, '
        '"var": "z"}, "conway_skein": {"coeffs": {"0": 1, "2": -1}, '
        '"scale": 1, "var": "z"}, "degree": 2, "euler_characteristic": '
        '-1, "genus": 1, "homogeneous": true, "jones": {"coeffs": {"-4": '
        '-1, "-8": 1, "0": 1, "4": -1, "8": 1}, "scale": 4, "var": "t"}, '
        '"leading_coefficient": -1, "length": 4, "normalized": {"n": 3, '
        '"word": [1, -2, 1, -2]}, "q": [2, 2], "routes_agree": true, '
        '"schema": 1, "weak_indices": [], "word": {"n": 3, "word": [1, '
        '-2, 1, -2]}}\n',
        ''),
    ('monodromy', '1 -2 1 -2', 'text'): (
        0,
        """\
twists (2):
  loop (1,1) sign +1
  loop (2,1) sign -1
homology action:
     1    1
     1    2
characteristic polynomial: t^2 - 3*t + 1
alexander polynomial:      -t + 3 - t^-1
char poly matches alexander up to unit: True
intersection form preserved: True
twist route equals seifert route: True
""",
        ''),
    ('monodromy', '1 -2 1 -2', 'json'): (
        0,
        '{"alexander": {"coeffs": {"-2": -1, "0": 3, "2": -1}, "scale": '
        '2, "var": "t"}, "alexander_match": true, "char_poly": '
        '{"coeffs": {"0": 1, "1": -3, "2": 1}, "scale": 1, "var": "t"}, '
        '"form_preserved": true, "homology_matrix": [[1, 1], [1, 2]], '
        '"routes_agree": true, "schema": 1, "twists": [{"loop": [1, 1], '
        '"sign": 1}, {"loop": [2, 1], "sign": -1}], "word": {"n": 3, '
        '"word": [1, -2, 1, -2]}}\n',
        ''),
    ('analyze', '1 1 2', 'text'): (
        0,
        """\
word: [1 1 2] on 3 strands, length 3
homogeneous: True
occurrences q: [2, 1]
signs alpha: [1, 1]
weak indices: [2]
components: 2
surface euler characteristic: 0
normalized (non-weak) word: [1 1] on 2 strands
conway degree: 1, leading coefficient +1
conway (skein route):   z
conway (seifert route): z
routes agree: True
alexander (symmetric): t^(1/2) - t^(-1/2)
jones: -t^(-1/2) - t^(-5/2)
""",
        ''),
    ('analyze', '1 1 2', 'json'): (
        0,
        '{"alexander": {"coeffs": {"-1": -1, "1": 1}, "scale": 2, "var": '
        '"t"}, "alpha": [1, 1], "components": 2, "conway_seifert": '
        '{"coeffs": {"1": 1}, "scale": 1, "var": "z"}, "conway_skein": '
        '{"coeffs": {"1": 1}, "scale": 1, "var": "z"}, "degree": 1, '
        '"euler_characteristic": 0, "homogeneous": true, "jones": '
        '{"coeffs": {"-10": -1, "-2": -1}, "scale": 4, "var": "t"}, '
        '"leading_coefficient": 1, "length": 3, "normalized": {"n": 2, '
        '"word": [1, 1]}, "q": [2, 1], "routes_agree": true, "schema": '
        '1, "weak_indices": [2], "word": {"n": 3, "word": [1, 1, 2]}}\n',
        ''),
    ('monodromy', '1 1 2', 'text'): (
        0,
        """\
normalized to [1 1] on 2 strands
twists (1):
  loop (1,1) sign +1
homology action:
     1
characteristic polynomial: t - 1
alexander polynomial:      t^(1/2) - t^(-1/2)
char poly matches alexander up to unit: True
intersection form preserved: True
twist route equals seifert route: True
torus link order bound lcm(2,q): 2, computed homology order: 1
""",
        ''),
    ('monodromy', '1 1 2', 'json'): (
        0,
        '{"alexander": {"coeffs": {"-1": -1, "1": 1}, "scale": 2, "var": '
        '"t"}, "alexander_match": true, "char_poly": {"coeffs": {"0": '
        '-1, "1": 1}, "scale": 1, "var": "t"}, "form_preserved": true, '
        '"homology_matrix": [[1]], "order": 1, "order_bound": 2, '
        '"routes_agree": true, "schema": 1, "twists": [{"loop": [1, 1], '
        '"sign": 1}], "word": {"n": 2, "word": [1, 1]}}\n',
        ''),
    ('analyze', '1 -1', 'text'): (
        0,
        """\
word: [1 -1] on 2 strands, length 2
homogeneous: False
occurrences q: [2]
signs alpha: [None]
weak indices: none
components: 2
surface euler characteristic: 0
word is not homogeneous: conway/degree formulas need a homogeneous word, reporting determinant-route alexander only
alexander (symmetric): 0
jones: -t^(1/2) - t^(-1/2)
""",
        ''),
    ('analyze', '1 -1', 'json'): (
        0,
        '{"alexander": {"coeffs": {}, "scale": 2, "var": "t"}, "alpha": '
        '[0], "components": 2, "euler_characteristic": 0, "homogeneous": '
        'false, "jones": {"coeffs": {"-2": -1, "2": -1}, "scale": 4, '
        '"var": "t"}, "length": 2, "q": [2], "schema": 1, '
        '"weak_indices": [], "word": {"n": 2, "word": [1, -1]}}\n',
        ''),
    ('monodromy', '1 -1', 'text'): (
        4,
        "",
        'monodromy needs a homogeneous word, got 1 -1 on 2 strands\n'),
    ('monodromy', '1 -1', 'json'): (
        4,
        "",
        'monodromy needs a homogeneous word, got 1 -1 on 2 strands\n'),
    ('analyze', '1 1 1 -2 -1 -1 -1 -2', 'text'): (
        0,
        """\
word: [1 1 1 -2 -1 -1 -1 -2] on 3 strands, length 8
homogeneous: False
occurrences q: [6, 2]
signs alpha: [None, -1]
weak indices: none
components: 1
surface euler characteristic: -5
word is not homogeneous: conway/degree formulas need a homogeneous word, reporting determinant-route alexander only
alexander (symmetric): t^2 - 2*t + 3 - 2*t^-1 + t^-2
jones: -t^5 + t^4 - t^3 + 2*t^2 - t + 2 - t^-1
""",
        ''),
    ('analyze', '1 1 1 -2 -1 -1 -1 -2', 'json'): (
        0,
        '{"alexander": {"coeffs": {"-2": -2, "-4": 1, "0": 3, "2": -2, '
        '"4": 1}, "scale": 2, "var": "t"}, "alpha": [0, -1], '
        '"components": 1, "euler_characteristic": -5, "homogeneous": '
        'false, "jones": {"coeffs": {"-4": -1, "0": 2, "12": -1, "16": '
        '1, "20": -1, "4": -1, "8": 2}, "scale": 4, "var": "t"}, '
        '"length": 8, "q": [6, 2], "schema": 1, "weak_indices": [], '
        '"word": {"n": 3, "word": [1, 1, 1, -2, -1, -1, -1, -2]}}\n',
        ''),
    ('monodromy', '1 1 1 -2 -1 -1 -1 -2', 'text'): (
        4,
        "",
        'monodromy needs a homogeneous word, got 1 1 1 -2 -1 -1 -1 -2 '
        'on 3 strands\n'),
    ('monodromy', '1 1 1 -2 -1 -1 -1 -2', 'json'): (
        4,
        "",
        'monodromy needs a homogeneous word, got 1 1 1 -2 -1 -1 -1 -2 '
        'on 3 strands\n'),
    ('analyze', '', 'text'): (
        0,
        """\
word: [] on 1 strands, length 0
homogeneous: True
occurrences q: []
signs alpha: []
weak indices: none
components: 1
surface euler characteristic: 1
normalized (non-weak) word: [] on 1 strands
conway degree: 0, leading coefficient +1
genus: 0
conway (skein route):   1
conway (seifert route): 1
routes agree: True
alexander (symmetric): 1
jones: 1
""",
        ''),
    ('analyze', '', 'json'): (
        0,
        '{"alexander": {"coeffs": {"0": 1}, "scale": 2, "var": "t"}, '
        '"alpha": [], "components": 1, "conway_seifert": {"coeffs": '
        '{"0": 1}, "scale": 1, "var": "z"}, "conway_skein": {"coeffs": '
        '{"0": 1}, "scale": 1, "var": "z"}, "degree": 0, '
        '"euler_characteristic": 1, "genus": 0, "homogeneous": true, '
        '"jones": {"coeffs": {"0": 1}, "scale": 4, "var": "t"}, '
        '"leading_coefficient": 1, "length": 0, "normalized": {"n": 1, '
        '"word": []}, "q": [], "routes_agree": true, "schema": 1, '
        '"weak_indices": [], "word": {"n": 1, "word": []}}\n',
        ''),
    ('monodromy', '', 'text'): (
        0,
        """\
twists (0):
homology action:
characteristic polynomial: 1
alexander polynomial:      1
char poly matches alexander up to unit: True
intersection form preserved: True
twist route equals seifert route: True
""",
        ''),
    ('monodromy', '', 'json'): (
        0,
        '{"alexander": {"coeffs": {"0": 1}, "scale": 2, "var": "t"}, '
        '"alexander_match": true, "char_poly": {"coeffs": {"0": 1}, '
        '"scale": 1, "var": "t"}, "form_preserved": true, '
        '"homology_matrix": [], "routes_agree": true, "schema": 1, '
        '"twists": [], "word": {"n": 1, "word": []}}\n',
        ''),
}


@pytest.mark.parametrize("command, word, fmt", sorted(GOLDEN, key=str))
def test_word_report_bytes(capsys, command, word, fmt):
    code = main([command, word, "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, out, err) == GOLDEN[command, word, fmt]


@pytest.mark.parametrize("period, strands, reps, digest", [
    ("1 -2", 3, 30,
     "6ad7f69ebba16bb5d1fa097266f9e06790715aceb1d0f802d58a54b4eeeda617"),
    ("1 -2 3", 4, 12,
     "6ed5f14cbba26172650d4bcc8279ae3cf035d75d15b4599ebd84a731d2400dd8"),
], ids=["(1 -2)^30", "(1 -2 3)^12"])
def test_long_word_analyze_digest(capsys, period, strands, reps, digest):
    # long words whose skein tree is cheap only when the recursion takes
    # the cheapest admissible relation; the bytes are those of the
    # first-pair recursion
    word = " ".join([period] * reps)
    code = main(["analyze", word, "--strands", str(strands)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
