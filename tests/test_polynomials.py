"""Laurent-dict arithmetic and the two polynomial wrappers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homolink.polynomials import (
    ONE,
    ConwayPolynomial,
    LaurentPolynomial,
    add,
    bareiss,
    conway_to_laurent,
    det,
    equal_up_to_unit,
    eshift,
    mul,
    neg,
    polynomial_from_json,
    smul,
    sub,
    units_equal,
    z_extract,
    z_substitute,
)

lau = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6)


def clean(d):
    return {e: c for e, c in d.items() if c}


def cofactor(m):
    """Determinant by first-row Laplace expansion: the slow oracle."""
    if not m:
        return dict(ONE)
    total = {}
    for j, cell in enumerate(m[0]):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = mul(cell, cofactor(minor))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


def test_basic_arithmetic():
    a = {0: 1, 2: 3}
    b = {2: -3, -1: 4}
    assert add(a, b) == {0: 1, -1: 4}
    assert sub(a, a) == {}
    assert neg(b) == {2: 3, -1: -4}
    assert mul(a, b) == {2: -3, -1: 4, 4: -9, 1: 12}
    assert mul(a, {}) == {}
    assert smul(a, -2) == {0: -2, 2: -6}
    assert smul(a, 0) == {}
    assert eshift(a, 3) == {3: 1, 5: 3}


@given(lau, lau, lau)
def test_mul_distributes(a, b, c):
    assert clean(mul(a, add(b, c))) == clean(add(mul(a, b), mul(a, c)))


@given(lau, lau)
def test_mul_commutes(a, b):
    assert clean(mul(a, b)) == clean(mul(b, a))


def test_det_small():
    assert det([]) == ONE
    assert det([[{0: 5}]]) == {0: 5}
    m = [[{0: 1}, {1: 2}], [{0: 3}, {0: 4}]]
    assert det(m) == {0: 4, 1: -6}
    # singular matrix
    assert det([[{0: 1}, {0: 1}], [{0: 1}, {0: 1}]]) == {}


def test_det_matches_cofactor_on_3x3():
    rows = [
        [{0: 1}, {1: 1}, {}],
        [{0: -1}, {0: 2}, {1: 3}],
        [{2: 1}, {}, {0: 1}],
    ]

    assert clean(det(rows)) == clean(cofactor(rows))


@st.composite
def laurent_matrices(draw):
    """k <= 5 matrices of Laurent dicts, exponents -3..3, coefficients up to
    1e6 in size, with empty entries and all-zero rows."""
    k = draw(st.integers(0, 5))
    entry = st.dictionaries(st.integers(-3, 3),
                            st.integers(-10**6, 10**6), max_size=3).map(clean)
    row = st.lists(entry, min_size=k, max_size=k)
    zero_row = st.builds(lambda: [{} for _ in range(k)])
    return draw(st.lists(st.one_of(row, zero_row), min_size=k, max_size=k))


@given(laurent_matrices())
def test_det_matches_cofactor_random(m):
    d = det(m)
    assert all(d.values())
    assert d == clean(cofactor(m))


def test_det_reaches_the_coefficient_bound():
    # a diagonal matrix makes the row-norm product exact: 2^63 needs the
    # widest digit the bound allows, and the sign must survive unpacking
    m = [[{1: -(2**21)}, {}, {}], [{}, {0: 2**21}, {}], [{}, {}, {-2: 2**21}]]
    assert det(m) == {-1: -(2**63)}
    assert det([[{0: 1}, {0: 1}], [{0: 1}, {-1: 1}]]) == {0: -1, -1: 1}


def test_bareiss_determinant_and_solve():
    assert bareiss([]) == 1
    assert bareiss([[0, 1], [1, 0]]) == -1
    assert bareiss([[1, 2], [2, 4]]) == 0
    assert bareiss([[0, 2, 0], [3, 1, 0], [0, 0, 5]]) == -30
    # [A | I] with a pivot swap: the right block ends as det * A^(-1)
    rows = [[0, 2, 1, 0], [1, 1, 0, 1]]
    assert bareiss(rows) == -2
    assert [row[2:] for row in rows] == [[1, -2], [-1, 0]]


def test_z_extract_and_substitute_round_trip():
    # x - 1/x plays the role of z
    z = {1: 1, -1: -1}
    poly = add(mul(z, z), ONE)  # z^2 + 1 expanded in x
    assert z_extract(poly) == {2: 1, 0: 1}
    assert clean(z_substitute({2: 1, 0: 1})) == clean(poly)


@given(st.dictionaries(st.integers(0, 5), st.integers(-6, 6), max_size=4))
def test_z_round_trip_random(coeffs):
    coeffs = clean(coeffs)
    assert z_extract(z_substitute(coeffs)) == coeffs


def test_z_extract_rejects_non_z_polynomials():
    with pytest.raises(ArithmeticError):
        z_extract({1: 1})  # x alone is not a polynomial in x - 1/x


def test_units_equal():
    p = {2: 1, 0: -1}
    assert units_equal(p, p)
    assert units_equal(p, eshift(p, -5))
    assert units_equal(p, neg(eshift(p, 3)))
    assert not units_equal(p, {2: 1, 0: 1})
    assert units_equal({}, {})
    assert not units_equal(p, {})


def test_conway_wrapper():
    p = ConwayPolynomial.from_dict({2: 1, 0: 1})
    assert p.degree == 2
    assert p.leading_coefficient == 1
    assert p.as_dict() == {2: 1, 0: 1}
    assert bool(p)
    assert str(p) == "z^2 + 1"
    zero = ConwayPolynomial.from_dict({})
    assert zero.degree is None
    assert zero.leading_coefficient == 0
    assert not zero
    assert str(zero) == "0"


def test_conway_json_round_trip():
    p = ConwayPolynomial.from_dict({3: -2, 1: 1})
    data = p.to_json()
    assert data["var"] == "z"
    q = polynomial_from_json(data)
    assert isinstance(q, ConwayPolynomial)
    assert q == p


def test_laurent_wrapper():
    p = LaurentPolynomial.from_dict({1: 1, -1: -1}, scale=2)
    assert p.as_dict() == {1: 1, -1: -1}
    assert p.mirror().as_dict() == {1: -1, -1: 1}
    assert Fraction(1, 2) in [Fraction(e, p.scale) for e in p.as_dict()]
    text = str(p)
    assert "t^(1/2)" in text and "t^(-1/2)" in text


def test_laurent_rescale():
    p = LaurentPolynomial.from_dict({1: 1}, scale=2)
    q = p.rescaled(4)
    assert q.scale == 4
    assert q.as_dict() == {2: 1}
    with pytest.raises(ValueError):
        p.rescaled(3)


def test_laurent_json_round_trip():
    p = LaurentPolynomial.from_dict({-4: 1, 0: -1, 4: 1}, scale=4)
    q = polynomial_from_json(p.to_json())
    assert isinstance(q, LaurentPolynomial)
    assert q == p


def test_conway_to_laurent():
    # z^2 + 1 becomes t - 1 + 1/t under z = sqrt(t) - 1/sqrt(t)
    trefoil = ConwayPolynomial.from_dict({2: 1, 0: 1})
    lau = conway_to_laurent(trefoil)
    assert lau.scale == 2
    assert lau.as_dict() == {2: 1, 0: -1, -2: 1}


def test_equal_up_to_unit_mixed_scales():
    a = LaurentPolynomial.from_dict({2: 1, 0: -1, -2: 1}, scale=2)
    b = LaurentPolynomial.from_dict({3: -1, 2: 1, 1: -1}, scale=1)
    assert equal_up_to_unit(a, b)
    c = LaurentPolynomial.from_dict({2: 1, 0: 1, -2: 1}, scale=2)
    assert not equal_up_to_unit(a, c)
