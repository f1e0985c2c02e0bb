"""Laurent-dict arithmetic and the two polynomial wrappers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import pencil_entries
from homolink.polynomials import (
    ONE,
    ConwayPolynomial,
    LaurentPolynomial,
    add,
    bareiss,
    det,
    equal_up_to_unit,
    eshift,
    identity,
    mul,
    neg,
    pencil_det,
    polynomial_from_json,
    transpose,
    units_equal,
    unpack,
    z_extract,
)
from oracles import conway_to_laurent, z_substitute

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
        total = add(total, term if j % 2 == 0 else neg(term))
    return total


def test_basic_arithmetic():
    a = {0: 1, 2: 3}
    b = {2: -3, -1: 4}
    assert add(a, b) == {0: 1, -1: 4}
    assert add(a, neg(a)) == {}
    assert neg(b) == {2: 3, -1: -4}
    assert mul(a, b) == {2: -3, -1: 4, 4: -9, 1: 12}
    assert mul(a, {}) == {}
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


HADAMARD = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]


def test_det_reaches_the_hadamard_bound():
    # rows of +-1 are orthogonal, so |det| = 16 = prod of row norms: the
    # bound is tight and its top digit must still read back with its sign
    assert det([[{0: v} for v in row] for row in HADAMARD]) == {0: 16}
    flipped = [[{0: -v} for v in HADAMARD[0]]] + [
        [{0: v} for v in row] for row in HADAMARD[1:]]
    assert det(flipped) == {0: -16}
    # the pencil x*H + x^-1*H' with H' = H with its columns reversed
    pencil = [[clean({1: a, -1: b}) for a, b in zip(row, row[::-1])]
              for row in HADAMARD]
    assert det(pencil) == clean(cofactor(pencil))
    scaled = [[{1: v, -1: v} for v in row] for row in HADAMARD]
    assert det(scaled) == {4: 16, 2: 64, 0: 96, -2: 64, -4: 16}


def test_matrix_helpers():
    A = ((1, 2), (3, 4))
    assert transpose(A) == ((1, 3), (2, 4))
    assert identity(2) == ((1, 0), (0, 1))
    assert identity(0) == ()


def test_pencil_det():
    # det(t*I - A) is the characteristic polynomial t^2 - 5t - 2
    A = ((1, 2), (3, 4))
    minus_a = [[-v for v in row] for row in A]
    assert pencil_det(*pencil_entries(((1, identity(2)), (0, minus_a)))) == {
        2: 1, 1: -5, 0: -2}
    assert pencil_det(*pencil_entries(((1, ()), (0, ())))) == ONE
    # x*H + x^-1*H^T, entries built the same way by hand
    H = HADAMARD
    by_hand = [[clean({1: H[r][c], -1: H[c][r]}) for c in range(4)]
               for r in range(4)]
    assert pencil_det(*pencil_entries(((1, H), (-1, transpose(H))))) == det(
        by_hand)


def test_unpack_reads_balanced_digits():
    # digits lie in [-8, 8) at B = 4; the zero digits below exponent 3 and
    # between the terms read back as absent, and a digit of -8 keeps its sign
    value = {3: -8, 5: 7, 9: -1}
    assert unpack(sum(c << 4 * (e - 1) for e, c in value.items()), 4, 1) == value
    assert unpack(0, 4, 1) == {}


@st.composite
def integer_pencils(draw):
    """(e, A) terms with distinct e, k <= 6, entries up to +-10^6, and a
    row that is zero in every term drawn now and then."""
    k = draw(st.integers(0, 6))
    exps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3,
                         unique=True))
    entry = st.integers(-10**6, 10**6)
    zero = draw(st.sets(st.integers(0, 5), max_size=1))
    return [(e, [[0] * k if r in zero else
                 draw(st.lists(entry, min_size=k, max_size=k))
                 for r in range(k)]) for e in exps]


@given(integer_pencils())
def test_pencil_det_matches_det_of_the_dict_matrix(terms):
    k = len(terms[0][1])
    by_dict = [[{e: A[r][c] for e, A in terms if A[r][c]} for c in range(k)]
               for r in range(k)]
    assert pencil_det(*pencil_entries(terms)) == det(by_dict)


def test_pencil_det_reaches_the_coefficient_bound():
    # one monomial per row: the row bound is |c|, the product 255 = 2^8 - 1
    # needs every bit of the digit below its sign, and the sign is negative
    def diag(*v):
        return [[v[r] if r == c else 0 for c in range(3)] for r in range(3)]

    assert pencil_det(*pencil_entries(
        ((1, diag(-3, 0, 17)), (0, diag(0, 5, 0))))) == {2: -255}
    assert pencil_det(*pencil_entries(
        ((2, diag(-15, 0, 17)), (-1, diag(0, -1, 0))))) == {3: 255}


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


@given(st.dictionaries(st.integers(0, 20), st.integers(-10**9, 10**9),
                       max_size=8))
def test_z_round_trip_random(coeffs):
    coeffs = clean(coeffs)
    assert z_extract(z_substitute(coeffs)) == coeffs


def test_z_extract_rejects_non_z_polynomials():
    with pytest.raises(ArithmeticError):
        z_extract({1: 1})  # x alone is not a polynomial in x - 1/x
    # a lone negative degree, mixed parities, and x - 1/x with x^-3 over
    for bad in ({-2: 1}, {2: 1, 1: 1}, {1: 1, -1: -1, -3: 1}):
        with pytest.raises(ArithmeticError):
            z_extract(bad)
    assert z_extract({}) == {}


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
    assert Fraction(1, 2) in [Fraction(e, p.scale) for e in p.as_dict()]
    text = str(p)
    assert "t^(1/2)" in text and "t^(-1/2)" in text


def fraction_text(p):
    """The printer as it was written with Fraction exponents, kept as the
    reference for the gcd-based one."""
    if not p.coeffs:
        return "0"
    parts = []
    for e, c in sorted(p.coeffs, reverse=True):
        mag = abs(c)
        ex = Fraction(e, p.scale)
        if ex == 0:
            body = str(mag)
        else:
            var = (p.var if ex == 1 else f"{p.var}^({ex})"
                   if ex.denominator > 1 else f"{p.var}^{ex}")
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append(("- " if c < 0 else "+ ") + body)
    head = parts[0]
    head = head[2:] if head.startswith("+ ") else "-" + head[2:]
    return " ".join([head] + parts[1:])


def test_printer_matches_fraction_reference():
    values = []
    for scale in (1, 2, 4):
        for c in (1, -1, 7, -7):
            values += [LaurentPolynomial(scale, ((e, c),))
                       for e in range(-40, 41)]
            values.append(LaurentPolynomial.from_dict(
                {e: c * (-1) ** e for e in range(-40, 41)}, scale))
    for c in (1, -1, 7, -7):
        values += [ConwayPolynomial(((e, c),)) for e in range(41)]
        values.append(ConwayPolynomial.from_dict(
            {e: c * (-1) ** e for e in range(41)}))
    values += [LaurentPolynomial(4, ()), ConwayPolynomial()]
    texts = [str(p) for p in values]
    assert texts == [fraction_text(p) for p in values]
    terms = {t for text in texts for t in text.split()}
    assert {"t", "t^-1", "t^(1/2)", "t^(-3/4)", "z^3", "-7*t^(-39/4)",
            "0"} <= terms


def test_laurent_rescale():
    p = LaurentPolynomial.from_dict({1: 1}, scale=2)
    q = p.rescaled(4)
    assert q.scale == 4
    assert q.as_dict() == {2: 1}
    with pytest.raises(ValueError):
        p.rescaled(3)


def test_polynomial_from_json_refuses_loose_exponent_keys():
    # int() would read "02" as 2, dropping a term, and "1_0" as 10
    for keys in ({"2": 1, "02": -1, "0": -1, "-2": 1}, {"1_0": 1}, {"+2": 1},
                 {"-0": 1}, {" 2": 1}, {"\uff12": 1}, {"x": 1}):
        data = {"var": "t", "scale": 2, "coeffs": keys}
        with pytest.raises(ValueError, match="exponent keys"):
            polynomial_from_json(data)
    data = {"var": "z", "scale": 1, "coeffs": {"0": 1, "10": -1}}
    assert polynomial_from_json(data).as_dict() == {0: 1, 10: -1}


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
