import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FLAGSHIP, block_shape, random_canonical_form
from sepaut.polyio import (
    ConstantTermError,
    NonIntegerExponentError,
    NonPositiveExponentError,
    NotSeparatedError,
    ParseError,
    Term,
    ZeroPolynomialError,
    make_canonical_form,
    parse_polynomial,
    parse_separated,
)


# ---------------------------------------------------------------------------
# parser


def test_parse_flagship():
    p = parse_polynomial(FLAGSHIP)
    assert len(p.terms) == 4
    degrees = [sum(e for _, e in t.monomial) for t in p.terms]
    assert sorted(degrees, reverse=True) == [21, 10, 10, 10]
    assert all(t.coefficient == 1 for t in p.terms)


def test_parse_single_variable():
    p = parse_polynomial("x")
    assert p.terms == (Term(Fraction(1), (("x", 1),)),)


def test_like_terms_combine():
    p = parse_polynomial("2*x^2 + 3*x^2")
    assert len(p.terms) == 1
    assert p.terms[0].coefficient == 5
    assert p.terms[0].monomial == (("x", 2),)


def test_parse_is_whitespace_insensitive():
    assert parse_polynomial("x^2*y + z") == parse_polynomial("  x ^ 2 * y+z\t")


def test_parse_is_term_order_insensitive():
    assert parse_polynomial("y + x") == parse_polynomial("x + y")


def test_signs_and_fractions():
    p = parse_polynomial("-x + 2/3*y - z")
    coeffs = {t.monomial[0][0]: t.coefficient for t in p.terms}
    assert coeffs == {"x": -1, "y": Fraction(2, 3), "z": -1}


def test_fraction_coefficients_combine_to_one():
    p = parse_polynomial("2/3*x + 1/3*x")
    assert p.terms[0].coefficient == 1


def test_repeated_variable_in_one_term_multiplies():
    assert parse_polynomial("x*x") == parse_polynomial("x^2")
    assert parse_polynomial("x*x^2") == parse_polynomial("x^3")


def test_constant_terms_parse():
    p = parse_polynomial("x^2 + 1")
    assert len(p.terms) == 2
    assert () in {t.monomial for t in p.terms}


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        parse_polynomial("x - x")
    with pytest.raises(ZeroPolynomialError):
        parse_polynomial("0")


@pytest.mark.parametrize(
    "text",
    ["", "x +", "x * ", "+ x", "x ++ y", "(x)", "x*2", "2*3", "x^", "2x"],
)
def test_syntax_errors(text):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text)
    assert isinstance(info.value.position, int)


def test_exponent_errors():
    with pytest.raises(NonPositiveExponentError):
        parse_polynomial("x^0")
    with pytest.raises(NonPositiveExponentError):
        parse_polynomial("x^-2")
    with pytest.raises(NonIntegerExponentError):
        parse_polynomial("x^1.5")
    with pytest.raises(NonIntegerExponentError):
        parse_polynomial("x^3/2")


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_polynomial("1/0*x")


@pytest.mark.parametrize(
    "text, position",
    [
        ("x^2 + y^" + "7" * 5000, 8),
        ("x + " + "3" * 5000 + "*y", 4),
        ("x + 1/" + "3" * 5000 + "*y", 6),
    ],
)
def test_overlong_numbers_are_positioned_parse_errors(text, position):
    with pytest.raises(ParseError, match="5000 digits") as info:
        parse_polynomial(text)
    assert info.value.position == position


# ---------------------------------------------------------------------------
# canonical form


def test_flagship_canonical_form(flagship):
    cf = flagship
    assert len(cf.mixed_blocks) == 1
    block = cf.mixed_blocks[0]
    assert block.exponents == (11, 10)
    assert block.variables == ("X2", "X1")
    assert block.degree == 21
    assert len(cf.pure_blocks) == 1
    assert cf.pure_blocks[0].exponent == 10
    assert cf.pure_blocks[0].variables == ("Y1", "Y2", "Y3")
    assert cf.variable_count == 5
    assert cf.monomial_count == 4
    assert cf.var_order == ("X2", "X1", "Y1", "Y2", "Y3")
    assert not cf.scaling_note


def test_not_separated_names_a_variable():
    with pytest.raises(NotSeparatedError) as info:
        parse_separated("x^2*y + x")
    assert info.value.variable == "x"


def test_fermat_text_form():
    cf = parse_separated("y1^3 + y2^3 + y3^3")
    assert cf.mixed_blocks == ()
    assert len(cf.pure_blocks) == 1
    assert cf.pure_blocks[0].exponent == 3
    assert len(cf.pure_blocks[0].variables) == 3


def test_constant_term_rejected():
    with pytest.raises(ConstantTermError):
        parse_separated("x^2 + 1")


def test_equal_pure_exponents_merge():
    cf = parse_separated("x^2 + y^2 + z^3")
    assert [(b.exponent, b.variables) for b in cf.pure_blocks] == [
        (3, ("z",)),
        (2, ("x", "y")),
    ]


def test_single_variable_monomial_is_pure_even_with_exponent_one():
    cf = parse_separated("x*y + z")
    assert len(cf.mixed_blocks) == 1
    assert cf.pure_blocks[0].exponent == 1
    assert cf.pure_blocks[0].variables == ("z",)


def test_mixed_blocks_sorted_by_length_then_exponents():
    cf = parse_separated("a^2*b + c^3*d^2*e + f^5*g")
    assert [len(b.variables) for b in cf.mixed_blocks] == [3, 2, 2]
    assert [b.exponents for b in cf.mixed_blocks] == [(3, 2, 1), (5, 1), (2, 1)]


def test_scaling_note_set_and_ignored_by_equality():
    scaled = parse_separated("2*x^2 + y^3 + z^4")
    plain = parse_separated("x^2 + y^3 + z^4")
    assert scaled.scaling_note and not plain.scaling_note
    assert scaled == plain
    assert not (scaled != plain)
    assert hash(scaled) == hash(plain)


def test_negative_coefficient_absorbed():
    assert parse_separated("-x^2 + y^3").scaling_note


def test_round_trip_flagship(flagship):
    assert parse_separated(flagship.to_text()) == flagship
    assert flagship.to_text() == "X2^11*X1^10 + Y1^10 + Y2^10 + Y3^10"


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0), st.sampled_from([6, 12, 10**30]))
def test_round_trip_random_forms(seed, max_exp):
    """Printing a canonical form and parsing it gives the form back."""
    cf = random_canonical_form(random.Random(seed), max_vars=10, max_exp=max_exp)
    again = parse_separated(cf.to_text())
    assert again == cf
    assert again.to_text() == cf.to_text()


def test_variable_count_matches_input():
    rng = random.Random(8)
    for _ in range(40):
        cf = random_canonical_form(rng)
        parsed = parse_polynomial(cf.to_text())
        assert set(cf.var_order) == {v for t in parsed.terms for v, _ in t.monomial}


def test_canonicalization_insensitive_to_term_order():
    rng = random.Random(9)
    for _ in range(40):
        cf = random_canonical_form(rng)
        pieces = cf.to_text().split(" + ")
        rng.shuffle(pieces)
        assert parse_separated(" + ".join(pieces)) == cf


def test_canonical_shape_insensitive_to_renaming():
    rng = random.Random(10)
    for _ in range(40):
        cf = random_canonical_form(rng)
        names = list(cf.var_order)
        # fresh names share no substring with the old ones, so plain
        # replacement is a faithful consistent renaming
        fresh = [f"w{k}" for k in range(len(names))]
        rng.shuffle(fresh)
        text = cf.to_text()
        for old, new in zip(names, fresh):
            text = text.replace(old, new)
        assert block_shape(parse_separated(text)) == block_shape(cf)


def test_make_canonical_form_validation():
    with pytest.raises(ValueError):
        make_canonical_form([(["x"], [2])], [])  # too short for a mixed block
    with pytest.raises(ValueError):
        make_canonical_form([(["x", "y"], [2])], [])  # length mismatch
    with pytest.raises(ValueError):
        make_canonical_form([(["x", "y"], [2, 0])], [])  # bad exponent
    with pytest.raises(ValueError):
        make_canonical_form([(["x", "y"], [2, 1])], [(2, ["x"])])  # reused var
    with pytest.raises(ValueError):
        make_canonical_form([], [(2, ["2bad"])])  # bad name
