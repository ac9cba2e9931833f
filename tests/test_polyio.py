import random
import re
import sys
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FLAGSHIP,
    PARSE_FAMILIES,
    block_shape,
    calls_inside,
    parse_by_tokens,
    random_canonical_form,
)
from sepaut.polyio import (
    ConstantTermError,
    NonIntegerExponentError,
    NonPositiveExponentError,
    NotSeparatedError,
    ParseError,
    PolynomialError,
    ZeroPolynomialError,
    _coefficient,
    decimal,
    decimals,
    dense,
    make_canonical_form,
    parse_separated,
)
from sepaut.quasitorus import quasitorus_structure


# ---------------------------------------------------------------------------
# parser


def test_parse_flagship():
    cf = parse_separated(FLAGSHIP)
    assert cf.monomial_count == 4
    degrees = [sum(b.exponents) for b in cf.mixed_blocks]
    degrees += [b.exponent for b in cf.pure_blocks for _ in b.variables]
    assert sorted(degrees, reverse=True) == [21, 10, 10, 10]
    assert not cf.scaling_note


def test_parse_single_variable():
    cf = parse_separated("x")
    assert cf.mixed_blocks == ()
    assert [(b.exponent, b.variables) for b in cf.pure_blocks] == [(1, ("x",))]


def test_like_terms_combine():
    cf = parse_separated("2*x^2 + 3*x^2 + y^2")
    assert [(b.exponent, b.variables) for b in cf.pure_blocks] == [(2, ("x", "y"))]
    assert cf.scaling_note


def test_parse_is_whitespace_insensitive():
    assert parse_separated("x^2*y + z") == parse_separated("  x ^ 2 * y+z\t")


def test_parse_is_term_order_insensitive():
    assert parse_separated("y + x^2*z") == parse_separated("x^2*z + y")


def test_signs_and_fractions():
    cf = parse_separated("-x + 2/3*y - z")
    assert [(b.exponent, b.variables) for b in cf.pure_blocks] == [(1, ("x", "y", "z"))]
    assert cf.scaling_note


def test_fraction_coefficients_combine_to_one():
    # the note is set only by coefficients left after like terms combine
    assert not parse_separated("2/3*x + 1/3*x").scaling_note
    assert not parse_separated("2/3*x^2 + 1/3*x^2 + y^2").scaling_note


def test_repeated_variable_in_one_term_multiplies():
    assert parse_separated("x*x") == parse_separated("x^2")
    assert parse_separated("x*x^2 + y^3") == parse_separated("x^3 + y^3")


def test_constant_terms_parse():
    # a constant is a term: it combines with other constants and may cancel
    assert parse_separated("x^2 + 1 - 1") == parse_separated("x^2")


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        parse_separated("x - x")
    with pytest.raises(ZeroPolynomialError):
        parse_separated("0")


@pytest.mark.parametrize(
    "text",
    ["", "x +", "x * ", "+ x", "x ++ y", "(x)", "x*2", "2*3", "x^", "2x"],
)
def test_syntax_errors(text):
    with pytest.raises(ParseError) as info:
        parse_separated(text)
    assert isinstance(info.value.position, int)


def test_exponent_errors():
    with pytest.raises(NonPositiveExponentError):
        parse_separated("x^0")
    with pytest.raises(NonPositiveExponentError):
        parse_separated("x^-2")
    with pytest.raises(NonIntegerExponentError):
        parse_separated("x^1.5")
    with pytest.raises(NonIntegerExponentError):
        parse_separated("x^3/2")


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_separated("1/0*x")


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
        parse_separated(text)
    assert info.value.position == position


LONG = "7" * 5000
OVER_LIMIT = f"has 5000 digits, over the limit of {sys.get_int_max_str_digits()}"

# (input, exception class, message, position or None), one row or more for
# every place the parser raises; the three checks after parsing run in the
# order of the rows: zero polynomial, constant term, separation
ERRORS = [
    ("", ParseError, "empty input", 0),
    ("   ", ParseError, "empty input", 3),
    ("+ x", ParseError, "expected a term, found '+'", 0),
    ("x +", ParseError, "expected a term but input ended", 3),
    ("x ++ y", ParseError, "expected a term, found '+'", 3),
    ("(x)", ParseError, "expected a term, found '('", 0),
    ("x + \u00e9", ParseError, "expected a term, found '\u00e9'", 4),
    ("x +\u3000", ParseError, "expected a term but input ended", 4),
    ("2x", ParseError, "expected '+' or '-', found 'x'", 1),
    ("x^2y", ParseError, "expected '+' or '-', found 'y'", 3),
    ("x y", ParseError, "expected '+' or '-', found 'y'", 2),
    ("2 3", ParseError, "expected '+' or '-', found '3'", 2),
    # a '.' or '/' after a space is not part of the exponent
    ("x^1 .5", ParseError, "expected '+' or '-', found '.'", 4),
    ("x^2 /3", ParseError, "expected '+' or '-', found '/'", 4),
    ("x * ", ParseError, "expected a variable but input ended", 4),
    ("x*2", ParseError, "expected a variable, found '2'", 2),
    ("2*3", ParseError, "expected a variable, found '3'", 2),
    ("x*^2", ParseError, "expected a variable, found '^'", 2),
    ("1/x", ParseError, "expected denominator, found 'x'", 2),
    ("1/", ParseError, "expected denominator but input ended", 2),
    # placed just after the '/', not at the digit
    ("1/0*x", ParseError, "zero denominator", 2),
    ("1/ 0*x", ParseError, "zero denominator", 2),
    ("x^", ParseError, "expected exponent but input ended", 2),
    ("x^y", ParseError, "expected exponent, found 'y'", 2),
    ("x^-", ParseError, "expected exponent but input ended", 3),
    ("x^- y", ParseError, "expected exponent, found 'y'", 4),
    ("x^0", NonPositiveExponentError, "exponent 0 is not positive", 2),
    ("x^-2", NonPositiveExponentError, "exponent -2 is not positive", 2),
    ("x^ -2", NonPositiveExponentError, "exponent -2 is not positive", 3),
    ("x^-0", NonPositiveExponentError, "exponent -0 is not positive", 2),
    ("x^1.5", NonIntegerExponentError, "exponents must be integers", 3),
    ("x^3/2", NonIntegerExponentError, "exponents must be integers", 3),
    ("x^0.5", NonIntegerExponentError, "exponents must be integers", 3),
    ("x^2 + y^" + LONG, ParseError, "exponent " + OVER_LIMIT, 8),
    ("x^-" + LONG, ParseError, "exponent " + OVER_LIMIT, 3),
    ("x + " + LONG + "*y", ParseError, "coefficient " + OVER_LIMIT, 4),
    ("x + 1/" + LONG + "*y", ParseError, "denominator " + OVER_LIMIT, 6),
    ("x - x +", ParseError, "expected a term but input ended", 7),
    ("x - x", ZeroPolynomialError, "all terms cancel: got the zero polynomial", None),
    ("0", ZeroPolynomialError, "all terms cancel: got the zero polynomial", None),
    ("1 - 1", ZeroPolynomialError, "all terms cancel: got the zero polynomial", None),
    ("2/3*x - 2/3*x + 0*y", ZeroPolynomialError, "all terms cancel: got the zero polynomial", None),
    ("x^2 + 1", ConstantTermError, "constant terms are not allowed in separated form", None),
    ("x - x + 1", ConstantTermError, "constant terms are not allowed in separated form", None),
    ("x^2 + 1 + x", ConstantTermError, "constant terms are not allowed in separated form", None),
    ("x^2*y + x", NotSeparatedError, "variable 'x' appears in 2 monomials", None),
    ("a*b + b*c + a", NotSeparatedError, "variable 'a' appears in 2 monomials", None),
    ("z + z^2 + z^3 + y*z", NotSeparatedError, "variable 'z' appears in 4 monomials", None),
]


@pytest.mark.parametrize(
    "text, error, message, position",
    ERRORS,
    ids=[t if len(t) < 40 else t[:20] + "..." for t, *_ in ERRORS],
)
def test_error_class_message_and_position(text, error, message, position):
    with pytest.raises(error) as info:
        parse_separated(text)
    assert type(info.value) is error
    assert getattr(info.value, "position", None) == position
    suffix = "" if position is None else f" (at position {position})"
    assert str(info.value) == message + suffix


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0), st.data())
def test_whitespace_between_tokens_is_ignored(seed, data):
    """Runs of any characters with `str.isspace`, U+00A0 and U+3000 among
    them, between the tokens of a printed form leave the form unchanged."""
    assert "\u00a0" in WHITESPACE and "\u3000" in WHITESPACE
    cf = random_canonical_form(random.Random(seed), max_vars=10, max_exp=10**30)
    tokens = re.findall(r"[A-Za-z][A-Za-z0-9_]*|[0-9]+|\S", cf.to_text())
    runs = data.draw(
        st.lists(
            st.text(st.sampled_from(WHITESPACE), max_size=3),
            min_size=len(tokens) + 1,
            max_size=len(tokens) + 1,
        )
    )
    text = runs[0] + "".join(t + r for t, r in zip(tokens, runs[1:]))
    again = parse_separated(text)
    assert again == cf and again.to_text() == cf.to_text()


# pieces of text the parser reads differently from one token at a time: a
# '^' with what may follow it, digit runs about the 640 digits a factor
# token takes and about the int() digit limit, operators, other characters
PIECES = [
    "x", "y", "z1", "a_b", "Q", "^", "^-", "^0", "^-0", "^2.5", "^ 3", "^12^3", "^007",
    "y^4/", "x^2", "^2 ", "00", "0", "3", "*", "+", "-", "/", ".", "(", "\u00e9",
]
LIMIT = sys.get_int_max_str_digits()
DIGIT_RUNS = st.builds(
    lambda lead, digit, k: lead + digit * k,
    st.sampled_from(["", "0", "^", "x^", "^0"]),
    st.sampled_from("079"),
    st.sampled_from([639, 640, 641, LIMIT - 1, LIMIT, LIMIT + 1]),
)
RENDERED = st.integers(min_value=0).map(
    lambda seed: random_canonical_form(random.Random(seed), max_vars=10, max_exp=10**30).to_text()
)


def outcome(parse, text):
    """What `parse` makes of `text`: the exception's class, message and
    position, or the form with its rendering and scaling note."""
    try:
        cf = parse(text)
    except PolynomialError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return tuple(cf), cf.to_text(), cf.scaling_note


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(PIECES), st.sampled_from(WHITESPACE), DIGIT_RUNS, RENDERED),
        max_size=10,
    )
)
def test_parser_matches_the_token_referee(pieces):
    """The parser reads a run of factors as one token and builds the form
    unchecked; on any text it raises what the token-at-a-time referee
    raises, with the same message and position, or gives the same form."""
    text = "".join(pieces)
    assert outcome(parse_separated, text) == outcome(parse_by_tokens, text)


def test_coefficient_annotations_name_what_the_module_holds():
    # `fractions` loads inside `_coefficient`, so its annotations may not
    # name `Fraction`
    assert typing.get_type_hints(_coefficient) == {"tok": re.Match, "text": str}


# ---------------------------------------------------------------------------
# canonical form


def test_flagship_canonical_form(flagship):
    cf = flagship
    assert len(cf.mixed_blocks) == 1
    block = cf.mixed_blocks[0]
    assert block.exponents == (11, 10)
    assert block.variables == ("X2", "X1")
    assert sum(block.exponents) == 21
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
        parsed = parse_separated(cf.to_text())
        assert parsed.variable_count == cf.variable_count
        assert set(parsed.var_order) == set(cf.var_order)


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


@pytest.mark.parametrize("family", PARSE_FAMILIES)
def test_parse_work_is_linear_in_the_blocks(family):
    """Four times the blocks cost at most 4 * 1.05 times the calls.  At 250
    and 1000 blocks the ratios were 3.991 (identical blocks), 3.992
    (distinct small exponents) and 3.978 (pure Fermat) when this bound was
    set, with 24, 28 and 12 calls per block."""
    k = 250
    small, large = (
        calls_inside(parse_separated, PARSE_FAMILIES[family](m)) for m in (k, 4 * k)
    )
    assert large <= 4 * 1.05 * small, (family, small, large)


# ---------------------------------------------------------------------------
# printing


def test_negative_integers_past_the_limit_print_as_str_does():
    """The cocharacter basis of x^P*y^Q*z^R + w^2 + v^3, for three random
    exponents of 3000 digits, has entries below -10^4300, past the `str`
    digit limit; `decimal` and `decimals` print them as `str` does with the
    limit lifted."""
    rng = random.Random(34)
    p, q, r = (rng.randrange(10**2999, 10**3000) for _ in range(3))
    quasi = quasitorus_structure(parse_separated(f"x^{p}*y^{q}*z^{r} + w^2 + v^3"))
    vectors = [v for v in quasi.cocharacter_basis if min(x for _, x in v) < -(10**4300)]
    assert vectors
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [[str(x) for x in dense(v, 5)] for v in vectors]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [decimals(v, 5) for v in vectors] == expected
    assert [[decimal(x) for x in dense(v, 5)] for v in vectors] == expected
