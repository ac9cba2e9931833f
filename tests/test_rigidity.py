import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_canonical_form
from sepaut.autassembly import fermat_form
from sepaut.polyio import make_canonical_form, parse_separated
from sepaut.rigidity import (
    CERTIFIED_RIGID,
    INAPPLICABLE,
    INCONCLUSIVE,
    rigidity_certificate,
)


def test_flagship_certificate(flagship):
    cert = rigidity_certificate(flagship)
    assert Fraction(*cert.reciprocal_sum) == Fraction(27, 55)
    assert Fraction(*cert.threshold) == Fraction(1, 2)
    assert cert.verdict == CERTIFIED_RIGID
    assert not cert.equality


def test_fermat_boundary_case():
    cert = rigidity_certificate(fermat_form(3, 3))
    assert Fraction(*cert.reciprocal_sum) == 1
    assert Fraction(*cert.threshold) == 1
    assert cert.verdict == CERTIFIED_RIGID
    assert cert.equality


def test_inconclusive_case():
    cert = rigidity_certificate(parse_separated("x1^2*x2^2 + y1^2 + y2^2"))
    assert Fraction(*cert.reciprocal_sum) == 2
    assert Fraction(*cert.threshold) == 1
    assert cert.verdict == INCONCLUSIVE


def test_inapplicable_below_three_monomials():
    cert = rigidity_certificate(parse_separated("x^2 + y^3"))
    assert cert.verdict == INAPPLICABLE
    assert cert.threshold is None
    cert = rigidity_certificate(parse_separated("x^17*y^2"))
    assert cert.verdict == INAPPLICABLE


def test_note_mentions_both_denominators(flagship):
    cert = rigidity_certificate(flagship)
    assert "monomials" in cert.note and "blocks" in cert.note
    # flagship: one mixed block plus one pure block, so the block-count
    # reading would have a zero denominator
    assert cert.block_count_threshold is None


def test_block_count_threshold_when_defined():
    cert = rigidity_certificate(parse_separated("x^9 + y^8 + z^7"))
    # three pure blocks: the block-count reading coincides with M - 2 here
    assert cert.block_count_threshold == cert.threshold
    assert Fraction(*cert.threshold) == Fraction(1, 1)


def test_sum_invariant_under_renaming_and_reordering():
    rng = random.Random(17)
    for _ in range(30):
        cf = random_canonical_form(rng)
        pieces = cf.to_text().split(" + ")
        rng.shuffle(pieces)
        again = parse_separated(" + ".join(pieces))
        assert rigidity_certificate(again) == rigidity_certificate(cf)


def test_exponent_one_is_never_certified():
    rng = random.Random(18)
    found = 0
    for _ in range(200):
        cf = random_canonical_form(rng)
        exponents = {b.exponent for b in cf.pure_blocks}
        exponents.update(e for b in cf.mixed_blocks for e in b.exponents)
        if cf.monomial_count < 3 or 1 not in exponents:
            continue
        found += 1
        assert rigidity_certificate(cf).verdict != CERTIFIED_RIGID
    assert found >= 20
    # and a handcrafted witness with M = 3
    cert = rigidity_certificate(make_canonical_form([], [(1, ["x"]), (9, ["y"]), (8, ["z"])]))
    assert cert.verdict != CERTIFIED_RIGID


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0), st.sampled_from([3, 6, 12, 10**20]))
def test_sum_over_distinct_exponents_is_the_sum_over_variables(seed, max_exp):
    """Summing k/e once per distinct exponent e of k variables gives the sum
    of one Fraction per variable."""
    cf = random_canonical_form(random.Random(seed), max_vars=10, max_exp=max_exp)
    per_variable = sum(
        (Fraction(1, e) for support in cf.monomial_supports for _, e in support),
        Fraction(0),
    )
    assert Fraction(*rigidity_certificate(cf).reciprocal_sum) == per_variable


def _pair(f):
    return None if f is None else (f.numerator, f.denominator)


def _fraction_referee(cf):
    """The certificate's fields but the note, rebuilt in `Fraction`s from one
    term per variable and the block count read off the blocks."""
    total = sum(
        (Fraction(1, e) for support in cf.monomial_supports for _, e in support),
        Fraction(0),
    )
    m_count = cf.monomial_count
    blocks = len(cf.mixed_blocks) + len(cf.pure_blocks)
    threshold = Fraction(1, m_count - 2) if m_count > 2 else None
    if threshold is None:
        verdict = INAPPLICABLE
    else:
        verdict = CERTIFIED_RIGID if total <= threshold else INCONCLUSIVE
    return (
        _pair(total),
        _pair(threshold),
        verdict,
        total == threshold,
        _pair(Fraction(1, blocks - 2) if blocks > 2 else None),
    )


def test_integer_certificate_agrees_with_fraction_referee():
    """The integer certificate (one gcd, a cross-multiplied comparison) gives
    the fractions in lowest terms, the verdict, the equality flag and the
    note's block reading that `Fraction` arithmetic gives, on random forms,
    on equality cases and on forms of at most two monomials."""
    rng = random.Random(19)
    forms = [random_canonical_form(rng) for _ in range(500)]
    forms += [parse_separated("x^3 + y^3 + z^3"), fermat_form(4, 8), fermat_form(6, 12)]
    forms += [parse_separated(t) for t in ("x^2 + y^3", "x^17*y^2", "x*y + z^5", "x + y")]
    seen = set()
    for cf in forms:
        cert = rigidity_certificate(cf)
        expected = _fraction_referee(cf)
        assert cert[:5] == expected, cf.to_text()
        alt = cert.block_count_threshold
        if alt is not None:
            assert f"gives 1/{alt[1]} = {Fraction(*alt)};" in cert.note
        seen.add((cert.verdict, cert.equality))
    assert seen == {
        (CERTIFIED_RIGID, True),
        (CERTIFIED_RIGID, False),
        (INCONCLUSIVE, False),
        (INAPPLICABLE, False),
    }
