import random
import time
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    generated_group,
    perm_order_by_scan,
    permutation,
    permute_vector,
    random_canonical_form,
)
from sepaut.autassembly import fermat_form
from sepaut.oracles import (
    ENUMERATION_LIMIT,
    EnumerationTooLargeError,
    brute_force_perm_order,
)
from sepaut.permgroup import cycle_notation, permutation_group
from sepaut.polyio import make_canonical_form, parse_separated


def preserves(cf, cycles):
    perm = permutation(cycles, cf.variable_count)
    chars = set(cf.monomial_vectors)
    return {permute_vector(perm, chi) for chi in chars} == chars


def test_flagship_group(flagship):
    desc = permutation_group(flagship)
    assert desc.order == 6
    assert desc.structure == "S3"
    names = flagship.var_order
    rendered = [cycle_notation(g, names) for g in desc.generators]
    assert rendered == ["(Y1 Y2)", "(Y1 Y2 Y3)"]
    assert all(preserves(flagship, g) for g in desc.generators)


def test_flagship_brute_force(flagship):
    assert brute_force_perm_order(flagship) == 6


def test_two_identical_mixed_blocks():
    cf = parse_separated("x1*x2^2 + x3*x4^2 + y^5")
    desc = permutation_group(cf)
    assert desc.order == 2
    assert desc.structure == "S2"
    assert brute_force_perm_order(cf) == 2
    # the generator swaps the two blocks position-wise: canonical order
    # within each block is (x2, x1) and (x4, x3)
    (cycles,) = desc.generators
    gen = permutation(cycles, cf.variable_count)
    idx = cf.variable_index
    assert gen[idx["x1"]] == idx["x3"] and gen[idx["x3"]] == idx["x1"]
    assert gen[idx["x2"]] == idx["x4"] and gen[idx["x4"]] == idx["x2"]
    assert gen[idx["y"]] == idx["y"]


def test_single_mixed_monomial_with_equal_exponents():
    cf = parse_separated("x*y")
    assert permutation_group(cf).order == 2
    assert brute_force_perm_order(cf) == 2


def test_distinct_exponents_only_identity():
    cf = parse_separated("x^2 + y^3")
    desc = permutation_group(cf)
    assert desc.order == 1
    assert desc.structure == "1"
    assert desc.generators == ()
    assert brute_force_perm_order(cf) == 1


def test_exponent_classes_alone_do_not_make_automorphisms():
    # x <-> z and y <-> w keep every exponent, so all 4 orderings of the two
    # classes are tried, but only the identity maps x^2*y^3 onto a monomial
    cf = parse_separated("x^2*y^3 + z^2 + w^3")
    assert permutation_group(cf).order == 1
    assert brute_force_perm_order(cf) == perm_order_by_scan(cf) == 1


@pytest.mark.parametrize("n,alpha", [(2, 2), (3, 3), (4, 5), (6, 2)])
def test_fermat_orders(n, alpha):
    desc = permutation_group(fermat_form(n, alpha))
    assert desc.order == factorial(n)
    assert desc.structure == f"S{n}"
    if n <= 6:
        assert brute_force_perm_order(fermat_form(n, alpha)) == factorial(n)


def test_wreath_structure():
    cf = parse_separated("a^2*b^2 + c^2*d^2 + y1^3 + y2^3 + y3^3")
    desc = permutation_group(cf)
    # two identical blocks with inner S2 each: (S2 wr S2) x S3
    assert desc.order == 2 * 2**2 * 6
    assert desc.structure == "S2 wr S2 × S3"
    assert brute_force_perm_order(cf) == desc.order


def test_mixed_blocks_never_match_pure_blocks():
    cf = parse_separated("x*y + z^2")
    desc = permutation_group(cf)
    assert desc.order == 2  # only the x <-> y swap
    assert brute_force_perm_order(cf) == 2


def test_pure_blocks_with_distinct_exponents_never_merge():
    cf = parse_separated("x^2 + y^2 + z^3")
    desc = permutation_group(cf)
    assert desc.order == 2
    assert brute_force_perm_order(cf) == 2


def test_class_cycle_for_three_identical_blocks():
    cf = parse_separated("a*b + c*d + e*f + g^3")
    desc = permutation_group(cf)
    # inner S2 per block, three blocks: (S2 wr S3)
    assert desc.order == factorial(3) * 2**3
    assert desc.structure == "S2 wr S3"
    assert brute_force_perm_order(cf) == desc.order
    assert all(preserves(cf, g) for g in desc.generators)


def test_generators_generate_exactly_the_order():
    rng = random.Random(15)
    checked = 0
    for _ in range(60):
        cf = random_canonical_form(rng)
        desc = permutation_group(cf)
        if desc.order > 10**4:
            continue
        n = cf.variable_count
        for cycles in desc.generators:
            # canonical cycle form: disjoint nontrivial cycles, each
            # starting at its least index, sorted by it
            points = [v for cycle in cycles for v in cycle]
            assert len(set(points)) == len(points) and set(points) <= set(range(n))
            assert all(len(cycle) >= 2 and cycle[0] == min(cycle) for cycle in cycles)
            assert [cycle[0] for cycle in cycles] == sorted(cycle[0] for cycle in cycles)
        perms = [permutation(cycles, n) for cycles in desc.generators]
        group = generated_group(perms, n)
        assert len(group) == desc.order
        checked += 1
    assert checked >= 20


def test_brute_force_matches_formula_random():
    rng = random.Random(16)
    for _ in range(40):
        cf = random_canonical_form(rng, max_vars=6)
        assert brute_force_perm_order(cf) == permutation_group(cf).order


def test_brute_force_matches_on_seven_and_eight_variables():
    cf7 = parse_separated("a^2*b^2 + c^2*d^2 + y1^3 + y2^3 + y3^3")
    assert brute_force_perm_order(cf7) == permutation_group(cf7).order
    cf8 = parse_separated("a^3*b^2 + c^3*d^2 + p^4 + q^4 + r^4 + s^4")
    assert brute_force_perm_order(cf8) == permutation_group(cf8).order
    # 8 pure squares: 8! * 8 = 322560 steps, the most any n <= 8 form takes
    assert brute_force_perm_order(fermat_form(8, 2)) == factorial(8)


@st.composite
def small_forms(draw, max_vars=7):
    """Separated forms on at most `max_vars` variables with exponents 1 to 3,
    so that exponent classes are large and often span several monomials."""
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=max_vars))
    while sum(widths) > max_vars:
        widths.pop()
    mixed, pure, k = [], [], 0
    for width in widths:
        exps = draw(st.lists(st.integers(1, 3), min_size=width, max_size=width))
        names = [f"v{k + j}" for j in range(width)]
        k += width
        if width == 1:
            pure.append((exps[0], names))
        else:
            mixed.append((names, exps))
    return make_canonical_form(mixed, pure)


@settings(max_examples=60, deadline=None)
@given(small_forms())
def test_class_enumeration_matches_the_scan_and_the_formula(cf):
    order = permutation_group(cf).order
    assert brute_force_perm_order(cf) == perm_order_by_scan(cf) == order


def test_brute_force_guard():
    # 9 pure squares: 9! * 9 = 3265920 steps
    names = [f"a{k}" for k in range(9)]
    cf = make_canonical_form([], [(2, names)])
    with pytest.raises(EnumerationTooLargeError) as exc:
        brute_force_perm_order(cf)
    assert str(exc.value) == (
        "n * (product of k! over the exponent classes of k variables) steps for "
        f"n = 9 exceed the enumeration guard {ENUMERATION_LIMIT}"
    )


def test_brute_force_guard_at_the_edge():
    # classes of 8, 2 and 1 variables: 8! * 2 * 11 = 887040 steps run, and
    # one more class of 2 (8! * 4 * 13 = 2096640 steps) is refused
    cf = parse_separated("a^2*b^2*c^2*d^2 + e^2*f^2*g^2*h^2 + x*y^3 + z^3")
    assert brute_force_perm_order(cf) == permutation_group(cf).order == 2 * 24**2
    with pytest.raises(EnumerationTooLargeError):
        brute_force_perm_order(parse_separated(cf.to_text() + " + u^5 + w^5"))


def test_brute_force_guard_never_builds_the_factorial():
    # one class of 200000 variables: the product stops at 3!, past
    # 10^6 / 200000 candidates, and the guard answers at once
    cf = fermat_form(200_000, 2)
    start = time.perf_counter()
    with pytest.raises(EnumerationTooLargeError):
        brute_force_perm_order(cf)
    assert time.perf_counter() - start < 1.0


def test_cycle_notation():
    assert cycle_notation((), "abc") == "()"
    assert cycle_notation(((0, 1),), "abc") == "(a b)"
    assert cycle_notation(((0, 1, 2),), "abc") == "(a b c)"
    assert cycle_notation(((0, 1), (2, 3)), "abcd") == "(a b)(c d)"


def test_permutation_expands_cycles():
    assert permutation((), 3) == [0, 1, 2]
    assert permutation(((0, 1),), 3) == [1, 0, 2]
    assert permutation(((0, 1, 2),), 3) == [1, 2, 0]
    assert permutation(((0, 1), (2, 3)), 4) == [1, 0, 3, 2]
    assert permutation(((1, 3, 2),), 5) == [0, 3, 1, 2, 4]


def test_permute_vector_moves_entries():
    assert permute_vector((1, 2, 0), (10, 20, 30)) == (30, 10, 20)
