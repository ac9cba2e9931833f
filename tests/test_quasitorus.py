import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_canonical_form
from sepaut.autassembly import fermat_form
from sepaut.intlat import IntMatrix, gcd_of_minors, kernel_basis, smith_normal_form
from sepaut.polyio import make_canonical_form, parse_separated
from sepaut.quasitorus import (
    CharacterData,
    EnumerationTooLargeError,
    SingleMonomialError,
    character_matrix,
    cocharacter_coordinates,
    count_torsion_points_mod,
    quasitorus_structure,
    torsion_count_formula,
)
from sepaut.torusgeom import express_in_basis


def test_flagship_characters_and_differences(flagship):
    cd = character_matrix(flagship)
    assert cd.characters == (
        (11, 10, 0, 0, 0),
        (0, 0, 10, 0, 0),
        (0, 0, 0, 10, 0),
        (0, 0, 0, 0, 10),
    )
    assert cd.difference_matrix.to_rows() == [
        [-11, -10, 10, 0, 0],
        [-11, -10, 0, 10, 0],
        [-11, -10, 0, 0, 10],
    ]


def test_fermat_difference_matrix():
    cd = character_matrix(fermat_form(3, 3))
    assert cd.difference_matrix.to_rows() == [[-3, 3, 0], [-3, 0, 3]]


def test_two_pure_powers_difference():
    # canonical order puts the higher pure exponent first: (y, x)
    cd = character_matrix(parse_separated("x^2 + y^3"))
    assert cd.var_order == ("y", "x")
    assert cd.difference_matrix.to_rows() == [[-3, 2]]


def test_single_monomial_rejected():
    with pytest.raises(SingleMonomialError):
        character_matrix(parse_separated("x*y"))
    with pytest.raises(SingleMonomialError):
        character_matrix(parse_separated("x^5"))


def test_flagship_structure(flagship):
    q = quasitorus_structure(character_matrix(flagship))
    assert q.torus_rank == 2
    assert q.torsion == (10, 10)
    assert len(q.cocharacter_basis) == 2


def test_two_pure_powers_structure():
    q = quasitorus_structure(character_matrix(parse_separated("x^2 + y^3")))
    assert q.torus_rank == 1
    assert q.torsion == ()
    assert q.torsion_generators == ()


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("alpha", range(2, 8))
def test_fermat_family_structure(n, alpha):
    q = quasitorus_structure(character_matrix(fermat_form(n, alpha)))
    assert q.torus_rank == 1
    assert q.torsion == (alpha,) * (n - 1)


def test_torsion_generators_are_valid(flagship):
    rng = random.Random(44)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        cd = character_matrix(cf)
        q = quasitorus_structure(cd)
        for gen in q.torsion_generators:
            residues = [
                sum(a * e for a, e in zip(row, gen.exponents)) % gen.order
                for row in cd.difference_matrix.to_rows()
            ]
            assert residues == [0] * cd.difference_matrix.rows
            # exact order: no smaller modulus works
            assert math.gcd(gen.order, *gen.exponents) == 1


def test_count_modulus_one():
    cd = character_matrix(parse_separated("x^2 + y^3"))
    assert count_torsion_points_mod(cd, 1) == 1


def test_count_fermat_all_solutions():
    cd = character_matrix(fermat_form(3, 3))
    # D is divisible by 3, so every vector of (Z/3)^3 solves D e == 0 mod 3
    assert count_torsion_points_mod(cd, 3) == 27
    assert torsion_count_formula(cd, 3) == 27


def test_count_flagship_mod_ten(flagship):
    cd = character_matrix(flagship)
    assert count_torsion_points_mod(cd, 10) == 10000
    assert torsion_count_formula(cd, 10) == 10000


def test_count_guard():
    names = [f"a{k}" for k in range(9)]
    cd = character_matrix(make_canonical_form([], [(2, names)]))
    with pytest.raises(EnumerationTooLargeError):
        count_torsion_points_mod(cd, 10)


def test_count_matches_formula_randomized():
    rng = random.Random(11)
    for _ in range(12):
        cf = random_canonical_form(rng, max_vars=4, max_exp=6)
        cd = character_matrix(cf)
        for modulus in range(2, 13):
            assert count_torsion_points_mod(cd, modulus) == torsion_count_formula(
                cd, modulus
            )


def test_structure_independent_of_base_monomial(flagship):
    rng = random.Random(12)
    forms = [flagship] + [random_canonical_form(rng) for _ in range(10)]
    for cf in forms:
        reference = None
        for base in range(cf.monomial_count):
            q = quasitorus_structure(character_matrix(cf, base=base))
            key = (q.torus_rank, q.torsion)
            if reference is None:
                reference = key
            assert key == reference


def test_torus_rank_identity_random():
    rng = random.Random(13)
    for _ in range(40):
        cf = random_canonical_form(rng)
        q = quasitorus_structure(character_matrix(cf))
        n = cf.variable_count
        m_count = cf.monomial_count
        by_blocks = sum(len(b.variables) - 1 for b in cf.mixed_blocks) + 1
        assert q.torus_rank == n - m_count + 1 == by_blocks


def test_difference_matrix_always_full_rank():
    rng = random.Random(14)
    for _ in range(30):
        cf = random_canonical_form(rng)
        cd = character_matrix(cf)
        q = quasitorus_structure(cd)
        assert len(q.cocharacter_basis) == cf.variable_count - cd.difference_matrix.rows


@st.composite
def separated_forms(draw, max_monomials=6, max_width=3, max_exp=9):
    """Random separated forms; a common scale per monomial makes the block
    gcds share factors, so the torsion is rarely trivial."""
    shapes = draw(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 30]),
                st.lists(st.integers(1, max_exp), min_size=1, max_size=max_width),
            ),
            min_size=2,
            max_size=max_monomials,
        )
    )
    mixed, pure, k = [], [], 0
    for scale, exps in shapes:
        names = [f"v{k + j}" for j in range(len(exps))]
        k += len(exps)
        if len(exps) == 1:
            pure.append((scale * exps[0], names))
        else:
            mixed.append((names, [scale * e for e in exps]))
    return make_canonical_form(mixed, pure)


@settings(max_examples=300, deadline=None)
@given(separated_forms())
def test_closed_form_matches_smith_referee(cf):
    cd = character_matrix(cf)
    q = quasitorus_structure(cd)
    snf = smith_normal_form(cd.difference_matrix)
    assert q.torus_rank == cf.variable_count - snf.rank
    assert q.torsion == tuple(d for d in snf.divisors if d > 1)


@settings(max_examples=60, deadline=None)
@given(separated_forms(max_monomials=4, max_width=2))
def test_closed_form_matches_minor_quotients(cf):
    cd = character_matrix(cf)
    d_matrix = cd.difference_matrix
    quotients, prev = [], 1
    for k in range(1, d_matrix.rows + 1):
        delta = gcd_of_minors(d_matrix, k)
        quotients.append(delta // prev)
        prev = delta
    assert quasitorus_structure(cd).torsion == tuple(d for d in quotients if d > 1)


@settings(max_examples=200, deadline=None)
@given(separated_forms())
def test_kernel_bases_span_the_same_lattice(cf):
    cd = character_matrix(cf)
    closed = quasitorus_structure(cd).cocharacter_basis
    referee = kernel_basis(cd.difference_matrix)
    for vec in referee:
        express_in_basis(closed, vec)
    for vec in closed:
        express_in_basis(referee, vec)


@settings(max_examples=200, deadline=None)
@given(separated_forms())
def test_generators_and_kernel_give_all_torsion_points(cf):
    """N Z^n + ker(D) + sum (N/d_k) v_k is the whole lattice of solutions of
    D x == 0 (mod N), N = lcm(torsion): it lies inside, and its index
    N^(n - rank) / prod d_k is that of the solutions."""
    cd = character_matrix(cf)
    q = quasitorus_structure(cd)
    n = cf.variable_count
    modulus = math.lcm(*q.torsion)
    rows = [[modulus * int(i == j) for j in range(n)] for i in range(n)]
    rows += [list(v) for v in q.cocharacter_basis]
    rows += [
        [modulus // t.order * x for x in t.exponents] for t in q.torsion_generators
    ]
    lattice = IntMatrix.from_rows(rows)
    for row in rows:
        assert all(x % modulus == 0 for x in cd.difference_matrix.matvec(row))
    index = math.prod(smith_normal_form(lattice).divisors)
    assert index * math.prod(q.torsion) == modulus ** (n - q.torus_rank)


@settings(max_examples=200, deadline=None)
@given(separated_forms(), st.data())
def test_cocharacter_coordinates_invert_the_basis(cf, data):
    cd = character_matrix(cf)
    basis = quasitorus_structure(cd).cocharacter_basis
    coords = data.draw(
        st.lists(st.integers(-20, 20), min_size=len(basis), max_size=len(basis))
    )
    vec = tuple(
        sum(c * b[v] for c, b in zip(coords, basis)) for v in range(cf.variable_count)
    )
    assert cocharacter_coordinates(cd, vec) == tuple(coords)


def test_cocharacter_coordinates_reject_non_kernel_vectors(flagship):
    cd = character_matrix(flagship)
    with pytest.raises(ValueError):
        cocharacter_coordinates(cd, (1, 0, 0, 0, 0))


def test_overlapping_supports_fail_loudly():
    cd = CharacterData(
        var_order=("x", "y"),
        characters=((2, 1), (0, 3)),
        difference_matrix=IntMatrix.from_rows([[-2, 2]]),
    )
    with pytest.raises(AssertionError, match="share variable 'y'"):
        quasitorus_structure(cd)
