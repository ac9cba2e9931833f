import random

import pytest

from conftest import (
    change_basis,
    character_matrix,
    express_in_basis,
    monomial_vectors,
    random_canonical_form,
    times_rows,
    torus_generators,
    weight_cone,
)
from sepaut.autassembly import fermat_form
from sepaut.intlat import IntMatrix, smith_normal_form
from sepaut.polyio import dense, parse_separated
from sepaut.quasitorus import quasitorus_structure
from sepaut.torusgeom import homogeneity_cocharacter, pointedness_witness


def witness_in(basis, t0):
    """The homogeneity cocharacter `t0` in coordinates of another `basis`,
    solved for by the referee; it pairs to t0[v] > 0 with every weight."""
    witness = express_in_basis(basis, t0)
    for v, weight in enumerate(zip(*basis)):
        assert sum(u * x for u, x in zip(witness, weight)) == t0[v] > 0
    return witness


def dense_basis(quasi, n):
    return [dense(v, n) for v in quasi.cocharacter_basis]


def test_flagship_generators(flagship):
    gens = torus_generators(flagship)
    # block degrees 21 and 10; every variable gets 210 / (its block degree)
    assert dense(gens.homogeneity, 5) == [10, 10, 21, 21, 21]
    (pair,) = gens.pair_cocharacters
    assert pair.block == 0 and pair.position == 1
    # first block variable carries exponent 11, the second 10
    assert dense(pair.vector, 5) == [10, -11, 0, 0, 0]


def test_fermat_generators():
    gens = torus_generators(fermat_form(4, 5))
    assert dense(gens.homogeneity, 4) == [1, 1, 1, 1]
    assert gens.pair_cocharacters == ()


def test_two_pure_powers_generators():
    # canonical variable order (y, x); weights 6/3 and 6/2
    assert homogeneity_cocharacter(parse_separated("x^2 + y^3")) == ((0, 2), (1, 3))


def test_homogeneity_uses_lcm_of_block_degrees():
    # degrees 4 and 6: weights 12/6 and 12/4, not 24/6 and 24/4
    homogeneity = homogeneity_cocharacter(parse_separated("x^4 + y^6"))
    assert dense(homogeneity, 2) == [2, 3]
    homogeneity = homogeneity_cocharacter(parse_separated("a^2*b^2 + c^6 + d^3"))
    assert dense(homogeneity, 4) == [3, 3, 2, 4]


def test_generators_lie_in_kernel(flagship):
    rng = random.Random(19)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(20)]:
        rows = character_matrix(cf)
        gens = torus_generators(cf)
        n = cf.variable_count
        zero = (0,) * len(rows)
        assert times_rows(rows, dense(gens.homogeneity, n)) == zero
        for pair in gens.pair_cocharacters:
            assert times_rows(rows, dense(pair.vector, n)) == zero


def test_generators_span_rank_of_torus(flagship):
    rng = random.Random(20)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(20)]:
        gens = torus_generators(cf)
        n = cf.variable_count
        stacked = IntMatrix.from_rows(
            [dense(gens.homogeneity, n)]
            + [dense(p.vector, n) for p in gens.pair_cocharacters]
        )
        rank = len(smith_normal_form(stacked).divisors)
        q = quasitorus_structure(cf)
        assert rank == q.torus_rank == len(stacked.to_rows())


def test_flagship_cone_with_explicit_basis(flagship):
    quasi = quasitorus_structure(flagship)
    homogeneity = homogeneity_cocharacter(flagship)
    t0 = dense(homogeneity, 5)
    assert [dense(w, 2) for w in weight_cone(quasi)] == [
        [10, -10], [-10, 11], [1, 0], [1, 0], [1, 0]
    ]
    assert dense(pointedness_witness(quasi, homogeneity), 2) == [21, 20]
    # a hand-picked basis of the same lattice, and a random one
    assert witness_in([(0, 1, 1, 1, 1), (10, 0, 11, 11, 11)], t0) == (10, 1)
    witness_in(change_basis(random.Random(17), dense_basis(quasi, 5)), t0)


def test_fermat_cone():
    cf = fermat_form(3, 4)
    quasi = quasitorus_structure(cf)
    homogeneity = homogeneity_cocharacter(cf)
    assert [dense(w, 1) for w in weight_cone(quasi)] == [[1], [1], [1]]
    assert dense(pointedness_witness(quasi, homogeneity), 1) == [1]
    t0 = dense(homogeneity, 3)
    witness_in(change_basis(random.Random(18), dense_basis(quasi, 3)), t0)


def test_two_pure_powers_cone():
    cf = parse_separated("x^2 + y^3")
    quasi = quasitorus_structure(cf)
    homogeneity = homogeneity_cocharacter(cf)
    assert [dense(w, 1) for w in weight_cone(quasi)] == [[2], [3]]
    assert dense(pointedness_witness(quasi, homogeneity), 1) == [1]
    t0 = dense(homogeneity, 2)
    witness_in(change_basis(random.Random(19), dense_basis(quasi, 2)), t0)


def test_witness_pairings_equal_homogeneity_weights(flagship):
    rng = random.Random(21)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        homogeneity = homogeneity_cocharacter(cf)
        quasi = quasitorus_structure(cf)
        t0 = dense(homogeneity, cf.variable_count)
        witness = dense(pointedness_witness(quasi, homogeneity), quasi.torus_rank)
        for v, w in enumerate(weight_cone(quasi)):
            pairing = sum(u * x for u, x in zip(witness, dense(w, quasi.torus_rank)))
            assert pairing == t0[v] > 0


def test_monomials_equally_weighted_by_kernel_cocharacters(flagship):
    rng = random.Random(22)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        for vec in dense_basis(quasitorus_structure(cf), cf.variable_count):
            weights = {
                sum(a * b for a, b in zip(chi, vec)) for chi in monomial_vectors(cf)
            }
            assert len(weights) == 1


def test_pointedness_survives_unimodular_basis_change(flagship):
    rng = random.Random(23)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        quasi = quasitorus_structure(cf)
        homogeneity = homogeneity_cocharacter(cf)
        pointedness_witness(quasi, homogeneity)
        n = cf.variable_count
        witness_in(change_basis(rng, dense_basis(quasi, n)), dense(homogeneity, n))


def test_witness_check_refuses_a_basis_the_block_data_do_not_give(flagship):
    """The witness is solved on the basis itself and must leave no residual,
    so a basis vector that disagrees with the blocks is caught: w with one
    entry changed, or a kernel column whose pivot (its last entry: 11 on the
    flagship, 3 and 5 on the block a, b, c) is."""
    cf = parse_separated("a^6*b^10*c^15 + d^2*e^3 + z^5")
    for form in (flagship, cf):
        quasi = quasitorus_structure(form)
        homogeneity = homogeneity_cocharacter(form)
        witness = dict(pointedness_witness(quasi, homogeneity))
        w, *kernel = quasi.cocharacter_basis
        spoilt = [(w[:-1] + ((w[-1][0], w[-1][1] + 1),), *kernel)]
        for k, column in enumerate(kernel, 1):
            assert k in witness
            pivot, x = column[-1]
            for y in (x + 1, 2 * x, -x):
                basis = list(quasi.cocharacter_basis)
                basis[k] = column[:-1] + ((pivot, y),)
                spoilt.append(basis)
        for basis in spoilt:
            with pytest.raises(AssertionError, match="does not give the homogeneity"):
                pointedness_witness(quasi._replace(cocharacter_basis=tuple(basis)), homogeneity)
    # off ker(D) the residual is left too
    with pytest.raises(AssertionError, match="does not give the homogeneity"):
        pointedness_witness(quasi, ((0, 1),))


def test_express_in_basis_solves_exactly():
    basis = [(2, 1, 0), (0, 1, 1)]
    coords = express_in_basis(basis, (4, 5, 3))
    assert coords == (2, 3)


def test_express_in_basis_rejects_outside_lattice():
    with pytest.raises(ValueError):
        express_in_basis([(2, 0)], (1, 0))
    with pytest.raises(ValueError):
        express_in_basis([(1, 0)], (0, 1))
