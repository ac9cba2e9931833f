import random

import pytest

from conftest import change_basis, express_in_basis, random_canonical_form
from sepaut.autassembly import fermat_form
from sepaut.intlat import IntMatrix, smith_normal_form
from sepaut.oracles import character_matrix
from sepaut.polyio import parse_separated
from sepaut.quasitorus import quasitorus_structure
from sepaut.torusgeom import torus_generators, weight_cone


def witness_in(basis, t0):
    """The homogeneity cocharacter `t0` in coordinates of another `basis`,
    solved for by the referee; it pairs to t0[v] > 0 with every weight."""
    witness = express_in_basis(basis, t0)
    for v, weight in enumerate(zip(*basis)):
        assert sum(u * x for u, x in zip(witness, weight)) == t0[v] > 0
    return witness


def test_flagship_generators(flagship):
    gens = torus_generators(flagship)
    # block degrees 21 and 10; every variable gets 210 / (its block degree)
    assert gens.homogeneity == (10, 10, 21, 21, 21)
    (pair,) = gens.pair_cocharacters
    assert pair.block == 0 and pair.position == 1
    # first block variable carries exponent 11, the second 10
    assert pair.vector == (10, -11, 0, 0, 0)


def test_fermat_generators():
    gens = torus_generators(fermat_form(4, 5))
    assert gens.homogeneity == (1, 1, 1, 1)
    assert gens.pair_cocharacters == ()


def test_two_pure_powers_generators():
    gens = torus_generators(parse_separated("x^2 + y^3"))
    # canonical variable order (y, x); weights 6/3 and 6/2
    assert gens.homogeneity == (2, 3)


def test_homogeneity_uses_lcm_of_block_degrees():
    # degrees 4 and 6: weights 12/6 and 12/4, not 24/6 and 24/4
    gens = torus_generators(parse_separated("x^4 + y^6"))
    assert gens.homogeneity == (2, 3)
    gens = torus_generators(parse_separated("a^2*b^2 + c^6 + d^3"))
    assert gens.homogeneity == (3, 3, 2, 4)


def test_generators_lie_in_kernel(flagship):
    rng = random.Random(19)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(20)]:
        d_matrix = character_matrix(cf)
        gens = torus_generators(cf)
        zero = (0,) * d_matrix.rows
        assert d_matrix.matvec(gens.homogeneity) == zero
        for pair in gens.pair_cocharacters:
            assert d_matrix.matvec(pair.vector) == zero


def test_generators_span_rank_of_torus(flagship):
    rng = random.Random(20)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(20)]:
        gens = torus_generators(cf)
        stacked = IntMatrix.from_rows(
            [list(gens.homogeneity)] + [list(p.vector) for p in gens.pair_cocharacters]
        )
        rank = len(smith_normal_form(stacked).divisors)
        q = quasitorus_structure(cf)
        assert rank == q.torus_rank == len(stacked.to_rows())


def test_flagship_cone_with_explicit_basis(flagship):
    quasi = quasitorus_structure(flagship)
    t0 = torus_generators(flagship).homogeneity
    cone = weight_cone(quasi, t0)
    assert cone.weights == ((10, -10), (-10, 11), (1, 0), (1, 0), (1, 0))
    assert cone.pointed
    assert cone.witness == (21, 20)
    # a hand-picked basis of the same lattice, and a random one
    assert witness_in([(0, 1, 1, 1, 1), (10, 0, 11, 11, 11)], t0) == (10, 1)
    witness_in(change_basis(random.Random(17), quasi.cocharacter_basis), t0)


def test_fermat_cone():
    cf = fermat_form(3, 4)
    quasi = quasitorus_structure(cf)
    t0 = torus_generators(cf).homogeneity
    cone = weight_cone(quasi, t0)
    assert cone.weights == ((1,), (1,), (1,))
    assert cone.pointed and cone.witness == (1,)
    witness_in(change_basis(random.Random(18), quasi.cocharacter_basis), t0)


def test_two_pure_powers_cone():
    cf = parse_separated("x^2 + y^3")
    quasi = quasitorus_structure(cf)
    t0 = torus_generators(cf).homogeneity
    cone = weight_cone(quasi, t0)
    assert cone.weights == ((2,), (3,))
    assert cone.pointed and cone.witness == (1,)
    witness_in(change_basis(random.Random(19), quasi.cocharacter_basis), t0)


def test_witness_pairings_equal_homogeneity_weights(flagship):
    rng = random.Random(21)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        t0 = torus_generators(cf).homogeneity
        cone = weight_cone(quasitorus_structure(cf), t0)
        for v, w in enumerate(cone.weights):
            pairing = sum(u * x for u, x in zip(cone.witness, w))
            assert pairing == t0[v] > 0


def test_monomials_equally_weighted_by_kernel_cocharacters(flagship):
    rng = random.Random(22)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        for vec in quasitorus_structure(cf).cocharacter_basis:
            weights = {
                sum(a * b for a, b in zip(chi, vec)) for chi in cf.monomial_vectors
            }
            assert len(weights) == 1


def test_pointedness_survives_unimodular_basis_change(flagship):
    rng = random.Random(23)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        quasi = quasitorus_structure(cf)
        t0 = torus_generators(cf).homogeneity
        assert weight_cone(quasi, t0).pointed
        witness_in(change_basis(rng, quasi.cocharacter_basis), t0)


def test_express_in_basis_solves_exactly():
    basis = [(2, 1, 0), (0, 1, 1)]
    coords = express_in_basis(basis, (4, 5, 3))
    assert coords == (2, 3)


def test_express_in_basis_rejects_outside_lattice():
    with pytest.raises(ValueError):
        express_in_basis([(2, 0)], (1, 0))
    with pytest.raises(ValueError):
        express_in_basis([(1, 0)], (0, 1))
