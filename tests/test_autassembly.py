import random

import pytest

from conftest import random_canonical_form
from sepaut.autassembly import (
    IRREDUCIBLE,
    UNDETERMINED,
    MonomialMap,
    NotAnAutomorphismError,
    aut_group,
    certify_pipeline_generators,
    fermat_aut,
    fermat_form,
    irreducibility_verdict,
    structure_string,
    verify_generator,
)
from sepaut.permgroup import permute_vector
from sepaut.polyio import parse_separated
from sepaut.quasitorus import SingleMonomialError, character_matrix

SEMI = "⋉"
TIMES = "×"


def test_flagship_assembly(flagship):
    aut = aut_group(flagship)
    assert aut.structure_string == f"S3 {SEMI} ((Z/10)^2 {TIMES} T^2)"
    assert not aut.conditional
    assert aut.irreducible == IRREDUCIBLE
    assert aut.action == aut.perm.generators


def test_structure_string_grammar():
    assert structure_string("1", (), 1) == f"1 {SEMI} (T^1)"
    assert structure_string("S2", (2, 4), 3) == f"S2 {SEMI} ((Z/2)^1 {TIMES} (Z/4)^1 {TIMES} T^3)"
    assert structure_string("S4", (5, 5, 5), 1) == f"S4 {SEMI} ((Z/5)^3 {TIMES} T^1)"


@pytest.mark.parametrize(
    "n,alpha,expected",
    [
        (3, 3, f"S3 {SEMI} ((Z/3)^2 {TIMES} T^1)"),
        (2, 2, f"S2 {SEMI} ((Z/2)^1 {TIMES} T^1)"),
        (5, 7, f"S5 {SEMI} ((Z/7)^4 {TIMES} T^1)"),
    ],
)
def test_fermat_structures(n, alpha, expected):
    assert fermat_aut(n, alpha).structure_string == expected


def test_fermat_conditional_when_bound_fails():
    # sum of reciprocals 4/5 exceeds the threshold 1/2
    aut = fermat_aut(4, 5)
    assert aut.structure_string == f"S4 {SEMI} ((Z/5)^3 {TIMES} T^1)"
    assert aut.conditional


def test_fermat_direct_equals_parsed_pipeline():
    for n in range(2, 6):
        for alpha in range(2, 5):
            direct = fermat_aut(n, alpha)
            text = " + ".join(f"Y{i}^{alpha}" for i in range(1, n + 1))
            parsed = aut_group(parse_separated(text))
            assert direct.structure_string == parsed.structure_string
            assert direct.perm.order == parsed.perm.order
            assert direct.quasitorus == parsed.quasitorus
            assert direct.conditional == parsed.conditional


def test_fermat_rejects_bad_parameters():
    with pytest.raises(ValueError):
        fermat_form(1, 3)
    with pytest.raises(ValueError):
        fermat_form(3, 1)


def test_minimal_two_monomial_case():
    aut = aut_group(parse_separated("x^2 + y^3"))
    assert aut.structure_string == f"1 {SEMI} (T^1)"
    assert aut.conditional
    assert aut.irreducible == UNDETERMINED


def test_single_monomial_rejected():
    with pytest.raises(SingleMonomialError):
        aut_group(parse_separated("x*y"))


def test_irreducibility_verdicts(flagship):
    assert irreducibility_verdict(flagship) == IRREDUCIBLE
    assert irreducibility_verdict(parse_separated("x^2 + y^2")) == UNDETERMINED
    assert irreducibility_verdict(parse_separated("x^3*y^2")) == UNDETERMINED


def test_verify_identity(flagship):
    assert verify_generator(flagship, MonomialMap.identity(5)) == 0


def test_verify_flagship_diagonal(flagship):
    # order 10 on (X2, X1, Y1, Y2, Y3): mixed monomial untouched; the pure
    # monomials scale by 10*1 and 10*9, both 0 mod 10
    g = MonomialMap.from_diagonal(10, (0, 0, 1, 9, 0))
    assert verify_generator(flagship, g) == 0


def test_verify_rejects_unbalanced_diagonal(flagship):
    # mod 3 the mixed monomial scales by 11 = 2 while the pure ones by 0
    g = MonomialMap.from_diagonal(3, (1, 0, 0, 0, 0))
    with pytest.raises(NotAnAutomorphismError):
        verify_generator(flagship, g)


def test_verify_rejects_monomial_mismatch(flagship):
    # swapping a mixed variable with a pure one cannot preserve the monomials
    idx = flagship.variable_index
    perm = list(range(5))
    perm[idx["X2"]], perm[idx["Y1"]] = perm[idx["Y1"]], perm[idx["X2"]]
    with pytest.raises(NotAnAutomorphismError):
        verify_generator(flagship, MonomialMap.from_permutation(perm))


def test_verify_scalar_can_be_nonzero():
    cf = parse_separated("x^2 + y^3")
    # x -> zeta_4 x multiplies x^2 by zeta_4^2 and must multiply y^3 alike,
    # so e_y must satisfy 3 e == 2 mod 4, i.e. e = 2
    g = MonomialMap.from_diagonal(4, (2, 1))  # var order (y, x)
    assert verify_generator(cf, g) == 2


def test_verify_validates_input(flagship):
    with pytest.raises(ValueError):
        verify_generator(flagship, MonomialMap((0, 0, 1, 2, 3), 1, (0,) * 5))
    with pytest.raises(ValueError):
        verify_generator(flagship, MonomialMap(tuple(range(5)), 0, (0,) * 5))
    with pytest.raises(ValueError):
        verify_generator(flagship, MonomialMap(tuple(range(5)), 2, (0,) * 4))


def test_all_pipeline_generators_certify(flagship):
    rng = random.Random(24)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        results = certify_pipeline_generators(cf, aut_group(cf))
        assert results, "expected at least the cocharacter checks"


def test_conjugation_preserves_membership(flagship):
    rng = random.Random(25)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        cd = character_matrix(cf)
        aut = aut_group(cf)
        rows = cd.difference_matrix.to_rows()
        for tau in aut.perm.generators:
            for gen in aut.quasitorus.torsion_generators:
                conjugated = permute_vector(tau, gen.exponents)
                for row in rows:
                    dot = sum(a * e for a, e in zip(row, conjugated))
                    assert dot % gen.order == 0
