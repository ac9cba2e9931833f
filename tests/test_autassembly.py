import random
import re
import tracemalloc

import pytest

from conftest import (
    PARSE_FAMILIES,
    calls_inside,
    character_matrix,
    permutation,
    permute_vector,
    random_canonical_form,
)
from sepaut.autassembly import (
    IRREDUCIBLE,
    UNDETERMINED,
    aut_group,
    fermat_form,
    irreducibility_verdict,
    structure_string,
)
from sepaut.oracles import (
    NotAnAutomorphismError,
    certify_pipeline_generators,
    verify_diagonal,
    verify_permutation,
)
from sepaut.permgroup import permutation_group
from sepaut.polyio import dense, parse_separated
from sepaut.quasitorus import SingleMonomialError, quasitorus_structure
from sepaut.rigidity import rigidity_certificate
from sepaut.torusgeom import homogeneity_cocharacter, pointedness_witness

SEMI = "⋉"
TIMES = "×"


def test_flagship_assembly(flagship):
    aut = aut_group(flagship)
    assert aut.structure_string == f"S3 {SEMI} ((Z/10)^2 {TIMES} T^2)"
    assert not aut.conditional
    assert aut.irreducible == IRREDUCIBLE


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
    assert aut_group(fermat_form(n, alpha)).structure_string == expected


def test_fermat_conditional_when_bound_fails():
    # sum of reciprocals 4/5 exceeds the threshold 1/2
    aut = aut_group(fermat_form(4, 5))
    assert aut.structure_string == f"S4 {SEMI} ((Z/5)^3 {TIMES} T^1)"
    assert aut.conditional


def test_fermat_direct_equals_parsed_pipeline():
    for n in range(2, 6):
        for alpha in range(2, 5):
            direct = aut_group(fermat_form(n, alpha))
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
    assert verify_permutation(flagship, ()) == 0
    assert verify_diagonal(flagship, 1, ()) == 0


def test_verify_flagship_diagonal(flagship):
    # order 10 on (X2, X1, Y1, Y2, Y3): mixed monomial untouched; the pure
    # monomials scale by 10*1 and 10*9, both 0 mod 10
    assert verify_diagonal(flagship, 10, ((2, 1), (3, 9))) == 0


def test_verify_rejects_unbalanced_diagonal(flagship):
    # mod 3 the mixed monomial scales by 11 = 2 while the pure ones by 0
    message = "monomial 1 scales by zeta^0 but an earlier monomial by zeta^2 (mod 3)"
    with pytest.raises(NotAnAutomorphismError, match=f"^{re.escape(message)}$"):
        verify_diagonal(flagship, 3, ((0, 1),))


def test_verify_rejects_monomial_mismatch(flagship):
    # swapping a mixed variable with a pure one cannot preserve the monomials
    idx = {v: i for i, v in enumerate(flagship.var_order)}
    message = (
        "monomial 0 maps to exponent vector (0, 10, 11, 0, 0), which is not a "
        "monomial of the polynomial (permutation (X2 Y1))"
    )
    with pytest.raises(NotAnAutomorphismError, match=f"^{re.escape(message)}$"):
        verify_permutation(flagship, ((idx["X2"], idx["Y1"]),))


def test_verify_scalar_can_be_nonzero():
    cf = parse_separated("x^2 + y^3")
    # x -> zeta_4 x multiplies x^2 by zeta_4^2 and must multiply y^3 alike,
    # so e_y must satisfy 3 e == 2 mod 4, i.e. e = 2
    assert verify_diagonal(cf, 4, ((0, 2), (1, 1))) == 2  # var order (y, x)


def test_verify_validates_input(flagship):
    for cycles in (((0, 1), (1, 2)), ((0, 0),), ((0, 5),), ((-1, 2),)):
        with pytest.raises(ValueError, match="^not a permutation of 5 variables"):
            verify_permutation(flagship, cycles)
    with pytest.raises(ValueError, match="order must be >= 1"):
        verify_diagonal(flagship, 0, ())
    for index in (5, -1):
        with pytest.raises(ValueError, match="outside the 5 variables"):
            verify_diagonal(flagship, 2, ((index, 1),))


def test_all_pipeline_generators_certify(flagship):
    rng = random.Random(24)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        results = certify_pipeline_generators(cf, aut_group(cf))
        assert results, "expected at least the cocharacter checks"


def test_conjugation_preserves_membership(flagship):
    rng = random.Random(25)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        aut = aut_group(cf)
        rows = character_matrix(cf)
        for cycles in aut.perm.generators:
            tau = permutation(cycles, cf.variable_count)
            for gen in aut.quasitorus.torsion_generators:
                conjugated = permute_vector(tau, dense(gen.exponents, len(tau)))
                for row in rows:
                    dot = sum(a * e for a, e in zip(row, conjugated))
                    assert dot % gen.order == 0
                sparse = sorted((tau[v], x) for v, x in gen.exponents)
                verify_diagonal(cf, gen.order, sparse)


def test_description_stores_linear_many_vector_entries():
    # dense vectors would hold n^2 entries in the torsion generators alone
    # (2000 pure squares), dense permutations n entries for each of the
    # 1002 generators of 1000 blocks a_i^2*b_i^2; both have n = 2000
    blocks = parse_separated(" + ".join(f"a{i}^2*b{i}^2" for i in range(1000)))
    for cf, per_variable in ((fermat_form(2000, 2), 4), (blocks, 5)):
        n = cf.variable_count
        aut = aut_group(cf)
        quasi = aut.quasitorus
        vectors = [*quasi.cocharacter_basis, *(t.exponents for t in quasi.torsion_generators)]
        vectors.append(aut.witness)
        vectors += [cycle for g in aut.perm.generators for cycle in g]
        assert sum(map(len, vectors)) <= per_variable * n


def test_aut_group_memory_per_variable():
    """The tracemalloc peak inside `aut_group` on 5000 blocks a_i^2*b_i^3
    (n = 10 000) was 432.8 B per variable when this bound was set, 10% below
    it.  It was 615.5 B while the quasitorus held a copy of the block data
    per monomial, and 754 B while each block also kept the column
    operations that built its unimodular completion."""
    cf = parse_separated(" + ".join(f"a{i}^2*b{i}^3" for i in range(5000)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        aut_group(cf)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / cf.variable_count <= 476


def _stage_calls(cf):
    """The calls inside each stage that `aut_group` runs, the witness given
    the quasitorus and homogeneity it is solved from."""
    stages = (
        quasitorus_structure,
        permutation_group,
        rigidity_certificate,
        homogeneity_cocharacter,
    )
    calls = {stage.__name__: calls_inside(stage, cf) for stage in stages}
    witness_args = (quasitorus_structure(cf), homogeneity_cocharacter(cf))
    calls["pointedness_witness"] = calls_inside(pointedness_witness, *witness_args)
    return calls


@pytest.mark.parametrize("family", PARSE_FAMILIES)
def test_stage_work_is_linear_in_the_blocks(family):
    """Four times the blocks cost each analysis stage at most 4 * 1.05 times
    the calls, the bound of the parse contract, at 250 and 1000 blocks.  The
    ratios measured when this bound was set are listed in CHANGES.md; the
    largest was 3.93, the witness on identical blocks."""
    k = 250
    small, large = (_stage_calls(parse_separated(PARSE_FAMILIES[family](m))) for m in (k, 4 * k))
    for stage, calls in small.items():
        assert large[stage] <= 4 * 1.05 * calls, (family, stage, calls, large[stage])
