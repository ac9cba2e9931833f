import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepaut.oracles
import sepaut.quasitorus
from conftest import (
    character_matrix,
    d_matrix,
    express_in_basis,
    random_canonical_form,
    times_rows,
)
from sepaut.autassembly import aut_group, fermat_form
from sepaut.intlat import IntMatrix, gcd_of_minors, kernel_basis, smith_normal_form
from sepaut.polyio import (
    CanonicalForm,
    MixedBlock,
    PureBlock,
    dense,
    make_canonical_form,
    parse_separated,
)
from sepaut.oracles import (
    EnumerationTooLargeError,
    count_torsion_points_mod,
    torsion_count_formula,
)
from sepaut.quasitorus import (
    SingleMonomialError,
    _coprime_base,
    cocharacter_coordinates,
    quasitorus_structure,
)


def test_flagship_characters_and_differences(flagship):
    assert flagship.monomial_vectors == (
        (11, 10, 0, 0, 0),
        (0, 0, 10, 0, 0),
        (0, 0, 0, 10, 0),
        (0, 0, 0, 0, 10),
    )
    assert character_matrix(flagship) == [
        [-11, -10, 10, 0, 0],
        [-11, -10, 0, 10, 0],
        [-11, -10, 0, 0, 10],
    ]


def test_fermat_difference_matrix():
    assert character_matrix(fermat_form(3, 3)) == [[-3, 3, 0], [-3, 0, 3]]


def test_two_pure_powers_difference():
    # canonical order puts the higher pure exponent first: (y, x)
    cf = parse_separated("x^2 + y^3")
    assert cf.var_order == ("y", "x")
    assert character_matrix(cf) == [[-3, 2]]


def test_single_monomial_rejected():
    with pytest.raises(SingleMonomialError):
        character_matrix(parse_separated("x*y"))
    with pytest.raises(SingleMonomialError):
        character_matrix(parse_separated("x^5"))


def test_flagship_structure(flagship):
    q = quasitorus_structure(flagship)
    assert q.torus_rank == 2
    assert q.torsion == (10, 10)
    assert len(q.cocharacter_basis) == 2


def test_two_pure_powers_structure():
    q = quasitorus_structure(parse_separated("x^2 + y^3"))
    assert q.torus_rank == 1
    assert q.torsion == ()
    assert q.torsion_generators == ()


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("alpha", range(2, 8))
def test_fermat_family_structure(n, alpha):
    q = quasitorus_structure(fermat_form(n, alpha))
    assert q.torus_rank == 1
    assert q.torsion == (alpha,) * (n - 1)


def test_torsion_generators_are_valid(flagship):
    rng = random.Random(44)
    for cf in [flagship] + [random_canonical_form(rng) for _ in range(25)]:
        rows = character_matrix(cf)
        q = quasitorus_structure(cf)
        for gen in q.torsion_generators:
            exponents = dense(gen.exponents, cf.variable_count)
            residues = [
                sum(a * e for a, e in zip(row, exponents)) % gen.order
                for row in rows
            ]
            assert residues == [0] * len(rows)
            # exact order: no smaller modulus works
            assert math.gcd(gen.order, *exponents) == 1


def test_count_modulus_one():
    assert count_torsion_points_mod(parse_separated("x^2 + y^3"), 1) == 1


def test_count_fermat_all_solutions():
    cf = fermat_form(3, 3)
    # D is divisible by 3, so every vector of (Z/3)^3 solves D e == 0 mod 3
    assert count_torsion_points_mod(cf, 3) == 27
    assert torsion_count_formula(quasitorus_structure(cf), 3) == 27


def test_count_flagship_mod_ten(flagship):
    assert count_torsion_points_mod(flagship, 10) == 10000
    assert torsion_count_formula(quasitorus_structure(flagship), 10) == 10000


# M*N + (n-M)*N^2 = 2*N + N^2 steps mod N
_MIXED_EDGE = parse_separated("a^2*b^3 + c^5")


def test_count_guard():
    # 9 pure squares mod 200000: M*N = 1.8*10^6 steps
    names = [f"a{k}" for k in range(9)]
    cf = make_canonical_form([], [(2, names)])
    with pytest.raises(EnumerationTooLargeError):
        count_torsion_points_mod(cf, 200_000)


def test_count_just_over_the_guard():
    # one step over at N = 1001 and 2001 steps over at N = 1000 (see the
    # guard edge below); the guard decides before any tally is built
    cases = ((fermat_form(1000, 3), 1001, 1000, 1000), (_MIXED_EDGE, 1000, 3, 2))
    for cf, modulus, n, m in cases:
        with pytest.raises(EnumerationTooLargeError) as exc:
            count_torsion_points_mod(cf, modulus)
        assert str(exc.value) == (
            f"M*N + (n-M)*N^2 steps for N = {modulus}, n = {n}, M = {m} exceed "
            "the enumeration guard 1000000"
        )


def _one_block(k: int):
    """x0*...*x(k-1) + y: one mixed block of k variables and a pure power."""
    return make_canonical_form([([f"x{i}" for i in range(k)], [1] * k)], [(1, ["y"])])


def test_count_guard_weighs_the_tally_size():
    # x0*...*x249998 + y mod 2 is 2*2 + 249998*2^2 = 999996 steps, but each
    # adds to a tally of up to ceil(249999*2/64) = 7813 words; refused before
    # any tally is built
    with pytest.raises(EnumerationTooLargeError) as exc:
        count_torsion_points_mod(_one_block(249_999), 2)
    assert str(exc.value) == (
        "sum of (N + (k-1)*N^2) * ceil(k*bits(N)/64) word steps over the "
        "monomials of k variables for N = 2, n = 250000, M = 2 exceed the "
        "enumeration guard 1000000"
    )


def test_count_at_the_weighted_guard_edge():
    # (2 + 4*(k-1)) * ceil(2k/64) word steps mod 2: 991056 at k = 2816,
    # 1002674 at k = 2817
    cf = _one_block(2816)
    assert count_torsion_points_mod(cf, 2) == torsion_count_formula(
        quasitorus_structure(cf), 2
    )
    with pytest.raises(EnumerationTooLargeError):
        count_torsion_points_mod(_one_block(2817), 2)


def test_count_matches_formula_randomized():
    rng = random.Random(11)
    for _ in range(12):
        cf = random_canonical_form(rng, max_vars=4, max_exp=6)
        quasi = quasitorus_structure(cf)
        for modulus in range(2, 13):
            assert count_torsion_points_mod(cf, modulus) == torsion_count_formula(
                quasi, modulus
            )


def _enumerated(cf, modulus):
    """Plain count over all of (Z/N)^n, the reference for the column count."""
    rows = character_matrix(cf)
    return sum(
        all(sum(a * x for a, x in zip(row, e)) % modulus == 0 for row in rows)
        for e in itertools.product(range(modulus), repeat=cf.variable_count)
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_count_matches_plain_enumeration(data):
    cf = data.draw(separated_forms(max_monomials=4))
    n = cf.variable_count
    top = max(m for m in range(1, 200) if m**n <= 20_000)
    modulus = data.draw(st.integers(1, top))
    count = count_torsion_points_mod(cf, modulus)
    assert count == _enumerated(cf, modulus)
    assert count == torsion_count_formula(quasitorus_structure(cf), modulus)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_count_the_power_guard_admitted_still_runs(data):
    """The guard used to admit N^n <= 10^7; every such count takes at most
    46655 steps, far within the step guard, and is right: it equals the
    plain enumeration where that is small enough to run, else the formula."""
    cf = data.draw(separated_forms(max_monomials=8, max_width=4))
    n = cf.variable_count
    top = 1
    while (top + 1) ** n <= 10**7:
        top += 1
    modulus = data.draw(st.integers(1, top))
    with mock.patch.object(sepaut.oracles, "ENUMERATION_LIMIT", 46_655):
        count = count_torsion_points_mod(cf, modulus)
    if modulus**n <= 20_000:
        assert count == _enumerated(cf, modulus)
    else:
        assert count == torsion_count_formula(quasitorus_structure(cf), modulus)


def test_count_at_the_guard_edge():
    # M*N + (n-M)*N^2 steps <= 10^6: 1000*1000 on fermat 1000 3 and
    # 2*999 + 999^2 = 999999 on a^2*b^3 + c^5, the largest moduli the guard
    # lets through on these forms
    for cf, modulus in ((fermat_form(1000, 3), 1000), (_MIXED_EDGE, 999)):
        assert count_torsion_points_mod(cf, modulus) == torsion_count_formula(
            quasitorus_structure(cf), modulus
        )


def test_torus_rank_identity_random():
    rng = random.Random(13)
    for _ in range(40):
        cf = random_canonical_form(rng)
        q = quasitorus_structure(cf)
        n = cf.variable_count
        m_count = cf.monomial_count
        by_blocks = sum(len(b.variables) - 1 for b in cf.mixed_blocks) + 1
        assert q.torus_rank == n - m_count + 1 == by_blocks


def test_difference_matrix_always_full_rank():
    rng = random.Random(14)
    for _ in range(30):
        cf = random_canonical_form(rng)
        q = quasitorus_structure(cf)
        assert len(q.cocharacter_basis) == cf.variable_count - len(character_matrix(cf))


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
    q = quasitorus_structure(cf)
    snf = smith_normal_form(d_matrix(cf))
    assert q.torus_rank == cf.variable_count - snf.rank
    assert q.torsion == tuple(d for d in snf.divisors if d > 1)


@settings(max_examples=60, deadline=None)
@given(separated_forms(max_monomials=4, max_width=2))
def test_closed_form_matches_minor_quotients(cf):
    d = d_matrix(cf)
    quotients, prev = [], 1
    for k in range(1, d.rows + 1):
        delta = gcd_of_minors(d, k)
        quotients.append(delta // prev)
        prev = delta
    assert quasitorus_structure(cf).torsion == tuple(d for d in quotients if d > 1)


@settings(max_examples=200, deadline=None)
@given(separated_forms())
def test_kernel_bases_span_the_same_lattice(cf):
    closed = [dense(v, cf.variable_count) for v in quasitorus_structure(cf).cocharacter_basis]
    referee = kernel_basis(d_matrix(cf))
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
    d_rows = character_matrix(cf)
    q = quasitorus_structure(cf)
    n = cf.variable_count
    modulus = math.lcm(*q.torsion)
    rows = [[modulus * int(i == j) for j in range(n)] for i in range(n)]
    rows += [dense(v, n) for v in q.cocharacter_basis]
    rows += [
        [modulus // t.order * x for x in dense(t.exponents, n)]
        for t in q.torsion_generators
    ]
    lattice = IntMatrix.from_rows(rows)
    for row in rows:
        assert all(x % modulus == 0 for x in times_rows(d_rows, row))
    index = math.prod(smith_normal_form(lattice).divisors)
    assert index * math.prod(q.torsion) == modulus ** (n - q.torus_rank)


@settings(max_examples=200, deadline=None)
@given(separated_forms(), st.data())
def test_cocharacter_coordinates_invert_the_basis(cf, data):
    quasi = quasitorus_structure(cf)
    n = cf.variable_count
    basis = [dense(v, n) for v in quasi.cocharacter_basis]
    coords = data.draw(
        st.lists(st.integers(-20, 20), min_size=len(basis), max_size=len(basis))
    )
    vec = [sum(c * b[v] for c, b in zip(coords, basis)) for v in range(n)]
    sparse = tuple((v, x) for v, x in enumerate(vec) if x)
    assert dense(cocharacter_coordinates(quasi, sparse), len(basis)) == coords


def _canonical_sparse(vec, dim) -> bool:
    """(index, value) pairs, index strictly increasing inside range(dim), no
    value zero."""
    indices = [i for i, _ in vec]
    return (
        all(x != 0 for _, x in vec)
        and indices == sorted(set(indices))
        and all(0 <= i < dim for i in indices)
    )


@settings(max_examples=200, deadline=None)
@given(separated_forms())
def test_every_emitted_vector_is_sparse_and_solves_d(cf):
    """Each vector of the analysis is in canonical sparse form; expanded, the
    ones over the variables solve D v = 0, or D v == 0 (mod d) for a torsion
    generator of order d, with D from the oracles."""
    aut = aut_group(cf)
    quasi, gens, cone = aut.quasitorus, aut.torus_generators, aut.cone
    n, rank = cf.variable_count, quasi.torus_rank
    d_rows = character_matrix(cf)
    zero = (0,) * len(d_rows)
    kernel = [*quasi.cocharacter_basis, gens.homogeneity]
    kernel += [p.vector for p in gens.pair_cocharacters]
    for vec in kernel:
        assert _canonical_sparse(vec, n)
        assert times_rows(d_rows, dense(vec, n)) == zero
    for t in quasi.torsion_generators:
        assert _canonical_sparse(t.exponents, n)
        assert all(0 < x < t.order for _, x in t.exponents)
        assert all(x % t.order == 0 for x in times_rows(d_rows, dense(t.exponents, n)))
    assert len(cone.weights) == n
    for vec in [*cone.weights, cone.witness]:
        assert _canonical_sparse(vec, rank)


def test_cocharacter_coordinates_reject_non_kernel_vectors(flagship):
    quasi = quasitorus_structure(flagship)
    with pytest.raises(ValueError):
        cocharacter_coordinates(quasi, ((0, 1),))


def test_overlapping_supports_fail_loudly():
    # built directly, past make_canonical_form's checks: y is in two monomials
    cf = CanonicalForm(
        mixed_blocks=(MixedBlock(("x", "y"), (2, 1)),),
        pure_blocks=(PureBlock(3, ("y",)),),
    )
    with pytest.raises(AssertionError, match="share variable 'y'"):
        quasitorus_structure(cf)


def test_wide_block_data_stay_linear():
    """One block of k = 4000 variables.  A dense W and W^{-1} held 2k^2 =
    3.2*10^7 entries; the sparse columns of W hold at most 3 per variable
    and its inverse is the k - 1 column operations.  The first block drops
    its gcd once (p_0 = 4001, p_1 = 4000), the second takes the a = p_j
    branch of every step after the first (exponents 2, 1, ..., 1)."""
    k = 4000
    chains = (
        "*".join(f"x{i}^{i + 2}" for i in range(k)),
        "x0^2*" + "*".join(f"x{i}" for i in range(1, k)),
    )
    for chain in chains:
        aut = aut_group(parse_separated(chain + " + y^3 + z^5"))
        wide = aut.quasitorus.blocks[0]
        assert len(wide.support) == k
        assert len(wide.section) + sum(map(len, wide.kernel)) <= 3 * k
        assert len(wide.steps) == k - 1
        # the cone's witness applies W^{-1} through the column operations
        assert aut.cone.pointed


def test_coprime_base_takes_one_gcd_per_coprime_value(monkeypatch):
    """Each new value is tested against the product of the base first, so
    the first 500 primes cost at most 2 gcds each; tested against every
    base element, they cost about 125 000."""
    primes = [
        p for p in range(2, 3572) if all(p % q for q in range(2, math.isqrt(p) + 1))
    ]
    assert len(primes) == 500
    calls = [0]

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def gcd(self, *args):
            calls[0] += 1
            return math.gcd(*args)

    monkeypatch.setattr(sepaut.quasitorus, "math", CountingMath())
    assert _coprime_base(primes[::-1] * 2) == primes
    assert calls[0] <= 2 * len(primes)
    # values sharing factors still split into the same base
    assert _coprime_base([6, 10, 15, 4, 9, 1]) == [2, 3, 5]
