"""Shared fixtures and generators for the test suite."""

from itertools import permutations

import pytest

from sepaut.intlat import IntMatrix, smith_normal_form
from sepaut.oracles import NotAnAutomorphismError
from sepaut.permgroup import cycle_notation
from sepaut.polyio import make_canonical_form, parse_separated
from sepaut.quasitorus import SingleMonomialError

# running example used across the suite and in the README
FLAGSHIP = "X1^10*X2^11 + Y1^10 + Y2^10 + Y3^10"


@pytest.fixture
def flagship():
    return parse_separated(FLAGSHIP)


def random_canonical_form(rng, max_vars=6, max_exp=6):
    """Random separated canonical form with at least two monomials.

    Variable names stay single-digit-suffixed so lexicographic order matches
    construction order for any max_vars <= 10.
    """
    assert max_vars <= 10
    while True:
        budget = rng.randint(2, max_vars)
        pool = [f"v{k}" for k in range(budget)]
        rng.shuffle(pool)
        mixed, pure, monomials = [], [], 0
        i = 0
        while i < len(pool):
            remaining = len(pool) - i
            if remaining >= 2 and rng.random() < 0.5:
                size = rng.randint(2, min(3, remaining))
                block = pool[i : i + size]
                i += size
                mixed.append((block, [rng.randint(1, max_exp) for _ in block]))
            else:
                pure.append((rng.randint(1, max_exp), [pool[i]]))
                i += 1
            monomials += 1
        if monomials >= 2:
            return make_canonical_form(mixed, pure)


def generated_group(generators, n, cap=20000):
    """BFS closure of a permutation generator set inside S_n."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in frontier:
            for h in generators:
                composed = tuple(h[g[i]] for i in range(n))
                if composed not in seen:
                    if len(seen) >= cap:
                        raise RuntimeError("closure cap exceeded")
                    seen.add(composed)
                    new.append(composed)
        frontier = new
    return seen


def permute_vector(perm, vec) -> tuple[int, ...]:
    """Move entry v to slot perm[v] (the action of the permutation on
    exponent vectors and diagonal coordinates)."""
    out = [0] * len(vec)
    for v, x in enumerate(vec):
        out[perm[v]] = x
    return tuple(out)


def perm_order_by_scan(cf) -> int:
    """|P(F)| by trying all n! permutations on the set of monomial exponent
    vectors: the referee for `oracles.brute_force_perm_order`, which tries
    only the permutations that keep each exponent."""
    chars = set(cf.monomial_vectors)
    return sum(
        {permute_vector(perm, chi) for chi in chars} == chars
        for perm in permutations(range(cf.variable_count))
    )


def random_unimodular(rng, d):
    """Random product of elementary integer row operations (det = +-1)."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    if d == 1:
        return [[rng.choice([1, -1])]]
    for _ in range(3 * d):
        op = rng.randrange(3)
        i, j = rng.sample(range(d), 2)
        if op == 0:
            m[i], m[j] = m[j], m[i]
        elif op == 1:
            c = rng.randint(-2, 2)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        else:
            m[i] = [-a for a in m[i]]
    return m


def change_basis(rng, basis):
    """Rows of g @ basis for a random unimodular g: another basis of the
    lattice spanned by `basis`."""
    g = random_unimodular(rng, len(basis))
    return [tuple(sum(c * b for c, b in zip(row, col)) for col in zip(*basis)) for row in g]


def express_in_basis(basis, target) -> tuple[int, ...]:
    """Integer coordinates of `target` in the lattice spanned by `basis` rows.

    A referee solver, independent of the block data the analysis keeps:
    solves u . B = target exactly via the Smith form of B, and raises
    ValueError when the target is outside the spanned lattice.
    """
    b = IntMatrix.from_rows(basis)
    if b.cols != len(target):
        raise ValueError("dimension mismatch between basis and target")
    snf = smith_normal_form(b)
    d, n = b.rows, b.cols
    z = [sum(target[i] * snf.V.at(i, j) for i in range(n)) for j in range(n)]
    y = []
    for k in range(d):
        s = snf.S.at(k, k)
        if s == 0 or z[k] % s:
            raise ValueError("target is not in the lattice spanned by the basis")
        y.append(z[k] // s)
    if any(z[k] for k in range(d, n)):
        raise ValueError("target is not in the lattice spanned by the basis")
    return tuple(sum(y[k] * snf.U.at(k, j) for k in range(d)) for j in range(d))


def block_shape(cf):
    """Renaming-invariant signature of a canonical form."""
    return (
        tuple((len(b.variables), b.exponents) for b in cf.mixed_blocks),
        tuple((b.exponent, len(b.variables)) for b in cf.pure_blocks),
    )


def character_matrix(cf) -> list[list[int]]:
    """The rows of the difference matrix D of the monomial characters.

    Rows are chi_i - chi_0 for the characters `cf.monomial_vectors` (mixed
    blocks first, then pure powers).  Because monomial supports are pairwise
    disjoint, the rows are linearly independent: D always has full row rank
    M - 1, and H's character group is Z^n modulo its row lattice.  The Smith
    normal form and the gcd of minors of D referee the closed form of H.
    """
    if cf.monomial_count < 2:
        raise SingleMonomialError(
            "need at least two monomials to cut out a hypersurface with "
            "diagonal symmetry structure"
        )
    chars = cf.monomial_vectors
    return [[x - b for x, b in zip(chi, chars[0])] for chi in chars[1:]]


def d_matrix(cf) -> IntMatrix:
    """The difference matrix D of `character_matrix` as an `IntMatrix`, for
    the referees that take one."""
    return IntMatrix.from_rows(character_matrix(cf), cols=cf.variable_count)


def times_rows(rows, vec) -> tuple[int, ...]:
    """The product of the matrix with rows `rows` and the dense `vec`."""
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in rows)


def permutation(cycles, n: int) -> list[int]:
    """The images of 0, ..., n-1 under the permutation `cycles`
    (`polyio.Permutation`): its dense form, which the referees read."""
    out = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[a] = b
    return out


def cycles_of(perm) -> tuple[tuple[int, ...], ...]:
    """The cycle form (`polyio.Permutation`) of the dense permutation `perm`."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cycle = []
        v = start
        while not seen[v]:
            seen[v] = True
            cycle.append(v)
            v = perm[v]
        if len(cycle) > 1:
            cycles.append(tuple(cycle))
    return tuple(cycles)


def verify_dense(cf, perm, order, exponents) -> int:
    """Referee for `oracles.verify_permutation` and `verify_diagonal`.

    Certifies F o g = c * F for the monomial map
    g: x_v -> zeta^(exponents[perm[v]]) x_[perm[v]], zeta of order `order`,
    given by the dense permutation `perm` and the n dense `exponents`, on
    every monomial in turn; returns c's exponent.  This is the check the
    oracles made before they read cycles and sparse vectors, kept as the
    definition of their results and messages.
    """
    supports = cf.monomial_supports
    n = sum(map(len, supports))
    monomials = {frozenset(support) for support in supports}
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of {n} variables: {perm}")
    if order < 1:
        raise ValueError("root-of-unity order must be >= 1")
    if len(exponents) != n:
        raise ValueError("diagonal exponent vector has wrong length")
    residue = None
    for i, support in enumerate(supports):
        if frozenset((perm[v], e) for v, e in support) not in monomials:
            image = permute_vector(perm, cf.monomial_vectors[i])
            raise NotAnAutomorphismError(
                f"monomial {i} maps to exponent vector {image}, which is not a "
                "monomial of the polynomial "
                f"(permutation {cycle_notation(cycles_of(perm), cf.var_order)})"
            )
        r = sum(e * exponents[perm[v]] for v, e in support) % order
        if residue is None:
            residue = r
        elif r != residue:
            raise NotAnAutomorphismError(
                f"monomial {i} scales by zeta^{r} but an earlier monomial by "
                f"zeta^{residue} (mod {order})"
            )
    return residue
