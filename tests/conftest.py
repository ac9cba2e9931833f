"""Shared fixtures and generators for the test suite."""

import re
import sys
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

import pytest

from sepaut.intlat import IntMatrix, smith_normal_form
from sepaut.oracles import NotAnAutomorphismError
from sepaut.permgroup import cycle_notation
from sepaut.polyio import (
    ConstantTermError,
    NonIntegerExponentError,
    NonPositiveExponentError,
    NotSeparatedError,
    ParseError,
    ZeroPolynomialError,
    dense,
    make_canonical_form,
    parse_separated,
)
from sepaut.quasitorus import SingleMonomialError, TorsionGenerator, _coprime_base
from sepaut.torusgeom import homogeneity_cocharacter

# running example used across the suite and in the README
FLAGSHIP = "X1^10*X2^11 + Y1^10 + Y2^10 + Y3^10"

# inputs of k blocks on which the linear-work contracts count calls
PARSE_FAMILIES = {
    "identical blocks": lambda k: " + ".join(f"a{i}^2*b{i}^3" for i in range(k)),
    "distinct small exponents": lambda k: " + ".join(
        f"a{i}^{i % 11 + 1}*b{i}^{i % 13 + 2}*c{i}^{i % 3 + 1}" for i in range(k)
    ),
    "pure Fermat": lambda k: " + ".join(f"x{i}^3" for i in range(k)),
}


def calls_inside(function, *args) -> int:
    """The Python and C calls made inside `function(*args)`, counted under
    `sys.setprofile`: deterministic work, unlike a timing."""
    calls = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    sys.setprofile(count)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls[0]


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


def monomial_vectors(cf) -> tuple[tuple[int, ...], ...]:
    """Exponent vector of each monomial over `cf.var_order`, canonical order."""
    n = cf.variable_count
    return tuple(tuple(dense(support, n)) for support in cf.monomial_supports)


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
    chars = set(monomial_vectors(cf))
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


class PairCocharacter(NamedTuple):
    """Cocharacter rescaling one variable of a mixed block against its first.

    `position` is the 0-based index (>= 1) of the moved variable within the
    block's canonical variable list."""

    block: int
    position: int
    vector: tuple


class TorusGenerators(NamedTuple):
    homogeneity: tuple
    pair_cocharacters: tuple[PairCocharacter, ...]


def torus_generators(cf) -> TorusGenerators:
    """Explicit generators of a finite-index sublattice of ker(D): the
    homogeneity cocharacter the analysis emits, and one pair cocharacter per
    mixed block i and position j >= 1, weighting the block's first variable
    by l_ij and the j-th by -l_i1 (the block's monomial gets weight zero and
    nothing else moves).  The analysis does not build the pair
    cocharacters: they follow from the mixed blocks, and they are the
    referee for the torus rank (acceptance criterion 6).  Sparse vectors."""
    pairs = []
    first = 0
    for bi, b in enumerate(cf.mixed_blocks):
        for j in range(1, len(b.variables)):
            vec = ((first, b.exponents[j]), (first + j, -b.exponents[0]))
            pairs.append(PairCocharacter(block=bi, position=j, vector=vec))
        first += len(b.variables)
    return TorusGenerators(homogeneity_cocharacter(cf), tuple(pairs))


def weight_cone(quasi) -> tuple[tuple, ...]:
    """The weights of the coordinate functions in the cocharacter basis of
    `quasi`: the basis transposed, one sparse vector per variable listing
    the basis vectors that move it.  The analysis does not build them; the
    tests pair them with its witness (acceptance criterion 7)."""
    n = sum(len(s.exponents) * len(s.starts) for s in quasi.shapes)
    columns: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, vec in enumerate(quasi.cocharacter_basis):
        for v, x in vec:
            columns[v].append((k, x))
    return tuple(map(tuple, columns))


def block_shape(cf):
    """Renaming-invariant signature of a canonical form."""
    return (
        tuple((len(b.variables), b.exponents) for b in cf.mixed_blocks),
        tuple((b.exponent, len(b.variables)) for b in cf.pure_blocks),
    )


def character_matrix(cf) -> list[list[int]]:
    """The rows of the difference matrix D of the monomial characters.

    Rows are chi_i - chi_0 for the characters `monomial_vectors(cf)` (mixed
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
    chars = monomial_vectors(cf)
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
            image = permute_vector(perm, monomial_vectors(cf)[i])
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


def torsion_by_scan(shapes) -> tuple[TorsionGenerator, ...]:
    """The torsion generators with each chain found by scanning every block
    for each element of the coprime base (valuation by repeated division),
    chains right-aligned position by position: the referee for
    `quasitorus._torsion`, which reads each q's valuations off the base.
    Each shape is first expanded to its blocks, each with its gcd and its
    section at its start."""
    blocks = [
        (s.gcd, tuple((start + i, x) for i, x in s.section))
        for s in shapes
        for start in s.starts
    ]

    def valuation(value, q):
        v = 0
        while value % q == 0:
            value //= q
            v += 1
        return v

    chains = []
    for q in sorted(_coprime_base(g for g, _ in blocks)):
        held = sorted(
            (valuation(g, q), i) for i, (g, _) in enumerate(blocks) if g % q == 0
        )
        chains.append((q, held[:-1]))
    r = max((len(held) for _, held in chains), default=0)
    generators = []
    for k in range(r):
        parts = [
            (q, *held[k - r + len(held)])
            for q, held in chains
            if k - r + len(held) >= 0
        ]
        d = 1
        for q, v, _ in parts:
            d *= q**v
        exponents = {}
        for q, v, i in parts:
            for var, s in blocks[i][1]:
                exponents[var] = exponents.get(var, 0) + d // q**v * s
        reduced = ((var, x % d) for var, x in sorted(exponents.items()))
        generators.append(TorsionGenerator(d, tuple((v, x) for v, x in reduced if x)))
    return tuple(generators)


# one token per match: a variable name, a natural number or any other single
# character, after skipping whitespace (\s is exactly str.isspace)
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*)|([0-9]+)|(\S))")


def parse_by_tokens(text: str):
    """`parse_separated` as it read the text one name, number or other
    character at a time, with one token of lookahead and one call per
    grammar rule, and built the form through the validating
    `make_canonical_form`: the referee for the parser, which reads a run of
    factors as one token and builds the form unchecked.  Same errors, same
    messages, same positions, same form."""
    tokens = _TOKEN_RE.finditer(text)

    def expected(what, tok):
        if tok is None:
            return ParseError(f"expected {what} but input ended", len(text))
        pos = tok.start(tok.lastindex)
        return ParseError(f"expected {what}, found {text[pos]!r}", pos)

    def nat(tok, what):
        if tok is None or tok[2] is None:
            raise expected(what, tok)
        try:
            return int(tok[2])
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ParseError(
                f"{what} has {len(tok[2])} digits, over the limit of {limit}", tok.start(2)
            ) from None

    def coefficient(tok):
        num = nat(tok, "coefficient")
        tok = next(tokens, None)
        if not (tok and tok[3] == "/"):
            return num, tok
        slash_end = tok.end()
        den = nat(next(tokens, None), "denominator")
        if den == 0:
            raise ParseError("zero denominator", slash_end)
        return Fraction(num, den), next(tokens, None)

    def exponent(tok):
        if tok and tok[3] == "-":
            value = nat(next(tokens, None), "exponent")
            raise NonPositiveExponentError(f"exponent -{value} is not positive", tok.start(3))
        value = nat(tok, "exponent")
        if text.startswith((".", "/"), tok.end()):
            raise NonIntegerExponentError("exponents must be integers", tok.end())
        if value <= 0:
            raise NonPositiveExponentError(f"exponent {value} is not positive", tok.start(2))
        return value, next(tokens, None)

    def factor(tok, mono):
        if not (tok and tok[1] is not None):
            raise expected("a variable", tok)
        exp = 1
        after = next(tokens, None)
        if after and after[3] == "^":
            exp, after = exponent(next(tokens, None))
        mono[tok[1]] = mono.get(tok[1], 0) + exp
        return after

    tok = next(tokens, None)
    if tok is None:
        raise ParseError("empty input", len(text))
    terms = {}
    sign = 1
    if tok[3] == "-":
        sign = -1
        tok = next(tokens, None)
    while True:
        coef, mono = 1, {}
        if tok and tok[2] is not None:
            coef, tok = coefficient(tok)
        elif tok and tok[1] is not None:
            tok = factor(tok, mono)
        else:
            raise expected("a term", tok)
        while tok and tok[3] == "*":
            tok = factor(next(tokens, None), mono)
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + sign * coef
        if tok is None:
            break
        if tok[3] not in ("+", "-"):
            raise expected("'+' or '-'", tok)
        sign = 1 if tok[3] == "+" else -1
        tok = next(tokens, None)

    if not any(terms.values()):
        raise ZeroPolynomialError("all terms cancel: got the zero polynomial")
    if terms.get(()):
        raise ConstantTermError("constant terms are not allowed in separated form")
    seen = {}
    mixed, pure = [], {}
    for mono, coef in terms.items():
        if coef:
            for v, _ in mono:
                seen[v] = seen.get(v, 0) + 1
            if len(mono) == 1:
                pure.setdefault(mono[0][1], []).append(mono[0][0])
            else:
                mixed.append(tuple(zip(*mono)))
    repeated = min((v for v, c in seen.items() if c > 1), default=None)
    if repeated is not None:
        raise NotSeparatedError(repeated, seen[repeated])
    scaling = any(coef not in (0, 1) for coef in terms.values())
    return make_canonical_form(mixed, pure.items(), scaling_note=scaling)
