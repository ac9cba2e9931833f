"""Structure of the diagonal symmetries preserving the hypersurface.

A diagonal map x_v -> t_v x_v preserves the zero set of a separated
polynomial exactly when it multiplies every monomial by one common scalar,
i.e. when all monomial exponent vectors (characters) agree on it.  The group
of such maps is a quasitorus H: a torus times a finite abelian group.

Separatedness makes H block-local.  Monomial i lives on its own support S_i,
a run of the canonical variable order (one per mixed block, one variable per
pure power), and its character factors as chi_i = g_i * p_i, with g_i the
gcd of its exponents and p_i primitive.  Extended Euclid on p_i gives a
unimodular W_i with p_i W_i = e_1; its first column s_i pairs to 1 with p_i
and its other columns span p_i's orthogonal lattice.  W_i is held as sparse
columns with O(k_i log p_i) entries, its inverse only as the column
operations that built W_i (see `_completion`).  `quasitorus_structure`
reads these block data off the canonical form in one pass and holds them in
its `blocks` field, which `cocharacter_coordinates` reads; from them:

* the cocharacter lattice ker(D) has the basis w (equal to (L/g_i) s_i on
  every S_i, with L = lcm(g)) followed by columns 2..k of every W_i, so the
  torus rank is n - M + 1;
* the finite part H/H° is (sum of Z/g_i) / <(1, ..., 1)>; over a coprime
  base of the g_i, each base element q drops its largest valuation, and the
  remaining valuations, right-aligned, give the invariants d_1 | ... | d_r;
* the torsion generator of d_k is sum over q of (d_k / q^v) s_i on the block
  i holding that valuation, reduced mod d_k.

Every vector the description holds is a `polyio.SparseVector`: a tuple of
(index, value) pairs with strictly increasing index and no zero value, so w
and each torsion generator touch only the variables of the blocks they live
on, and the whole description has O(n + sum of k_i log p_i) entries.
`polyio.dense` expands one to its n entries, for the report only.

No Smith normal form is involved, and neither is the dense difference
matrix D (rows chi_i - chi_0).  Only the tests build D, where its Smith
normal form and gcd of minors referee H; the independent cross-check in
`oracles` counts the solutions of D e == 0 (mod N) monomial by monomial.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .polyio import CanonicalForm, SparseVector

__all__ = [
    "SingleMonomialError",
    "TorsionGenerator",
    "QuasitorusDescription",
    "quasitorus_structure",
    "cocharacter_coordinates",
]


class SingleMonomialError(ValueError):
    """A one-monomial polynomial cuts out a union of coordinate hyperplane
    intersections; the semidirect-product description does not apply."""


class TorsionGenerator(NamedTuple):
    """Diagonal map x_v -> zeta^e_v x_v with zeta a primitive root of unity.

    Held purely arithmetically as (order, sparse exponent vector with entries
    in 1..order-1); membership and order checks are integer congruences, no
    cyclotomic numbers involved.
    """

    order: int
    exponents: SparseVector


class _Block(NamedTuple):
    """Per-monomial data chi = gcd * p on the monomial's support.

    `support` is the monomial's variable indices and `exponents` its
    character on them.  A unimodular W with p W = e_1 is held as its first
    column `section` (s, the vector pairing to 1 with p) and its other
    columns `kernel`, all sparse over the variable indices; `steps` are the
    column operations that built W, which `cocharacter_coordinates` undoes
    to apply W^{-1}.
    """

    support: tuple[int, ...]
    exponents: tuple[int, ...]
    gcd: int
    section: SparseVector
    kernel: tuple[SparseVector, ...]
    steps: tuple[tuple[int, int, int, int, int], ...]


class QuasitorusDescription(NamedTuple):
    torus_rank: int
    torsion: tuple[int, ...]
    cocharacter_basis: tuple[SparseVector, ...]
    torsion_generators: tuple[TorsionGenerator, ...]
    blocks: tuple[_Block, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), for positive a and b.

    The triple is the one the extended Euclidean algorithm returns: x is the
    inverse of a/g modulo m = b/g taken in (-m/2, m/2] (0 when m = 1), and y
    follows from it.
    """
    g = math.gcd(a, b)
    m = b // g
    x = pow(a // g, -1, m)
    if 2 * x > m:
        x -= m
    return g, x, (g - a * x) // b


def _completion(p, support) -> tuple[SparseVector, tuple[SparseVector, ...], tuple]:
    """(section, kernel, steps) of a unimodular W with p W = e_1, for primitive p.

    Step j folds entry j into entry 0 by a 2x2 column operation of
    determinant 1 built from extended Euclid on the running gcd a and p_j:
    column j becomes (a/g) e_j - (p_j/g) s and s becomes x s + y e_j.
    Column j is final from then on.  When a divides p_j, s stays as it is
    (x = 1, y = 0) or becomes e_j (a = p_j); it gains an entry only when the
    gcd drops, at most log2(p_0) times, so W has O(k log p_0) entries.
    """
    section = {0: 1}
    kernel = []
    steps = []
    a = p[0]
    for j in range(1, len(p)):
        g, x, y = _xgcd(a, p[j])
        ag, bg = a // g, p[j] // g
        kernel.append({**{i: -bg * u for i, u in section.items()}, j: ag})
        if (x, y) != (1, 0):
            section = {i: x * u for i, u in section.items() if x * u}
            if y:
                section[j] = y
        steps.append((j, x, y, ag, bg))
        a = g
    if a != 1:
        raise AssertionError(f"character part {tuple(p)} is not primitive")

    def sparse(column) -> SparseVector:
        return tuple((support[i], u) for i, u in column.items())

    return sparse(section), tuple(map(sparse, kernel)), tuple(steps)


def _blocks(cf: CanonicalForm) -> list[_Block]:
    """Per-monomial block data, read off the canonical blocks in O(n); fails
    loudly if a variable repeats, as the supports must partition the variables."""
    names = cf.var_order
    if len(set(names)) != len(names):
        shared = next(v for i, v in enumerate(names) if v in names[i + 1 :])
        raise AssertionError(
            f"two monomials share variable {shared!r}; "
            "the block-local structure needs disjoint supports"
        )
    blocks = []
    for pairs in cf.monomial_supports:
        support, exponents = zip(*pairs)
        g = math.gcd(*exponents)
        p = [e // g for e in exponents]
        blocks.append(_Block(support, exponents, g, *_completion(p, support)))
    return blocks


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product.

    Refines by pairwise gcds only (no factorization): a value sharing a
    factor d with a base element b replaces b by d and b/d and is itself
    split into d and value/d, until every piece is coprime to the base.  A
    repeated value is already a product of base elements and would leave the
    base as it is, so only first occurrences are refined.  Each piece is
    first tested against the product of the base, kept exact as elements
    come and go, so a value coprime to the base costs one gcd, not one per
    base element.
    """
    base: list[int] = []
    product = 1
    for value in dict.fromkeys(values):
        pending = [value]
        while pending:
            a = pending.pop()
            if a == 1:
                continue
            if math.gcd(a, product) == 1:
                base.append(a)
                product *= a
                continue
            # a shares a factor with the product, so with some base element
            for j, b in enumerate(base):
                d = math.gcd(a, b)
                if d > 1:
                    del base[j]
                    product //= b
                    pending += [d, a // d, b // d]
                    break
    return sorted(base)


def _valuation(value: int, q: int) -> int:
    v = 0
    while value % q == 0:
        value //= q
        v += 1
    return v


def _torsion(blocks: list[_Block]) -> tuple[TorsionGenerator, ...]:
    """Invariants and generators of (sum of Z/g_i) / <(1, ..., 1)>.

    For each base element q the monomial with the largest valuation of q in
    g_i drops out (the diagonal element generates its summand); the others,
    sorted ascending and right-aligned across the base, make up d_1 | ... | d_r.
    """
    chains = []
    for q in _coprime_base(b.gcd for b in blocks):
        # blocks with q not dividing g_i have valuation 0 and hold nothing
        held = sorted(
            (_valuation(b.gcd, q), i) for i, b in enumerate(blocks) if b.gcd % q == 0
        )
        chains.append((q, held[:-1]))
    r = max((len(held) for _, held in chains), default=0)
    generators = []
    for k in range(r):
        # right-aligned: chain `held` fills the last len(held) positions
        parts = [
            (q, *held[k - r + len(held)])
            for q, held in chains
            if k - r + len(held) >= 0
        ]
        d = math.prod(q**v for q, v, _ in parts)
        exponents: dict[int, int] = {}
        for q, v, i in parts:
            c = d // q**v
            for var, s in blocks[i].section:
                exponents[var] = exponents.get(var, 0) + c * s
        reduced = ((var, x % d) for var, x in sorted(exponents.items()))
        generators.append(
            TorsionGenerator(order=d, exponents=tuple((v, x) for v, x in reduced if x))
        )
    return tuple(generators)


def quasitorus_structure(cf: CanonicalForm) -> QuasitorusDescription:
    """Torus rank, torsion invariants and explicit generators of H.

    Computed from the canonical blocks as described in the module docstring;
    a single monomial raises `SingleMonomialError`.  The
    cocharacter basis is saturated (it parametrizes ker(D) bijectively), and
    each torsion generator v_k of order d_k satisfies D v_k == 0 (mod d_k)
    with gcd(d_k, v_k) = 1; together with ker(D) they generate all of H's
    torsion points.
    """
    if cf.monomial_count < 2:
        raise SingleMonomialError(
            "need at least two monomials to cut out a hypersurface with "
            "diagonal symmetry structure"
        )
    blocks = _blocks(cf)
    lcm = math.lcm(*(b.gcd for b in blocks))
    w = []
    basis = []
    for b in blocks:
        w += [(var, lcm // b.gcd * s) for var, s in b.section]
        basis += b.kernel
    generators = _torsion(blocks)
    return QuasitorusDescription(
        torus_rank=len(basis) + 1,
        torsion=tuple(t.order for t in generators),
        cocharacter_basis=(tuple(w), *basis),
        torsion_generators=generators,
        blocks=tuple(blocks),
    )


def cocharacter_coordinates(
    quasi: QuasitorusDescription, vector: SparseVector
) -> SparseVector:
    """Coordinates of a sparse kernel vector in `quasi.cocharacter_basis`,
    as a sparse vector of dimension `quasi.torus_rank`.

    With P the common pairing of `vector` with every character, the
    coordinate on w is P / lcm(g); on block i the others are entries 2..k of
    W_i^{-1} (vector|S_i - (P / g_i) s_i), whose entry 1 is zero, from the
    block data `quasi.blocks`, in O(k_i) steps per block.  Raises ValueError
    off ker(D).
    """
    blocks = quasi.blocks
    values = dict(vector)
    n = sum(len(b.support) for b in blocks)
    if not all(0 <= v < n for v in values):
        raise ValueError("dimension mismatch between vector and characters")
    pairings = {
        sum(x * values.get(v, 0) for v, x in zip(b.support, b.exponents))
        for b in blocks
    }
    if len(pairings) != 1:
        raise ValueError("vector is not in the cocharacter lattice ker(D)")
    (pairing,) = pairings
    coords = [pairing // math.lcm(*(b.gcd for b in blocks))]
    # a one-variable block has no coordinate but the section's, which is zero
    for b in (b for b in blocks if len(b.support) > 1):
        offset = pairing // b.gcd
        section = dict(b.section)
        y = [values.get(v, 0) - offset * section.get(v, 0) for v in b.support]
        # W^{-1} undoes the column operations of W in the order they were made
        for j, x, c, ag, bg in b.steps:
            y[0], y[j] = ag * y[0] + bg * y[j], x * y[j] - c * y[0]
        if y[0]:
            raise AssertionError("block coordinate on the section is not zero")
        coords += y[1:]
    return tuple((k, c) for k, c in enumerate(coords) if c)

