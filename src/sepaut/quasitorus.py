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
and its other columns span p_i's orthogonal lattice.  `quasitorus_structure`
reads these block data off the canonical form in one O(n) pass (and keeps
them for `cocharacter_coordinates`); from them:

* the cocharacter lattice ker(D) has the basis w (equal to (L/g_i) s_i on
  every S_i, with L = lcm(g)) followed by columns 2..k of every W_i, so the
  torus rank is n - M + 1;
* the finite part H/H° is (sum of Z/g_i) / <(1, ..., 1)>; over a coprime
  base of the g_i, each base element q drops its largest valuation, and the
  remaining valuations, right-aligned, give the invariants d_1 | ... | d_r;
* the torsion generator of d_k is sum over q of (d_k / q^v) s_i on the block
  i holding that valuation, reduced mod d_k.

No Smith normal form is involved, and neither is the dense difference matrix
D (rows chi_i - chi_0) of `character_matrix`.  D feeds only the independent
cross-check `count_torsion_points_mod`, which counts the solutions of
D e == 0 (mod N) by sheer enumeration of all N^n candidates, and the tests,
where `intlat.smith_normal_form` and `gcd_of_minors` of D referee H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .intlat import IntMatrix
from .polyio import CanonicalForm

__all__ = [
    "SingleMonomialError",
    "EnumerationTooLargeError",
    "CharacterData",
    "TorsionGenerator",
    "QuasitorusDescription",
    "character_matrix",
    "quasitorus_structure",
    "cocharacter_coordinates",
    "count_torsion_points_mod",
    "torsion_count_formula",
]

ENUMERATION_LIMIT = 10_000_000


class SingleMonomialError(ValueError):
    """A one-monomial polynomial cuts out a union of coordinate hyperplane
    intersections; the semidirect-product description does not apply."""


class EnumerationTooLargeError(ValueError):
    """The brute-force count N^n would exceed the enumeration guard."""


@dataclass(frozen=True)
class CharacterData:
    """Monomial characters and their differences against the first monomial."""

    var_order: tuple[str, ...]
    characters: tuple[tuple[int, ...], ...]
    difference_matrix: IntMatrix


@dataclass(frozen=True)
class TorsionGenerator:
    """Diagonal map x_v -> zeta^e_v x_v with zeta a primitive root of unity.

    Held purely arithmetically as (order, exponent vector); membership and
    order checks are integer congruences, no cyclotomic numbers involved.
    """

    order: int
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class _Block:
    """Per-monomial data chi = gcd * p on the monomial's support.

    `support` is the monomial's run of variable indices and `exponents` its
    character on it; `transform` is a unimodular W (rows indexed like
    `support`) with p W = e_1, and `inverse` is its inverse.
    """

    support: range
    exponents: tuple[int, ...]
    gcd: int
    transform: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...]

    @property
    def section(self) -> tuple[int, ...]:
        """s, the first column of W: the vector pairing to 1 with p."""
        return tuple(row[0] for row in self.transform)


@dataclass(frozen=True)
class QuasitorusDescription:
    torus_rank: int
    torsion: tuple[int, ...]
    cocharacter_basis: tuple[tuple[int, ...], ...]
    torsion_generators: tuple[TorsionGenerator, ...]
    # kept for cocharacter_coordinates; not part of the description's value
    _blocks: tuple[_Block, ...] = field(compare=False, repr=False)


def _require_two_monomials(cf: CanonicalForm) -> None:
    if cf.monomial_count < 2:
        raise SingleMonomialError(
            "need at least two monomials to cut out a hypersurface with "
            "diagonal symmetry structure"
        )


def character_matrix(cf: CanonicalForm) -> CharacterData:
    """Characters of all monomials and the matrix of differences.

    Rows of the difference matrix are chi_i - chi_0 over the canonical
    monomial order (mixed blocks first, then pure powers).  Because monomial
    supports are pairwise disjoint, the rows are linearly independent: the
    matrix always has full row rank M - 1.  Only the enumeration oracle and
    the Smith-form referee tests read it; the analysis works from the blocks.
    """
    _require_two_monomials(cf)
    chars = cf.monomial_vectors
    rows = [[x - b for x, b in zip(chi, chars[0])] for chi in chars[1:]]
    return CharacterData(
        var_order=cf.var_order,
        characters=chars,
        difference_matrix=IntMatrix.from_rows(rows, cols=cf.variable_count),
    )


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (-a, -x0, -y0) if a < 0 else (a, x0, y0)


def _completion(p) -> tuple[tuple, tuple]:
    """Unimodular W and its inverse (tuples of rows) with p W = e_1, for primitive p.

    Each step folds entry j into entry 0 by a 2x2 column operation of
    determinant 1 built from extended Euclid; the inverse applies the inverse
    row operations.
    """
    k = len(p)
    w = [[int(i == j) for j in range(k)] for i in range(k)]
    inv = [row[:] for row in w]
    r = list(p)
    for j in range(1, k):
        a, b = r[0], r[j]
        g, x, y = _xgcd(a, b)
        ag, bg = a // g, b // g
        for row in w:
            c0, cj = row[0], row[j]
            row[0], row[j] = x * c0 + y * cj, ag * cj - bg * c0
        r0, rj = inv[0], inv[j]
        inv[0] = [ag * u + bg * v for u, v in zip(r0, rj)]
        inv[j] = [x * v - y * u for u, v in zip(r0, rj)]
        r[0], r[j] = g, 0
    if r[0] != 1:
        raise AssertionError(f"character part {tuple(p)} is not primitive")
    return tuple(map(tuple, w)), tuple(map(tuple, inv))


def _blocks(cf: CanonicalForm) -> list[_Block]:
    """Per-monomial block data, read off the canonical blocks in O(n); fails
    loudly if a variable repeats, as the runs must partition the variables."""
    names = cf.var_order
    if len(set(names)) != len(names):
        shared = next(v for i, v in enumerate(names) if v in names[i + 1 :])
        raise AssertionError(
            f"two monomials share variable {shared!r}; "
            "the block-local structure needs disjoint supports"
        )
    monomials = [b.exponents for b in cf.mixed_blocks] + [
        (b.exponent,) for b in cf.pure_blocks for _ in b.variables
    ]
    blocks = []
    start = 0
    for exponents in monomials:
        g = math.gcd(*exponents)
        w, inv = _completion([e // g for e in exponents])
        support = range(start, start + len(exponents))
        blocks.append(_Block(support, exponents, g, w, inv))
        start = support.stop
    return blocks


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product.

    Refines by pairwise gcds only (no factorization): a value sharing a
    factor d with a base element b replaces b by d and b/d and is itself
    split into d and value/d, until every piece is coprime to the base.
    """
    base: list[int] = []
    for value in values:
        pending = [value]
        while pending:
            a = pending.pop()
            if a == 1:
                continue
            for j, b in enumerate(base):
                d = math.gcd(a, b)
                if d > 1:
                    del base[j]
                    pending += [d, a // d, b // d]
                    break
            else:
                base.append(a)
    return sorted(base)


def _valuation(value: int, q: int) -> int:
    v = 0
    while value % q == 0:
        value //= q
        v += 1
    return v


def _torsion(blocks: list[_Block], n: int) -> tuple[TorsionGenerator, ...]:
    """Invariants and generators of (sum of Z/g_i) / <(1, ..., 1)>.

    For each base element q the monomial with the largest valuation of q in
    g_i drops out (the diagonal element generates its summand); the others,
    sorted ascending and right-aligned across the base, make up d_1 | ... | d_r.
    """
    chains = []
    for q in _coprime_base(b.gcd for b in blocks):
        held = sorted((_valuation(b.gcd, q), i) for i, b in enumerate(blocks))
        chains.append((q, [(v, i) for v, i in held[:-1] if v]))
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
        exponents = [0] * n
        for q, v, i in parts:
            c = d // q**v
            for var, s in zip(blocks[i].support, blocks[i].section):
                exponents[var] += c * s
        generators.append(
            TorsionGenerator(order=d, exponents=tuple(x % d for x in exponents))
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
    _require_two_monomials(cf)
    blocks = _blocks(cf)
    n = cf.variable_count
    lcm = math.lcm(*(b.gcd for b in blocks))
    w = [0] * n
    basis = []
    for b in blocks:
        for var, s in zip(b.support, b.section):
            w[var] = lcm // b.gcd * s
        for j in range(1, len(b.support)):
            vec = [0] * n
            for var, row in zip(b.support, b.transform):
                vec[var] = row[j]
            basis.append(tuple(vec))
    generators = _torsion(blocks, n)
    return QuasitorusDescription(
        torus_rank=len(basis) + 1,
        torsion=tuple(t.order for t in generators),
        cocharacter_basis=(tuple(w), *basis),
        torsion_generators=generators,
        _blocks=tuple(blocks),
    )


def cocharacter_coordinates(quasi: QuasitorusDescription, vector) -> tuple[int, ...]:
    """Coordinates of a kernel vector in `quasi.cocharacter_basis`.

    With P the common pairing of `vector` with every character, the
    coordinate on w is P / lcm(g); on block i the others are entries 2..k of
    W_i^{-1} (vector|S_i - (P / g_i) s_i), whose entry 1 is zero, from the
    block data `quasi` keeps.  Raises ValueError off ker(D).
    """
    blocks = quasi._blocks
    if len(vector) != len(quasi.cocharacter_basis[0]):
        raise ValueError("dimension mismatch between vector and characters")
    pairings = {
        sum(x * vector[v] for v, x in zip(b.support, b.exponents)) for b in blocks
    }
    if len(pairings) != 1:
        raise ValueError("vector is not in the cocharacter lattice ker(D)")
    (pairing,) = pairings
    coords = [pairing // math.lcm(*(b.gcd for b in blocks))]
    for b in blocks:
        offset = pairing // b.gcd
        rest = [vector[var] - offset * s for var, s in zip(b.support, b.section)]
        y = [sum(u * x for u, x in zip(row, rest)) for row in b.inverse]
        if y[0]:
            raise AssertionError("block coordinate on the section is not zero")
        coords += y[1:]
    return tuple(coords)


def count_torsion_points_mod(cd: CharacterData, modulus: int) -> int:
    """Count e in (Z/N)^n with D e == 0 (mod N) by full enumeration.

    Every one of the N^n candidate vectors is evaluated against every row of
    D (vectorized, but literally exhaustive).  Guarded by N^n <= 10^7.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    n = len(cd.var_order)
    total = modulus**n
    if total > ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(
            f"N^n = {modulus}^{n} exceeds the enumeration guard "
            f"{ENUMERATION_LIMIT}"
        )
    keep = np.ones(total, dtype=bool)
    base = np.arange(modulus, dtype=np.int32)
    for row in cd.difference_matrix.to_rows():
        acc = np.zeros(1, dtype=np.int32)
        for coeff in row:
            step = (coeff % modulus) * base % modulus
            acc = (acc[:, None] + step[None, :]).reshape(-1) % modulus
        keep &= acc == 0
    return int(np.count_nonzero(keep))


def torsion_count_formula(quasi: QuasitorusDescription, modulus: int) -> int:
    """Closed form for the same count: N^rank * prod gcd(d_k, N).

    Reads the torus rank and torsion invariants of the description `quasi`,
    so `count_torsion_points_mod` checks the torsion the report emits.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    count = modulus**quasi.torus_rank
    for dk in quasi.torsion:
        count *= math.gcd(dk, modulus)
    return count
