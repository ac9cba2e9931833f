"""Structure of the diagonal symmetries preserving the hypersurface.

A diagonal map x_v -> t_v x_v preserves the zero set of a separated
polynomial exactly when it multiplies every monomial by one common scalar,
i.e. when all monomial exponent vectors (characters) agree on it.  The group
of such maps is a quasitorus H: a torus times a finite abelian group.

Separatedness makes H block-local.  Monomial i lives on its own support S_i
and its character factors as chi_i = g_i * p_i, with g_i the gcd of its
exponents and p_i primitive.  Extended Euclid on p_i gives a unimodular W_i
with p_i W_i = e_1; its first column s_i pairs to 1 with p_i and its other
columns span p_i's orthogonal lattice.  From these per-block data:

* the cocharacter lattice ker(D) has the basis w (equal to (L/g_i) s_i on
  every S_i, with L = lcm(g)) followed by columns 2..k of every W_i, so the
  torus rank is n - M + 1;
* the finite part H/H° is (sum of Z/g_i) / <(1, ..., 1)>; over a coprime
  base of the g_i, each base element q drops its largest valuation, and the
  remaining valuations, right-aligned, give the invariants d_1 | ... | d_r;
* the torsion generator of d_k is sum over q of (d_k / q^v) s_i on the block
  i holding that valuation, reduced mod d_k.

No Smith normal form is involved; `intlat.smith_normal_form` of the
difference matrix D is the referee the tests compare this against.

`count_torsion_points_mod` is the independent cross-check: it counts the
solutions of D e == 0 (mod N) by sheer enumeration of all N^n candidates,
with no Smith normal form or block formula anywhere near it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Monomial characters and their differences against a base monomial."""

    var_order: tuple[str, ...]
    characters: tuple[tuple[int, ...], ...]
    difference_matrix: IntMatrix
    base: int = 0

    @property
    def variable_count(self) -> int:
        return len(self.var_order)

    @property
    def monomial_count(self) -> int:
        return len(self.characters)


@dataclass(frozen=True)
class TorsionGenerator:
    """Diagonal map x_v -> zeta^e_v x_v with zeta a primitive root of unity.

    Held purely arithmetically as (order, exponent vector); membership and
    order checks are integer congruences, no cyclotomic numbers involved.
    """

    order: int
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class QuasitorusDescription:
    torus_rank: int
    torsion: tuple[int, ...]
    cocharacter_basis: tuple[tuple[int, ...], ...]
    torsion_generators: tuple[TorsionGenerator, ...]


def character_matrix(cf: CanonicalForm, base: int = 0) -> CharacterData:
    """Characters of all monomials and the matrix of differences.

    Rows of the difference matrix are chi_i - chi_base over the canonical
    monomial order (mixed blocks first, then pure powers).  Because monomial
    supports are pairwise disjoint, the rows are linearly independent: the
    matrix always has full row rank M - 1.
    """
    chars = cf.monomial_vectors
    m = len(chars)
    if m < 2:
        raise SingleMonomialError(
            "need at least two monomials to cut out a hypersurface with "
            "diagonal symmetry structure"
        )
    if not 0 <= base < m:
        raise ValueError(f"base monomial index {base} out of range")
    rows = [
        [x - b for x, b in zip(chars[i], chars[base])]
        for i in range(m)
        if i != base
    ]
    return CharacterData(
        var_order=cf.var_order,
        characters=chars,
        difference_matrix=IntMatrix.from_rows(rows, cols=cf.variable_count),
        base=base,
    )


@dataclass(frozen=True)
class _Block:
    """Per-monomial data chi = gcd * p on the monomial's support.

    `transform` is a unimodular W (rows indexed like `support`) with
    p W = e_1, and `inverse` is its inverse.
    """

    support: tuple[int, ...]
    gcd: int
    transform: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...]

    @property
    def section(self) -> tuple[int, ...]:
        """s, the first column of W: the vector pairing to 1 with p."""
        return tuple(row[0] for row in self.transform)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (-a, -x0, -y0) if a < 0 else (a, x0, y0)


def _completion(p) -> tuple[list[list[int]], list[list[int]]]:
    """Unimodular W and its inverse with p W = e_1, for primitive p.

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
    return w, inv


def _blocks(cd: CharacterData) -> list[_Block]:
    """Per-monomial block data; fails loudly unless the supports partition
    the variables, which every closed form below depends on."""
    owner = [None] * cd.variable_count
    blocks = []
    for i, chi in enumerate(cd.characters):
        support = tuple(v for v, x in enumerate(chi) if x)
        for v in support:
            if owner[v] is not None:
                raise AssertionError(
                    f"monomials {owner[v]} and {i} share variable {cd.var_order[v]!r}; "
                    "the block-local structure needs disjoint supports"
                )
            owner[v] = i
        g = math.gcd(*(chi[v] for v in support))
        w, inv = _completion([chi[v] // g for v in support])
        blocks.append(_Block(support, g, tuple(map(tuple, w)), tuple(map(tuple, inv))))
    if None in owner:
        v = owner.index(None)
        raise AssertionError(f"variable {cd.var_order[v]!r} occurs in no monomial")
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


def quasitorus_structure(cd: CharacterData) -> QuasitorusDescription:
    """Torus rank, torsion invariants and explicit generators of H.

    Computed block by block as described in the module docstring.  The
    cocharacter basis is saturated (it parametrizes ker(D) bijectively), and
    each torsion generator v_k of order d_k satisfies D v_k == 0 (mod d_k)
    with gcd(d_k, v_k) = 1; together with ker(D) they generate all of H's
    torsion points.
    """
    blocks = _blocks(cd)
    n = cd.variable_count
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
    )


def cocharacter_coordinates(cd: CharacterData, vector) -> tuple[int, ...]:
    """Coordinates of a kernel vector in `quasitorus_structure(cd)`'s basis.

    With P the common pairing of `vector` with every character, the
    coordinate on w is P / lcm(g); on block i the others are entries 2..k of
    W_i^{-1} (vector|S_i - (P / g_i) s_i), whose entry 1 is zero.  Raises
    ValueError when `vector` is not in ker(D).
    """
    if len(vector) != cd.variable_count:
        raise ValueError("dimension mismatch between vector and characters")
    blocks = _blocks(cd)
    pairings = {
        sum(x * vector[v] for v, x in enumerate(chi) if x) for chi in cd.characters
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
    n = cd.variable_count
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


def torsion_count_formula(cd: CharacterData, modulus: int) -> int:
    """Closed form for the same count: N^rank * prod gcd(d_k, N).

    Reads the torus rank and torsion invariants of `quasitorus_structure`,
    so `count_torsion_points_mod` checks the torsion the report emits.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    quasi = quasitorus_structure(cd)
    count = modulus**quasi.torus_rank
    for dk in quasi.torsion:
        count *= math.gcd(dk, modulus)
    return count
