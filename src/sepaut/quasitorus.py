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
columns with O(k_i log p_i) entries and no inverse: column j ends at a
pivot on the j-th variable of S_i (see `_completion`), so
`cocharacter_coordinates` solves on the printed basis by back substitution.
All of this depends only on the exponent tuple and where S_i starts, so
`quasitorus_structure` reads `CanonicalForm.shapes`, solves g and W once per
distinct tuple over the local offsets 0..k-1, and holds them in its `shapes`
field with L = lcm(g); from them:

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
`polyio.dense` expands one to its n entries only for the residual of
`cocharacter_coordinates`; the report prints through `polyio.decimals`.

No Smith normal form is involved, and neither is the dense difference
matrix D (rows chi_i - chi_0).  Only the tests build D, where its Smith
normal form and gcd of minors referee H; the independent cross-check in
`oracles` counts the solutions of D e == 0 (mod N) monomial by monomial.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

from .polyio import CanonicalForm, SparseVector, dense

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


TorsionGenerator = namedtuple("TorsionGenerator", "order exponents")
TorsionGenerator.__doc__ = """Diagonal map x_v -> zeta^e_v x_v, zeta a primitive
root of unity.

Held purely arithmetically as (order, sparse exponent vector with entries
in 1..order-1); membership and order checks are integer congruences, no
cyclotomic numbers involved.
"""

# An exponent tuple chi = gcd * p and the monomials that have it.  The
# monomial starting at each of `starts` (a range) has support
# start..start+k-1.  A unimodular W with p W = e_1 is held once, as its
# first column `section` (s, the vector pairing to 1 with p) and its other
# columns `kernel`, all sparse over the local offsets 0..k-1; kernel column
# j - 1 ends at its pivot, a nonzero entry on offset j.
_Shape = namedtuple("_Shape", "exponents starts gcd section kernel")

# the vectors are `SparseVector`s; `torsion` and `torsion_generators` are
# in the same order
QuasitorusDescription = namedtuple(
    "QuasitorusDescription",
    "torus_rank torsion cocharacter_basis torsion_generators shapes lcm",
)


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


def _completion(p) -> tuple[SparseVector, tuple[SparseVector, ...]]:
    """(section, kernel) of a unimodular W with p W = e_1, for primitive p.

    Step j folds entry j into entry 0 by a 2x2 column operation of
    determinant 1 built from extended Euclid on the running gcd a and p_j:
    column j becomes (a/g) e_j - (p_j/g) s and s becomes x s + y e_j.
    Column j is final from then on, and ends at its pivot a/g != 0 on entry
    j, as s has entries only before j.  When a divides p_j, s stays (x = 1,
    y = 0) or becomes e_j (a = p_j); it gains an entry only when the gcd
    drops, at most log2(p_0) times: O(k log p_0) entries.
    """
    section, kernel, a = [(0, 1)], [], p[0]
    for j, b in enumerate(p[1:], 1):
        g, x, y = _xgcd(a, b)
        bg = b // g
        kernel.append((*[(i, -bg * u) for i, u in section], (j, a // g)))
        if (x, y) != (1, 0):
            section = [(i, x * u) for i, u in section if x * u]
            if y:
                section.append((j, y))
        a = g
    if a != 1:
        raise AssertionError(f"character part {tuple(p)} is not primitive")
    return tuple(section), tuple(kernel)


def _coprime_base(values) -> dict[int, dict[int, int]]:
    """Pairwise coprime integers q > 1 of which every value is a product,
    each with the values it divides and its valuation in each.

    Refines by pairwise gcds only (no factorization): a value sharing a
    factor d with a base element b replaces b by d and b/d and is itself
    split into d and value/d, until every piece is coprime to the base.  A
    repeated value is already a product of base elements and would leave the
    base as it is, so only first occurrences are refined.  Each piece is
    first tested against the product of the base, kept exact as elements
    come and go, so a value coprime to the base costs one gcd, not one per
    base element.  Each piece carries the values it divides, with
    multiplicities, such that every value is the product of the pieces that
    carry it raised to those multiplicities; d carries what both of its
    sources carried.  Once the base is pairwise coprime, the multiplicity of
    q in a value is q's valuation in it, found without dividing the value.
    """
    base: dict[int, dict[int, int]] = {}
    product = 1
    for value in dict.fromkeys(values):
        pending = [(value, {value: 1})]
        while pending:
            a, carried = pending.pop()
            if a == 1:
                continue
            if math.gcd(a, product) == 1:
                base[a] = carried
                product *= a
                continue
            # a shares a factor with the product, so with some base element
            b = next(b for b in base if math.gcd(a, b) > 1)
            d, shared = math.gcd(a, b), base.pop(b)
            product //= b
            both = {
                u: carried.get(u, 0) + shared.get(u, 0)
                for u in carried.keys() | shared.keys()
            }
            pending += [(d, both), (a // d, carried), (b // d, shared)]
    return base


def _torsion(shapes: list[_Shape]) -> tuple[TorsionGenerator, ...]:
    """Invariants and generators of (sum of Z/g_i) / <(1, ..., 1)>.

    For each base element q the monomial with the largest valuation of q in
    g_i drops out (the diagonal element generates its summand); the others,
    sorted ascending and right-aligned across the base, make up d_1 | ... | d_r.
    A monomial is named by its start, which orders the monomials canonically.
    The base carries each q's valuations, so a monomial is touched once per
    base element dividing its g_i, not once per base element.
    """
    base = _coprime_base(s.gcd for s in shapes)
    by_gcd: dict[int, list[_Shape]] = {}
    for s in shapes:
        by_gcd.setdefault(s.gcd, []).append(s)
    # monomials with q not dividing g_i have valuation 0 and hold nothing;
    # the others hold q^v, and their starts order equal powers
    chains = [
        sorted([(q ** vs[g], a, s.section) for g in vs for s in by_gcd[g] for a in s.starts])[:-1]
        for q, vs in base.items()
    ]
    # right-aligned: a chain fills the last len(chain) of the positions, so
    # the first ones the longest chain holds alone, each one prime power d
    *others, longest = sorted(chains, key=len) or [[]]
    alone = len(longest) - max(map(len, others), default=0)
    generators = [
        TorsionGenerator(d, tuple([(start + i, x) for i, s in section if (x := s % d)]))
        for d, start, section in longest[:alone]
    ]
    parts = [[held] for held in longest[alone:]]
    for chain in others:
        for k, held in enumerate(chain, len(parts) - len(chain)):
            parts[k].append(held)
    for part in parts:
        d = math.prod(power for power, _, _ in part)
        merged: dict[int, int] = {}
        for power, start, section in part:
            c = d // power
            for i, s in section:
                merged[start + i] = merged.get(start + i, 0) + c * s
        exponents = ((v, x) for v, y in sorted(merged.items()) if (x := y % d))
        generators.append(TorsionGenerator(d, tuple(exponents)))
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
    names = cf.var_order
    if len(set(names)) != len(names):
        shared = next(v for i, v in enumerate(names) if v in names[i + 1 :])
        raise AssertionError(
            f"two monomials share variable {shared!r}; "
            "the block-local structure needs disjoint supports"
        )
    shapes = []
    for exponents, starts in cf.shapes:
        g = math.gcd(*exponents)
        shapes.append(_Shape(exponents, starts, g, *_completion([e // g for e in exponents])))
    lcm = math.lcm(*(s.gcd for s in shapes))
    w = []
    basis = []
    for s in shapes:
        scaled = [(i, lcm // s.gcd * x) for i, x in s.section]
        w += [(a + i, x) for a in s.starts for i, x in scaled]
        basis += [tuple([(a + i, u) for i, u in col]) for a in s.starts for col in s.kernel]
    generators = _torsion(shapes)
    return QuasitorusDescription(
        torus_rank=len(basis) + 1,
        torsion=tuple(t.order for t in generators),
        cocharacter_basis=(tuple(w), *basis),
        torsion_generators=generators,
        shapes=tuple(shapes),
        lcm=lcm,
    )


def cocharacter_coordinates(
    quasi: QuasitorusDescription, vector: SparseVector
) -> SparseVector:
    """Coordinates of a sparse kernel vector in `quasi.cocharacter_basis`,
    as a sparse vector of dimension `quasi.torus_rank`, solved on the basis
    vectors in O(their nonzero entries).

    With P the pairing of `vector` with the first character, the
    coordinate on w is P / L, with L = `quasi.lcm`.  From the last back, a
    kernel column ends at its pivot, which no column before it but w
    touches, so its coordinate is the residual there (`vector` less the
    parts of w and the later columns) over the pivot.  The one check is a
    zero residual, the identity sum over k of u_k * b_k = vector; a vector
    off ker(D) or off the lattice, or a wrong basis, raises ValueError.
    """
    n = sum(len(s.exponents) * len(s.starts) for s in quasi.shapes)
    if vector and not (0 <= vector[0][0] and vector[-1][0] < n):
        raise ValueError("dimension mismatch between vector and characters")
    residual = dense(vector, n)
    # the first monomial starts the canonical order
    first = quasi.shapes[0].exponents
    pairing = sum(map(mul, first, residual))
    basis = quasi.cocharacter_basis
    coords = [pairing // quasi.lcm] + [0] * (len(basis) - 1)
    # w first, then the kernel columns from the last back; a remainder stays
    # at a column's pivot, where the check below finds it
    for k in (0, *range(len(basis) - 1, 0, -1)):
        if k:
            pivot, x = basis[k][-1]
            coords[k] = residual[pivot] // x
        if c := coords[k]:
            for v, x in basis[k]:
                residual[v] -= c * x
    if any(residual):
        raise ValueError("the basis does not give the vector back")
    return tuple((k, c) for k, c in enumerate(coords) if c)
