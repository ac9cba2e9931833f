"""Explicit one-parameter subgroups and the weight cone of the coordinates.

Two families of diagonal one-parameter subgroups act on the hypersurface:

* the *homogeneity cocharacter*: with P the lcm of all block degrees
  (mixed-block total degrees L_i and pure exponents q_i), weighting every
  variable of a block by P divided by its block degree gives each monomial
  the same total weight P, so the whole polynomial scales by one factor;
* one *pair cocharacter* per mixed block i and position j >= 2: weight the
  block's first variable by l_ij and the j-th by -l_i1, leaving all other
  variables fixed; the block's monomial has weight zero and nothing else
  moves.

These span a finite-index sublattice of the full cocharacter lattice
ker(D).  Expressed in any basis of ker(D), the coordinate functions get
weight vectors w_v; the cone they span is pointed because the homogeneity
cocharacter pairs strictly positively with every w_v, and its coordinate
vector u in the chosen basis is a certificate checkable by n inner products.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .intlat import IntMatrix, smith_normal_form
from .polyio import CanonicalForm
from .quasitorus import cocharacter_coordinates

__all__ = [
    "PairCocharacter",
    "TorusGenerators",
    "ConeDescription",
    "torus_generators",
    "weight_cone",
    "express_in_basis",
]


@dataclass(frozen=True)
class PairCocharacter:
    """Cocharacter rescaling one variable of a mixed block against its first.

    `position` is the 0-based index (>= 1) of the moved variable within the
    block's canonical variable list.
    """

    block: int
    position: int
    vector: tuple[int, ...]


@dataclass(frozen=True)
class TorusGenerators:
    homogeneity: tuple[int, ...]
    pair_cocharacters: tuple[PairCocharacter, ...]


@dataclass(frozen=True)
class ConeDescription:
    """Weight data of the coordinate functions in a chosen cocharacter basis."""

    basis: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[int, ...], ...]
    pointed: bool
    witness: tuple[int, ...] | None


def torus_generators(cf: CanonicalForm) -> TorusGenerators:
    """The explicit cocharacters described in the module docstring.

    Each returned vector is verified to pair equally with every monomial
    (i.e. to lie in ker(D), hence to define a diagonal symmetry); the M
    pairings run over the monomial supports, O(n) per vector.
    """
    n = cf.variable_count
    idx = cf.variable_index

    degrees = [b.degree for b in cf.mixed_blocks] + [
        b.exponent for b in cf.pure_blocks
    ]
    total = lcm(*degrees)
    homogeneity = [0] * n
    for b in cf.mixed_blocks:
        for v in b.variables:
            homogeneity[idx[v]] = total // b.degree
    for b in cf.pure_blocks:
        for v in b.variables:
            homogeneity[idx[v]] = total // b.exponent
    homogeneity = tuple(homogeneity)

    pairs = []
    for bi, b in enumerate(cf.mixed_blocks):
        first = idx[b.variables[0]]
        for j in range(1, len(b.variables)):
            vec = [0] * n
            vec[first] = b.exponents[j]
            vec[idx[b.variables[j]]] = -b.exponents[0]
            pairs.append(PairCocharacter(block=bi, position=j, vector=tuple(vec)))

    monomials = [
        [(idx[v], e) for v, e in zip(b.variables, b.exponents)] for b in cf.mixed_blocks
    ] + [[(idx[v], b.exponent)] for b in cf.pure_blocks for v in b.variables]
    for vec in [homogeneity, *(p.vector for p in pairs)]:
        if len({sum(e * vec[v] for v, e in mono) for mono in monomials}) != 1:
            raise AssertionError("constructed cocharacter is not a kernel vector")
    return TorusGenerators(homogeneity=homogeneity, pair_cocharacters=tuple(pairs))


def express_in_basis(basis, target) -> tuple[int, ...]:
    """Integer coordinates of `target` in the lattice spanned by `basis` rows.

    Solves u . B = target exactly via the Smith form of B; raises ValueError
    when the target is outside the spanned lattice.
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


def weight_cone(quasi, homogeneity, basis=None) -> ConeDescription:
    """Weights of the coordinate functions and a pointedness certificate.

    `basis` defaults to the block-local cocharacter basis of the quasitorus
    description `quasi`, in which `cocharacter_coordinates` reads the witness
    off the block data `quasi` keeps; any other basis of the same lattice
    (for example after a unimodular change) yields the same pointedness
    verdict and witness validity, with the witness solved for by
    `express_in_basis`.  The witness is the homogeneity cocharacter written
    in the basis: its pairing with the weight vector of variable v equals
    that variable's homogeneity weight, which is strictly positive.
    """
    if basis is None:
        basis = quasi.cocharacter_basis
        witness = cocharacter_coordinates(quasi, homogeneity)
    else:
        basis = tuple(tuple(int(x) for x in row) for row in basis)
        witness = express_in_basis(basis, homogeneity)
    n = len(homogeneity)
    weights = tuple(tuple(row[v] for row in basis) for v in range(n))
    pointed = all(
        sum(u * w for u, w in zip(witness, weights[v])) > 0 for v in range(n)
    )
    return ConeDescription(
        basis=basis,
        weights=weights,
        pointed=pointed,
        witness=witness if pointed else None,
    )
