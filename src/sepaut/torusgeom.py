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
ker(D).  Expressed in the block-local basis of ker(D) that the quasitorus
description holds, the coordinate functions get weight vectors w_v; the
cone they span is pointed because the homogeneity cocharacter pairs
strictly positively with every w_v, and its coordinate vector u in that
basis is a certificate checkable by n inner products.  Any other basis of
the same lattice gives the same verdict; the tests check that with their
own solver after a unimodular change of basis.

Every vector here is a `polyio.SparseVector` ((index, value) pairs,
index increasing, no zero value): a pair cocharacter has two entries, the
weight of variable v lists the basis vectors that move v, and the witness
and the kernel check touch only nonzero entries, so both functions are
linear in the size of the quasitorus description.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .polyio import CanonicalForm, SparseVector
from .quasitorus import cocharacter_coordinates

__all__ = [
    "PairCocharacter",
    "TorusGenerators",
    "ConeDescription",
    "torus_generators",
    "weight_cone",
]


class PairCocharacter(NamedTuple):
    """Cocharacter rescaling one variable of a mixed block against its first.

    `position` is the 0-based index (>= 1) of the moved variable within the
    block's canonical variable list.
    """

    block: int
    position: int
    vector: SparseVector


class TorusGenerators(NamedTuple):
    homogeneity: SparseVector
    pair_cocharacters: tuple[PairCocharacter, ...]


class ConeDescription(NamedTuple):
    """Weight data of the coordinate functions in the cocharacter basis of
    the quasitorus description.  The weights (one per variable) and the
    witness are sparse vectors over the torus rank's coordinates."""

    weights: tuple[SparseVector, ...]
    pointed: bool
    witness: SparseVector | None


def torus_generators(cf: CanonicalForm) -> TorusGenerators:
    """The explicit cocharacters described in the module docstring.

    Each returned vector is verified to pair equally with every monomial
    (i.e. to lie in ker(D), hence to define a diagonal symmetry); only the
    monomials holding one of its nonzero entries are visited, the others
    pair to 0.
    """
    # each block's degree is summed once, not once per variable
    blocks = [(b.degree, b.variables) for b in cf.mixed_blocks]
    blocks += [(b.exponent, b.variables) for b in cf.pure_blocks]
    total = lcm(*(degree for degree, _ in blocks))
    # the blocks hold the canonical variable order in turn
    scales = []
    for degree, names in blocks:
        scales += [total // degree] * len(names)
    homogeneity = tuple(enumerate(scales))

    pairs = []
    first = 0
    for bi, b in enumerate(cf.mixed_blocks):
        for j in range(1, len(b.variables)):
            vec = ((first, b.exponents[j]), (first + j, -b.exponents[0]))
            pairs.append(PairCocharacter(block=bi, position=j, vector=vec))
        first += len(b.variables)

    monomials = cf.monomial_supports
    owner = {v: (i, e) for i, mono in enumerate(monomials) for v, e in mono}
    for vec in [homogeneity, *(p.vector for p in pairs)]:
        pairings: dict[int, int] = {}
        for v, x in vec:
            i, e = owner[v]
            pairings[i] = pairings.get(i, 0) + e * x
        values = set(pairings.values())
        if len(pairings) < len(monomials):
            values.add(0)
        if len(values) != 1:
            raise AssertionError("constructed cocharacter is not a kernel vector")
    return TorusGenerators(homogeneity=homogeneity, pair_cocharacters=tuple(pairs))


def weight_cone(quasi, homogeneity) -> ConeDescription:
    """Weights of the coordinate functions and a pointedness certificate.

    The weights are the block-local cocharacter basis of the quasitorus
    description `quasi`, transposed (sparse: the weight of variable v lists
    the basis vectors with a nonzero entry at v); `cocharacter_coordinates`
    reads the witness off the block data `quasi.blocks`.  The witness is the
    homogeneity cocharacter written in that basis: its pairing with the
    weight vector of variable v equals that variable's homogeneity weight,
    which is strictly positive.
    """
    witness = cocharacter_coordinates(quasi, homogeneity)
    columns: list[list[tuple[int, int]]] = [
        [] for b in quasi.blocks for _ in b.support
    ]
    for k, vec in enumerate(quasi.cocharacter_basis):
        for v, x in vec:
            columns[v].append((k, x))
    weights = tuple(map(tuple, columns))
    u = dict(witness)
    pointed = all(sum(u.get(k, 0) * x for k, x in wv) > 0 for wv in weights)
    return ConeDescription(
        weights=weights,
        pointed=pointed,
        witness=witness if pointed else None,
    )
