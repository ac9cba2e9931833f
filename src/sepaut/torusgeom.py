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
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .polyio import CanonicalForm
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
    vector: tuple[int, ...]


class TorusGenerators(NamedTuple):
    homogeneity: tuple[int, ...]
    pair_cocharacters: tuple[PairCocharacter, ...]


class ConeDescription(NamedTuple):
    """Weight data of the coordinate functions in the cocharacter basis of
    the quasitorus description."""

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

    monomials = cf.monomial_supports
    for vec in [homogeneity, *(p.vector for p in pairs)]:
        if len({sum(e * vec[v] for v, e in mono) for mono in monomials}) != 1:
            raise AssertionError("constructed cocharacter is not a kernel vector")
    return TorusGenerators(homogeneity=homogeneity, pair_cocharacters=tuple(pairs))


def weight_cone(quasi, homogeneity) -> ConeDescription:
    """Weights of the coordinate functions and a pointedness certificate.

    The weights are the block-local cocharacter basis of the quasitorus
    description `quasi`, transposed; `cocharacter_coordinates` reads the
    witness off the block data `quasi.blocks`.  The witness is the
    homogeneity cocharacter written in that basis: its pairing with the
    weight vector of variable v equals that variable's homogeneity weight,
    which is strictly positive.
    """
    witness = cocharacter_coordinates(quasi, homogeneity)
    weights = tuple(zip(*quasi.cocharacter_basis))
    pointed = all(sum(u * w for u, w in zip(witness, wv)) > 0 for wv in weights)
    return ConeDescription(
        weights=weights,
        pointed=pointed,
        witness=witness if pointed else None,
    )
