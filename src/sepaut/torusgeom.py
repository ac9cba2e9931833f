"""The homogeneity cocharacter and the certificate that the weight cone is
pointed.

With P the lcm of all block degrees (mixed-block total degrees L_i and pure
exponents q_i), weighting every variable of a block by P divided by its
block degree gives each monomial the same total weight P: this is the
*homogeneity cocharacter* t0, a diagonal one-parameter subgroup scaling the
whole polynomial by one factor.  Every entry of t0 is positive.

The coordinate functions get weight vectors w_v in the block-local basis of
ker(D) that the quasitorus description holds (w_v lists the basis vectors
that move v).  The cone they span is pointed because t0 pairs strictly
positively with every w_v: the witness is t0 written in that basis, its
coordinate vector u, solved on the printed basis vectors b_k, and the
certificate is that solve's zero residual, the identity
sum over k of u_k * b_k = t0, since its entry at v is the pairing of u
with w_v.  Any other basis of the same lattice gives
the same verdict; the tests check that with their own solver after a
unimodular change of basis.  The weights themselves follow from the basis
(they are its transpose) and are not built here.

Both vectors are `polyio.SparseVector`s ((index, value) pairs, index
increasing, no zero value), and the solve touches each nonzero entry of
the basis once, so both functions are linear in the size of the
quasitorus description.
"""

from __future__ import annotations

from math import lcm

from .polyio import CanonicalForm, SparseVector
from .quasitorus import QuasitorusDescription, cocharacter_coordinates

__all__ = ["homogeneity_cocharacter", "pointedness_witness"]


def homogeneity_cocharacter(cf: CanonicalForm) -> SparseVector:
    """The homogeneity cocharacter t0 of the module docstring: one positive
    entry per variable, in the canonical variable order."""
    # each shape's degree is summed once, not once per block or variable
    shapes = [(sum(exps), len(exps) * len(starts)) for exps, starts in cf.shapes]
    total = lcm(*(degree for degree, _ in shapes))
    # the shapes hold the canonical variable order in turn
    scales = []
    for degree, width in shapes:
        scales += [total // degree] * width
    return tuple(enumerate(scales))


def pointedness_witness(
    quasi: QuasitorusDescription, homogeneity: SparseVector
) -> SparseVector:
    """The witness u that the weight cone is pointed: `homogeneity` in the
    coordinates of `quasi.cocharacter_basis`, solved on the printed basis
    vectors by `cocharacter_coordinates`.

    Its zero residual is the certificate and the only check: sum_k u_k * b_k
    = homogeneity holds exactly, and as every homogeneity entry is positive,
    it gives the pairing u . w_v = homogeneity[v] > 0 with every weight.
    Any residual (a wrong basis, a vector off ker(D)) raises AssertionError.
    """
    try:
        return cocharacter_coordinates(quasi, homogeneity)
    except ValueError as exc:
        raise AssertionError(
            "the witness does not give the homogeneity cocharacter"
        ) from exc
