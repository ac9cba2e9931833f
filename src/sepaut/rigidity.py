"""Sufficient rigidity criterion, evaluated in exact rational arithmetic.

A variety is rigid when it carries no nontrivial action of the additive
group of the ground field.  For a separated polynomial with M >= 3 monomials
a sufficient condition is

    sum over all variables of 1/exponent  <=  1 / (M - 2).

The certificate records the exact sum and threshold and one of three
verdicts; it never claims non-rigidity.  The threshold denominator counts
*monomials*; an alternative reading counts *blocks* (mixed blocks plus
distinct pure exponents), and the certificate notes the value under that
reading as well, since the two differ whenever a pure exponent is shared by
several variables.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .polyio import CanonicalForm

__all__ = [
    "CERTIFIED_RIGID",
    "INCONCLUSIVE",
    "INAPPLICABLE",
    "RigidityCertificate",
    "rigidity_certificate",
]

CERTIFIED_RIGID = "certified_rigid"
INCONCLUSIVE = "inconclusive"
INAPPLICABLE = "inapplicable"


class RigidityCertificate(NamedTuple):
    reciprocal_sum: Fraction
    threshold: Fraction | None
    verdict: str
    equality: bool
    block_count_threshold: Fraction | None
    note: str


def rigidity_certificate(cf: CanonicalForm) -> RigidityCertificate:
    """Evaluate the reciprocal-exponent criterion exactly.

    certified_rigid  -- M >= 3 and the sum is <= 1/(M-2) (non-strict; an
                        equality case is flagged);
    inconclusive     -- M >= 3 but the bound fails (says nothing either way);
    inapplicable     -- M <= 2, where the threshold denominator vanishes.
    """
    # k variables of exponent e add k/e, one term per distinct e, over the
    # common denominator: one Fraction, not one per variable
    counts: dict[int, int] = {}
    blocks = 0
    for exponents, starts in cf.shapes:
        for e in exponents:
            counts[e] = counts.get(e, 0) + len(starts)
        # each mixed block counts, and a pure block once for all its powers
        blocks += len(starts) if len(exponents) > 1 else 1
    denominator = lcm(*counts)
    total = Fraction(sum(k * (denominator // e) for e, k in counts.items()), denominator)
    m_count = cf.monomial_count
    alt = Fraction(1, blocks - 2) if blocks > 2 else None

    if m_count <= 2:
        threshold = None
        verdict = INAPPLICABLE
        equality = False
    else:
        threshold = Fraction(1, m_count - 2)
        verdict = CERTIFIED_RIGID if total <= threshold else INCONCLUSIVE
        equality = total == threshold

    note = _note(m_count, blocks, alt, equality)
    return RigidityCertificate(
        reciprocal_sum=total,
        threshold=threshold,
        verdict=verdict,
        equality=equality,
        block_count_threshold=alt,
        note=note,
    )


def _note(m_count: int, blocks: int, alt: Fraction | None, equality: bool) -> str:
    parts = [
        f"threshold denominator counts monomials (M - 2 = {m_count - 2});"
        " counting blocks instead (mixed blocks + distinct pure exponents"
        f" = {blocks}) gives "
        + (f"1/{blocks - 2} = {alt}" if alt is not None else
           f"no applicable threshold (denominator {blocks - 2})")
    ]
    parts.append("certification uses the non-strict bound <=")
    if equality:
        parts.append("the bound is attained with equality here")
    return "; ".join(parts)
