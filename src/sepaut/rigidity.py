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

from collections import namedtuple
from math import gcd, lcm

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


RigidityCertificate = namedtuple(
    "RigidityCertificate",
    "reciprocal_sum threshold verdict equality block_count_threshold note",
)
RigidityCertificate.__doc__ = """The bound's verdict and the fractions it compares.

`reciprocal_sum` is the sum of 1/e_v, `threshold` 1/(M - 2) and
`block_count_threshold` 1/(blocks - 2), each a (numerator, denominator)
pair of ints in lowest terms; the thresholds are None where their
denominator is not positive.
"""


def rigidity_certificate(cf: CanonicalForm) -> RigidityCertificate:
    """Evaluate the reciprocal-exponent criterion exactly.

    certified_rigid  -- M >= 3 and the sum is <= 1/(M-2) (non-strict; an
                        equality case is flagged);
    inconclusive     -- M >= 3 but the bound fails (says nothing either way);
    inapplicable     -- M <= 2, where the threshold denominator vanishes.
    """
    # k variables of exponent e add k/e, one term per distinct e, over the
    # common denominator, reduced by one gcd
    counts: dict[int, int] = {}
    blocks = 0
    for exponents, starts in cf.shapes:
        for e in exponents:
            counts[e] = counts.get(e, 0) + len(starts)
        # each mixed block counts, and a pure block once for all its powers
        blocks += len(starts) if len(exponents) > 1 else 1
    denominator = lcm(*counts)
    numerator = sum(k * (denominator // e) for e, k in counts.items())
    g = gcd(numerator, denominator)
    numerator, denominator = numerator // g, denominator // g
    m_count = cf.monomial_count
    alt = (1, blocks - 2) if blocks > 2 else None

    if m_count <= 2:
        threshold = None
        verdict = INAPPLICABLE
        equality = False
    else:
        threshold = (1, m_count - 2)
        # a/b <= 1/c exactly when a*c <= b, for positive b and c
        scaled = numerator * (m_count - 2)
        verdict = CERTIFIED_RIGID if scaled <= denominator else INCONCLUSIVE
        equality = scaled == denominator

    note = _note(m_count, blocks, equality)
    return RigidityCertificate(
        reciprocal_sum=(numerator, denominator),
        threshold=threshold,
        verdict=verdict,
        equality=equality,
        block_count_threshold=alt,
        note=note,
    )


def _note(m_count: int, blocks: int, equality: bool) -> str:
    parts = [
        f"threshold denominator counts monomials (M - 2 = {m_count - 2});"
        " counting blocks instead (mixed blocks + distinct pure exponents"
        f" = {blocks}) gives "
        + (f"1/{blocks - 2} = " + ("1" if blocks == 3 else f"1/{blocks - 2}")
           if blocks > 2 else
           f"no applicable threshold (denominator {blocks - 2})")
    ]
    parts.append("certification uses the non-strict bound <=")
    if equality:
        parts.append("the bound is attained with equality here")
    return "; ".join(parts)
