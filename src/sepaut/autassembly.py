"""Assembly of the full automorphism group description P(F) x| H.

For a rigid hypersurface with separated variables every automorphism is a
monomial map: a variable permutation composed with a diagonal scaling.  The
group is then the semidirect product of the permutation group of the
polynomial acting on the diagonal quasitorus by permuting coordinates.  The
product P(F) x| H is a subgroup of the automorphism group in any case; only
its maximality needs rigidity, so when the rigidity certificate is not
conclusive the description is still emitted but flagged `conditional`.

`aut_group` is the one analysis: it runs each stage once, and its result
holds everything the report prints and the oracles check: the permutation
group, the quasitorus, the rigidity certificate and the witness that the
weight cone is pointed.  Besides them it holds three values the report
prints and that could be read off the form or another field: the
structure string (the permutation structure, the torsion and the torus
rank), `conditional` (the certificate's verdict) and `irreducible` (the
monomial count).  It holds no vector that can be read off another field:
not the weights (the transpose of the cocharacter basis), the pair
cocharacters, nor the homogeneity cocharacter (a function of the block
degrees), which it builds only to solve the witness from and checks
exactly on every analysis (`torusgeom.pointedness_witness`).  The
arithmetic certificate of every generator it emits, F o g = c * F by
integer congruences, is `oracles.certify_pipeline_generators`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby

from .permgroup import permutation_group
from .polyio import CanonicalForm, decimal, make_canonical_form
from .quasitorus import quasitorus_structure
from .rigidity import CERTIFIED_RIGID, rigidity_certificate
from .torusgeom import homogeneity_cocharacter, pointedness_witness

__all__ = [
    "IRREDUCIBLE",
    "UNDETERMINED",
    "AutGroupDescription",
    "aut_group",
    "fermat_form",
    "irreducibility_verdict",
    "structure_string",
]

IRREDUCIBLE = "irreducible"
UNDETERMINED = "undetermined"


AutGroupDescription = namedtuple(
    "AutGroupDescription",
    "perm quasitorus structure_string conditional irreducible rigidity witness",
)


def structure_string(perm_structure: str, torsion, torus_rank: int) -> str:
    """Fixed grammar: '<perm> x| ((Z/d)^e x ... x T^rank)' with real symbols."""
    parts = [
        f"(Z/{decimal(d)})^{len(list(grp))}" for d, grp in groupby(torsion)
    ]
    parts.append(f"T^{torus_rank}")
    return f"{perm_structure} ⋉ (" + " × ".join(parts) + ")"


def irreducibility_verdict(cf: CanonicalForm) -> str:
    """Irreducible with three or more monomials; undetermined below that.

    With M >= 3 a factorization F = G * H would force some variable into two
    monomials of the product, contradicting separatedness; with M <= 2 the
    question is genuinely open at this level (x^2 + y^2 does factor).
    """
    return IRREDUCIBLE if cf.monomial_count >= 3 else UNDETERMINED


def aut_group(cf: CanonicalForm) -> AutGroupDescription:
    """Run each stage once; a single monomial raises `SingleMonomialError`."""
    quasi = quasitorus_structure(cf)
    perm = permutation_group(cf)
    cert = rigidity_certificate(cf)
    return AutGroupDescription(
        perm=perm,
        quasitorus=quasi,
        structure_string=structure_string(perm.structure, quasi.torsion, quasi.torus_rank),
        conditional=cert.verdict != CERTIFIED_RIGID,
        irreducible=irreducibility_verdict(cf),
        rigidity=cert,
        witness=pointedness_witness(quasi, homogeneity_cocharacter(cf)),
    )


def fermat_form(n: int, alpha: int) -> CanonicalForm:
    """Canonical form of Y1^alpha + ... + Yn^alpha, built without parsing."""
    if n < 2:
        raise ValueError("need at least two variables")
    if alpha < 2:
        raise ValueError("need exponent at least 2")
    names = sorted(f"Y{i}" for i in range(1, n + 1))
    return make_canonical_form([], [(alpha, names)])

