"""Assembly of the full automorphism group description P(F) x| H.

For a rigid hypersurface with separated variables every automorphism is a
monomial map: a variable permutation composed with a diagonal scaling.  The
group is then the semidirect product of the permutation group of the
polynomial acting on the diagonal quasitorus by permuting coordinates.  The
product P(F) x| H is a subgroup of the automorphism group in any case; only
its maximality needs rigidity, so when the rigidity certificate is not
conclusive the description is still emitted but flagged `conditional`.

`aut_group` is the one analysis: it runs each stage once, and its result
holds everything the report prints and the oracles check.

`verify_generator` is the arithmetic oracle: it certifies F o g = c * F for
a candidate monomial map by pure integer congruences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .permgroup import (
    PermGroupDescription,
    cycle_notation,
    permutation_group,
    permute_vector,
)
from .polyio import CanonicalForm, make_canonical_form
from .quasitorus import QuasitorusDescription, quasitorus_structure
from .rigidity import CERTIFIED_RIGID, RigidityCertificate, rigidity_certificate
from .torusgeom import ConeDescription, TorusGenerators, torus_generators, weight_cone

__all__ = [
    "IRREDUCIBLE",
    "UNDETERMINED",
    "NotAnAutomorphismError",
    "MonomialMap",
    "AutGroupDescription",
    "aut_group",
    "fermat_form",
    "fermat_aut",
    "irreducibility_verdict",
    "verify_generator",
    "certify_pipeline_generators",
    "structure_string",
]

IRREDUCIBLE = "irreducible"
UNDETERMINED = "undetermined"


class NotAnAutomorphismError(ValueError):
    """The candidate monomial map does not preserve the polynomial."""


@dataclass(frozen=True)
class MonomialMap:
    """Permutation-then-scaling map x_v -> zeta^(e_[perm(v)]) x_[perm(v)].

    `order` is the order N of the root of unity zeta; `exponents` lives in
    (Z/N)^n.  Pure permutations use N = 1.
    """

    perm: tuple[int, ...]
    order: int
    exponents: tuple[int, ...]

    @classmethod
    def from_permutation(cls, perm) -> MonomialMap:
        perm = tuple(perm)
        return cls(perm, 1, (0,) * len(perm))

    @classmethod
    def from_diagonal(cls, order: int, exponents) -> MonomialMap:
        exponents = tuple(exponents)
        return cls(tuple(range(len(exponents))), order, exponents)


@dataclass(frozen=True)
class AutGroupDescription:
    perm: PermGroupDescription
    quasitorus: QuasitorusDescription
    action: tuple[tuple[int, ...], ...]
    structure_string: str
    conditional: bool
    irreducible: str
    rigidity: RigidityCertificate
    torus_generators: TorusGenerators
    cone: ConeDescription


def structure_string(perm_structure: str, torsion, torus_rank: int) -> str:
    """Fixed grammar: '<perm> x| ((Z/d)^e x ... x T^rank)' with real symbols."""
    parts = [
        f"(Z/{d})^{len(list(grp))}" for d, grp in groupby(torsion)
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
    gens = torus_generators(cf)
    return AutGroupDescription(
        perm=perm,
        quasitorus=quasi,
        # conjugating a diagonal map by a permutation permutes the diagonal
        # coordinates the same way the permutation moves the variables
        action=perm.generators,
        structure_string=structure_string(perm.structure, quasi.torsion, quasi.torus_rank),
        conditional=cert.verdict != CERTIFIED_RIGID,
        irreducible=irreducibility_verdict(cf),
        rigidity=cert,
        torus_generators=gens,
        cone=weight_cone(quasi, gens.homogeneity),
    )


def fermat_form(n: int, alpha: int) -> CanonicalForm:
    """Canonical form of Y1^alpha + ... + Yn^alpha, built without parsing."""
    if n < 2:
        raise ValueError("need at least two variables")
    if alpha < 2:
        raise ValueError("need exponent at least 2")
    names = sorted(f"Y{i}" for i in range(1, n + 1))
    return make_canonical_form([], [(alpha, names)])


def fermat_aut(n: int, alpha: int) -> AutGroupDescription:
    """Aut description of the Fermat hypersurface: S_n x| ((Z/alpha)^(n-1) x T^1)."""
    return aut_group(fermat_form(n, alpha))


def verify_generator(cf: CanonicalForm, g: MonomialMap) -> int:
    """Certify F o g = c * F by congruence arithmetic; returns c's exponent.

    The permutation must map every monomial exponent vector onto one from
    the polynomial, and the diagonal part must give every monomial the same
    scalar sum(chi_v * e_[perm(v)]) mod N.  Raises `NotAnAutomorphismError`
    with the first violation otherwise.
    """
    n = cf.variable_count
    if sorted(g.perm) != list(range(n)):
        raise ValueError(f"not a permutation of {n} variables: {g.perm}")
    if g.order < 1:
        raise ValueError("root-of-unity order must be >= 1")
    if len(g.exponents) != n:
        raise ValueError("diagonal exponent vector has wrong length")

    # sparse monomials: O(n) per generator, where dense vectors cost O(M n)
    supports = cf.monomial_supports
    monomials = {frozenset(support) for support in supports}
    residue = None
    for i, support in enumerate(supports):
        if frozenset((g.perm[v], e) for v, e in support) not in monomials:
            image = permute_vector(g.perm, cf.monomial_vectors[i])
            raise NotAnAutomorphismError(
                f"monomial {i} maps to exponent vector {image}, which is not a "
                "monomial of the polynomial "
                f"(permutation {cycle_notation(g.perm, cf.var_order)})"
            )
        r = sum(e * g.exponents[g.perm[v]] for v, e in support) % g.order
        if residue is None:
            residue = r
        elif r != residue:
            raise NotAnAutomorphismError(
                f"monomial {i} scales by zeta^{r} but an earlier monomial by "
                f"zeta^{residue} (mod {g.order})"
            )
    return residue


def certify_pipeline_generators(cf: CanonicalForm, aut: AutGroupDescription):
    """Certify every generator the description `aut` of `cf` emits.

    Runs `verify_generator` on the permutation generators, the torsion
    generators of the quasitorus, and the cocharacter basis vectors reduced
    mod 2, 3 and 5.  Returns (label, scalar exponent) pairs; raises on the first failure.
    """
    results = []
    names = cf.var_order
    for g in aut.perm.generators:
        label = f"perm {cycle_notation(g, names)}"
        results.append((label, verify_generator(cf, MonomialMap.from_permutation(g))))
    quasi = aut.quasitorus
    for tg in quasi.torsion_generators:
        label = f"torsion order {tg.order}"
        results.append(
            (label, verify_generator(cf, MonomialMap.from_diagonal(tg.order, tg.exponents)))
        )
    for bi, vec in enumerate(quasi.cocharacter_basis):
        for modulus in (2, 3, 5):
            label = f"cocharacter {bi} mod {modulus}"
            reduced = tuple(x % modulus for x in vec)
            results.append(
                (label, verify_generator(cf, MonomialMap.from_diagonal(modulus, reduced)))
            )
    return results
