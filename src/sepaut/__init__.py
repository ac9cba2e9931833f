"""Automorphism groups of hypersurfaces with separated variables.

Given a polynomial in which every variable occurs in exactly one monomial,
this package computes a certified structural description of the
automorphism group of the hypersurface it cuts out: the semidirect product
of the permutation group of the polynomial with the diagonal quasitorus,
together with a rigidity certificate, explicit torus generators and the
weight cone of the coordinates.  This namespace holds the analysis; the
brute-force verification oracles are in `sepaut.oracles` and the exact
integer linear algebra (Smith normal form) in `sepaut.intlat`, which
neither the analysis nor the oracles import.
"""

from .autassembly import (
    AutGroupDescription,
    aut_group,
    fermat_aut,
    fermat_form,
    irreducibility_verdict,
    structure_string,
)
from .permgroup import PermGroupDescription, cycle_notation, permutation_group
from .polyio import (
    CanonicalForm,
    ConstantTermError,
    MixedBlock,
    NotSeparatedError,
    ParseError,
    Polynomial,
    PolynomialError,
    PureBlock,
    ZeroPolynomialError,
    make_canonical_form,
    parse_polynomial,
    parse_separated,
    recognize_separated,
)
from .quasitorus import (
    QuasitorusDescription,
    SingleMonomialError,
    TorsionGenerator,
    quasitorus_structure,
)
from .rigidity import RigidityCertificate, rigidity_certificate
from .torusgeom import ConeDescription, TorusGenerators, torus_generators, weight_cone

__version__ = "0.1.0"
