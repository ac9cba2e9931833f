"""Automorphism groups of hypersurfaces with separated variables.

Given a polynomial in which every variable occurs in exactly one monomial,
this package computes a certified structural description of the
automorphism group of the hypersurface it cuts out: the semidirect product
of the permutation group of the polynomial with the diagonal quasitorus,
together with a rigidity certificate and a witness that the weight cone of
the coordinates is pointed.  The witness is checked against the
homogeneity cocharacter, which `homogeneity_cocharacter` derives from the
block degrees and the description does not hold.  This namespace holds
the analysis; the brute-force verification oracles are in
`sepaut.oracles`.  The exact integer linear algebra (Smith normal form) in
`sepaut.intlat` is the tests' referee: no module of the package imports
it.
"""

from .autassembly import (
    AutGroupDescription,
    aut_group,
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
    PolynomialError,
    PureBlock,
    ZeroPolynomialError,
    make_canonical_form,
    parse_separated,
)
from .quasitorus import (
    QuasitorusDescription,
    SingleMonomialError,
    TorsionGenerator,
    quasitorus_structure,
)
from .rigidity import RigidityCertificate, rigidity_certificate
from .torusgeom import homogeneity_cocharacter, pointedness_witness

__version__ = "0.1.0"
