"""Automorphism groups of hypersurfaces with separated variables.

Given a polynomial in which every variable occurs in exactly one monomial,
this package computes a certified structural description of the
automorphism group of the hypersurface it cuts out: the semidirect product
of the permutation group of the polynomial with the diagonal quasitorus,
together with a rigidity certificate, explicit torus generators, the weight
cone of the coordinates, and brute-force verification oracles.
"""

from .autassembly import (
    AutGroupDescription,
    MonomialMap,
    NotAnAutomorphismError,
    aut_group,
    certify_pipeline_generators,
    fermat_aut,
    fermat_form,
    irreducibility_verdict,
    structure_string,
    verify_generator,
)
from .intlat import (
    IntMatrix,
    SNFResult,
    gcd_of_minors,
    kernel_basis,
    parse_matrix_text,
    smith_normal_form,
)
from .permgroup import (
    PermGroupDescription,
    TooManyVariablesError,
    brute_force_perm_order,
    cycle_notation,
    permutation_group,
    permute_vector,
)
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
    EnumerationTooLargeError,
    QuasitorusDescription,
    SingleMonomialError,
    TorsionGenerator,
    character_matrix,
    count_torsion_points_mod,
    quasitorus_structure,
    torsion_count_formula,
)
from .rigidity import RigidityCertificate, rigidity_certificate
from .torusgeom import (
    ConeDescription,
    TorusGenerators,
    express_in_basis,
    torus_generators,
    weight_cone,
)

__version__ = "0.1.0"
