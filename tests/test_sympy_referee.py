"""An outside referee: sympy checks the permutation group, the torsion and
that the torsion generators generate it.

Every other referee in the suite is written in this repository.  Here, for
seeded random forms and every form the golden corpus replays, sympy's
`PermutationGroup` of the emitted cycles has the claimed order, and the
invariant factors over ZZ of the difference matrix D other than 1 are the
claimed torsion.  On the random forms and the golden forms of at most 64
variables, the emitted torsion generators also generate all of H/H°, read
off sympy's Smith decomposition of D.  sympy is a test dependency only:
the package itself loads the standard library alone
(`test_cli_imports_only_the_standard_library`).
"""

import math
import random

import sympy.core.random
from sympy import ZZ, Matrix
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp

from conftest import character_matrix, random_canonical_form
from golden_replay import WIDE, cases
from sepaut.autassembly import aut_group, fermat_form
from sepaut.polyio import dense, parse_separated
from sepaut.quasitorus import TorsionGenerator


def _group_order(cycles_list, n: int) -> int:
    gens = [Permutation([list(c) for c in g], size=n) for g in cycles_list]
    group = PermutationGroup(gens or [Permutation(n - 1)])
    # exact either way: a random element whose cycle type proves the group
    # symmetric (Jordan) spares sympy the Schreier-Sims of S_100 to S_200,
    # which takes minutes; the seed keeps the run the same every time
    sympy.core.random.seed(0)
    group.is_symmetric
    return group.order()


def _generated_order(cf, generators) -> tuple[int, int]:
    """The order of the subgroup of H/H° that the torsion `generators`
    generate, and the order of H/H°.

    With U D V = S, the coordinates f = V^-1 e of a point e/d of H satisfy
    s_k f_k / d in Z, so H/H° is the sum of Z/s_k over the s_k > 1 and the
    generator (d, e) maps to the (f_k s_k / d mod s_k).  The images stacked
    on diag(s_k) span a lattice of index (the product of its invariant
    factors) in Z^r; the subgroup's order is the product of the s_k over
    that index."""
    S, U, V = smith_normal_decomp(Matrix(character_matrix(cf)), domain=ZZ)
    moduli = [(k, int(S[k, k])) for k in range(min(S.shape)) if S[k, k] > 1]
    total = math.prod(s for _, s in moduli)
    if not moduli:
        return 1, total
    V_inv = V.inv()
    rows = []
    for d, exponents in generators:
        f = V_inv * Matrix(dense(exponents, cf.variable_count))
        assert all(f[k] * s % d == 0 for k, s in moduli), "a generator off H"
        rows.append([f[k] * s // d % s for k, s in moduli])
    rows += [[s if j == k else 0 for j, _ in moduli] for k, s in moduli]
    index = math.prod(int(x) for x in invariant_factors(Matrix(rows), domain=ZZ))
    return total // index, total


def _referee(cf, label, generation=True):
    aut = aut_group(cf)
    assert _group_order(aut.perm.generators, cf.variable_count) == aut.perm.order, label
    factors = invariant_factors(Matrix(character_matrix(cf)), domain=ZZ)
    assert tuple(int(d) for d in factors if d != 1) == aut.quasitorus.torsion, label
    if generation:
        generated, total = _generated_order(cf, aut.quasitorus.torsion_generators)
        assert generated == total, label


def test_sympy_agrees_on_random_forms():
    rng = random.Random(47)
    for _ in range(200):
        cf = random_canonical_form(rng, max_vars=10, max_exp=12)
        _referee(cf, cf.to_text())


def test_sympy_refutes_torsion_generators_that_do_not_generate():
    # the forgery `--verify` does not refute yet (the strict xfail of
    # test_oracles): (1, 1, 1) mod 4 is in H°, so it generates 1 of the 16
    cf = parse_separated("x^4 + y^4 + z^4")
    assert _generated_order(cf, aut_group(cf).quasitorus.torsion_generators) == (16, 16)
    forged = TorsionGenerator(4, ((0, 1), (1, 1), (2, 1)))
    assert _generated_order(cf, (forged, forged)) == (1, 16)
    cf = parse_separated("x^6 + y^6 + z^4 + w^2*v^3")
    assert _generated_order(cf, aut_group(cf).quasitorus.torsion_generators) == (12, 12)


def test_sympy_agrees_on_every_golden_form():
    forms = {}
    for argv in [*cases().values(), *WIDE.values()]:
        if argv[0] == "fermat":
            cf = fermat_form(int(argv[1]), int(argv[2]))
        else:
            cf = parse_separated(argv[1])
        forms[cf] = argv
    assert len(forms) > 50
    # sympy's Smith decomposition of a wide form takes seconds (tens of
    # seconds for pure-200)
    for cf, argv in forms.items():
        _referee(cf, argv, generation=cf.variable_count <= 64)
