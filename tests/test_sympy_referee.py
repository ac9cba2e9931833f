"""An outside referee: sympy checks the permutation group and the torsion.

Every other referee in the suite is written in this repository.  Here, for
seeded random forms and every form the golden corpus replays, sympy's
`PermutationGroup` of the emitted cycles has the claimed order, and the
invariant factors over ZZ of the difference matrix D other than 1 are the
claimed torsion.  sympy is a test dependency only: the package itself
loads the standard library alone (`test_cli_imports_only_the_standard_library`).
"""

import random

import sympy.core.random
from sympy import ZZ, Matrix
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.matrices.normalforms import invariant_factors

from conftest import character_matrix, random_canonical_form
from golden_replay import WIDE, cases
from sepaut.autassembly import aut_group, fermat_form
from sepaut.polyio import parse_separated


def _group_order(cycles_list, n: int) -> int:
    gens = [Permutation([list(c) for c in g], size=n) for g in cycles_list]
    group = PermutationGroup(gens or [Permutation(n - 1)])
    # exact either way: a random element whose cycle type proves the group
    # symmetric (Jordan) spares sympy the Schreier-Sims of S_100 to S_200,
    # which takes minutes; the seed keeps the run the same every time
    sympy.core.random.seed(0)
    group.is_symmetric
    return group.order()


def _referee(cf, label):
    aut = aut_group(cf)
    assert _group_order(aut.perm.generators, cf.variable_count) == aut.perm.order, label
    factors = invariant_factors(Matrix(character_matrix(cf)), domain=ZZ)
    assert tuple(int(d) for d in factors if d != 1) == aut.quasitorus.torsion, label


def test_sympy_agrees_on_random_forms():
    rng = random.Random(47)
    for _ in range(200):
        cf = random_canonical_form(rng, max_vars=10, max_exp=12)
        _referee(cf, cf.to_text())


def test_sympy_agrees_on_every_golden_form():
    forms = {}
    for argv in [*cases().values(), *WIDE.values()]:
        if argv[0] == "fermat":
            cf = fermat_form(int(argv[1]), int(argv[2]))
        else:
            cf = parse_separated(argv[1])
        forms[cf] = argv
    assert len(forms) > 50
    for cf, argv in forms.items():
        _referee(cf, argv)
