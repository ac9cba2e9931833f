"""The oracles stay independent of the code whose claims they check, and
their sparse generator checks agree with the dense referee."""

import ast
import importlib
import random
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import sepaut.oracles
from conftest import (
    cycles_of,
    perm_order_by_scan,
    permutation,
    random_canonical_form,
    verify_dense,
)
from sepaut.autassembly import aut_group
from sepaut.cli import build_report
from sepaut.oracles import (
    NotAnAutomorphismError,
    brute_force_perm_order,
    certify_pipeline_generators,
    count_torsion_points_mod,
    torsion_count_formula,
    verify_diagonal,
    verify_permutation,
)
from sepaut.permgroup import permutation_group
from sepaut.polyio import dense, make_canonical_form, parse_separated
from sepaut.quasitorus import quasitorus_structure

# the modules whose claims the oracles check
CHECKED = {"quasitorus", "permgroup", "torusgeom", "rigidity", "autassembly"}
ALLOWED = {("permgroup", "cycle_notation")}


def test_oracles_import_only_exceptions_from_the_checked_modules():
    tree = ast.parse(Path(sepaut.oracles.__file__).read_text())
    imported = []  # (module, name), name None for the whole module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "sepaut"):
            pairs = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            pairs = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        imported += [
            (module.split(".")[-1], name)
            for module, name in pairs
            if module.split(".")[-1] in CHECKED
        ]
    assert ("quasitorus", "SingleMonomialError") in imported
    for module, name in imported:
        assert name is not None, f"the oracles import all of {module}"
        obj = getattr(importlib.import_module(f"sepaut.{module}"), name)
        is_exception = isinstance(obj, type) and issubclass(obj, BaseException)
        assert is_exception or (module, name) in ALLOWED, f"{module}.{name}"


def _outcome(check, *args):
    """('ok', result) or ('fail', message) of one generator check."""
    try:
        return "ok", check(*args)
    except NotAnAutomorphismError as exc:
        return "fail", str(exc)


def _random_sparse(rng, n, order):
    indices = sorted(rng.sample(range(n), rng.randint(0, n)))
    values = (rng.choice([-1, 1]) * rng.randint(1, 2 * order) for _ in indices)
    return tuple((i, x) for i, x in zip(indices, values))


def _wide_form(rng, monomials=60):
    """A separated form with `monomials` monomials of one or two variables,
    so that the monomials a map touches are far apart in canonical order."""
    mixed, pure = [], []
    for k in range(monomials):
        if rng.random() < 0.3:
            mixed.append(([f"m{k}a", f"m{k}b"], [rng.randint(1, 3), rng.randint(1, 3)]))
        else:
            pure.append((rng.randint(1, 3), [f"p{k}"]))
    return make_canonical_form(mixed, pure)


def test_sparse_checks_agree_with_the_dense_referee():
    """verify_permutation and verify_diagonal give the referee's result and
    message on random small and wide forms, for the pipeline's own
    generators, random transpositions and permutations, those generators
    composed with a transposition, random sparse diagonal maps and pipeline
    vectors with one entry changed."""
    rng = random.Random(31)
    outcomes = Counter()
    forms = [random_canonical_form(rng, max_vars=8, max_exp=e) for e in (6, 3) * 150]
    forms += [_wide_form(rng) for _ in range(20)]
    for cf in forms:
        n = cf.variable_count
        identity = list(range(n))
        aut = aut_group(cf)
        perms = [permutation(g, n) for g in aut.perm.generators]
        for _ in range(4):
            a, b = rng.sample(range(n), 2)
            swap = list(identity)
            swap[a], swap[b] = b, a
            shuffled = rng.sample(identity, n)
            perms += [swap, shuffled]
            if aut.perm.generators:
                g = rng.choice(perms[: len(aut.perm.generators)])
                perms.append([g[swap[v]] for v in range(n)])
        for perm in perms:
            expected = _outcome(verify_dense, cf, perm, 1, [0] * n)
            assert _outcome(verify_permutation, cf, cycles_of(perm)) == expected
            outcomes["perm", expected[0]] += 1
        quasi = aut.quasitorus
        maps = [(t.order, t.exponents) for t in quasi.torsion_generators]
        maps += [(m, v) for v in quasi.cocharacter_basis for m in (2, 3, 5)]
        for order, vec in list(maps):
            if vec:
                at = rng.randrange(len(vec))
                changed = ((vec[at][0], vec[at][1] + 1),)
                maps.append((order, vec[:at] + changed + vec[at + 1 :]))
        for _ in range(6):
            order = rng.randint(1, 12)
            maps.append((order, _random_sparse(rng, n, order)))
        for order, vec in maps:
            expected = _outcome(verify_dense, cf, identity, order, dense(vec, n))
            assert _outcome(verify_diagonal, cf, order, vec) == expected
            outcomes["diagonal", expected[0]] += 1
    # both checks both pass and fail often enough to compare messages
    assert min(outcomes.values()) >= 300, outcomes


def test_certification_reads_linearly_many_supports(monkeypatch):
    """On 1000 blocks a_i^2*b_i^2 (n = 2000, M = 1000) the 5004 generators
    hold 14003 entries.  Checking each on all M monomials would read the
    supports 5004 * 1000 times; the sparse checks read the support index at
    most 5 times per entry they are given."""
    reads = [0]

    class Counting:
        def __init__(self, items):
            self.items = items

        def __getitem__(self, key):
            reads[0] += 1
            return self.items[key]

        def __contains__(self, key):
            return key in self.items

        def __len__(self):
            return len(self.items)

    build = sepaut.oracles._support_index

    def counted(cf):
        names, supports, owner = build(cf)
        return names, Counting(supports), Counting(owner)

    monkeypatch.setattr(sepaut.oracles, "_support_index", counted)
    cf = parse_separated(" + ".join(f"a{i}^2*b{i}^2" for i in range(1000)))
    aut = aut_group(cf)
    quasi = aut.quasitorus
    entries = sum(len(cycle) for g in aut.perm.generators for cycle in g)
    entries += sum(len(t.exponents) for t in quasi.torsion_generators)
    entries += 3 * sum(map(len, quasi.cocharacter_basis))
    assert len(certify_pipeline_generators(cf, aut)) == 5004
    assert entries == 14003
    assert 0 < reads[0] <= 5 * entries


def _small_forms(max_vars=4, max_exp=6):
    """Every canonical form of at least two monomials on at most `max_vars`
    variables with exponents at most `max_exp`, each once: a multiset of
    monomials, each monomial a multiset of exponents."""
    shapes = [
        shape
        for width in range(1, max_vars + 1)
        for shape in combinations_with_replacement(range(max_exp, 0, -1), width)
    ]

    def grow(start, used, chosen):
        if len(chosen) >= 2:
            yield chosen
        for k in range(start, len(shapes)):
            if used + len(shapes[k]) <= max_vars:
                yield from grow(k, used + len(shapes[k]), chosen + [shapes[k]])

    for chosen in grow(0, 0, []):
        names = iter(f"v{k}" for k in range(max_vars))
        mixed = [([next(names) for _ in s], list(s)) for s in chosen if len(s) > 1]
        pure = [(s[0], [next(names)]) for s in chosen if len(s) == 1]
        yield make_canonical_form(mixed, pure)


def _check_every_oracle(forms) -> None:
    """Every check of the report passes, the permutations keeping each
    exponent count as many automorphisms as all n! permutations, and the
    torsion count equals the divisor formula at every N <= 12."""
    for cf in forms:
        report = build_report(cf.to_text(), cf, verify=True)
        checks = report["verification"]["checks"]
        assert [c["status"] for c in checks] == ["pass"] * len(checks), checks
        order = permutation_group(cf).order
        assert brute_force_perm_order(cf) == perm_order_by_scan(cf) == order
        quasi = quasitorus_structure(cf)
        for modulus in range(1, 13):
            assert count_torsion_points_mod(cf, modulus) == torsion_count_formula(
                quasi, modulus
            )


def test_every_small_form_passes_every_oracle():
    """Small scope: every form with n <= 4 and exponents <= 6, where the
    brute-force oracles are complete, passes every oracle."""
    forms = list(_small_forms())
    assert len(forms) == len(set(forms)) == 1337
    _check_every_oracle(forms)


@pytest.mark.slow
def test_every_form_of_five_variables_passes_every_oracle():
    """The same on the forms with n = 5 and exponents <= 6: with the test
    above, all 7259 forms with n <= 5."""
    forms = [cf for cf in _small_forms(max_vars=5) if cf.variable_count == 5]
    assert len(forms) == len(set(forms)) == 7259 - 1337
    _check_every_oracle(forms)
