"""The oracles stay independent of the code whose claims they check, and
their sparse generator checks agree with the dense referee."""

import ast
import importlib
import random
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepaut.oracles
from conftest import (
    cycles_of,
    perm_order_by_scan,
    permutation,
    random_canonical_form,
    verify_dense,
)
from sepaut.autassembly import aut_group, fermat_form
from sepaut.cli import build_report, run_verification
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
from sepaut.polyio import CanonicalForm, dense, make_canonical_form, parse_separated
from sepaut.quasitorus import TorsionGenerator, quasitorus_structure

# the modules whose claims the oracles check
CHECKED = {"quasitorus", "permgroup", "torusgeom", "rigidity", "autassembly"}
ALLOWED = {("permgroup", "cycle_notation")}


def test_oracles_do_not_read_the_shapes(monkeypatch, flagship):
    """The analysis reads `CanonicalForm.shapes`; the oracles check it
    through `monomial_supports`, their own walk over the blocks."""
    aut = aut_group(flagship)

    def refuse(cf):
        raise AssertionError("an oracle read CanonicalForm.shapes")

    monkeypatch.setattr(CanonicalForm, "shapes", property(refuse))
    assert certify_pipeline_generators(flagship, aut)
    assert brute_force_perm_order(flagship) == 6
    assert count_torsion_points_mod(flagship, 10) == torsion_count_formula(aut.quasitorus, 10)


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
    """On 1000 blocks a_i^2*b_i^2 (n = 2000, M = 1000) the 3002 generators
    hold 8003 entries.  Checking each on all M monomials would read the
    supports 3002 * 1000 times; the sparse checks read the support index at
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
    entries += sum(map(len, quasi.cocharacter_basis))
    assert certify_pipeline_generators(cf, aut) == 3002
    assert entries == 8003
    assert 0 < reads[0] <= 5 * entries


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_brute_force_counts_what_the_scan_counts(seed):
    """Up to 7 variables with exponents at most 3, so that one-variable and
    mixed monomials share exponents and a candidate can fail either way."""
    cf = random_canonical_form(random.Random(seed), max_vars=7, max_exp=3)
    assert brute_force_perm_order(cf) == perm_order_by_scan(cf)


@pytest.mark.parametrize(
    "text,order",
    [
        # x^2*y^3 + z^2 + w^3 (order 1) is in test_permgroup
        # a <-> c, b <-> d sends a^2*b^2 across two one-variable monomials
        ("a^2*b^2 + c^2 + d^2", 4),
        # a <-> c alone splits both blocks; e^5 is a class of its own
        ("a^2*b^3 + c^2*d^3 + e^5", 2),
        # the 3! orderings of the blocks times 2 within each block
        ("a^2*b^2 + c^2*d^2 + e^2*f^2", 48),
        # x, y -> a, b puts x^2*y^2 inside a monomial of three variables
        ("x^2*y^2 + a^2*b^2*c^2", 12),
        # one class of squares feeds the one-variable stage and two block
        # stages, so a candidate can keep e^2 + f^2 and split a block
        ("a^2*b^2 + c^2*d^2 + e^2 + f^2", 16),
        # block stages of sizes 3 and 2 after the one-variable stage
        ("a^2*b^2*c^2 + d^2*e^2 + f^2", 12),
    ],
)
def test_brute_force_fails_candidates_on_owner_or_size(text, order):
    cf = parse_separated(text)
    assert brute_force_perm_order(cf) == perm_order_by_scan(cf) == order


@pytest.mark.parametrize(
    "cf,tried",
    [
        (fermat_form(8, 2), factorial(8)),
        # 11 variables: classes of 6 squares, 3 linear and 2 fifth powers
        (parse_separated("a^2*b^2*c + d^2*e^2*f + g^2*h^2*i + j^5 + k^5"), 8640),
    ],
)
def test_brute_force_tries_every_exponent_keeping_permutation(monkeypatch, cf, tried):
    """The oracle stays a brute force: it tries the product of k! over its
    exponent classes of k variables, no candidate pruned."""
    arrangements = sepaut.oracles._arrangements
    calls, candidates = [], []

    def counted(classes, prefix):
        # the recursion calls back through the module name, so only the
        # first, outermost call yields what the oracle receives
        outermost = not calls
        calls.append(classes)
        for candidate in arrangements(classes, prefix):
            if outermost:
                candidates.append(candidate)
            yield candidate

    monkeypatch.setattr(sepaut.oracles, "_arrangements", counted)
    brute_force_perm_order(cf)
    assert len(candidates) == len(set(candidates)) == tried


@pytest.mark.parametrize(
    "cf,order",
    [
        (fermat_form(8, 2), factorial(8)),
        # four block stages, each reading a branch of the candidates
        (parse_separated("a^2*b^2 + c^2*d^2 + e^2*f^2 + g^2*h^2"), 384),
    ],
)
def test_brute_force_holds_one_candidate_at_a_time(cf, order):
    """The 8! candidates pass through the stages one at a time: the
    tracemalloc peak stays under 64 KiB, where holding them all would take
    about 4.5 MB.  The peaks were 2.7 kB and 8.0 kB when this bound was set."""
    tracemalloc.start()
    try:
        assert brute_force_perm_order(cf) == order
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


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


def _checks(cf, **quasitorus) -> dict[str, dict]:
    """The checks of `run_verification`, by oracle, on the analysis of `cf`
    with the quasitorus fields `quasitorus` replaced."""
    aut = aut_group(cf)
    aut = aut._replace(quasitorus=aut.quasitorus._replace(**quasitorus))
    return {c["oracle"]: c for c in run_verification(cf, aut)}


def _fails_verification(cf, **quasitorus) -> bool:
    return any(c["status"] == "fail" for c in _checks(cf, **quasitorus).values())


def _shift(vector, v, by):
    """The sparse `vector` with `by` added at index v."""
    entries = dict(vector)
    entries[v] = entries.get(v, 0) + by
    return tuple(sorted((w, x) for w, x in entries.items() if x))


def test_generators_check_refutes_an_off_kernel_cocharacter(flagship):
    # 30*e_2 moves Y1^10's pairing from 10 to 310, the others stay at 10:
    # equal mod 2, 3 and 5, not over Z
    assert _checks(flagship)["generators"]["detail"] == "6 generators certified"
    basis = aut_group(flagship).quasitorus.cocharacter_basis
    forged = (_shift(basis[0], 2, 30), basis[1])
    check = _checks(flagship, cocharacter_basis=forged)["generators"]
    assert check["status"] == "fail"
    assert check["detail"] == (
        "monomial 1 scales by t^310 but an earlier monomial by t^10 "
        "(over Z, cocharacter 0)"
    )


def test_generators_check_refutes_torsion_generators_of_a_lower_order(flagship):
    # both Z/10 generators doubled: still in H, but of order 5
    doubled = tuple(
        TorsionGenerator(tg.order, tuple((v, 2 * x) for v, x in tg.exponents))
        for tg in aut_group(flagship).quasitorus.torsion_generators
    )
    check = _checks(flagship, torsion_generators=doubled)["generators"]
    assert check["status"] == "fail"
    assert check["detail"] == "torsion generator 0 has order 5, not its claimed 10"


def _smallest_prime_factor(d: int) -> int:
    return next(p for p in range(2, d + 1) if d % p == 0)


def test_certification_refutes_forged_generators_of_random_forms():
    """On 200 random forms the analysis's own generators certify, and two
    forgeries that pass mod 2, 3 and 5 and mod d are refused: a cocharacter
    plus 30*e_v, whose monomial's pairing moves by 30 times v's exponent,
    and a torsion generator of order d with its exponents times a prime
    p | d, reduced mod d, which lies in H but has order at most d / p."""
    rng = random.Random(30)
    refused = Counter()
    for _ in range(200):
        cf = random_canonical_form(rng)
        aut = aut_group(cf)
        quasi = aut.quasitorus
        generators = len(aut.perm.generators) + len(quasi.torsion_generators)
        assert certify_pipeline_generators(cf, aut) == generators + quasi.torus_rank
        basis = list(quasi.cocharacter_basis)
        k = rng.randrange(len(basis))
        basis[k] = _shift(basis[k], rng.randrange(cf.variable_count), 30)
        forged = aut._replace(quasitorus=quasi._replace(cocharacter_basis=tuple(basis)))
        with pytest.raises(NotAnAutomorphismError, match=f"cocharacter {k}\\)"):
            certify_pipeline_generators(cf, forged)
        refused["cocharacter"] += 1
        if not quasi.torsion_generators:
            continue
        torsion = list(quasi.torsion_generators)
        k = rng.randrange(len(torsion))
        d, exponents = torsion[k]
        p = _smallest_prime_factor(d)
        torsion[k] = TorsionGenerator(
            d, tuple((v, p * x % d) for v, x in exponents if p * x % d)
        )
        forged = aut._replace(quasitorus=quasi._replace(torsion_generators=tuple(torsion)))
        with pytest.raises(NotAnAutomorphismError, match=f"torsion generator {k} has order"):
            certify_pipeline_generators(cf, forged)
        refused["torsion"] += 1
    assert refused["cocharacter"] == 200 and refused["torsion"] >= 50, refused


@pytest.mark.xfail(strict=True, reason="ROADMAP: Certify generation, not only membership")
def test_verification_refutes_torsion_generators_that_do_not_generate():
    # both generators of (Z/4)^2 replaced by (1, 1, 1) mod 4, which is in H:
    # every generator certifies, and the generators check passes with 5
    tg = TorsionGenerator(4, ((0, 1), (1, 1), (2, 1)))
    cf = parse_separated("x^4 + y^4 + z^4")
    assert _fails_verification(cf, torsion_generators=(tg, tg))


@pytest.mark.xfail(strict=True, reason="ROADMAP: Decisive torsion checks at full width")
def test_verification_refutes_a_wrong_torsion_claim():
    # a claim of (2, 8) in place of (4, 4) agrees at N = 2 (8) and N = 8
    # (128); only N = 4 refutes it (64 counted, 32 claimed)
    assert _fails_verification(parse_separated("x^4 + y^4 + z^4"), torsion=(2, 8))
