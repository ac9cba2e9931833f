"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
Every expected value is exact (integers and rationals); the only tolerances
are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from math import factorial

from conftest import (
    FLAGSHIP,
    change_basis,
    character_matrix,
    express_in_basis,
    random_canonical_form,
    times_rows,
)
from sepaut.autassembly import aut_group, fermat_form
from sepaut.intlat import IntMatrix, gcd_of_minors, smith_normal_form
from sepaut.oracles import (
    brute_force_perm_order,
    count_torsion_points_mod,
    torsion_count_formula,
    verify_diagonal,
    verify_permutation,
)
from sepaut.permgroup import permutation_group
from sepaut.polyio import dense, parse_separated
from sepaut.quasitorus import quasitorus_structure
from sepaut.rigidity import CERTIFIED_RIGID, rigidity_certificate
from sepaut.torusgeom import torus_generators, weight_cone

SEMI = "⋉"
TIMES = "×"


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _forms_for_torsion_oracle():
    rng = random.Random(40)
    return [random_canonical_form(rng, max_vars=6, max_exp=6) for _ in range(20)]


def _forms_for_torus_checks():
    rng = random.Random(41)
    return [random_canonical_form(rng, max_vars=8, max_exp=9) for _ in range(100)]


def test_criterion_1_flagship_reproduction():
    start = time.perf_counter()
    cf = parse_separated(FLAGSHIP)
    aut = aut_group(cf)
    cert = rigidity_certificate(cf)
    elapsed = time.perf_counter() - start
    ok = (
        aut.perm.order == 6
        and aut.perm.structure == "S3"
        and aut.quasitorus.torsion == (10, 10)
        and aut.quasitorus.torus_rank == 2
        and aut.structure_string == f"S3 {SEMI} ((Z/10)^2 {TIMES} T^2)"
        and cert.reciprocal_sum == Fraction(27, 55)
        and cert.threshold == Fraction(1, 2)
        and cert.verdict == CERTIFIED_RIGID
        and elapsed < 1.0
    )
    _report("criterion 1: flagship example reproduced exactly", ok, f"{elapsed:.3f}s")


def test_criterion_2_fermat_family():
    start = time.perf_counter()
    ok = True
    for n in range(2, 7):
        for alpha in range(2, 8):
            cf = fermat_form(n, alpha)
            aut = aut_group(cf)
            expected = f"S{n} {SEMI} ((Z/{alpha})^{n - 1} {TIMES} T^1)"
            ok = ok and aut.structure_string == expected
            ok = ok and aut.quasitorus.torsion == (alpha,) * (n - 1)
            ok = ok and aut.quasitorus.torus_rank == 1
            ok = ok and brute_force_perm_order(cf) == factorial(n)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(
        "criterion 2: Fermat family n=2..6, alpha=2..7 with brute-forced orders",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_snf_property_suite():
    start = time.perf_counter()
    rng = random.Random(42)
    failures = 0
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        )
        res = smith_normal_form(a)
        good = (res.U @ a @ res.V).entries == res.S.entries
        good = good and abs(res.U.determinant()) == 1
        good = good and abs(res.V.determinant()) == 1
        good = good and all(
            res.divisors[i + 1] % res.divisors[i] == 0
            for i in range(len(res.divisors) - 1)
        )
        prev = 1
        for k, d in enumerate(res.divisors, start=1):
            delta = gcd_of_minors(a, k)
            good = good and delta == prev * d
            prev = delta
        if not good:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    _report(
        "criterion 3: 500 random matrices satisfy the full SNF contract",
        ok,
        f"{failures} failures, {elapsed:.2f}s",
    )


def test_criterion_4_torsion_count_oracle():
    start = time.perf_counter()
    checked = 0
    failures = 0
    for cf in _forms_for_torsion_oracle():
        quasi = quasitorus_structure(cf)
        n = cf.variable_count
        for modulus in range(2, 13):
            if modulus**n > 10_000_000:
                continue
            checked += 1
            if count_torsion_points_mod(cf, modulus) != torsion_count_formula(
                quasi, modulus
            ):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and checked >= 20 * 5 and elapsed < 60.0
    _report(
        "criterion 4: enumerated torsion counts equal the divisor formula",
        ok,
        f"{checked} pairs, {failures} failures, {elapsed:.2f}s",
    )


def test_criterion_5_generator_certification():
    start = time.perf_counter()
    instances = [parse_separated(FLAGSHIP)]
    instances += [
        fermat_form(n, alpha) for n in range(2, 7) for alpha in range(2, 8)
    ]
    instances += _forms_for_torsion_oracle()
    checked = 0
    failures = 0
    for cf in instances:
        perm = permutation_group(cf)
        quasi = quasitorus_structure(cf)
        checks = [(verify_permutation, (g,)) for g in perm.generators]
        checks += [
            (verify_diagonal, (t.order, t.exponents)) for t in quasi.torsion_generators
        ]
        for verify, args in checks:
            checked += 1
            try:
                verify(cf, *args)
            except Exception:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and checked > 0
    _report(
        "criterion 5: every emitted permutation and torsion generator certifies",
        ok,
        f"{checked} generators, {failures} failures, {elapsed:.2f}s",
    )


def test_criterion_6_torus_rank_identity():
    start = time.perf_counter()
    failures = 0
    for cf in _forms_for_torus_checks():
        q = quasitorus_structure(cf)
        n = cf.variable_count
        m_count = cf.monomial_count
        by_blocks = sum(len(b.variables) - 1 for b in cf.mixed_blocks) + 1
        good = q.torus_rank == n - m_count + 1 == by_blocks
        gens = torus_generators(cf)
        t0 = dense(gens.homogeneity, n)
        pairs = [dense(p.vector, n) for p in gens.pair_cocharacters]
        stacked = IntMatrix.from_rows([t0] + pairs)
        # full rank inside ker(D) means the explicit generators span a
        # finite-index sublattice of the cocharacter lattice
        good = good and len(smith_normal_form(stacked).divisors) == q.torus_rank
        zero = (0,) * (m_count - 1)
        rows = character_matrix(cf)
        good = good and times_rows(rows, t0) == zero
        good = good and all(times_rows(rows, p) == zero for p in pairs)
        if not good:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _report(
        "criterion 6: torus rank identity and finite-index generator span "
        "on 100 random forms",
        ok,
        f"{failures} failures, {elapsed:.2f}s",
    )


def test_criterion_7_pointedness_witness():
    start = time.perf_counter()
    rng = random.Random(43)
    failures = 0
    for cf in _forms_for_torus_checks():
        quasi = quasitorus_structure(cf)
        homogeneity = torus_generators(cf).homogeneity
        cone = weight_cone(quasi, homogeneity)
        good = cone.pointed and cone.witness is not None
        n, rank = cf.variable_count, quasi.torus_rank
        t0 = dense(homogeneity, n)
        witness = dense(cone.witness, rank)
        for v, w in enumerate(cone.weights):
            pairing = sum(u * x for u, x in zip(witness, dense(w, rank)))
            good = good and pairing == t0[v] > 0
        # second basis, related by a unimodular change; the referee solves
        # for the witness there
        new_basis = change_basis(rng, [dense(v, n) for v in quasi.cocharacter_basis])
        witness = express_in_basis(new_basis, t0)
        for v, w in enumerate(zip(*new_basis)):
            pairing = sum(u * x for u, x in zip(witness, w))
            good = good and pairing == t0[v] > 0
        if not good:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _report(
        "criterion 7: pointedness witness holds, re-verified under a "
        "unimodular basis change",
        ok,
        f"{failures} failures, {elapsed:.2f}s",
    )
