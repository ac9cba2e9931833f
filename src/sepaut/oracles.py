"""Brute-force oracles: independent checks of what the analysis claims.

Each oracle recomputes a claim of the analysis by a method that shares no
code with the one that made it:

* `brute_force_perm_order` tries all n! variable permutations and counts
  those mapping the set of monomial exponent vectors onto itself; it checks
  the closed order formula of `permgroup.permutation_group`;
* `count_torsion_points_mod` counts the solutions of D e == 0 (mod N) among
  all N^n candidates, with D the difference matrix of `character_matrix`;
  it checks `torsion_count_formula`, N^rank * prod gcd(d_k, N) read off the
  torus rank and torsion of a quasitorus description;
* `verify_generator` certifies F o g = c * F for a monomial map g by integer
  congruences, and `certify_pipeline_generators` runs it on every generator
  an analysis emits.

The guards live here too: brute force over permutations needs n <= 8
(`TooManyVariablesError`), the count N^n <= 10^7 (`EnumerationTooLargeError`).
From the analysis modules this one imports only exception classes and
`cycle_notation`, so no oracle calls the code whose claim it checks; nothing
on the analysis path imports it.  `polyio.dense` and `polyio.permutation`
expand the analysis' sparse vectors and cycles to the dense ones the
oracles take; this is the one module that holds dense permutations.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import NamedTuple

from .intlat import IntMatrix
from .permgroup import cycle_notation
from .polyio import CanonicalForm, Permutation, dense, permutation
from .quasitorus import SingleMonomialError

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "ENUMERATION_LIMIT",
    "TooManyVariablesError",
    "EnumerationTooLargeError",
    "NotAnAutomorphismError",
    "MonomialMap",
    "permute_vector",
    "brute_force_perm_order",
    "character_matrix",
    "count_torsion_points_mod",
    "torsion_count_formula",
    "verify_generator",
    "certify_pipeline_generators",
]

BRUTE_FORCE_LIMIT = 8
ENUMERATION_LIMIT = 10_000_000


class TooManyVariablesError(ValueError):
    """Brute force over n! permutations is limited to n <= 8."""


class EnumerationTooLargeError(ValueError):
    """The brute-force count N^n would exceed the enumeration guard."""


class NotAnAutomorphismError(ValueError):
    """The candidate monomial map does not preserve the polynomial."""


class MonomialMap(NamedTuple):
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


def permute_vector(perm: tuple[int, ...], vec) -> tuple[int, ...]:
    """Move entry v to slot perm[v] (the action of the permutation on
    exponent vectors and diagonal coordinates)."""
    out = [0] * len(vec)
    for v, x in enumerate(vec):
        out[perm[v]] = x
    return tuple(out)


def _cycles(perm: tuple[int, ...]) -> Permutation:
    """The cycle form of the dense permutation `perm`."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cycle = []
        v = start
        while not seen[v]:
            seen[v] = True
            cycle.append(v)
            v = perm[v]
        if len(cycle) > 1:
            cycles.append(tuple(cycle))
    return tuple(cycles)


def brute_force_perm_order(cf: CanonicalForm) -> int:
    """Count permutations with F o tau = F by trying all n! of them."""
    n = cf.variable_count
    if n > BRUTE_FORCE_LIMIT:
        raise TooManyVariablesError(
            f"{n} variables: brute force is limited to n <= {BRUTE_FORCE_LIMIT}"
        )
    chars = set(cf.monomial_vectors)
    count = 0
    for perm in permutations(range(n)):
        if {permute_vector(perm, chi) for chi in chars} == chars:
            count += 1
    return count


def character_matrix(cf: CanonicalForm) -> IntMatrix:
    """The difference matrix D of the monomial characters.

    Rows are chi_i - chi_0 for the characters `cf.monomial_vectors` (mixed
    blocks first, then pure powers).  Because monomial supports are pairwise
    disjoint, the rows are linearly independent: D always has full row rank
    M - 1, and H's character group is Z^n modulo its row lattice.
    """
    if cf.monomial_count < 2:
        raise SingleMonomialError(
            "need at least two monomials to cut out a hypersurface with "
            "diagonal symmetry structure"
        )
    chars = cf.monomial_vectors
    rows = [[x - b for x, b in zip(chi, chars[0])] for chi in chars[1:]]
    return IntMatrix.from_rows(rows, cols=cf.variable_count)


def count_torsion_points_mod(cf: CanonicalForm, modulus: int) -> int:
    """Count e in (Z/N)^n with D e == 0 (mod N), one variable at a time.

    The columns of D are taken in order; a dict maps the residues mod N of
    the rows still open to the number of partial assignments of the
    variables so far that reach them.  After a row's last entry that is
    nonzero mod N its residue must be 0, and it leaves the key.  Each of the
    N^n assignments is counted exactly once, for any integer matrix D, with
    no Smith form or block theory, so the count stays independent of the
    closed form it checks.  Guarded by N^n <= 10^7; D is built only once the
    guard has passed.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    n = cf.variable_count
    if modulus**n > ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(
            f"N^n = {modulus}^{n} exceeds the enumeration guard "
            f"{ENUMERATION_LIMIT}"
        )
    rows = [[x % modulus for x in row] for row in character_matrix(cf).to_rows()]
    last = [max((j for j, x in enumerate(row) if x), default=-1) for row in rows]
    open_rows = [r for r in range(len(rows)) if last[r] >= 0]
    counts = {(0,) * len(open_rows): 1}
    for j in range(n):
        keep = [k for k, r in enumerate(open_rows) if last[r] > j]
        closing = [k for k, r in enumerate(open_rows) if last[r] == j]
        # the N values of e_j, tallied by what they add to the closing rows
        # and to the others; a key reaches 0 on the closing rows only with
        # the values that add its negative there
        moves: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for x in range(modulus):
            add = [rows[r][j] * x % modulus for r in open_rows]
            tally = moves.setdefault(tuple(add[k] for k in closing), {})
            rest = tuple(add[k] for k in keep)
            tally[rest] = tally.get(rest, 0) + 1
        step: dict[tuple[int, ...], int] = {}
        for key, count in counts.items():
            need = tuple(-key[k] % modulus for k in closing)
            for rest, times in moves.get(need, {}).items():
                reached = tuple((key[k] + a) % modulus for k, a in zip(keep, rest))
                step[reached] = step.get(reached, 0) + count * times
        open_rows = [open_rows[k] for k in keep]
        counts = step
    return counts[()]


def torsion_count_formula(quasi, modulus: int) -> int:
    """Closed form for the same count: N^rank * prod gcd(d_k, N).

    Reads the torus rank and torsion invariants of the quasitorus
    description `quasi`, so `count_torsion_points_mod` checks the torsion
    the report emits.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    count = modulus**quasi.torus_rank
    for dk in quasi.torsion:
        count *= math.gcd(dk, modulus)
    return count


def _polynomial_data(cf: CanonicalForm):
    """(n, monomial supports, the set of monomials): what `_verify` reads of
    `cf`, built once per polynomial."""
    supports = cf.monomial_supports
    n = sum(map(len, supports))
    return n, supports, {frozenset(support) for support in supports}


def verify_generator(cf: CanonicalForm, g: MonomialMap) -> int:
    """Certify F o g = c * F by congruence arithmetic; returns c's exponent.

    The permutation must map every monomial exponent vector onto one from
    the polynomial, and the diagonal part must give every monomial the same
    scalar sum(chi_v * e_[perm(v)]) mod N.  Raises `NotAnAutomorphismError`
    with the first violation otherwise.
    """
    return _verify(cf, g, *_polynomial_data(cf))


def _verify(cf: CanonicalForm, g: MonomialMap, n: int, supports, monomials) -> int:
    """`verify_generator` with `_polynomial_data(cf)` passed in."""
    if sorted(g.perm) != list(range(n)):
        raise ValueError(f"not a permutation of {n} variables: {g.perm}")
    if g.order < 1:
        raise ValueError("root-of-unity order must be >= 1")
    if len(g.exponents) != n:
        raise ValueError("diagonal exponent vector has wrong length")

    # sparse monomials: O(n) per generator, where dense vectors cost O(M n)
    residue = None
    for i, support in enumerate(supports):
        if frozenset((g.perm[v], e) for v, e in support) not in monomials:
            image = permute_vector(g.perm, cf.monomial_vectors[i])
            raise NotAnAutomorphismError(
                f"monomial {i} maps to exponent vector {image}, which is not a "
                "monomial of the polynomial "
                f"(permutation {cycle_notation(_cycles(g.perm), cf.var_order)})"
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


def certify_pipeline_generators(cf: CanonicalForm, aut):
    """Certify every generator the description `aut` of `cf` emits.

    Runs `verify_generator` on the permutation generators, the torsion
    generators of the quasitorus, and the cocharacter basis vectors reduced
    mod 2, 3 and 5, each expanded to its n entries or images.  Returns
    (label, scalar exponent) pairs; raises on the first failure.
    """
    results = []
    names = cf.var_order
    data = _polynomial_data(cf)
    n = data[0]
    for g in aut.perm.generators:
        label = f"perm {cycle_notation(g, names)}"
        perm = MonomialMap.from_permutation(permutation(g, n))
        results.append((label, _verify(cf, perm, *data)))
    quasi = aut.quasitorus
    for tg in quasi.torsion_generators:
        label = f"torsion order {tg.order}"
        g = MonomialMap.from_diagonal(tg.order, dense(tg.exponents, n))
        results.append((label, _verify(cf, g, *data)))
    for bi, vec in enumerate(quasi.cocharacter_basis):
        full = dense(vec, n)
        for modulus in (2, 3, 5):
            label = f"cocharacter {bi} mod {modulus}"
            g = MonomialMap.from_diagonal(modulus, [x % modulus for x in full])
            results.append((label, _verify(cf, g, *data)))
    return results
