"""The permutation group of the polynomial: variable permutations fixing F.

For a separated polynomial with unit coefficients a permutation preserves F
exactly when it maps each monomial onto a monomial with the same exponent
data.  Pure powers of equal exponent can be permuted freely (a symmetric
factor per pure block); within a mixed block only variables of equal
exponent may move, and whole mixed blocks can swap when their exponent
multisets coincide, which yields a wreath-type factor per class of
identical blocks.  The group is the direct product of those factors, so its
order has a closed formula and a short generator list.  Its brute-force
check over all n! permutations is `oracles.brute_force_perm_order`.
"""

from __future__ import annotations

from itertools import groupby
from math import factorial, prod
from typing import NamedTuple

from .polyio import CanonicalForm, PureBlock

__all__ = [
    "MixedClassFactor",
    "PermGroupDescription",
    "permutation_group",
    "cycle_notation",
]


def cycle_notation(perm: tuple[int, ...], names) -> str:
    """Render a permutation in cycle notation over variable names."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        v = start
        while not seen[v]:
            seen[v] = True
            cyc.append(names[v])
            v = perm[v]
        cycles.append("(" + " ".join(cyc) + ")")
    return "".join(cycles) if cycles else "()"


class MixedClassFactor(NamedTuple):
    """Class of mixed blocks with identical exponent data.

    The factor is W^c : S_c (wreath type) where c is the class size and W is
    the product of symmetric groups on the equal-exponent runs inside one
    block.
    """

    block_indices: tuple[int, ...]
    exponents: tuple[int, ...]
    inner_multiplicities: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.block_indices)

    @property
    def inner_order(self) -> int:
        return prod(factorial(m) for m in self.inner_multiplicities)


class PermGroupDescription(NamedTuple):
    pure_factors: tuple[PureBlock, ...]  # S_k on each pure block's k variables
    mixed_classes: tuple[MixedClassFactor, ...]
    order: int
    generators: tuple[tuple[int, ...], ...]
    structure: str


def _transposition(a: int, b: int, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    perm[a], perm[b] = b, a
    return tuple(perm)


def _cycle(points: list[int], n: int) -> tuple[int, ...]:
    perm = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a] = b
    return tuple(perm)


def _symmetric_generators(points: list[int], n: int) -> list[tuple[int, ...]]:
    # transposition plus full cycle generate the symmetric group on `points`
    if len(points) < 2:
        return []
    gens = [_transposition(points[0], points[1], n)]
    if len(points) >= 3:
        gens.append(_cycle(points, n))
    return gens


def _pointwise_map(columns: list[list[int]], n: int) -> tuple[int, ...]:
    # block k position i maps to block k+1 position i, cyclically
    perm = list(range(n))
    for src, dst in zip(columns, columns[1:] + columns[:1]):
        for a, b in zip(src, dst):
            perm[a] = b
    return tuple(perm)


def permutation_group(cf: CanonicalForm) -> PermGroupDescription:
    """Factor structure, exact order, and generators of the group."""
    n = cf.variable_count
    idx = cf.variable_index
    blocks = cf.mixed_blocks
    gens: list[tuple[int, ...]] = []

    # canonical sorting puts identically shaped mixed blocks next to each other
    classes: list[MixedClassFactor] = []
    i = 0
    while i < len(blocks):
        j = i
        shape = (len(blocks[i].variables), blocks[i].exponents)
        while j < len(blocks) and (len(blocks[j].variables), blocks[j].exponents) == shape:
            j += 1
        mults = tuple(len(list(g)) for _, g in groupby(blocks[i].exponents))
        classes.append(
            MixedClassFactor(
                block_indices=tuple(range(i, j)),
                exponents=blocks[i].exponents,
                inner_multiplicities=mults,
            )
        )
        i = j

    for cls in classes:
        for b in cls.block_indices:
            vars_ = blocks[b].variables
            start = 0
            for _, g in groupby(blocks[b].exponents):
                run = len(list(g))
                points = [idx[v] for v in vars_[start : start + run]]
                gens.extend(_symmetric_generators(points, n))
                start += run
        if cls.size >= 2:
            columns = [[idx[v] for v in blocks[b].variables] for b in cls.block_indices]
            gens.append(_pointwise_map(columns[:2], n))
            if cls.size >= 3:
                gens.append(_pointwise_map(columns, n))

    pure_factors = cf.pure_blocks
    for b in pure_factors:
        gens.extend(_symmetric_generators([idx[v] for v in b.variables], n))

    order = 1
    for cls in classes:
        order *= factorial(cls.size) * cls.inner_order**cls.size
    for p in pure_factors:
        order *= factorial(len(p.variables))

    return PermGroupDescription(
        pure_factors=pure_factors,
        mixed_classes=tuple(classes),
        order=order,
        generators=tuple(gens),
        structure=_structure(classes, pure_factors),
    )


def _structure(classes: list[MixedClassFactor], pure_factors: tuple[PureBlock, ...]) -> str:
    parts = []
    for cls in classes:
        inner = [f"S{m}" for m in cls.inner_multiplicities if m >= 2]
        if not inner:
            if cls.size >= 2:
                parts.append(f"S{cls.size}")
        elif cls.size == 1:
            parts.extend(inner)
        else:
            core = " × ".join(inner)
            if len(inner) > 1:
                core = f"({core})"
            parts.append(f"{core} wr S{cls.size}")
    for p in pure_factors:
        if len(p.variables) >= 2:
            parts.append(f"S{len(p.variables)}")
    return " × ".join(parts) if parts else "1"

