"""The permutation group of the polynomial: variable permutations fixing F.

For a separated polynomial with unit coefficients a permutation preserves F
exactly when it maps each monomial onto a monomial with the same exponent
data.  Pure powers of equal exponent can be permuted freely (a symmetric
factor per pure block); within a mixed block only variables of equal
exponent may move, and whole mixed blocks can swap when their exponent
multisets coincide, which yields a wreath-type factor per class of
identical blocks.  The group is the direct product of those factors, so its
order has a closed formula and a short generator list.  Each generator is
held as its cycles (`polyio.Permutation`), in O(points moved) entries, and
`polyio.permutation` expands it to n images only where the report prints
one.  The brute-force check, over the permutations that keep each exponent,
is `oracles.brute_force_perm_order`.
"""

from __future__ import annotations

from itertools import groupby
from math import factorial, prod
from typing import NamedTuple

from .polyio import CanonicalForm, Permutation, PureBlock

__all__ = [
    "MixedClassFactor",
    "PermGroupDescription",
    "permutation_group",
    "cycle_notation",
]


def cycle_notation(cycles: Permutation, names) -> str:
    """Render a permutation, given as its cycles, over variable names."""
    return "".join(
        "(" + " ".join(names[v] for v in cycle) + ")" for cycle in cycles
    ) or "()"


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
    """Mixed classes, order, generators in cycle form, structure; each pure
    block of `cf.pure_blocks` adds a factor S_k on its k variables."""

    mixed_classes: tuple[MixedClassFactor, ...]
    order: int
    generators: tuple[Permutation, ...]
    structure: str


def _symmetric_generators(points: tuple[int, ...]) -> list[Permutation]:
    # transposition plus full cycle generate the symmetric group on `points`
    if len(points) < 2:
        return []
    gens = [((points[0], points[1]),)]
    if len(points) >= 3:
        gens.append((points,))
    return gens


def permutation_group(cf: CanonicalForm) -> PermGroupDescription:
    """Factor structure, exact order, and generators of the group."""
    idx = cf.variable_index
    gens: list[Permutation] = []

    # canonical sorting puts identically shaped mixed blocks next to each
    # other and numbers the variables block by block, so every run of points
    # and every column (position i of each block in the class) ascends: the
    # generators are built directly in canonical cycle form
    classes: list[MixedClassFactor] = []
    blocks = enumerate(cf.mixed_blocks)
    for exponents, members in groupby(blocks, key=lambda ib: ib[1].exponents):
        members = list(members)
        mults = tuple(len(list(g)) for _, g in groupby(exponents))
        classes.append(MixedClassFactor(tuple(i for i, _ in members), exponents, mults))
        rows = [tuple(idx[v] for v in b.variables) for _, b in members]
        for row in rows:
            start = 0
            for m in mults:
                gens.extend(_symmetric_generators(row[start : start + m]))
                start += m
        # block k position i maps to block k+1 position i, cyclically
        if len(rows) >= 2:
            gens.append(tuple(zip(*rows[:2])))
            if len(rows) >= 3:
                gens.append(tuple(zip(*rows)))

    for b in cf.pure_blocks:
        gens.extend(_symmetric_generators(tuple(idx[v] for v in b.variables)))

    order = 1
    for cls in classes:
        order *= factorial(cls.size) * cls.inner_order**cls.size
    for p in cf.pure_blocks:
        order *= factorial(len(p.variables))

    return PermGroupDescription(
        mixed_classes=tuple(classes),
        order=order,
        generators=tuple(gens),
        structure=_structure(classes, cf.pure_blocks),
    )


def _structure(classes: list[MixedClassFactor], pure_blocks: tuple[PureBlock, ...]) -> str:
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
    for p in pure_blocks:
        if len(p.variables) >= 2:
            parts.append(f"S{len(p.variables)}")
    return " × ".join(parts) if parts else "1"

