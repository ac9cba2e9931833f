"""Exact integer linear algebra: Smith normal form, kernel lattices, minors.

Everything here runs on Python's arbitrary-precision integers; no floating
point is used anywhere.  The analysis of a polynomial never imports this
module (quasitorus computes H block by block).  The Smith normal form
serves `sepaut snf` and the tests, where it and the gcd-of-minors oracle,
on the difference matrix D as an `IntMatrix`, referee the block-local
closed form.
The implementation favours exactness and auditability over asymptotics:

* Smith normal form by elimination with a minimal-|entry| pivot rule, which
  keeps intermediate coefficients from blowing up on matrices of this size;
* determinants by fraction-free Bareiss elimination;
* gcd-of-minors as a slow combinatorial cross-check of the Smith divisors
  (``d_k = gcd of k-minors / gcd of (k-1)-minors``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "IntMatrix",
    "SNFResult",
    "smith_normal_form",
    "kernel_basis",
    "gcd_of_minors",
    "parse_matrix_text",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> IntMatrix:
        """Build from an iterable of rows; `cols` disambiguates the empty case."""
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        flat = tuple(int(x) for r in rows for x in r)
        return cls(len(rows), cols, flat)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        flat = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return IntMatrix(self.cols, self.rows, flat)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def matvec(self, vec) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(
            sum(a * b for a, b in zip(self.row(i), vec)) for i in range(self.rows)
        )

    def determinant(self) -> int:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _bareiss(self.to_rows())

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.determinant()) == 1


@dataclass(frozen=True)
class SNFResult:
    """Decomposition U @ A @ V = S with U, V unimodular and S diagonal.

    `divisors` lists the nonzero diagonal of S, positive and in a chain
    d_1 | d_2 | ... | d_r; r is the rank of A.  U and V themselves are not
    canonical, only the defining equations above are.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.divisors)


def _bareiss(a: list[list[int]]) -> int:
    """Fraction-free determinant; every interior division is exact."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Diagonalize over the integers, tracking both transforms exactly.

    Pivots are chosen with minimal absolute value over the active submatrix;
    remainders from an incomplete clearing pass re-enter the pivot search, so
    the pivot magnitude strictly decreases until the pass closes.  A final
    folding step enforces the divisibility chain.
    """
    m, n = a.rows, a.cols
    s = a.to_rows()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i: int, k: int) -> None:
        s[i], s[k] = s[k], s[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j: int, k: int) -> None:
        for r in s:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    def add_row(i: int, k: int, c: int) -> None:
        # row i += c * row k, mirrored on U
        s[i] = [x + c * y for x, y in zip(s[i], s[k])]
        u[i] = [x + c * y for x, y in zip(u[i], u[k])]

    def add_col(j: int, k: int, c: int) -> None:
        # col j += c * col k, mirrored on V
        for r in s:
            r[j] += c * r[k]
        for r in v:
            r[j] += c * r[k]

    limit = min(m, n)
    t = 0
    while t < limit:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        p = s[t][t]
        dirty = False
        for i in range(t + 1, m):
            if s[i][t]:
                add_row(i, t, -(s[i][t] // p))
                dirty = dirty or s[i][t] != 0
        for j in range(t + 1, n):
            if s[t][j]:
                add_col(j, t, -(s[t][j] // p))
                dirty = dirty or s[t][j] != 0
        if dirty:
            continue

        witness = next(
            (
                wi
                for wi in range(t + 1, m)
                if any(s[wi][wj] % p for wj in range(t + 1, n))
            ),
            None,
        )
        if witness is not None:
            # fold the offending row into row t; the next passes shrink the pivot
            add_row(t, witness, 1)
            continue

        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    divisors = tuple(s[k][k] for k in range(limit) if s[k][k] != 0)
    return SNFResult(
        U=IntMatrix.from_rows(u, cols=m),
        S=IntMatrix.from_rows(s, cols=n),
        V=IntMatrix.from_rows(v, cols=n),
        divisors=divisors,
    )


def kernel_basis(a: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Basis of the saturated lattice {x in Z^cols : A x = 0}.

    The vectors are the trailing columns of the Smith column transform, so
    they extend to a basis of Z^cols; every integer kernel vector is an
    integer combination of them.
    """
    snf = smith_normal_form(a)
    return tuple(snf.V.column(j) for j in range(snf.rank, a.cols))


def gcd_of_minors(a: IntMatrix, k: int) -> int:
    """gcd of the absolute values of all k x k minors; 0 if all vanish.

    Combinatorial cost: meant as an independent oracle for small matrices,
    not as a production path.
    """
    if k < 0 or k > min(a.rows, a.cols):
        raise ValueError(f"minor order {k} out of range for {a.rows}x{a.cols}")
    if k == 0:
        return 1
    g = 0
    for rs in combinations(range(a.rows), k):
        for cs in combinations(range(a.cols), k):
            d = _bareiss([[a.at(i, j) for j in cs] for i in rs])
            g = math.gcd(g, d)
            if g == 1:
                return 1
    return g


def _matrix_int(token: str, what: str) -> int:
    digits, limit = token.lstrip("+-"), sys.get_int_max_str_digits()
    if digits.isdecimal() and len(digits) > limit:
        raise ValueError(f"{what} has {len(digits)} digits, over the limit of {limit}")
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{what} is not an integer") from None


def parse_matrix_text(text: str) -> IntMatrix:
    """Parse the CLI matrix format: 'rows cols' then row-major integers.

    Tokens are whitespace-separated; line breaks are not significant.  A bad
    token is named by its place: the row or column count, or entry k
    (counted from 1 in row-major order).
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text must start with 'rows cols'")
    rows = _matrix_int(tokens[0], "the row count")
    cols = _matrix_int(tokens[1], "the column count")
    entries = [_matrix_int(tok, f"entry {k}") for k, tok in enumerate(tokens[2:], 1)]
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    return IntMatrix(rows, cols, tuple(entries))
