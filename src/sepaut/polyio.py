"""Parsing and canonicalization of polynomials with separated variables.

A polynomial has *separated variables* when every variable occurs in exactly
one of its monomials.  After absorbing scalar coefficients (possible over an
algebraically closed field of characteristic zero by rescaling coordinates,
which conjugates the symmetry groups we compute but does not change them),
such a polynomial is a sum of

* *mixed blocks*  v1^e1 * ... * vk^ek  with k > 1 variables, and
* *pure powers*   w^q, grouped into blocks of equal exponent q.

`CanonicalForm` stores exactly that block data in a deterministic order.
`parse_separated` reads an expression straight to it in one pass over the
tokens of the text, combining like terms on the way, then checks that the
variables are separated.

Expression grammar (ASCII, whitespace insignificant)::

    poly   := ['-'] term (('+'|'-') term)*
    term   := [coef '*'] factor ('*' factor)*  |  coef
    factor := var ['^' nat]
    coef   := nat ['/' nat]
    var    := letter (letter|digit|'_')*

No parentheses, no nested powers.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple

__all__ = [
    "PolynomialError",
    "ParseError",
    "ZeroPolynomialError",
    "NonIntegerExponentError",
    "NonPositiveExponentError",
    "NotSeparatedError",
    "ConstantTermError",
    "MixedBlock",
    "PureBlock",
    "CanonicalForm",
    "SparseVector",
    "dense",
    "decimal",
    "Permutation",
    "parse_separated",
    "make_canonical_form",
]


class PolynomialError(ValueError):
    """Base class for all polynomial input errors."""


class ParseError(PolynomialError):
    """Syntax error, carrying a 0-based position into the input string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroPolynomialError(PolynomialError):
    """All terms cancelled: the zero polynomial defines no hypersurface."""


class NonIntegerExponentError(ParseError):
    pass


class NonPositiveExponentError(ParseError):
    pass


class NotSeparatedError(PolynomialError):
    """A variable occurs in two or more monomials."""

    def __init__(self, variable: str, count: int):
        super().__init__(f"variable {variable!r} appears in {count} monomials")
        self.variable = variable
        self.count = count


class ConstantTermError(PolynomialError):
    """The polynomial has a constant term, which no variable block can hold."""


# ---------------------------------------------------------------------------
# canonical form

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# A vector over the canonical variables as (index, value) pairs, index
# strictly increasing, no value zero: a monomial's support with its
# exponents, and every vector the analysis emits.
SparseVector = tuple[tuple[int, int], ...]


def dense(vec: SparseVector, n: int, zero=0, entry=int) -> list:
    """The n entries of the sparse vector `vec`: `zero` off its support and
    `entry(value)` on it."""
    out = [zero] * n
    for i, x in vec:
        out[i] = entry(x)
    return out


# str(int) refuses more than sys.get_int_max_str_digits() digits (640 at the
# least); the analysis can produce integers far longer than its input, so
# those are converted in pieces of fewer digits than that
_PIECE_DIGITS = 600
_PIECE = 10**_PIECE_DIGITS


def decimal(x: int) -> str:
    """Decimal string of any integer, whatever its length."""
    try:
        return str(x)
    except ValueError:
        if x < 0:
            return "-" + decimal(-x)
    split, digits = _PIECE, _PIECE_DIGITS
    while split * split <= x:
        split, digits = split * split, 2 * digits
    high, low = divmod(x, split)
    return decimal(high) + decimal(low).zfill(digits)


# A permutation of the variable indices as its nontrivial cycles, each
# starting at its least index, ordered by that index: every permutation the
# analysis emits.  Each cycle maps an entry to the next, the last to the first.
Permutation = tuple[tuple[int, ...], ...]


class MixedBlock(NamedTuple):
    """One monomial in more than one variable; exponents sorted descending."""

    variables: tuple[str, ...]
    exponents: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.exponents)


class PureBlock(NamedTuple):
    """All pure-power monomials w^q sharing the exponent q."""

    exponent: int
    variables: tuple[str, ...]


class CanonicalForm(NamedTuple):
    """Block decomposition of a separated polynomial, deterministically ordered.

    Mixed blocks come first, sorted by (length, exponent list) descending with
    ties broken by first variable name; pure blocks follow with strictly
    decreasing exponents.  `scaling_note` records that non-unit coefficients
    were absorbed (equality and the hash ignore it: the block shape is the
    canonical identity).  The views below are recomputed on every read;
    `shapes` is the one the analysis reads, `monomial_supports` the one the
    oracles read.
    """

    mixed_blocks: tuple[MixedBlock, ...]
    pure_blocks: tuple[PureBlock, ...]
    scaling_note: bool = False

    def __eq__(self, other):
        return isinstance(other, CanonicalForm) and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    @property
    def var_order(self) -> tuple[str, ...]:
        out: list[str] = []
        for b in self.mixed_blocks:
            out.extend(b.variables)
        for b in self.pure_blocks:
            out.extend(b.variables)
        return tuple(out)

    @property
    def variable_count(self) -> int:
        return len(self.var_order)

    @property
    def monomial_count(self) -> int:
        """Total number of monomials: mixed blocks plus all pure powers."""
        return len(self.mixed_blocks) + sum(len(b.variables) for b in self.pure_blocks)

    @property
    def shapes(self) -> tuple[tuple[tuple[int, ...], range], ...]:
        """Each distinct exponent tuple in canonical order, with the range of
        the first variable index of every monomial that has it.

        Variables are numbered block by block and equal tuples sit next to
        each other, so the monomial of a k-tuple starting at s has support
        s..s+k-1, and a pure block of exponent q is the shape (q,)."""
        out = []
        start = 0
        for exponents, run in groupby(b.exponents for b in self.mixed_blocks):
            end = start + len(exponents) * len(list(run))
            out.append((exponents, range(start, end, len(exponents))))
            start = end
        for b in self.pure_blocks:
            out.append(((b.exponent,), range(start, start + len(b.variables))))
            start += len(b.variables)
        return tuple(out)

    @property
    def monomial_supports(self) -> tuple[SparseVector, ...]:
        """Each monomial's character as a sparse vector of (variable index,
        exponent) pairs, in canonical order."""
        out = []
        start = 0
        for b in self.mixed_blocks:
            out.append(tuple(enumerate(b.exponents, start)))
            start += len(b.exponents)
        for b in self.pure_blocks:
            out += [((v, b.exponent),) for v in range(start, start + len(b.variables))]
            start += len(b.variables)
        return tuple(out)

    def to_text(self) -> str:
        """Render with unit coefficients; reparsing yields this form back."""

        def power(v: str, e: int) -> str:
            return v if e == 1 else f"{v}^{e}"

        parts = [
            "*".join(power(v, e) for v, e in zip(b.variables, b.exponents))
            for b in self.mixed_blocks
        ]
        parts += [power(v, b.exponent) for b in self.pure_blocks for v in b.variables]
        return " + ".join(parts)


def make_canonical_form(mixed_blocks, pure_blocks, scaling_note: bool = False) -> CanonicalForm:
    """Normalize raw block data into a `CanonicalForm`, validating invariants.

    `mixed_blocks` is an iterable of (variables, exponents) pairs with at
    least two variables each; `pure_blocks` of (exponent, variables) pairs.
    Pure blocks with equal exponents merge.  Every variable must occur in
    exactly one block.
    """
    mixed_out = []
    for vars_, exps in mixed_blocks:
        vars_, exps = list(vars_), [int(e) for e in exps]
        if len(vars_) < 2:
            raise ValueError("mixed blocks need at least two variables")
        if len(vars_) != len(exps):
            raise ValueError("mixed block variables and exponents differ in length")
        _validate_names(vars_)
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be positive integers")
        pairs = sorted(zip(vars_, exps), key=lambda p: (-p[1], p[0]))
        mixed_out.append(
            MixedBlock(tuple(v for v, _ in pairs), tuple(e for _, e in pairs))
        )
    mixed_out.sort(
        key=lambda b: (-len(b.variables), tuple(-e for e in b.exponents), b.variables[0])
    )

    merged: dict[int, list[str]] = {}
    for q, vars_ in pure_blocks:
        q = int(q)
        if q < 1:
            raise ValueError("exponents must be positive integers")
        vars_ = list(vars_)
        _validate_names(vars_)
        merged.setdefault(q, []).extend(vars_)
    pure_out = tuple(
        PureBlock(q, tuple(sorted(merged[q]))) for q in sorted(merged, reverse=True)
    )

    cf = CanonicalForm(tuple(mixed_out), pure_out, scaling_note)
    names = cf.var_order
    if len(set(names)) != len(names):
        raise ValueError("a variable occurs in more than one block")
    return cf


def _validate_names(names) -> None:
    for v in names:
        if not _NAME_RE.match(v):
            raise ValueError(f"invalid variable name {v!r}")


# ---------------------------------------------------------------------------
# parsing

# one token per match: a variable name, a natural number or any other single
# character, after skipping whitespace (\s is exactly str.isspace)
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*)|([0-9]+)|(\S))")


def _expected(what: str, tok: re.Match | None, text: str) -> ParseError:
    """The error for `tok` (None: the end of the input) where `what` was
    expected, placed at the token's first character."""
    if tok is None:
        return ParseError(f"expected {what} but input ended", len(text))
    pos = tok.start(tok.lastindex)
    return ParseError(f"expected {what}, found {text[pos]!r}", pos)


def _nat(tok: re.Match | None, what: str, text: str) -> int:
    """The value of `tok`, which must be a number."""
    if tok is None or tok[2] is None:
        raise _expected(what, tok, text)
    digits = tok[2]
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            f"{what} has {len(digits)} digits, over the limit of {limit}", tok.start(2)
        ) from None


def _coefficient(tok: re.Match, tokens, text: str) -> tuple[int | Fraction, re.Match | None]:
    """coef := nat ['/' nat] from the number `tok` on, and the token after it."""
    num = _nat(tok, "coefficient", text)
    tok = next(tokens, None)
    if not (tok and tok[3] == "/"):
        return num, tok
    slash_end = tok.end()
    tok = next(tokens, None)
    den = _nat(tok, "denominator", text)
    if den == 0:
        raise ParseError("zero denominator", slash_end)
    return Fraction(num, den), next(tokens, None)


def _factor(tok: re.Match | None, tokens, text: str, mono: dict[str, int]) -> re.Match | None:
    """Multiply `mono` by the factor var ['^' nat] that starts at `tok`, and
    return the token after it."""
    if not (tok and tok[1] is not None):
        raise _expected("a variable", tok, text)
    exp = 1
    after = next(tokens, None)
    if after and after[3] == "^":
        exp, after = _exponent(next(tokens, None), tokens, text)
    # a variable repeated inside one term multiplies out: x*x == x^2
    mono[tok[1]] = mono.get(tok[1], 0) + exp
    return after


def _exponent(tok: re.Match | None, tokens, text: str) -> tuple[int, re.Match | None]:
    """The exponent that starts at `tok`, just after a '^', and the token
    after it."""
    if tok and tok[3] == "-":
        value = _nat(next(tokens, None), "exponent", text)
        raise NonPositiveExponentError(f"exponent -{value} is not positive", tok.start(3))
    value = _nat(tok, "exponent", text)
    # only a '.' or '/' right after the digits makes the exponent a fraction
    if text.startswith((".", "/"), tok.end()):
        raise NonIntegerExponentError("exponents must be integers", tok.end())
    if value <= 0:
        raise NonPositiveExponentError(f"exponent {value} is not positive", tok.start(2))
    return value, next(tokens, None)


def parse_separated(text: str) -> CanonicalForm:
    """Parse an expression whose variables are separated into its canonical form.

    The tokens are read one at a time, with one token of lookahead; like
    terms are combined and whitespace is ignored.  Raises `ParseError` (with
    position) on syntax problems, the exponent errors on `x^0` / `x^-2` /
    `x^1.5`; then `ZeroPolynomialError` when all terms cancel,
    `ConstantTermError` if a constant term is left, and `NotSeparatedError`
    naming the alphabetically first variable that occurs in two or more
    monomials.  Non-unit coefficients are absorbed (`scaling_note` is set):
    the variety is unchanged up to a diagonal coordinate rescaling, which
    conjugates the automorphism group but does not alter its structure.
    """
    tokens = _TOKEN_RE.finditer(text)
    tok = next(tokens, None)
    if tok is None:
        raise ParseError("empty input", len(text))
    # coefficient of each monomial, keyed by its (var, exp) pairs sorted by var
    terms: dict[tuple[tuple[str, int], ...], int | Fraction] = {}
    sign = 1
    if tok[3] == "-":
        sign = -1
        tok = next(tokens, None)
    while True:
        coef, mono = 1, {}
        if tok and tok[2] is not None:
            coef, tok = _coefficient(tok, tokens, text)
        elif tok and tok[1] is not None:
            tok = _factor(tok, tokens, text, mono)
        else:
            raise _expected("a term", tok, text)
        while tok and tok[3] == "*":
            tok = _factor(next(tokens, None), tokens, text, mono)
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + sign * coef
        if tok is None:
            break
        if tok[3] == "+":
            sign = 1
        elif tok[3] == "-":
            sign = -1
        else:
            raise _expected("'+' or '-'", tok, text)
        tok = next(tokens, None)

    if not any(terms.values()):
        raise ZeroPolynomialError("all terms cancel: got the zero polynomial")
    if terms.get(()):
        raise ConstantTermError("constant terms are not allowed in separated form")
    seen: dict[str, int] = {}
    mixed, pure = [], {}
    scaling = False
    for mono, coef in terms.items():
        if not coef:
            continue
        scaling = scaling or coef != 1
        for v, _ in mono:
            seen[v] = seen.get(v, 0) + 1
        if len(mono) == 1:
            ((v, e),) = mono
            pure.setdefault(e, []).append(v)
        else:
            names, exps = zip(*mono)
            mixed.append((names, exps))
    repeated = min((v for v, c in seen.items() if c > 1), default=None)
    if repeated is not None:
        raise NotSeparatedError(repeated, seen[repeated])
    return make_canonical_form(mixed, pure.items(), scaling_note=scaling)
