"""Parsing and canonicalization of polynomials with separated variables.

A polynomial has *separated variables* when every variable occurs in exactly
one of its monomials.  After absorbing scalar coefficients (possible over an
algebraically closed field of characteristic zero by rescaling coordinates,
which conjugates the symmetry groups we compute but does not change them),
such a polynomial is a sum of

* *mixed blocks*  v1^e1 * ... * vk^ek  with k > 1 variables, and
* *pure powers*   w^q, grouped into blocks of equal exponent q.

`CanonicalForm` stores exactly that block data in a deterministic order.

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
import string
import sys
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "PolynomialError",
    "ParseError",
    "ZeroPolynomialError",
    "NonIntegerExponentError",
    "NonPositiveExponentError",
    "NotSeparatedError",
    "ConstantTermError",
    "Term",
    "Polynomial",
    "MixedBlock",
    "PureBlock",
    "CanonicalForm",
    "SparseVector",
    "dense",
    "decimal",
    "Permutation",
    "parse_polynomial",
    "recognize_separated",
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
# parsed polynomials

Monomial = tuple[tuple[str, int], ...]  # ((var, exp), ...) sorted by var name


class Term(NamedTuple):
    """A coefficient, an `int` unless the input wrote a fraction, times a
    monomial."""

    coefficient: int | Fraction
    monomial: Monomial


class Polynomial(NamedTuple):
    """Sum of terms with distinct monomials and nonzero coefficients.

    Terms are kept sorted by monomial, so equal polynomials compare equal
    regardless of the order they were written in.
    """

    terms: tuple[Term, ...]


_LETTERS = set(string.ascii_letters)
_DIGITS = set(string.digits)
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# scanners matched at the parser position; \s is exactly str.isspace
_WS_RE = re.compile(r"\s*")
_NAME_TAIL_RE = re.compile(r"[A-Za-z0-9_]*")
_NAT_RE = re.compile(r"[0-9]*")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _fail(self, message: str, pos: int | None = None):
        raise ParseError(message, self.pos if pos is None else pos)

    def parse(self) -> Polynomial:
        self._skip_ws()
        if not self._peek():
            self._fail("empty input")
        acc: dict[Monomial, int | Fraction] = {}
        sign = 1
        if self._peek() == "-":
            self.pos += 1
            sign = -1
        while True:
            coef, mono = self._parse_term()
            key: Monomial = tuple(sorted(mono.items()))
            acc[key] = acc.get(key, 0) + sign * coef
            self._skip_ws()
            ch = self._peek()
            if not ch:
                break
            if ch == "+":
                sign = 1
            elif ch == "-":
                sign = -1
            else:
                self._fail(f"expected '+' or '-', found {ch!r}")
            self.pos += 1
        terms = tuple(Term(c, m) for m, c in sorted(acc.items()) if c != 0)
        if not terms:
            raise ZeroPolynomialError("all terms cancel: got the zero polynomial")
        return Polynomial(terms)

    def _parse_term(self) -> tuple[int | Fraction, dict[str, int]]:
        self._skip_ws()
        ch = self._peek()
        coef = 1
        mono: dict[str, int] = {}
        if ch in _DIGITS:
            coef = self._parse_coef()
            self._skip_ws()
            if self._peek() != "*":
                return coef, mono  # bare constant term
            self.pos += 1
            self._parse_factor(mono)
        elif ch in _LETTERS:
            self._parse_factor(mono)
        else:
            found = f", found {ch!r}" if ch else " but input ended"
            self._fail("expected a term" + found)
        while True:
            self._skip_ws()
            if self._peek() != "*":
                break
            self.pos += 1
            self._parse_factor(mono)
        return coef, mono

    def _parse_coef(self) -> int | Fraction:
        num = self._parse_nat("coefficient")
        self._skip_ws()
        if self._peek() == "/":
            self.pos += 1
            den_pos = self.pos
            den = self._parse_nat("denominator")
            if den == 0:
                self._fail("zero denominator", pos=den_pos)
            return Fraction(num, den)
        return num

    def _parse_nat(self, what: str) -> int:
        self._skip_ws()
        start = self.pos
        self.pos = _NAT_RE.match(self.text, start).end()
        if self.pos == start:
            found = f", found {self._peek()!r}" if self._peek() else " but input ended"
            self._fail(f"expected {what}" + found)
        digits = self.text[start : self.pos]
        try:
            return int(digits)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            self._fail(
                f"{what} has {len(digits)} digits, over the limit of {limit}", pos=start
            )

    def _parse_var(self) -> str:
        start = self.pos
        # the first character is already checked to be a letter
        self.pos = _NAME_TAIL_RE.match(self.text, start + 1).end()
        return self.text[start : self.pos]

    def _parse_factor(self, mono: dict[str, int]) -> None:
        self._skip_ws()
        if self._peek() not in _LETTERS:
            found = f", found {self._peek()!r}" if self._peek() else " but input ended"
            self._fail("expected a variable" + found)
        name = self._parse_var()
        exp = 1
        self._skip_ws()
        if self._peek() == "^":
            self.pos += 1
            exp = self._parse_exponent()
        # a variable repeated inside one term multiplies out: x*x == x^2
        mono[name] = mono.get(name, 0) + exp

    def _parse_exponent(self) -> int:
        self._skip_ws()
        start = self.pos
        if self._peek() == "-":
            self.pos += 1
            value = self._parse_nat("exponent")
            raise NonPositiveExponentError(f"exponent -{value} is not positive", start)
        value = self._parse_nat("exponent")
        if self._peek() in ("." , "/"):
            raise NonIntegerExponentError("exponents must be integers", self.pos)
        if value <= 0:
            raise NonPositiveExponentError(f"exponent {value} is not positive", start)
        return value


def parse_polynomial(text: str) -> Polynomial:
    """Parse an expression; like terms are combined, whitespace is ignored.

    Raises `ParseError` (with position) on syntax problems, the exponent
    errors on `x^0` / `x^-2` / `x^1.5`, and `ZeroPolynomialError` when all
    terms cancel.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# canonical form

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
    canonical identity).  The views below are recomputed on every read.
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
    def variable_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.var_order)}

    @property
    def variable_count(self) -> int:
        return len(self.var_order)

    @property
    def monomial_count(self) -> int:
        """Total number of monomials: mixed blocks plus all pure powers."""
        return len(self.mixed_blocks) + sum(len(b.variables) for b in self.pure_blocks)

    @property
    def monomial_supports(self) -> tuple[SparseVector, ...]:
        """Each monomial's character as a sparse vector of (variable index,
        exponent) pairs, in canonical order."""
        idx = self.variable_index
        out = [
            tuple(zip(map(idx.get, b.variables), b.exponents)) for b in self.mixed_blocks
        ]
        out += [((idx[v], b.exponent),) for b in self.pure_blocks for v in b.variables]
        return tuple(out)

    @property
    def monomial_vectors(self) -> tuple[tuple[int, ...], ...]:
        """Exponent vector of each monomial over `var_order`, canonical order."""
        n = self.variable_count
        return tuple(tuple(dense(support, n)) for support in self.monomial_supports)

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


def recognize_separated(p: Polynomial) -> CanonicalForm:
    """Canonicalize a polynomial whose variables are separated.

    Raises `NotSeparatedError` naming a variable that occurs in two or more
    monomials, and `ConstantTermError` if a constant term is present.
    Non-unit coefficients are absorbed (`scaling_note` is set): the variety
    is unchanged up to a diagonal coordinate rescaling, which conjugates the
    automorphism group but does not alter its structure.
    """
    seen: dict[str, int] = {}
    for t in p.terms:
        if not t.monomial:
            raise ConstantTermError("constant terms are not allowed in separated form")
        for v, _ in t.monomial:
            seen[v] = seen.get(v, 0) + 1
    repeated = sorted(v for v, c in seen.items() if c > 1)
    if repeated:
        raise NotSeparatedError(repeated[0], seen[repeated[0]])

    mixed, pure = [], []
    for t in p.terms:
        if len(t.monomial) == 1:
            ((v, e),) = t.monomial
            pure.append((e, [v]))
        else:
            vars_, exps = zip(*t.monomial)
            mixed.append((list(vars_), list(exps)))
    scaling = any(t.coefficient != 1 for t in p.terms)
    return make_canonical_form(mixed, pure, scaling_note=scaling)


def parse_separated(text: str) -> CanonicalForm:
    """Parse and canonicalize in one step."""
    return recognize_separated(parse_polynomial(text))
