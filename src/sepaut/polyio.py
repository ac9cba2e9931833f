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
variables are separated.  A run of factors written without whitespace,
such as `x^2*y^3`, is one token; the form is built without the checks
`make_canonical_form` makes on block data from callers.

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
from collections import namedtuple
from functools import cached_property
from itertools import groupby
from operator import itemgetter

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
    "decimals",
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

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME + r"\Z")

# A vector over the canonical variables as (index, value) pairs, index
# strictly increasing, no value zero: a monomial's support with its
# exponents, and every vector the analysis emits.
SparseVector = tuple[tuple[int, int], ...]


def dense(vec: SparseVector, n: int) -> list[int]:
    """The n entries of the sparse vector `vec`."""
    out = [0] * n
    for i, x in vec:
        out[i] = x
    return out


# str(int) refuses more than sys.get_int_max_str_digits() digits (640 at the
# least); the analysis can produce integers far longer than its input, so
# those are converted in pieces of fewer digits than that, split at the
# powers 10^(600 * 2^k), each squared once and kept as far as needed
_PIECE_DIGITS = 600
_POWERS = [10**_PIECE_DIGITS]


def decimal(x: int) -> str:
    """Decimal string of any integer, whatever its length."""
    try:
        return str(x)
    except ValueError:
        if x < 0:
            return "-" + decimal(-x)
    while _POWERS[-1] <= x:
        _POWERS.append(_POWERS[-1] ** 2)
    k = 1
    while _POWERS[k] <= x:
        k += 1
    high, low = divmod(x, _POWERS[k - 1])
    return decimal(high) + decimal(low).zfill(_PIECE_DIGITS << (k - 1))


def decimals(vec: SparseVector, n: int) -> list[str]:
    """`dense(vec, n)` as decimal strings."""
    out = ["0"] * n
    for i, x in vec:
        out[i] = decimal(x)
    return out


# A permutation of the variable indices as its nontrivial cycles, each
# starting at its least index, ordered by that index: every permutation the
# analysis emits.  Each cycle maps an entry to the next, the last to the first.
Permutation = tuple[tuple[int, ...], ...]


MixedBlock = namedtuple("MixedBlock", "variables exponents")
MixedBlock.__doc__ = """One monomial in more than one variable: a tuple of
variable names and a tuple of their exponents, sorted descending."""

PureBlock = namedtuple("PureBlock", "exponent variables")
PureBlock.__doc__ = """All pure-power monomials w^q sharing the exponent q:
q and a tuple of the variable names w."""

# the fields; the subclass can keep its views
_Blocks = namedtuple(
    "_Blocks", "mixed_blocks pure_blocks scaling_note", defaults=(False,)
)


class CanonicalForm(_Blocks):
    """Block decomposition of a separated polynomial, deterministically ordered.

    Mixed blocks come first, sorted by (length, exponent list) descending with
    ties broken by first variable name; pure blocks follow with strictly
    decreasing exponents.  `scaling_note` records that non-unit coefficients
    were absorbed (equality and the hash ignore it: the block shape is the
    canonical identity).  The form is immutable, so `var_order` and `shapes`
    (the view the analysis reads) are built once, on first read; the others,
    `monomial_supports` (the oracles' view) among them, on every read.
    """

    def __eq__(self, other):
        return isinstance(other, CanonicalForm) and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    @cached_property
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

    @cached_property
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
        parts = [
            "*".join([v if e == 1 else f"{v}^{e}" for v, e in zip(*b)])
            for b in self.mixed_blocks
        ]
        for q, variables in self.pure_blocks:
            power = "" if q == 1 else f"^{q}"
            parts += [v + power for v in variables]
        return " + ".join(parts)


def make_canonical_form(mixed_blocks, pure_blocks) -> CanonicalForm:
    """Normalize raw block data into a `CanonicalForm`, validating invariants.

    `mixed_blocks` is an iterable of (variables, exponents) pairs with at
    least two variables each; `pure_blocks` of (exponent, variables) pairs.
    Pure blocks with equal exponents merge.  Every variable must occur in
    exactly one block.  This public entry validates what callers hand in;
    `parse_separated` goes straight to the unchecked builder they share, as
    its blocks are valid by construction: `_TOKEN_RE` matches the names,
    exponents are checked to be positive integers as they are read, and
    `seen` checks separation.
    """
    mixed = []
    for vars_, exps in mixed_blocks:
        vars_, exps = list(vars_), [int(e) for e in exps]
        if len(vars_) < 2:
            raise ValueError("mixed blocks need at least two variables")
        if len(vars_) != len(exps):
            raise ValueError("mixed block variables and exponents differ in length")
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be positive integers")
        mixed.append(sorted(zip(vars_, exps)))

    merged: dict[int, list[str]] = {}
    for q, vars_ in pure_blocks:
        q = int(q)
        if q < 1:
            raise ValueError("exponents must be positive integers")
        merged.setdefault(q, []).extend(vars_)

    cf = _canonical_form(mixed, merged, False)
    names = cf.var_order
    invalid = [v for v in names if not _NAME_RE.match(v)]
    if invalid:
        raise ValueError(f"invalid variable name {invalid[0]!r}")
    if len(set(names)) != len(names):
        raise ValueError("a variable occurs in more than one block")
    return cf


def _canonical_form(mixed, pure: dict[int, list[str]], scaling_note: bool) -> CanonicalForm:
    """The `CanonicalForm` of valid block data, unchecked: mixed blocks as
    (variable, exponent) pairs sorted by variable, pure variables by exponent."""
    # a stable sort keeps equal exponents in variable order
    blocks = [MixedBlock(*zip(*sorted(pairs, key=itemgetter(1), reverse=True))) for pairs in mixed]
    # (length, exponents) descending, ties by first variable ascending
    blocks.sort(key=lambda b: b.variables[0])
    blocks.sort(key=lambda b: (len(b.exponents), b.exponents), reverse=True)
    pure_out = tuple(PureBlock(q, tuple(sorted(pure[q]))) for q in sorted(pure, reverse=True))
    return CanonicalForm(tuple(blocks), pure_out, scaling_note)


# ---------------------------------------------------------------------------
# parsing

# one token per match after skipping whitespace (\s is exactly str.isspace):
# a run of factors var ['^' nat] joined by '*' without whitespace (group 1),
# a natural number (group 2) or any other character (group 3).  A run takes
# an exponent of 1 to 640 digits (int() takes 640 under any limit), positive
# and followed by no digit, '.' or '/'; any other '^' is read by `_exponent`.
_FACTOR = _NAME + r"(?:\^(?=0*[1-9])[0-9]{1,640}(?![0-9./]))?"
_TOKEN_RE = re.compile(rf"\s*(?:({_FACTOR}(?:\*{_FACTOR})*)|([0-9]+)|(\S))")


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


def _coefficient(tok: re.Match, tokens, text: str):
    """coef := nat ['/' nat] from the number `tok` on, and the token after it.
    The coefficient is an int, or a `Fraction` for `a/b`, the only input
    that loads `fractions`."""
    num = _nat(tok, "coefficient", text)
    tok = next(tokens, None)
    if not (tok and tok[3] == "/"):
        return num, tok
    slash_end = tok.end()
    tok = next(tokens, None)
    den = _nat(tok, "denominator", text)
    if den == 0:
        raise ParseError("zero denominator", slash_end)
    from fractions import Fraction

    return Fraction(num, den), next(tokens, None)


def _factors(tok: re.Match | None, tokens, text: str, factors: list) -> re.Match | None:
    """Append the (var, exponent) pairs of the run `tok` to `factors`; return
    the token after the run and after a '^' exponent of its last factor."""
    if not (tok and tok[1] is not None):
        raise _expected("a variable", tok, text)
    for factor in tok[1].split("*"):
        name, _, digits = factor.partition("^")
        factors.append((name, int(digits) if digits else 1))
    after = next(tokens, None)
    if not digits and after and after[3] == "^":
        exp, after = _exponent(next(tokens, None), tokens, text)
        factors[-1] = (name, exp)
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

    Tokens, a run of factors one token, are read with one of lookahead; like
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
    # each monomial's coefficient (int or Fraction) by its (var, exp) pairs sorted by var
    terms = {}
    sign = 1
    if tok[3] == "-":
        sign = -1
        tok = next(tokens, None)
    while True:
        coef, factors = 1, []
        if tok and tok[1] is not None:
            tok = _factors(tok, tokens, text, factors)
        elif tok and tok[2] is not None:
            coef, tok = _coefficient(tok, tokens, text)
        else:
            raise _expected("a term", tok, text)
        while tok and tok[3] == "*":
            tok = _factors(next(tokens, None), tokens, text, factors)
        if len(factors) > 1:
            # a variable repeated inside one term multiplies out: x*x == x^2
            mono: dict[str, int] = {}
            for v, e in factors:
                mono[v] = mono.get(v, 0) + e
            factors = sorted(mono.items())
        key = tuple(factors)
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
            mixed.append(mono)
    repeated = min((v for v, c in seen.items() if c > 1), default=None)
    if repeated is not None:
        raise NotSeparatedError(repeated, seen[repeated])
    return _canonical_form(mixed, pure, scaling)
