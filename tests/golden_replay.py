"""The golden corpus and its replay, with the standard library alone.

`golden/corpus.json` holds, for each command line below, its exit code and
either its exact stdout or, for the wide forms, the sha256 of its stdout.
The wide forms include the inputs of the benchmark's lattice-wide and
verify-oracles workloads at its default seed (`bench_ladder`).
The JSON entries hold the dense layout in which every vector was printed in
full and every derived section was printed too: the cone repeated the
cocharacter basis (`cone.basis`) and its transpose (`cone.weights`), said
`pointed`, and listed the homogeneity cocharacter (a function of the block
degrees) and the pair cocharacters of the mixed blocks as dense vectors;
the permutation group repeated the pure blocks (`pure_factors`) and
grouped the mixed blocks into classes of equal exponent tuples
(`mixed_classes`); and `aut.action` gave each permutation generator as its
n images.  The report now prints each fact once, and every vector, the
witness too, as a dense list of decimal strings, so a JSON output is
compared through `dense_layout`, a strict referee that rejects any key it
does not know and any vector not of its dimension, rebuilds the derived
sections from the printed data and must reproduce the recorded bytes; the
text and `verify` outputs are compared as they are.

    PYTHONPATH=src python tests/golden_replay.py            # replay, exit 1 on a mismatch
    PYTHONPATH=src python tests/golden_replay.py --record   # record again

Record only when an output is meant to change, with the change listed in
CHANGES.md; recording stores the dense layout of each JSON output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import sys
from itertools import groupby
from pathlib import Path

from sepaut.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"

FLAGSHIP = "X1^10*X2^11 + Y1^10 + Y2^10 + Y3^10"
# every oracle runs on each of them under --verify (the last has 11
# variables, of which 8640 permutations keep every exponent); the last three
# hold a class of three identical mixed blocks or an inner run of three
FORMS = (
    FLAGSHIP,
    "x + y",
    "x*y + z*w",
    "x^2 + y^2",
    "x^2*y^3 + z^5",
    "x^3*y^3 + z^6 + w^6",
    "a*b + c*d + e*f + g^3",
    "x^2*y^2*z^2*u^5 + v^7 + w^7",
    "a^2*b^2*c + d^2*e^2*f + g^2*h^2*i + j^5 + k^5",
)
# non-unit coefficients, absorbed by a diagonal rescaling
SCALED = "2*x^2 + 3*y^3 - z^5"

# 16 mixed blocks of 3 variables; each block gcd is 2, 6, 10 or 30, so the
# torsion is not trivial, and every exponent has 20 digits
MIXED_20_DIGITS = " + ".join(
    "*".join(
        f"{v}{k}^{g * (10**19 // g + 17 * (3 * k + j) + 1)}"
        for j, v in enumerate("abc")
    )
    for k, g in enumerate((2, 6, 10, 30) * 4)
)
# 4 pure powers with 1000-digit exponents sharing the factors 2, 3 and 5
PURE_1000_DIGITS = " + ".join(
    f"{v}^{g * (10**999 // g + 7 * k + 1)}"
    for k, (v, g) in enumerate(zip("pqrs", (6, 10, 15, 30)))
)


def cases() -> dict[str, list[str]]:
    out = {}
    for expr in FORMS:
        out[f"analyze {expr} --json"] = ["analyze", expr, "--json"]
        out[f"analyze {expr} --json --verify"] = ["analyze", expr, "--json", "--verify"]
    for n in range(2, 7):
        for alpha in range(2, 8):
            argv = ["fermat", str(n), str(alpha), "--json"]
            out[" ".join(argv)] = argv
            out[" ".join(argv) + " --verify"] = argv + ["--verify"]
    out["analyze flagship text"] = ["analyze", FLAGSHIP]
    out["analyze flagship text --verify"] = ["analyze", FLAGSHIP, "--verify"]
    # every branch of the text renderer: no threshold, no torsion, no
    # generators, equality, the conditional line and the scaling note
    for expr in (*FORMS[1:], SCALED):
        out[f"analyze {expr} text"] = ["analyze", expr]
        out[f"analyze {expr} text --verify"] = ["analyze", expr, "--verify"]
    out["verify flagship perms"] = ["verify", FLAGSHIP, "--oracle", "perms"]
    out["verify flagship torsion mod 10"] = [
        "verify", FLAGSHIP, "--oracle", "torsion", "--mod", "10"
    ]
    out["verify flagship generators"] = ["verify", FLAGSHIP, "--oracle", "generators"]
    return out


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_ladder() -> dict[str, list[str]]:
    """The inputs of the benchmark's in-process workloads at its default
    seed, each analysed as the benchmark analyses it (`--verify` where the
    workload verifies).  The corpus keeps each argv, so a later change to
    the generator leaves the recorded entries as they are."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    out = {}
    for workload in ("lattice-wide", "verify-oracles"):
        flags = ["--json"] + ["--verify"] * workloads.VERIFY[workload]
        for inp in workloads.WORKLOADS[workload](workloads.DEFAULT_SEED):
            out[f"bench {workload} {inp.name} {' '.join(flags)}"] = ["analyze", inp.expr, *flags]
    return out


# stored as the sha256 of stdout: each dense report is 70 to 180 kB, and the
# bench ladder's up to about 1 MB
WIDE = {
    "fermat 100 3 --json": ["fermat", "100", "3", "--json"],
    "analyze 16 mixed blocks, 20-digit exponents --json": [
        "analyze", MIXED_20_DIGITS, "--json"
    ],
    "analyze 4 pure powers, 1000-digit exponents --json --verify": [
        "analyze", PURE_1000_DIGITS, "--json", "--verify"
    ],
    **bench_ladder(),
}

# the keys of every object of a JSON report, in order, by path ("[]" for
# the entries of a list)
KEYS = {
    (): (
        "input", "canonical_form", "rigidity", "quasitorus", "permutation_group",
        "aut", "cone", "irreducible", "verification",
    ),
    ("canonical_form",): (
        "rendered", "variables", "mixed_blocks", "pure_blocks", "variable_count",
        "monomial_count", "scaling_absorbed",
    ),
    ("canonical_form", "mixed_blocks", "[]"): ("variables", "exponents"),
    ("canonical_form", "pure_blocks", "[]"): ("exponent", "variables"),
    ("rigidity",): (
        "reciprocal_sum", "threshold", "verdict", "equality",
        "block_count_threshold", "note",
    ),
    ("quasitorus",): ("torus_rank", "torsion", "cocharacter_basis", "torsion_generators"),
    ("quasitorus", "torsion_generators", "[]"): ("order", "exponents"),
    ("permutation_group",): ("order", "structure", "generators"),
    ("aut",): ("structure", "conditional_on_rigidity"),
    ("cone",): ("witness",),
    ("verification",): ("requested", "checks"),
    ("verification", "checks", "[]"): ("oracle", "status", "detail"),
}

_DECIMAL = re.compile(r"(?:0|-?[1-9][0-9]*)\Z")
_CYCLE = re.compile(r"\(([^()]*)\)")


class RefereeError(ValueError):
    """A report the referee cannot read back into the dense layout."""


def _check_keys(node, path=()) -> None:
    if isinstance(node, dict):
        if KEYS.get(path) != tuple(node):
            raise RefereeError(f"keys {list(node)} at {path or 'the top'}")
        for key, value in node.items():
            _check_keys(value, (*path, key))
    elif isinstance(node, list):
        for value in node:
            _check_keys(value, (*path, "[]"))


def _vector(entries, dim: int) -> list[str]:
    """A printed vector: a list of exactly `dim` decimal strings."""
    if not (isinstance(entries, list) and len(entries) == dim):
        raise RefereeError(f"not a list of {dim} entries: {entries!r}")
    for value in entries:
        if not (isinstance(value, str) and _DECIMAL.match(value)):
            raise RefereeError(f"entry {value!r} is not a decimal")
    return entries


def _images(generator: str, index: dict[str, int]) -> list[int]:
    """The n images of a generator printed in cycle notation."""
    cycles = [c.split() for c in _CYCLE.findall(generator)]
    if "".join(f"({' '.join(c)})" for c in cycles) != generator:
        raise RefereeError(f"not in cycle notation: {generator!r}")
    out = list(range(len(index)))
    moved = [v for cycle in cycles for v in cycle]
    if len(set(moved)) != len(moved) or not set(moved) <= set(index):
        raise RefereeError(f"not a permutation of the variables: {generator!r}")
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[index[a]] = index[b]
    return out


def _pair_cocharacters(blocks, index: dict[str, int]) -> list[dict]:
    """For each mixed block and position j >= 1, the cocharacter weighting
    the block's first variable by its j-th exponent and the j-th variable by
    minus the first exponent, as a dense vector."""
    out = []
    for bi, block in enumerate(blocks):
        names, exponents = block["variables"], block["exponents"]
        for j in range(1, len(names)):
            vector = ["0"] * len(index)
            vector[index[names[0]]] = str(exponents[j])
            vector[index[names[j]]] = str(-exponents[0])
            out.append({"block": bi, "position": j, "vector": vector})
    return out


def _mixed_classes(blocks) -> list[dict]:
    """The classes of identical mixed blocks: runs of equal exponent tuples
    (equal tuples sit next to each other in canonical order), each with the
    run lengths of equal exponents inside one block."""
    out, first = [], 0
    for exponents, run in groupby(block["exponents"] for block in blocks):
        size = len(list(run))
        out.append({
            "blocks": list(range(first, first + size)),
            "exponents": exponents,
            "inner_multiplicities": [len(list(g)) for _, g in groupby(exponents)],
        })
        first += size
    return out


def block_homogeneity(form: dict, index: dict[str, int]) -> list[str]:
    """The homogeneity cocharacter read off a printed canonical form, as a
    dense vector: each variable weighs the lcm of all block degrees (a mixed
    block's exponent sum, a pure block's exponent) over the degree of its
    own block."""
    blocks = [(b["variables"], sum(b["exponents"])) for b in form["mixed_blocks"]]
    blocks += [(b["variables"], b["exponent"]) for b in form["pure_blocks"]]
    total = math.lcm(*(degree for _, degree in blocks))
    out = ["0"] * len(index)
    for names, degree in blocks:
        for v in names:
            out[index[v]] = str(total // degree)
    return out


def dense_layout(report: dict) -> dict:
    """The report in the dense layout the corpus was recorded in: the
    permutation group with its pure factors and mixed classes, `aut` ending
    in the action of each permutation generator, and the cone with the
    cocharacter basis and its transpose (the weights), the pointedness the
    witness shows (it pairs with the weight of each variable to that
    variable's homogeneity weight, a positive number), the dense witness,
    the homogeneity cocharacter (read off the block degrees) and the pair
    cocharacters."""
    _check_keys(report)
    cf, quasi = report["canonical_form"], report["quasitorus"]
    names = cf["variables"]
    n, rank = len(names), quasi["torus_rank"]
    if cf["variable_count"] != n:
        raise RefereeError("variable count differs from the variables")
    basis = quasi["cocharacter_basis"]
    if len(basis) != rank or any(len(v) != n for v in basis):
        raise RefereeError(f"basis not {rank} dense vectors of {n}")
    index = {v: i for i, v in enumerate(names)}
    homogeneity = block_homogeneity(cf, index)
    witness = _vector(report["cone"]["witness"], rank)
    weights = [[b[v] for b in basis] for v in range(n)]
    pointed = all(
        sum(int(u) * int(x) for u, x in zip(witness, weight)) == int(h) > 0
        for weight, h in zip(weights, homogeneity)
    )
    perm = report["permutation_group"]
    action = [_images(g, index) for g in perm["generators"]]
    return {
        **report,
        "permutation_group": {
            "order": perm["order"],
            "structure": perm["structure"],
            "pure_factors": cf["pure_blocks"],
            "mixed_classes": _mixed_classes(cf["mixed_blocks"]),
            "generators": perm["generators"],
        },
        "aut": {**report["aut"], "action": action},
        "cone": {
            "basis": basis,
            "weights": weights,
            "pointed": pointed,
            "witness": witness,
            "homogeneity_cocharacter": homogeneity,
            "pair_cocharacters": _pair_cocharacters(cf["mixed_blocks"], index),
        },
    }


def _dump(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"


def recorded_form(argv, out: str) -> str:
    """What the corpus holds for `argv`'s stdout `out`: a JSON report in the
    dense layout, any other output as printed.  A JSON output must itself be
    in the printed form (indent 2, ASCII) for its expansion to count."""
    if "--json" not in argv:
        return out
    report = json.loads(out)
    if _dump(report) != out:
        raise RefereeError("JSON output not in the printed form")
    return _dump(dense_layout(report))


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def replay(name: str, entry: dict) -> tuple[int, str]:
    """Exit code and recorded form (digest for the wide entries) of one run."""
    code, out = run(entry["argv"])
    out = recorded_form(entry["argv"], out)
    if name in WIDE:
        return code, hashlib.sha256(out.encode()).hexdigest()
    return code, out


def expected(name: str, entry: dict) -> tuple[int, str]:
    return entry["exit"], entry["sha256" if name in WIDE else "stdout"]


def load() -> dict:
    return json.loads(CORPUS.read_text())


def record() -> dict:
    corpus = {}
    for name, argv in {**cases(), **WIDE}.items():
        code, out = replay(name, {"argv": argv})
        corpus[name] = {"argv": argv, "exit": code, "sha256" if name in WIDE else "stdout": out}
    return corpus


def check() -> list[str]:
    """The names of the corpus entries that do not replay, with the reason."""
    corpus = load()
    names = {*cases(), *WIDE}
    bad = [f"{name}: not in both the corpus and the cases" for name in sorted(set(corpus) ^ names)]
    for name, entry in corpus.items():
        try:
            if replay(name, entry) != expected(name, entry):
                bad.append(f"{name}: output differs")
        except (ValueError, TypeError, KeyError) as exc:  # RefereeError included
            bad.append(f"{name}: {type(exc).__name__}: {exc}")
    return bad


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        CORPUS.parent.mkdir(exist_ok=True)
        CORPUS.write_text(json.dumps(record(), indent=1, ensure_ascii=True) + "\n")
        sys.exit(0)
    if sys.argv[1:]:
        sys.exit("usage: golden_replay.py [--record]")
    failures = check()
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(failures)} of {len(load())} golden entries failed to replay")
    sys.exit(1 if failures else 0)
