import contextlib
import inspect
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FLAGSHIP, character_matrix, random_canonical_form, times_rows
from golden_replay import block_homogeneity
import sepaut.cli
from sepaut.autassembly import aut_group, fermat_form
from sepaut.cli import REPORT_LIMIT, build_report, main
from sepaut.polyio import CanonicalForm, decimal, dense, parse_separated
from sepaut.torusgeom import homogeneity_cocharacter

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_report(capsys):
    code, out, _ = run_cli(capsys, "analyze", FLAGSHIP)
    assert code == 0
    assert "S3" in out
    assert "(Z/10)^2" in out
    assert "27/55" in out
    assert "certified_rigid" in out
    assert "irreducible" in out


def test_analyze_json_report(capsys):
    code, out, _ = run_cli(capsys, "analyze", FLAGSHIP, "--json")
    assert code == 0
    report = json.loads(out)
    assert list(report.keys()) == [
        "input",
        "canonical_form",
        "rigidity",
        "quasitorus",
        "permutation_group",
        "aut",
        "cone",
        "irreducible",
        "verification",
    ]
    assert report["aut"]["structure"] == "S3 ⋉ ((Z/10)^2 × T^2)"
    assert report["rigidity"]["reciprocal_sum"] == "27/55"
    assert report["rigidity"]["threshold"] == "1/2"
    assert report["quasitorus"]["torsion"] == ["10", "10"]
    assert report["quasitorus"]["torus_rank"] == 2
    assert report["permutation_group"]["order"] == "6"
    # the echoed polynomial round-trips to the same canonical form
    echoed = report["canonical_form"]["rendered"]
    assert parse_separated(echoed).to_text() == echoed


def test_each_generator_prints_its_own_order(capsys, monkeypatch):
    # the torsion claim forged to (2, 8) in place of (4, 4): the generators
    # keep order 4, and each prints the order it is certified at
    aut = aut_group(parse_separated("x^4 + y^4 + z^4"))
    forged = aut._replace(quasitorus=aut.quasitorus._replace(torsion=(2, 8)))
    monkeypatch.setattr(sepaut.cli, "aut_group", lambda cf: forged)
    code, out, _ = run_cli(capsys, "analyze", "x^4 + y^4 + z^4", "--json")
    quasi = json.loads(out)["quasitorus"]
    assert code == 0 and quasi["torsion"] == ["2", "8"]
    assert [t["order"] for t in quasi["torsion_generators"]] == ["4", "4"]


def _sepaut(*argv, stdin=None) -> bytes:
    """The stdout of `python -m sepaut *argv`, which must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "sepaut", *argv],
        stdin=stdin, env=env, capture_output=True, check=True,
    )
    return proc.stdout


def test_analyze_from_file(tmp_path):
    # `sepaut analyze - --json < poly.txt`: the file's text, stripped, is
    # the expression, and the report is the inline expression's byte for byte
    path = tmp_path / "poly.txt"
    path.write_text(FLAGSHIP + "\n")
    with path.open() as stdin:
        out = _sepaut("analyze", "-", "--json", stdin=stdin)
    assert json.loads(out)["permutation_group"]["order"] == "6"
    assert out == _sepaut("analyze", FLAGSHIP, "--json")


def test_an_argument_naming_a_file_is_the_expression(tmp_path, monkeypatch, capsys):
    (tmp_path / "x+y").write_text("a^2 + b^3")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "analyze", "x+y", "--json")
    assert code == 0
    assert json.loads(out)["input"] == "x+y"


def test_dash_with_stdin_closed_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", None)
    for command in (["analyze", "-"], ["verify", "-", "--oracle", "perms"]):
        assert run_cli(capsys, *command) == (1, "", "error: stdin is closed\n")


def test_verify_settles_mod_before_reading_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", None)
    assert run_cli(capsys, "verify", "-", "--oracle", "torsion") == (
        1, "", f"{sepaut.cli.USAGE}\nerror: the torsion oracle needs --mod N\n"
    )


@pytest.mark.parametrize("flags", [["--json"], []])
def test_a_leading_minus_starts_an_expression(capsys, flags):
    # only `-h` itself asks for help, so `-h^2...` is an expression too
    for text in ("-x^2+y^3+z^5", "-h^2+y^3+z^5"):
        expected = run_cli(capsys, "analyze", *flags, "--", text)
        assert expected[0] == 0
        assert run_cli(capsys, "analyze", *flags, text) == expected
        assert run_cli(capsys, "analyze", text, *flags) == expected
        if flags:
            assert json.loads(expected[1])["input"] == text
        code, out, _ = run_cli(capsys, "verify", text, "--oracle", "perms")
        assert (code, out) == (0, "verify perms: pass (brute force 1, closed formula 1)\n")


def test_verify_reads_a_form_longer_than_an_argument_from_stdin(tmp_path):
    # 10 000 blocks are 178 kB of text, over Linux's 128 KiB limit on one
    # command-line argument
    text = " + ".join(f"a{i}^2*b{i}^3" for i in range(10_000))
    assert len(text.encode()) > 128 * 1024
    path = tmp_path / "wide.txt"
    path.write_text(text)
    with path.open() as stdin:
        out = _sepaut("verify", "-", "--oracle", "generators", stdin=stdin)
    assert out == b"verify generators: pass (10003 generators certified)\n"


def test_analyze_not_separated_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "x^2*y + x")
    assert code == 2
    assert "x" in err


def test_analyze_other_errors_exit_1(capsys):
    assert run_cli(capsys, "analyze", "x - x")[0] == 1
    assert run_cli(capsys, "analyze", "x^2 + 1")[0] == 1
    assert run_cli(capsys, "analyze", "x^2 +")[0] == 1
    assert run_cli(capsys, "analyze", "x*y")[0] == 1  # single monomial


def test_analyze_with_verification(capsys):
    code, out, _ = run_cli(capsys, "analyze", FLAGSHIP, "--verify", "--json")
    assert code == 0
    checks = json.loads(out)["verification"]["checks"]
    assert [c["oracle"] for c in checks] == ["generators", "perms", "torsion mod 10"]
    assert all(c["status"] == "pass" for c in checks)


def test_verify_perms(capsys):
    code, out, _ = run_cli(capsys, "verify", FLAGSHIP, "--oracle", "perms")
    assert code == 0
    assert out == "verify perms: pass (brute force 6, closed formula 6)\n"


def test_verify_torsion(capsys):
    code, out, _ = run_cli(
        capsys, "verify", FLAGSHIP, "--oracle", "torsion", "--mod", "10"
    )
    assert code == 0
    assert out == (
        "verify torsion mod 10: pass (enumerated 10000, divisor formula 10000)\n"
    )


@pytest.mark.parametrize(
    "name, flags",
    [
        ("perms", ["--oracle", "perms"]),
        ("torsion mod 10", ["--oracle", "torsion", "--mod", "10"]),
        ("generators", ["--oracle", "generators"]),
    ],
)
def test_verify_prints_the_check_line_of_analyze_verify(capsys, name, flags):
    code, out, err = run_cli(capsys, "verify", FLAGSHIP, *flags)
    assert (code, err) == (0, "")
    _, report, _ = run_cli(capsys, "analyze", FLAGSHIP, "--verify")
    (line,) = [x for x in report.splitlines() if x.startswith(f"verify {name}: ")]
    assert out == line + "\n"


def test_verify_refuses_a_single_monomial_as_analyze_does(capsys):
    # every oracle checks the analysis, which needs two monomials
    _, _, err = run_cli(capsys, "analyze", "x^2")
    assert err == (
        "error: need at least two monomials to cut out a hypersurface with "
        "diagonal symmetry structure\n"
    )
    for flags in (["perms"], ["torsion", "--mod", "2"], ["generators"]):
        assert run_cli(capsys, "verify", "x^2", "--oracle", *flags) == (1, "", err)


def test_verify_torsion_needs_mod(capsys):
    code, _, err = run_cli(capsys, "verify", FLAGSHIP, "--oracle", "torsion")
    assert code == 1
    assert "--mod" in err


@pytest.mark.parametrize("oracle", ["perms", "generators"])
def test_verify_refuses_mod_without_torsion(capsys, oracle):
    argv = ["verify", "x^2+y^2", "--oracle", oracle, "--mod", "5"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"{sepaut.cli.USAGE}\nerror: the {oracle} oracle takes no --mod\n"


def test_verify_generators(capsys):
    # 2 permutations, 2 torsion generators and 2 cocharacters, once each
    code, out, _ = run_cli(capsys, "verify", FLAGSHIP, "--oracle", "generators")
    assert (code, out) == (0, "verify generators: pass (6 generators certified)\n")


BIG = " + ".join(f"a{k}^2" for k in range(9))


def test_verify_guards_exit_3(capsys):
    code, _, err = run_cli(capsys, "verify", BIG, "--oracle", "perms")
    assert code == 3
    assert "guard" in err
    # 9 pure squares mod 200000: M*N = 1.8*10^6 steps, over the guard
    code, _, err = run_cli(capsys, "verify", BIG, "--oracle", "torsion", "--mod", "200000")
    assert code == 3
    assert "guard" in err


def test_verify_perms_beyond_eight_variables(capsys):
    # 11 variables, but only 8640 permutations keep every exponent
    expr = "a^2*b^2*c + d^2*e^2*f + g^2*h^2*i + j^5 + k^5"
    code, out, _ = run_cli(capsys, "verify", expr, "--oracle", "perms")
    assert code == 0
    assert out == "verify perms: pass (brute force 96, closed formula 96)\n"


def test_analyze_verify_reports_guard_as_skipped(capsys):
    code, out, _ = run_cli(capsys, "analyze", BIG, "--json", "--verify")
    assert code == 0
    checks = json.loads(out)["verification"]["checks"]
    by_name = {c["oracle"]: c["status"] for c in checks}
    assert by_name["perms"] == "skipped"
    assert by_name["generators"] == "pass"


def test_fermat_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fermat", "3", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["aut"]["structure"] == "S3 ⋉ ((Z/3)^2 × T^1)"
    assert report["quasitorus"]["torsion"] == ["3", "3"]
    assert report["permutation_group"]["order"] == "6"


def test_fermat_bad_parameters(capsys):
    assert run_cli(capsys, "fermat", "1", "3")[0] == 1


@pytest.mark.parametrize("flags", [[], ["--verify"]])
def test_json_output_is_byte_identical_across_processes(flags):
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONIOENCODING"] = "utf-8"
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "sepaut", "analyze", FLAGSHIP, "--json", *flags],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_cli_imports_only_the_standard_library():
    # `python -S` loads no site hooks, so the modules loaded before the
    # import are the interpreter's own few; the oracles load only with the
    # commands that run them, `json` only with `--json`, `fractions` (with
    # `decimal` and `numbers`) only for a coefficient written a/b, and no
    # command loads the Smith normal form, `typing`, `dataclasses`,
    # `inspect`, `pathlib` or argparse and what comes with it
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sepaut.cli\n"
        "argv, status, out = sys.argv[1:], 0, sys.stdout\n"
        "if argv:\n"
        "    import io\n"
        "    sys.stdout = io.StringIO()\n"
        "    status = sepaut.cli.main(argv)\n"
        "print(status, *sorted(set(sys.modules) - before), file=out)\n"
    )
    oracles = "sepaut.oracles"
    written_fraction = "1/2*x^2+y^3+z^5"
    cases = [
        ([], set()),
        (["analyze", FLAGSHIP], set()),
        (["analyze", written_fraction], set()),
        (["analyze", FLAGSHIP, "--json"], set()),
        (["fermat", "4", "3"], set()),
        (["analyze", FLAGSHIP, "--json", "--verify"], {oracles}),
        (["fermat", "4", "3", "--verify"], {oracles}),
        (["verify", FLAGSHIP, "--oracle", "perms"], {oracles}),
        (["verify", FLAGSHIP, "--oracle", "torsion", "--mod", "10"], {oracles}),
        (["verify", FLAGSHIP, "--oracle", "generators"], {oracles}),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for argv, expected in cases:
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        status, *loaded = proc.stdout.split()
        assert status == "0", (argv, proc.stderr)
        assert "sepaut.cli" in loaded
        assert {oracles} & set(loaded) == expected, argv
        assert ("json" in loaded) == ("--json" in argv), argv
        forbidden = {"sepaut.intlat", "typing", "dataclasses", "inspect", "pathlib"}
        forbidden |= {"argparse", "gettext", "locale", "shutil"}
        if written_fraction in argv:
            assert "fractions" in loaded
        else:
            forbidden |= {"fractions", "decimal", "numbers"}
        assert forbidden & set(loaded) == set(), argv
        third_party = [
            name for name in loaded
            if name.partition(".")[0] not in sys.stdlib_module_names | {"sepaut"}
        ]
        assert third_party == []


def test_analysis_path_never_runs_smith_normal_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Smith normal form on the analysis path")

    for name, module in list(sys.modules.items()):
        if name == "sepaut" or name.startswith("sepaut."):
            for attr in ("smith_normal_form", "kernel_basis"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    rng = random.Random(45)
    texts = [FLAGSHIP, BIG] + [random_canonical_form(rng).to_text() for _ in range(10)]
    for text in texts:
        for verify in (False, True):
            report = build_report(text, parse_separated(text), verify=verify)
            assert all(c["status"] != "fail" for c in report["verification"]["checks"])


STAGES = (
    "permutation_group",
    "quasitorus_structure",
    "rigidity_certificate",
    "homogeneity_cocharacter",
    "pointedness_witness",
)


def _count_calls(monkeypatch, names) -> dict[str, int]:
    """Wrap every binding of each named sepaut function with a call counter,
    in every sepaut module that holds it (as bench/tracer.py wraps them)."""
    counts = dict.fromkeys(names, 0)
    wrappers = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name == "sepaut" or module_name.startswith("sepaut."):
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn):
                    wrappers.setdefault(fn, counted(name, fn))
                    monkeypatch.setattr(module, name, wrappers[fn])
    return counts


def test_build_report_runs_each_stage_once(monkeypatch):
    import sepaut.oracles  # noqa: F401  (loaded so its torsion count is counted)

    counts = _count_calls(monkeypatch, STAGES + ("count_torsion_points_mod",))
    rng = random.Random(48)
    # torsion (2, 6) runs the torsion oracle at two moduli; fermat 30 2 is
    # counted mod 2 in 60 steps
    fermat = fermat_form(30, 2).to_text()
    texts = [FLAGSHIP, BIG, "x + y", "x^2*y^2 + z^6 + w^6", fermat]
    texts += [random_canonical_form(rng).to_text() for _ in range(8)]
    for text in texts:
        for verify in (False, True):
            for name in counts:
                counts[name] = 0
            report = build_report(text, parse_separated(text), verify=verify)
            assert {name: counts[name] for name in STAGES} == dict.fromkeys(STAGES, 1)
            torsion = [
                c["status"] for c in report["verification"]["checks"]
                if c["oracle"].startswith("torsion mod")
            ]
            assert counts["count_torsion_points_mod"] == len(torsion)
            if text == fermat and verify:
                assert torsion == ["pass"]


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_fermat_renders_its_form_once(capsys, monkeypatch, flags):
    # the input of `fermat` is the rendered form, printed twice and
    # rendered once
    calls = []
    to_text = CanonicalForm.to_text

    def counted(cf):
        calls.append(cf)
        return to_text(cf)

    monkeypatch.setattr(CanonicalForm, "to_text", counted)
    code, out, _ = run_cli(capsys, "fermat", "4", "3", *flags)
    assert code == 0 and len(calls) == 1
    assert out.count("Y1^3 + Y2^3 + Y3^3 + Y4^3") == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fermat", "3", "x"], "error: invalid literal for int() with base 10: 'x'"),
        (["analyze"], "error: analyze takes EXPR, got []"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["snf", "m.txt"], "invalid choice: 'snf'"),
        (["analyze", "--jsn", "x"], "unrecognized arguments: --jsn"),
        (["analyze", "-x^2", "-y^3"], "error: analyze takes EXPR, got ['-x^2', '-y^3']"),
        (["verify", "x+y", "--oracle", "torsion", "--mod", "2", "--mod", "3"],
         "error: --mod given twice"),
        (["analyze", "x^2+y^3", "--json", "--json"], "error: --json given twice"),
        (["verify", "x^2+y^3", "--oracle", "torsion", "--mod"], "error: --mod needs a value"),
        (["verify", "x^2+y^3", "--oracle"], "error: --oracle needs a value"),
        (["verify", "x^2+y^3", "--oracle", "torsion", "--mod", "0"], "error: --mod must be >= 1"),
        (["verify", "x^2+y^3", "--oracle", "torsion", "--mod", "-4"], "error: --mod must be >= 1"),
        (["verify", "x^2+y^3", "--oracle", "torsion"], "error: the torsion oracle needs --mod N"),
        (["verify", "x^2+y^3", "--oracle", "perms", "--mod", "5"],
         "error: the perms oracle takes no --mod"),
        (["verify", "x^2+y^3", "--oracle", "generators", "--mod", "5"],
         "error: the generators oracle takes no --mod"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 1, as exit 2 would read as "input not separated"
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "usage: sepaut" in err and message in err


# short text over the characters of the expression grammar, drawn in pieces
# so that some of it parses
_TEXT = st.lists(
    st.sampled_from(["x", "y", "z_1", "h", "2", "10", "^", "*", "/", "+", "-", " "]),
    max_size=12,
).map("".join)
_ARGVS = st.one_of(
    _TEXT.map(lambda text: ["analyze", text]),
    _TEXT.map(lambda text: ["analyze", text, "--json", "--verify"]),
    st.builds(
        lambda text, oracle, mod: ["verify", text, "--oracle", oracle, *mod],
        _TEXT,
        st.sampled_from(["perms", "torsion", "generators"]),
        st.just([]) | st.integers(-1, 12).map(lambda m: ["--mod", str(m)]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_ARGVS)
def test_main_exits_with_a_code_on_any_text(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) in (0, 1, 2, 3)


_NAME = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)
_COEFFICIENTS = ("2*", "3/2*", "5/7*", "12*", "")  # "" only with a minus sign


@st.composite
def _variants(draw):
    """A separated form over v0, v1, ... and the same form with its terms
    and factors shuffled, a non-unit coefficient on every term, and its
    variables renamed in an order-preserving way (so the canonical order is
    kept), with the renaming."""
    shapes = draw(
        st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=2), min_size=2, max_size=4)
    )
    names = iter(f"v{k}" for k in range(8))
    terms = [[(next(names), e) for e in shape] for shape in shapes]
    old = sorted(v for term in terms for v, _ in term)
    rename = dict(zip(old, sorted(draw(st.sets(_NAME, min_size=len(old), max_size=len(old))))))
    text = " + ".join("*".join(f"{v}^{e}" for v, e in term) for term in terms)
    pieces = []
    for term in draw(st.permutations(terms)):
        factors = "*".join(f"{rename[v]}^{e}" for v, e in draw(st.permutations(term)))
        coefficient = draw(st.sampled_from(_COEFFICIENTS))
        sign = "-" if not coefficient else draw(st.sampled_from("+-"))
        pieces.append(f" {sign} {coefficient}{factors}")
    return text, "".join(pieces).removeprefix(" + "), rename


def _names_mapped(report: dict, names: dict) -> dict:
    """`report` with every variable name mapped through `names` and the
    fields that may differ between variants (the input, the rendered form
    and the absorbed scaling) left out."""
    report = json.loads(json.dumps(report))
    cf, perm = report["canonical_form"], report["permutation_group"]
    del report["input"], cf["rendered"], cf["scaling_absorbed"]
    cf["variables"] = [names[v] for v in cf["variables"]]
    for block in cf["mixed_blocks"] + cf["pure_blocks"]:
        block["variables"] = [names[v] for v in block["variables"]]
    perm["generators"] = [
        re.sub(r"[^() ]+", lambda m: names[m.group()], g) for g in perm["generators"]
    ]
    return report


@settings(max_examples=60, deadline=None)
@given(_variants())
def test_report_is_invariant_under_order_names_and_scaling(variant):
    """Shuffling terms and factors, renaming the variables in order and
    scaling every term change only the input, the rendered form, the
    variable names and the absorbed scaling of the verified report."""
    text, changed, rename = variant
    report = build_report(text, parse_separated(text), verify=True)
    other = build_report(changed, parse_separated(changed), verify=True)
    assert not report["canonical_form"]["scaling_absorbed"]
    assert other["canonical_form"]["scaling_absorbed"]
    assert other["input"] == changed
    back = {new: old for old, new in rename.items()}
    same = {v: v for v in rename}
    assert _names_mapped(other, back) == _names_mapped(report, same)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0))
def test_report_agrees_after_a_renaming_that_reorders(seed):
    """Renaming the variables so that the canonical order changes keeps the
    torus rank, torsion, permutation order, structure and reciprocal sum,
    and each printed basis vector (torsion generator of order d), read back
    in the original coordinates, solves D v = 0 (mod d) for the original D;
    each variable keeps its homogeneity weight."""
    rng = random.Random(seed)
    # small exponents give ties, which only the names order
    cf = random_canonical_form(rng, max_vars=8, max_exp=4)
    names = cf.var_order
    fresh = [f"w{k}" for k in range(len(names))]
    for _ in range(10):
        rng.shuffle(fresh)
        rename = dict(zip(names, fresh))
        text = " + ".join(
            "*".join(f"{rename[names[v]]}^{e}" for v, e in support)
            for support in cf.monomial_supports
        )
        renamed = parse_separated(text)
        back = {new: old for old, new in rename.items()}
        order = [names.index(back[v]) for v in renamed.var_order]
        if order != sorted(order):
            break
    assume(order != sorted(order))
    report = build_report(cf.to_text(), cf)
    other = build_report(text, renamed)

    def invariants(r):
        return (
            r["quasitorus"]["torus_rank"], r["quasitorus"]["torsion"],
            r["permutation_group"]["order"], r["aut"]["structure"],
            r["rigidity"]["reciprocal_sum"],
        )

    def original(vec):
        out = [0] * len(names)
        for i, x in zip(order, vec):
            out[i] = int(x)
        return out

    assert invariants(other) == invariants(report)
    rows = character_matrix(cf)
    zero = (0,) * len(rows)
    for vec in other["quasitorus"]["cocharacter_basis"]:
        assert times_rows(rows, original(vec)) == zero
    for t in other["quasitorus"]["torsion_generators"]:
        d = int(t["order"])
        assert all(x % d == 0 for x in times_rows(rows, original(t["exponents"])))
    homogeneity = dense(homogeneity_cocharacter(cf), len(names))
    assert original(dense(homogeneity_cocharacter(renamed), len(names))) == homogeneity


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "usage: sepaut" in out
    for argv in (["fermat", "--help"], ["analyze", "-h"], ["verify", "--help"],
                 ["analyze", "x^2+y^3", "--help"]):
        assert run_cli(capsys, *argv) == (0, out, "")


def _invariant_factors(values):
    """Invariant factors of the direct sum of Z/g, by gcd/lcm exchanges."""
    g = list(values)
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            d = math.gcd(g[i], g[j])
            g[i], g[j] = d, g[i] // d * g[j]
    return g


def test_four_block_thousand_digit_analysis(capsys):
    rng = random.Random(46)
    shared = rng.randrange(10**499, 10**500)
    blocks = []
    for k, scale in enumerate((6, 10, 15, 4)):
        while True:
            a, b = (rng.randrange(10**499, 10**500) for _ in range(2))
            if math.gcd(a, b) == 1:
                break
        blocks.append(((f"a{k}", shared * scale * a), (f"b{k}", shared * scale * b)))
    text = " + ".join("*".join(f"{v}^{e}" for v, e in block) for block in blocks)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", text, "--json", "--verify")
    assert time.perf_counter() - start < 10.0
    assert code == 0
    report = json.loads(out)
    quasi = report["quasitorus"]
    factors = _invariant_factors(shared * s for s in (6, 10, 15, 4))
    expected = [d for d in factors[:-1] if d > 1]
    assert quasi["torsion"] == [str(d) for d in expected]
    assert quasi["torus_rank"] == 5
    names = report["canonical_form"]["variables"]
    chars = []
    for block in blocks:
        exps = dict(block)
        chars.append([exps.get(v, 0) for v in names])
    for vec in quasi["cocharacter_basis"]:
        assert len({sum(c * int(x) for c, x in zip(chi, vec)) for chi in chars}) == 1
    for gen in quasi["torsion_generators"]:
        d = int(gen["order"])
        exps = [int(x) for x in gen["exponents"]]
        assert len({sum(c * x for c, x in zip(chi, exps)) % d for chi in chars}) == 1
        assert math.gcd(d, *exps) == 1
    # the witness pairs with the weight of each variable (its column of the
    # basis) to that variable's homogeneity weight, so the cone is pointed
    witness = {k: int(u) for k, u in enumerate(report["cone"]["witness"])}
    basis = [[int(x) for x in vec] for vec in quasi["cocharacter_basis"]]
    index = {v: i for i, v in enumerate(names)}
    homogeneity = block_homogeneity(report["canonical_form"], index)
    for v, h in enumerate(homogeneity):
        assert sum(u * basis[k][v] for k, u in witness.items()) == int(h) > 0


def _long_int(text: str) -> int:
    """int() of a decimal string longer than the interpreter's limit."""
    value = 0
    for start in range(0, len(text), 500):
        piece = text[start : start + 500]
        value = value * 10 ** len(piece) + int(piece)
    return value


def test_torsion_beyond_the_conversion_limit(capsys):
    # coprime P and Q of 4000 digits: the torsion invariant P*Q has 7999
    p, q = 10**3999 + 1, 10**3999 + 3
    text = f"x^{p} + y^{p} + z^{q} + w^{q}"
    code, out, _ = run_cli(capsys, "analyze", text, "--json")
    assert code == 0
    report = json.loads(out)
    (d,) = report["quasitorus"]["torsion"]
    assert len(d) == 7999 and _long_int(d) == p * q
    assert report["aut"]["structure"] == f"S2 × S2 ⋉ ((Z/{d})^1 × T^1)"
    code, out, _ = run_cli(capsys, "analyze", text, "--verify")
    assert code == 0
    assert f"verify torsion mod {d}: skipped (sum of (N + (k-1)*N^2) * " in out
    assert f" word steps over the monomials of k variables for N = {d}, " in out
    assert "verify generators: pass (4 generators certified)" in out


def test_enumeration_guard_never_builds_the_power(capsys):
    # N^20000 of a 1000-digit N would have 2*10^7 digits; the guard's
    # weighted sum of N + (k-1)*N^2 word steps has about 2000
    modulus = 10**999 + 7
    text = fermat_form(20000, 2).to_text()
    argv = ["verify", text, "--oracle", "torsion", "--mod", str(modulus)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "guard violation: sum of (N + (k-1)*N^2) * ceil(k*bits(N)/64) word steps "
        f"over the monomials of k variables for N = {modulus}, n = 20000, "
        "M = 20000 exceed the enumeration guard 1000000\n"
    )


def test_verify_torsion_counts_a_wide_fermat_form(capsys):
    # fermat 20000 2 mod 2: 40000 steps, and a count of 6021 digits
    text = fermat_form(20000, 2).to_text()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", text, "--oracle", "torsion", "--mod", "2")
    elapsed = time.perf_counter() - start
    count = decimal(2**20000)
    assert (code, err) == (0, "")
    assert out == (
        f"verify torsion mod 2: pass (enumerated {count}, divisor formula {count})\n"
    )
    assert elapsed < 1.0


def test_report_prints_integers_beyond_the_conversion_limit(capsys):
    rng = random.Random(47)
    exponents = [rng.randrange(10**999, 10**1000) for _ in range(6)]
    text = " + ".join(f"y{k}^{e}" for k, e in enumerate(exponents))
    code, out, _ = run_cli(capsys, "analyze", text, "--json", "--verify")
    assert code == 0
    report = json.loads(out)
    # on pure powers the one basis vector is the homogeneity, lcm / e_k
    (basis,) = report["quasitorus"]["cocharacter_basis"]
    assert max(len(x) for x in basis) > sys.get_int_max_str_digits() > 0
    names = report["canonical_form"]["variables"]
    by_name = dict(zip(names, basis))
    total = math.lcm(*exponents)
    for k, e in enumerate(exponents):
        assert _long_int(by_name[f"y{k}"]) * e == total
    assert run_cli(capsys, "analyze", text)[0] == 0


def test_overlong_exponent_exits_1_with_position(capsys):
    code, _, err = run_cli(capsys, "analyze", "x^2 + y^" + "7" * 5000)
    assert code == 1
    assert "5000 digits" in err and "position 8" in err


def test_huge_report_exits_1_with_its_size(capsys):
    # 100000 pure squares: 99999 torsion generators of 100000 entries each,
    # the basis vector, 100002 points in the two permutation generators and
    # the witness, in either mode
    for flags in ([], ["--json"]):
        code, out, err = run_cli(capsys, "fermat", "100000", "2", *flags)
        assert (code, out) == (1, "")
        assert err == (
            "error: the report would print 10000100003 vector entries and cycle "
            f"points, over the limit of {REPORT_LIMIT}\n"
        )


def test_fermat_refuses_before_it_builds_the_form(monkeypatch, capsys):
    # the count it refuses with, before any form is built, is the built
    # report's `_report_size`: n^2 + n + 3 for n >= 3 and n^2 + 3 for n = 2
    monkeypatch.setattr(sepaut.cli, "REPORT_LIMIT", 0)
    built = []
    monkeypatch.setattr(sepaut.cli, "fermat_form", lambda *a: built.append(a))
    for n, alpha in itertools.product(range(2, 41), range(2, 6)):
        aut = aut_group(fermat_form(n, alpha))
        size = sepaut.cli._report_size(n, aut)
        assert size == n * n + (n if n > 2 else 0) + 3
        code, out, err = run_cli(capsys, "fermat", str(n), str(alpha))
        assert (code, out) == (1, "")
        assert err == (
            f"error: the report would print {size} vector entries and cycle "
            "points, over the limit of 0\n"
        )
    assert built == []


def test_huge_fermat_exits_1_at_once(monkeypatch, capsys):
    # building 10^8 variables would take tens of GB: fail fast instead
    monkeypatch.setattr(sepaut.cli, "fermat_form", lambda *a: pytest.fail("built"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fermat", "100000000", "2")
    assert (code, out) == (1, "")
    assert "print 10000000100000003 vector entries" in err
    assert time.perf_counter() - start < 1.0


def _printed_entries(out: str, as_json: bool) -> int:
    """The vector entries and cycle points in a printed report: each entry
    of a vector, and each variable of a generator in cycle notation."""
    if as_json:
        report = json.loads(out)
        quasi = report["quasitorus"]
        vectors = [*quasi["cocharacter_basis"], report["cone"]["witness"]]
        vectors += [t["exponents"] for t in quasi["torsion_generators"]]
        cycles = report["permutation_group"]["generators"]
        return sum(map(len, vectors)) + sum(len(re.findall(r"[^() ]+", g)) for g in cycles)
    size = 0
    for line in out.splitlines():
        head, _, rest = line.partition(": ")
        if head in ("  cocharacter basis", "  torsion generator", "weight cone"):
            size += sum(len(v.split(", ")) for v in re.findall(r"\(([^()]*)\)", rest))
        elif head == "  generators":
            size += len(re.findall(r"[^(), ]+", rest))
    return size


REPORT_INPUTS = (
    FLAGSHIP,
    "x + y",
    "x*y + z*w",
    "x^2*y^3 + z^5",
    "a^2*b^2*c + d^2*e^2*f + g^2*h^2*i + j^5 + k^5",
    fermat_form(5, 3).to_text(),
)


def test_every_json_vector_is_dense_decimal_strings(capsys):
    """Each vector of a JSON report is a list of decimal strings of its
    dimension: n for the basis vectors and the torsion generator exponents,
    the torus rank for the witness."""
    for text in REPORT_INPUTS:
        code, out, _ = run_cli(capsys, "analyze", text, "--json")
        assert code == 0
        report = json.loads(out)
        quasi = report["quasitorus"]
        n, rank = report["canonical_form"]["variable_count"], quasi["torus_rank"]
        vectors = [(v, n) for v in quasi["cocharacter_basis"]]
        vectors += [(t["exponents"], n) for t in quasi["torsion_generators"]]
        vectors.append((report["cone"]["witness"], rank))
        for vector, dim in vectors:
            assert len(vector) == dim
            for x in vector:
                assert isinstance(x, str) and re.fullmatch(r"0|-?[1-9][0-9]*", x)


def test_report_limit_counts_the_printed_vector_entries(capsys, monkeypatch):
    """In each mode the guard counts exactly what that mode prints, and a
    report of that many entries is printed while one fewer is refused."""
    rng = random.Random(49)
    texts = REPORT_INPUTS + tuple(random_canonical_form(rng).to_text() for _ in range(20))
    for text, flags in itertools.product(texts, ([], ["--json"])):
        argv = ["analyze", text, *flags]
        code, out, _ = run_cli(capsys, *argv)
        size = _printed_entries(out, bool(flags))
        cf = parse_separated(text)
        assert sepaut.cli._report_size(cf.variable_count, aut_group(cf)) == size
        monkeypatch.setattr(sepaut.cli, "REPORT_LIMIT", size)
        assert run_cli(capsys, *argv)[:2] == (code, out)
        monkeypatch.setattr(sepaut.cli, "REPORT_LIMIT", size - 1)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and f"print {size} vector entries and cycle points" in err
        monkeypatch.undo()


def test_text_mode_formats_only_what_it_prints(capsys, monkeypatch):
    """A text analysis formats each dense vector it prints through
    `polyio.decimals` once, and no vector that it does not print."""
    counts = _count_calls(monkeypatch, ("decimals",))
    for text in REPORT_INPUTS:
        counts["decimals"] = 0
        assert run_cli(capsys, "analyze", text)[0] == 0
        calls = counts["decimals"]
        quasi = aut_group(parse_separated(text)).quasitorus
        # the basis vectors, the torsion generators and the witness
        assert calls == quasi.torus_rank + len(quasi.torsion_generators) + 1


def test_fermat_1600_squares_fit_the_report_limit():
    assert sepaut.cli._report_size(1600, aut_group(fermat_form(1600, 2))) <= REPORT_LIMIT


def test_1500_mixed_squares_fit_the_report_limit(capsys):
    # n = 3000, torus rank 1501 and 1499 torsion generators: 9 * 10^6
    # entries in either mode, where the dense cone and actions of the old
    # report counted 27016501
    cf = parse_separated(" + ".join(f"a{i}^2*b{i}^2" for i in range(1500)))
    assert 9_000_000 < sepaut.cli._report_size(3000, aut_group(cf)) < 9_020_000
    code, out, err = run_cli(capsys, "analyze", cf.to_text())
    assert (code, err) == (0, "")
    assert out.count("  torsion generator: ") == 1499


def _cli_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_text_report_escapes_what_an_ascii_terminal_cannot_print():
    # the parser takes U+00A0 as whitespace and echoes the input; on an
    # ASCII stdout it prints as \xa0, and the symbols by their fallbacks
    proc = subprocess.run(
        [sys.executable, "-m", "sepaut", "analyze", "x^2 + y^2 + z^3"],
        capture_output=True, env=_cli_env(PYTHONIOENCODING="ascii"),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    lines = proc.stdout.decode("ascii").splitlines()
    assert lines[0] == "input: x^2 + y^2 +\\xa0z^3"
    assert "automorphism group: S2 x| ((Z/2)^1 x T^1)" in lines


def test_a_closed_pipe_exits_1_quietly():
    # 2.4 MB of JSON, more than any pipe holds, so the write must fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepaut", "fermat", "400", "2", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    assert proc.stdout.read(10) == b'{\n  "input'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
