import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FLAGSHIP, random_canonical_form
import sepaut.cli
from sepaut.autassembly import aut_group, fermat_form
from sepaut.cli import REPORT_LIMIT, build_report, main
from sepaut.polyio import decimal, parse_separated

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


def test_analyze_from_file(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text(FLAGSHIP + "\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["permutation_group"]["order"] == "6"


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
    assert "6 == 6" in out and "pass" in out


def test_verify_torsion(capsys):
    code, out, _ = run_cli(
        capsys, "verify", FLAGSHIP, "--oracle", "torsion", "--mod", "10"
    )
    assert code == 0
    assert "10000 == 10000" in out


def test_verify_torsion_needs_mod(capsys):
    code, _, err = run_cli(capsys, "verify", FLAGSHIP, "--oracle", "torsion")
    assert code == 1
    assert "--mod" in err


def test_verify_generators(capsys):
    code, out, _ = run_cli(capsys, "verify", FLAGSHIP, "--oracle", "generators")
    assert code == 0
    assert "pass" in out


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
    assert out == "perms: brute force 96 == 96 (closed formula) -> pass\n"


def test_analyze_verify_reports_guard_as_skipped(capsys):
    code, out, _ = run_cli(capsys, "analyze", BIG, "--json", "--verify")
    assert code == 0
    checks = json.loads(out)["verification"]["checks"]
    by_name = {c["oracle"]: c["status"] for c in checks}
    assert by_name["perms"] == "skipped"
    assert by_name["generators"] == "pass"


def test_snf_subcommand(tmp_path, capsys):
    path = tmp_path / "matrix.txt"
    path.write_text("3 5\n-11 -10 10 0 0\n-11 -10 0 10 0\n-11 -10 0 0 10\n")
    code, out, _ = run_cli(capsys, "snf", str(path))
    assert code == 0
    assert "divisors: 1 10 10" in out
    code, out, _ = run_cli(capsys, "snf", str(path), "--json")
    assert json.loads(out) == {
        "rows": 3,
        "cols": 5,
        "rank": 3,
        "divisors": ["1", "10", "10"],
    }


def test_snf_prints_divisors_beyond_the_conversion_limit(tmp_path, capsys):
    # consecutive 3000-digit integers are coprime: the divisors are 1 and
    # their product, about 6000 digits
    a = 10**2999 + 1
    b = a + 1
    path = tmp_path / "matrix.txt"
    path.write_text(f"2 2\n{a} 0\n0 {b}\n")
    code, out, _ = run_cli(capsys, "snf", str(path))
    assert code == 0
    first, second = out.splitlines()
    assert first == "rows=2 cols=2 rank=2"
    one, product = second.removeprefix("divisors: ").split(" ")
    assert one == "1" and _long_int(product) == a * b
    code, out, _ = run_cli(capsys, "snf", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["divisors"][0] == "1" and _long_int(report["divisors"][1]) == a * b
    assert len(report["divisors"]) == 2 and report["rank"] == 2


def test_snf_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 2\n2 4\n6 8\n"))
    code, out, _ = run_cli(capsys, "snf", "-")
    assert code == 0
    assert "divisors: 2 4" in out


def test_snf_missing_file(capsys):
    assert run_cli(capsys, "snf", "/nonexistent/matrix.txt")[0] == 1


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


def test_cli_imports_only_the_standard_library(tmp_path):
    # modules loaded before the import (site hooks of the interpreter) are
    # not on the CLI path and are left out; the oracles load only with the
    # commands that run them, and the Smith normal form, with `dataclasses`
    # and `inspect`, only with `snf`
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "import sepaut.cli\n"
        "argv, status = json.loads(sys.argv[1]), 0\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        status = sepaut.cli.main(argv)\n"
        "print(status, *sorted(set(sys.modules) - before))\n"
    )
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("2 2\n2 4\n6 8\n")
    oracles, intlat = "sepaut.oracles", "sepaut.intlat"
    cases = [
        ([], set()),
        (["analyze", FLAGSHIP, "--json"], set()),
        (["fermat", "4", "3"], set()),
        (["analyze", FLAGSHIP, "--json", "--verify"], {oracles}),
        (["fermat", "4", "3", "--verify"], {oracles}),
        (["verify", FLAGSHIP, "--oracle", "perms"], {oracles}),
        (["verify", FLAGSHIP, "--oracle", "torsion", "--mod", "10"], {oracles}),
        (["verify", FLAGSHIP, "--oracle", "generators"], {oracles}),
        (["snf", str(matrix)], {intlat}),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for argv, expected in cases:
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argv)],
            capture_output=True, text=True, env=env, check=True,
        )
        status, *loaded = proc.stdout.split()
        assert status == "0", (argv, proc.stderr)
        assert "sepaut.cli" in loaded
        assert {oracles, intlat} & set(loaded) == expected, argv
        if intlat not in expected:
            assert {"dataclasses", "inspect"} & set(loaded) == set(), argv
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
    "torus_generators",
    "weight_cone",
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fermat", "3", "x"], "invalid int value: 'x'"),
        (["analyze"], "the following arguments are required: input"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    # argparse's own exit code 2 would read as "input not separated"
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "usage: sepaut" in err and message in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "usage: sepaut" in out
    assert run_cli(capsys, "fermat", "--help")[0] == 0


def test_snf_names_bad_entries(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("1 1\n" + "7" * 5000 + "\n")
    code, _, err = run_cli(capsys, "snf", str(path))
    assert code == 1
    assert "entry 1 has 5000 digits, over the limit of 4300" in err
    path.write_text("2 2\n1 2\n3 x\n")
    code, _, err = run_cli(capsys, "snf", str(path))
    assert code == 1
    assert "entry 4 is not an integer" in err
    path.write_text("2 two\n1 2\n3 4\n")
    assert "the column count is not an integer" in run_cli(capsys, "snf", str(path))[2]


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
    assert report["cone"]["pointed"]


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
    assert f"verify torsion mod {d}: skipped (M*N + (n-M)*N^2 steps for N = {d}, " in out
    assert "verify generators: pass (6 generators certified)" in out


def test_enumeration_guard_never_builds_the_power(capsys):
    # N^20000 of a 1000-digit N would have 2*10^7 digits; the guard's work
    # M*N + (n-M)*N^2 has about 2000
    modulus = 10**999 + 7
    text = fermat_form(20000, 2).to_text()
    argv = ["verify", text, "--oracle", "torsion", "--mod", str(modulus)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        f"guard violation: M*N + (n-M)*N^2 steps for N = {modulus}, n = 20000, "
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
    assert out == f"torsion mod 2: enumerated {count} == {count} (divisor formula) -> pass\n"
    assert elapsed < 1.0


def test_report_prints_integers_beyond_the_conversion_limit(capsys):
    rng = random.Random(47)
    exponents = [rng.randrange(10**999, 10**1000) for _ in range(6)]
    text = " + ".join(f"y{k}^{e}" for k, e in enumerate(exponents))
    code, out, _ = run_cli(capsys, "analyze", text, "--json", "--verify")
    assert code == 0
    report = json.loads(out)
    homogeneity = report["cone"]["homogeneity_cocharacter"]
    assert max(len(x) for x in homogeneity) > sys.get_int_max_str_digits() > 0
    names = report["canonical_form"]["variables"]
    by_name = dict(zip(names, homogeneity))
    total = math.lcm(*exponents)
    for k, e in enumerate(exponents):
        assert _long_int(by_name[f"y{k}"]) * e == total
    assert run_cli(capsys, "analyze", text)[0] == 0


def test_overlong_exponent_exits_1_with_position(capsys):
    code, _, err = run_cli(capsys, "analyze", "x^2 + y^" + "7" * 5000)
    assert code == 1
    assert "5000 digits" in err and "position 8" in err


def test_huge_report_exits_1_with_its_size(capsys):
    # 100000 pure squares: 99999 torsion generators and 2 permutation
    # generators of 100000 entries each
    code, out, err = run_cli(capsys, "fermat", "100000", "2")
    assert (code, out) == (1, "")
    assert err == (
        "error: the report would print 10000500001 vector entries, over the "
        f"limit of {REPORT_LIMIT}\n"
    )


def test_report_limit_counts_the_printed_vector_entries(capsys, monkeypatch):
    for argv in (["analyze", FLAGSHIP, "--json"], ["fermat", "5", "3", "--json"]):
        report = json.loads(run_cli(capsys, *argv)[1])
        quasi, cone = report["quasitorus"], report["cone"]
        vectors = [*quasi["cocharacter_basis"], *cone["basis"], *cone["weights"]]
        vectors += [t["exponents"] for t in quasi["torsion_generators"]]
        vectors += [cone["witness"], cone["homogeneity_cocharacter"]]
        vectors += [p["vector"] for p in cone["pair_cocharacters"]]
        vectors += report["aut"]["action"]
        size = sum(map(len, vectors))
        monkeypatch.setattr(sepaut.cli, "REPORT_LIMIT", size)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(sepaut.cli, "REPORT_LIMIT", size - 1)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and f"print {size} vector entries" in err


def test_fermat_1600_squares_fit_the_report_limit():
    aut = aut_group(fermat_form(1600, 2))
    assert sepaut.cli._report_size(1600, aut) <= REPORT_LIMIT
