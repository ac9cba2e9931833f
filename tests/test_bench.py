"""The benchmark's correctness gate and tracer, run in-process.

`bench/gate.py` refuses a report the benchmark would count as wrong, and
`bench/tracer.py` wraps the public functions of the modules it lists.  Both
are imported read-only, so a report the gate refuses, or a module the tracer
can no longer find, fails here before it fails a benchmark run.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import sepaut.cli as cli
import sepaut.polyio as polyio

# gate.py imports workloads as a top-level module, as bench/run.py does
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FLAGSHIP = "X1^10*X2^11 + Y1^10 + Y2^10 + Y3^10"


def _report(workload: str, inp) -> dict:
    """The report of one input, built as the benchmark builds it: one CLI
    run for cli-small, parse + build_report + json.dumps otherwise."""
    if workload == "cli-small":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(inp.cli)) == 0
        return json.loads(out.getvalue())
    cf = polyio.parse_separated(inp.expr)
    report = cli.build_report(inp.expr, cf, verify=workloads.VERIFY[workload])
    return json.loads(json.dumps(report, indent=2, ensure_ascii=True))


def test_every_workload_input_passes_the_gate():
    expected = gate.load_expected()
    self_checked = 0
    for workload, inputs in workloads.WORKLOADS.items():
        verify = workloads.VERIFY[workload]
        for seed in (0, 5):
            for inp in inputs(seed):
                report = _report(workload, inp)
                args = (inp, report, verify, seed, expected[workload])
                assert gate.check(*args) == [], (workload, seed, inp.name)
                if not self_checked and gate.usable_for_self_check(report):
                    assert gate.self_check(*args) is None
                    self_checked += 1
    assert self_checked == 1


def test_the_tracer_wraps_every_layer_and_leaves_the_output_alone():
    def analyze():
        cf = polyio.parse_separated(FLAGSHIP)
        return json.dumps(cli.build_report(FLAGSHIP, cf, verify=True))

    untraced = analyze()
    spans = tracer.Tracer()
    try:
        spans.install()
        traced = spans.report_span("flagship", analyze)
    finally:
        spans.uninstall()
    assert traced == untraced
    names = {node.name for node in spans.nodes}
    assert {
        "bench.report",
        "polyio.parse_separated",
        "cli.build_report",
        "quasitorus.quasitorus_structure",
        "torusgeom.pointedness_witness",
    } <= names
    assert analyze() == untraced
