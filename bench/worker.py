"""In-process analyses, served one at a time to run.py.

    python bench/worker.py ROOT WORKLOAD SEED SPANS_PATH

A fresh interpreter per workload run.  It imports sepaut from ROOT/src,
prints `ready`, then answers one request line `NAME LABEL TRACED` at a time
with one JSON line: the latency of the analysis of input NAME, and its
output or its traceback.  LABEL is the pass label, `K` or `untracedK` in
turn K of the loop.  An analysis is `parse_separated` + `build_report`
+ `json.dumps`, timed per call.  With TRACED=1 the analysis runs under the
tracer as report `NAME#LABEL`; with TRACED=0 the tracer is uninstalled.
At the end of its input it writes the spans, if any, to SPANS_PATH.

The vCPUs of a shared machine can differ in speed for minutes, and a
long-running process tends to stay on one of them.  So the analysis of
input i in turn K runs on CPU (i + K) mod ncpu: every input takes turns on
every CPU, and a run samples all CPUs alike instead of wherever the
scheduler left the worker.

run.py owns the loop, the time cap and the outputs; this process only runs
the analyses, so run.py can stop it when one runs past the cap.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import VERIFY, WORKLOADS


def main(argv) -> int:
    root, workload, seed, spans_path = argv
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import sepaut.cli as cli
    import sepaut.polyio as polyio

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"sepaut imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    inputs = {inp.name: (i, inp) for i, inp in enumerate(WORKLOADS[workload](int(seed)))}
    cpus = sorted(os.sched_getaffinity(0))
    verify = VERIFY[workload]
    tracer = None

    def analyze(inp):
        cf = polyio.parse_separated(inp.expr)
        report = cli.build_report(inp.expr, cf, verify=verify)
        return json.dumps(report, indent=2, ensure_ascii=True)

    print("ready", flush=True)
    for line in sys.stdin:
        name, label, traced = line.split()
        index, inp = inputs[name]
        turn = int(label.removeprefix("untraced"))
        os.sched_setaffinity(0, {cpus[(index + turn) % len(cpus)]})
        if traced == "1" and tracer is None:
            from tracer import Tracer

            tracer = Tracer()
        if traced == "1":
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        text, error = None, None
        start = perf_counter()
        try:
            if traced == "1":
                text = tracer.report_span(f"{inp.name}#{label}", analyze, inp)
            else:
                text = analyze(inp)
        except Exception:
            error = traceback.format_exc()
        latency = perf_counter() - start
        reply = {"latency_s": latency, "text": text, "error": error}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
