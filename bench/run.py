"""sepaut benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports `src/sepaut` from
there and nothing else.  Workloads (see workloads.py and BENCHMARK.json):

* cli-small       each input is one `python -m sepaut ... --json` process;
* lattice-wide    in-process `build_report` on a ladder of wide inputs;
* verify-oracles  in-process `build_report(verify=True)` on small inputs.

Load is a closed loop with one client (run_passes): one analysis at a time,
whole passes over the inputs until S seconds of loop time (setup spawns
excluded) have elapsed.  The in-process
workloads send each analysis to a fresh worker interpreter (worker.py); an
analysis that runs past the time cap stops it, and that analysis and the
rest of its pass count as failed.  Every answer goes through the
correctness gate (gate.py); a perturbed report must fail it.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; lines before it list every metric with its unit.

End-to-end metrics (--trace 0):
  setup_s             median wall time from spawning an interpreter until
                      `import sepaut.cli` returns (spawns spread evenly
                      through the loop);
  reports_per_s       analyses per second of loop wall time;
  latency_ms_p50/p90  time per analysis: the CLI process wall time on
                      cli-small, parse + build_report + json.dumps otherwise;
  latency_geomean_ms  geometric mean over inputs of each input's median;
  peak_rss_mb         peak RSS of the process that ran the analyses;
  failed_frac         failed / attempted (printed; the result line carries
                      `failed` and `attempted`).

Per-layer metrics (--trace 1) come from spans recorded by tracer.py around
every public function of every sepaut module, merged per report: `.ms` is
the median over reports of the self time (total time for the entry points
in tracer.TOTAL_TIME), `.calls` the median call count per report, and
`out_bits_max` the largest bit length in any returned U, S or V.  Call
counts and bit lengths must repeat exactly across the traced passes.
`cli.import.ms`, `cli.import_numpy.ms` and `cli.interpreter.ms` come from
separate interpreter spawns (`-X importtime`), and `trace.overhead_ms` is
traced minus untraced pass wall time per report.

Exit codes: 0 all answers correct, 1 some answer failed or ran past the cap
(the result line is still printed), 2 the checkout or the benchmark could
not run.  The run ends within 2 * S + 60 seconds, and never after 170.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import select
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import gate
import tracer
from workloads import VERIFY, WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT_DIR = ".bench-out"

END_TO_END = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "latency_geomean_ms": "ms",
    "peak_rss_mb": "MB",
}

STAGE_MS = (
    "polyio.parse_separated",
    "quasitorus.character_matrix",
    "quasitorus.quasitorus_structure",
    "intlat.smith_normal_form",
    "intlat.kernel_basis",
    "torusgeom.torus_generators",
    "torusgeom.weight_cone",
    "torusgeom.express_in_basis",
    "rigidity.rigidity_certificate",
    "autassembly.aut_group",
    "quasitorus.count_torsion_points_mod",
    "quasitorus.torsion_count_formula",
    "permgroup.brute_force_perm_order",
    "autassembly.certify_pipeline_generators",
    "cli.run_verification",
    "cli.build_report",
)
# the deterministic counters; they must repeat exactly
STAGE_CALLS = (
    "intlat.smith_normal_form",
    "intlat.kernel_basis",
    "permgroup.permutation_group",
    "autassembly.verify_generator",
)

SETUP_SPAWNS = 15
PROBE_SPAWNS = 5
# the run ends within 2 * --seconds + DEADLINE_SLACK_S, and never after
# MAX_DEADLINE_S; FINISH_S of that is kept for gating and printing
MAX_DEADLINE_S = 170.0
DEADLINE_SLACK_S = 60.0
FINISH_S = 10.0
# an analysis slower than this counts as failed
ANALYSIS_CAP_S = 60.0

STAMP = "import time, sys; sys.stdout.write(repr(time.perf_counter()))"
SETUP = (
    "import sepaut.cli, time, sys; "
    "sys.stdout.write(repr(time.perf_counter()) + ' ' + sepaut.cli.__file__)"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Context:
    def __init__(self, root: Path, seconds: float) -> None:
        self.root = root
        self.src = root / "src"
        self.out = root / OUT_DIR
        self.seconds = seconds
        self.start = perf_counter()
        self.deadline = min(MAX_DEADLINE_S, 2 * seconds + DEADLINE_SLACK_S)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def remaining(self) -> float:
        """Seconds left for analyses before the deadline."""
        return self.deadline - FINISH_S - (perf_counter() - self.start)

    def cap(self) -> float:
        """Time cap of the next analysis."""
        return max(1.0, min(ANALYSIS_CAP_S, self.remaining()))

    def spawn(self, argv, timeout: float | None = None):
        """Run a child to completion; returns (wall_s, returncode, stdout, stderr).

        A child still running at its timeout is killed and gets returncode None.
        """
        timeout = max(1.0, min(self.remaining(), timeout or self.remaining()))
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return perf_counter() - start, None, out, err
        return perf_counter() - start, proc.returncode, out, err


def check_checkout(root: Path) -> None:
    for rel in ("src/sepaut/__init__.py", "src/sepaut/cli.py", "src/sepaut/__main__.py"):
        if not (root / rel).is_file():
            raise BenchError(f"{rel} not found under {root}: run from a sepaut checkout")


def stamped_spawns(ctx: Context, code: str, count: int) -> list[float]:
    """Seconds from spawning `python -c code` until it printed its clock.

    time.perf_counter reads CLOCK_MONOTONIC on Linux, which is shared by
    all processes, so the child's stamp and the parent's start compare.
    """
    out = []
    for _ in range(count):
        start = perf_counter()
        _, rc, stdout, stderr = ctx.spawn([sys.executable, "-c", code], timeout=30)
        if rc != 0:
            raise BenchError(f"interpreter spawn failed: {stderr.strip()}")
        stamp, *rest = stdout.split(" ", 1)
        if rest and not Path(rest[0]).resolve().is_relative_to(ctx.src.resolve()):
            raise BenchError(f"sepaut imported from {rest[0]}, not from {ctx.src}")
        out.append(float(stamp) - start)
    return out


def import_times(ctx: Context) -> tuple[float, float]:
    """Median ms of `import sepaut.cli` and of numpy within it (-X importtime)."""
    total, numpy = [], []
    for _ in range(PROBE_SPAWNS):
        argv = [sys.executable, "-X", "importtime", "-c", "import sepaut.cli"]
        _, rc, _, stderr = ctx.spawn(argv, timeout=30)
        if rc != 0:
            raise BenchError(f"import probe failed: {stderr.strip()}")
        us_sepaut, us_numpy = 0, 0
        for line in stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
            if not m:
                continue
            cumulative, indent, module = int(m[1]), len(m[2]), m[3]
            if indent == 1 and (module == "sepaut" or module.startswith("sepaut.")):
                us_sepaut += cumulative
            if module == "numpy" and not us_numpy:
                us_numpy = cumulative
        total.append(us_sepaut / 1000.0)
        numpy.append(us_numpy / 1000.0)
    return median(total), median(numpy)


class Abort(Exception):
    """No further analysis can run; the rest of the pass is recorded as not run."""

    def __init__(self, message: str, latency_s: float) -> None:
        super().__init__(message)
        self.latency_s = latency_s


def run_passes(ctx: Context, inputs, analyze, trace: bool):
    """The closed loop with one client: whole passes over `inputs` until
    ctx.seconds of loop time have elapsed, so every input weighs the same in
    every run.

    analyze(inp, label, traced) runs one analysis and returns (latency_s,
    output text or None, error or None); it raises Abort when no analysis can
    follow.  With trace, an untraced pass precedes every traced pass (at
    least two of each), so the overhead estimate compares passes run under
    the same conditions.  Without trace, SETUP_SPAWNS setup times are taken
    at even intervals of loop time, between analyses and outside the loop
    and pass times, so setup_s samples the same machine states as the
    latencies.

    Returns the per-analysis records, the pass wall times, the distinct
    outputs of each input and the setup times.
    """
    reports, passes, setup = [], [], []
    outputs = {inp.name: [] for inp in inputs}
    interval = ctx.seconds / SETUP_SPAWNS
    start = perf_counter()
    paused = 0.0  # time spent on setup spawns, not counted as loop time
    aborted = None

    def elapsed() -> float:
        return perf_counter() - start - paused

    def one_pass(label: str, traced: bool) -> None:
        nonlocal paused, aborted
        pass_start, pass_paused = perf_counter(), paused
        for inp in inputs:
            if not trace and not aborted and elapsed() >= len(setup) * interval:
                t0 = perf_counter()
                setup.extend(stamped_spawns(ctx, SETUP, 1))
                paused += perf_counter() - t0
            if aborted:
                latency, text, error = None, None, f"not run: {aborted}"
            else:
                try:
                    latency, text, error = analyze(inp, label, traced)
                except Abort as exc:
                    latency, text, error = exc.latency_s, None, str(exc)
                    aborted = f"an earlier analysis {exc}"
            seen = outputs[inp.name]
            if error is None and text not in seen:
                seen.append(text)
            reports.append({
                "name": inp.name, "pass": label, "latency_s": latency, "error": error,
                "output": None if error else seen.index(text),
            })
        passes.append({"label": label, "wall_s": perf_counter() - pass_start - (paused - pass_paused)})

    k = 0
    while not aborted and (k < (2 if trace else 1) or elapsed() < ctx.seconds):
        if k and ctx.remaining() < 1.5 * (perf_counter() - start) / k:
            break  # another pass would not finish before the deadline
        if trace:
            one_pass(f"untraced{k}", False)
        one_pass(str(k), trace)
        k += 1
    if not trace:
        setup += stamped_spawns(ctx, SETUP, max(0, SETUP_SPAWNS - len(setup)))
    return reports, passes, outputs, setup


def cli_analyze(ctx: Context):
    """cli-small: one `python -m sepaut` process per analysis.

    Returns the analyze callable for run_passes and the dict it fills with
    the span reports of the traced processes.
    """
    spans = ctx.out / "cli-spans.json"
    span_reports = {}

    def analyze(inp, label, traced):
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans),
                    f"{inp.name}#{label}", *inp.cli]
        else:
            argv = [sys.executable, "-m", "sepaut", *inp.cli]
        cap = ctx.cap()
        wall, rc, stdout, stderr = ctx.spawn(argv, timeout=cap)
        error = None
        if rc is None:
            error = f"exceeded the {cap:.0f} s cap"
        elif rc != 0 or "Traceback" in stderr:
            error = f"exit code {rc}: {stderr.strip()[-500:]}"
        if traced and spans.exists():
            span_reports.update(tracer.per_report(json.loads(spans.read_text())))
            spans.unlink()
        return wall, None if error else stdout, error

    return analyze, span_reports


class Worker:
    """A fresh interpreter running worker.py for one in-process workload.

    Each analysis is one request and one reply; a reply that does not come
    within the cap stops the worker, and the analysis counts as failed.
    """

    def __init__(self, ctx: Context, workload: str, seed: int) -> None:
        self.ctx = ctx
        self.spans = ctx.out / f"spans-{workload}.json"
        self.spans.unlink(missing_ok=True)
        self.stderr_path = ctx.out / f"worker-{workload}.stderr"
        argv = [sys.executable, str(BENCH / "worker.py"), str(ctx.root), workload,
                str(seed), str(self.spans)]
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(
                argv, cwd=ctx.root, env=ctx.env, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
            )
        if self._reply(60.0) != "ready\n":
            self.stop()
            raise BenchError(f"{workload} worker did not start: {self._stderr()}")

    def _stderr(self) -> str:
        return self.stderr_path.read_text().strip()[-2000:]

    def _reply(self, timeout: float) -> str | None:
        """The next line from the worker; None when none comes in time."""
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, timeout))
        return self.proc.stdout.readline() if ready else None

    def stop(self) -> None:
        self.proc.kill()
        self.proc.communicate()

    def analyze(self, inp, label: str, traced: bool):
        cap = self.ctx.cap()
        start = perf_counter()
        self.proc.stdin.write(f"{inp.name} {label} {int(traced)}\n")
        self.proc.stdin.flush()
        line = self._reply(cap)
        if line is None:
            self.stop()
            raise Abort(f"exceeded the {cap:.0f} s cap", perf_counter() - start)
        if not line:
            self.stop()
            raise Abort(f"ended the worker: {self._stderr()}", perf_counter() - start)
        reply = json.loads(line)
        return reply["latency_s"], reply["text"], reply["error"]

    def finish(self, trace: bool) -> dict:
        """End the worker; the span reports of its traced analyses."""
        if self.proc.poll() is not None:
            return {}  # stopped at the cap: no spans were written
        self.proc.stdin.close()
        try:
            rc = self.proc.wait(timeout=max(1.0, self.ctx.remaining()))
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker did not end after its last analysis")
        self.proc.stdout.close()
        if rc != 0:
            raise BenchError(f"worker failed (exit {rc}): {self._stderr()}")
        return tracer.per_report(json.loads(self.spans.read_text())) if trace else {}


def gate_outputs(inputs, outputs, verify: bool, seed: int, expected: dict):
    """Problems per (input, output index); the self-check result."""
    problems = {}
    self_checked = None
    for inp in inputs:
        for k, text in enumerate(outputs[inp.name]):
            if k > 0:
                problems[inp.name, k] = ["output differs from an earlier run of this input"]
                continue
            try:
                report = json.loads(text)
            except ValueError as exc:
                problems[inp.name, k] = [f"output is not JSON: {exc}"]
                continue
            problems[inp.name, k] = gate.check(inp, report, verify, seed, expected)
            if self_checked is None and not problems[inp.name, k] and gate.usable_for_self_check(report):
                self_checked = gate.self_check(inp, report, verify, seed, expected) or "ok"
    return problems, self_checked


def untraced_pass(label: str) -> bool:
    """Passes run in trace mode only to measure the tracing overhead."""
    return label.startswith("untraced")


def end_to_end(reports, passes, setup) -> dict[str, float]:
    """Latencies come from the analyses that ran; after an abort some did not."""
    ran = [r for r in reports if r["latency_s"] is not None]
    latencies = [r["latency_s"] for r in ran]
    by_input: dict[str, list[float]] = {}
    for r in ran:
        by_input.setdefault(r["name"], []).append(r["latency_s"])
    geomean = math.exp(sum(math.log(median(v)) for v in by_input.values()) / len(by_input))
    return {
        "setup_s": median(setup),
        "reports_per_s": len(ran) / sum(p["wall_s"] for p in passes),
        "latency_ms_p50": 1000.0 * median(latencies),
        "latency_ms_p90": 1000.0 * (quantiles(latencies, n=10)[8] if len(ran) > 1 else latencies[0]),
        "latency_geomean_ms": 1000.0 * geomean,
    }


def counter_problems(span_reports) -> list[str]:
    """Counters of one input must be identical in every traced pass."""
    seen: dict[str, tuple] = {}
    bad = []
    for label, rep in sorted(span_reports.items()):
        name = label.rsplit("#", 1)[0]
        counters = (tuple(rep["calls"].get(c, 0) for c in STAGE_CALLS), rep["bits"])
        if seen.setdefault(name, counters) != counters:
            bad.append(f"{name}: counters {counters} != {seen[name]} in an earlier pass")
    return bad


def per_layer(ctx: Context, span_reports, passes, n_inputs: int) -> dict[str, float]:
    metrics = tracer.layer_metrics(list(span_reports.values()), STAGE_MS, STAGE_CALLS)
    metrics["cli.interpreter.ms"] = 1000.0 * median(stamped_spawns(ctx, STAMP, PROBE_SPAWNS))
    metrics["cli.import.ms"], metrics["cli.import_numpy.ms"] = import_times(ctx)
    untraced = [p["wall_s"] for p in passes if untraced_pass(p["label"])]
    traced = [p["wall_s"] for p in passes if not untraced_pass(p["label"])]
    metrics["trace.overhead_ms"] = (
        1000.0 * (median(traced) - median(untraced)) / n_inputs
        if traced and untraced else 0.0  # one is missing only after an abort
    )
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".ms") or name.endswith("_ms"):
        return "ms"
    return "bits" if name.endswith("_bits_max") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ctx = Context(Path.cwd().resolve(), args.seconds)
    try:
        check_checkout(ctx.root)
        ctx.out.mkdir(exist_ok=True)
        expected = gate.load_expected()[args.workload]
        inputs = WORKLOADS[args.workload](args.seed)
        verify = VERIFY[args.workload]
        trace = bool(args.trace)

        stamped_spawns(ctx, SETUP, 1)  # compiles bytecode caches before timing
        if args.workload == "cli-small":
            analyze, span_reports = cli_analyze(ctx)
            reports, passes, outputs, setup = run_passes(ctx, inputs, analyze, trace)
        else:
            worker = Worker(ctx, args.workload, args.seed)
            try:
                reports, passes, outputs, setup = run_passes(ctx, inputs, worker.analyze, trace)
                span_reports = worker.finish(trace)
            finally:
                if worker.proc.poll() is None:
                    worker.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems, self_checked = gate_outputs(inputs, outputs, verify, args.seed, expected)
    failures = []
    for r in reports:
        why = [r["error"]] if r["error"] else problems[r["name"], r["output"]]
        if why:
            failures.append(f"{r['name']} (pass {r['pass']}): " + "; ".join(why))
    fatal = []
    if self_checked != "ok":
        fatal.append(self_checked or "self-check: no passing report with torsion and a torus")

    counted = [r for r in reports if not untraced_pass(r["pass"])]
    counted_passes = [p for p in passes if not untraced_pass(p["label"])]
    try:
        if trace:
            fatal += counter_problems(span_reports)
            metrics = per_layer(ctx, span_reports, passes, len(inputs))
        else:
            metrics = end_to_end(counted, counted_passes, setup)
            metrics["peak_rss_mb"] = peak_rss_mb
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if trace:
        (ctx.out / f"layers-{args.workload}.json").write_text(json.dumps(span_reports))

    failed = sum(1 for r in counted if r["error"] or problems[r["name"], r["output"]])
    for line in (failures + fatal)[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(counted_passes)}  "
          f"analyses {len(counted)}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit_of(name)}")
    print(f"  {'failed_frac':44s} {failed / max(1, len(counted)):14.6g} 1")
    correct = not failures and not fatal
    result = {
        "correct": correct,
        "attempted": len(counted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
