"""Runs one workload in a fresh process and prints one JSON line.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace>

Started by run.py with PYTHONPATH pointing at the checkout's src/.  The load
is one client in a closed loop: the next operation starts when the previous
one has returned.  Whole rounds of the generated inputs run until the timed
total reaches <seconds> and at least MIN_OPS operations have run.  Timed
wall time is the sum of the per-operation times; every output is checked
between operations, outside it.  The reported op metrics are these times
scaled to the reference kernel of calib.py, which also runs between
operations; the raw ones are reported as well.

With <trace> 1 the worker alternates an untraced and a traced pass over the
first TRACE_ROUNDS rounds while another pair fits in <seconds>, and reports
the per-module metrics of tracing.py (medians over traced passes) plus the
tracing overhead (traced minus untraced wall time of one pass).
"""

import contextlib
import csv
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time
from array import array
from typing import Callable, List, Optional

import calib
import gen
import oracles
import tracing
from child import run_child

from trisect import calculus, cli, diagram, farey, invariants, slides
from trisect.errors import TrisectError

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_OPS = 100
TRACE_ROUNDS = {"homology": 2, "atlas": 1, "plans-slides": 2, "cli": 1}
CLI_TIMEOUT_S = 60

# Inputs that end in a Python traceback instead of exit 1 with one `error:`
# line (a known defect).  They run once per cli run, outside the timed loop,
# and are reported as cli.tracebacks rather than as failed operations.
CLI_PROBES = (
    {"argv": ["farey-atlas"], "env": {"TRISECT_MAX_DEN": "abc"}},
    {"argv": ["farey-atlas", "--out", f"{gen.WORK_DIR}/missing_dir/x.csv"]},
    {"argv": ["validate", f"{gen.WORK_DIR}/nested.json"]},
)


def _load(name: str) -> dict:
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def _guard(fn: Callable) -> tuple:
    """Run one operation; domain errors are ("reject", class name) and any
    other exception is ("error", repr), which every oracle counts as wrong."""
    try:
        return fn()
    except TrisectError as e:
        return ("reject", type(e).__name__)
    except Exception as e:  # the loop must go on; the oracle reports it
        return ("error", repr(e))


# ---------------------------------------------------------------------------
# operations: each returns the output tuple its oracle reads
# ---------------------------------------------------------------------------

def op_homology(case: dict) -> tuple:
    def run():
        rep = invariants.first_homology(diagram.parse_diagram(case["text"]))
        return ("ok", rep.h1_free_rank, rep.h1_torsion)
    return _guard(run)


def op_plans_slides(case: dict) -> tuple:
    kind = case["op"]

    def plan():
        if kind == "general":
            p = calculus.surgery_plan_general(case["matrix"])
        elif kind == "luttinger":
            p = calculus.luttinger_plan(case["m"], case["n"])
        else:
            p = calculus.log_transform_plan(case["matrix"])
        return ("ok", p, calculus.parse_plan(calculus.serialize_plan(p)))

    def reduce():
        state = slides.initial_state(case["word"])
        fn = slides.reduce_mu if kind == "reduce-mu" else slides.reduce_full
        final, trace = fn(state)
        lines = slides.trace_lines(state, trace)
        return ("ok", state, final, trace, lines, slides.format_state(final))

    return _guard(reduce if kind.startswith("reduce") else plan)


def check_plans_slides(case: dict, out: tuple) -> Optional[str]:
    if case["op"].startswith("reduce"):
        return oracles.check_slide(case, out, slides.replay)
    return oracles.check_plan(case, out)


def _cli_env(extra: Optional[dict] = None) -> dict:
    env = dict(os.environ)  # run.py's child environment
    env["PYTHONIOENCODING"] = "utf-8"
    env.update(extra or {})
    return env


def op_cli(case: dict, env: dict) -> tuple:
    def run():
        return ("ok", *run_child([sys.executable, "-m", "trisect.cli", *case["argv"]],
                                 env, os.getcwd(), CLI_TIMEOUT_S))
    return _guard(run)


def op_cli_inprocess(case: dict) -> tuple:
    """The same argv through cli.main in this process (traced runs)."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case["argv"]))
        return ("ok", code, out.getvalue(), err.getvalue())
    return _guard(run)


def write_cli_files(rounds: List[List[dict]]) -> None:
    files = gen.cli_files()
    for rnd in rounds:
        for case in rnd:
            files.update(case.get("files", {}))
    os.makedirs(gen.WORK_DIR, exist_ok=True)
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

class Tally:
    """Per-op wall times, their positions among the reference-kernel runs
    (when calibrated), and failures."""

    def __init__(self, cal: Optional[calib.Calibrator] = None):
        # compact arrays: an atlas run records a few hundred thousand rows,
        # and this bookkeeping counts in the worker's peak RSS
        self.lat = array("d")
        self.marks = array("I")
        self.cal = cal
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, seconds: float) -> None:
        self.lat.append(seconds)
        if self.cal is not None:
            self.marks.append(self.cal.mark(seconds))

    def check(self, reason: Optional[str], weight: int = 1) -> None:
        if reason is not None:
            self.failed += weight
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def loop_cases(rounds, op, check, seconds: float, tally: Tally, tracer=None) -> None:
    """Whole rounds until the timed total reaches `seconds` and MIN_OPS ran;
    seconds <= 0 runs each round once."""
    busy = 0.0
    for i, rnd in enumerate(itertools.cycle(rounds)):
        for case in rnd:
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            out = op(case)
            dt = time.perf_counter() - t0
            busy += dt
            tally.record(dt)
            tally.check(check(case, out))
        if seconds <= 0 and i + 1 == len(rounds):
            return
        if seconds > 0 and busy >= seconds and len(tally.lat) >= MIN_OPS:
            return


def loop_atlas(rounds, seconds: float, tally: Tally, pinned: dict, tracer=None) -> None:
    """Per-row latency: the time from one CSV row written to the next."""
    busy = 0.0
    for i, sweep in enumerate(itertools.cycle(rounds)):
        for cap in sweep:
            if tracer is not None:
                tracer.op += 1
            prev = time.perf_counter()
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=cli.ATLAS_COLUMNS, lineterminator="\n")
            writer.writeheader()
            rows = 0
            for row in farey.atlas_rows(cap):
                writer.writerow(row)
                now = time.perf_counter()
                busy += now - prev
                tally.record(now - prev)
                prev = time.perf_counter()  # a reference-kernel run is not a row's time
                rows += 1
            tally.check(oracles.check_atlas(cap, buf.getvalue(), rows, pinned), weight=rows)
        if seconds <= 0 and i + 1 == len(rounds):
            return
        if seconds > 0 and busy >= seconds and len(tally.lat) >= MIN_OPS:
            return


def workload(name: str, seed: int, inprocess: bool = False):
    """(rounds, run(rounds, seconds, tally, tracer)) for one workload.  With
    `inprocess`, cli cases call cli.main here instead of spawning."""
    if name == "homology":
        rounds = gen.homology(seed)
        return rounds, lambda r, s, t, tr=None: loop_cases(
            r, op_homology, oracles.check_homology, s, t, tr)
    if name == "atlas":
        pinned = _load("atlas_pinned.json")
        rounds = gen.atlas(seed)
        return rounds, lambda r, s, t, tr=None: loop_atlas(r, s, t, pinned, tr)
    if name == "plans-slides":
        rounds = gen.plans_slides(seed)
        return rounds, lambda r, s, t, tr=None: loop_cases(
            r, op_plans_slides, check_plans_slides, s, t, tr)
    if name == "cli":
        rounds = gen.cli(seed, _load("cli_pinned.json"), _load("atlas_pinned.json"))
        write_cli_files(rounds)
        env = _cli_env()
        op = op_cli_inprocess if inprocess else (lambda c: op_cli(c, env))
        return rounds, lambda r, s, t, tr=None: loop_cases(r, op, oracles.check_cli, s, t, tr)
    raise SystemExit(f"unknown workload {name!r}")


def percentile(values: List[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_probes() -> List[str]:
    return [oracles.probe_verdict(op_cli(p, _cli_env(p.get("env")))) for p in CLI_PROBES]


def latency_metrics(seconds: List[float]) -> dict:
    return {
        "ops_per_s": len(seconds) / sum(seconds),
        "op_ms_p50": statistics.median(seconds) * 1000,
        "op_ms_p90": percentile(seconds, 90) * 1000,
    }


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    rounds, run = workload(name, seed)
    tally = Tally(calib.Calibrator())
    run(rounds, seconds, tally)
    if name == "cli":
        verdicts = run_probes()
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:  # read before the statistics below allocate their own lists
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(tally.lat)
    result = {
        "attempted": attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "metrics": latency_metrics(tally.cal.scaled(tally.lat, tally.marks)),
        "raw": latency_metrics(tally.lat),
        "kernel_ms": statistics.median(tally.cal.runs) * 1000,
        "samples": attempted,
    }
    if name == "cli":
        result["attempted"] += len(verdicts)
        result["failed"] += verdicts.count("wrong")
        result["tracebacks"] = verdicts.count("traceback")
    result["metrics"]["peak_rss_mb"] = rss_kb / 1024
    return result


def run_traced(name: str, seed: int, seconds: float, spans_path: str) -> dict:
    rounds, run = workload(name, seed, inprocess=True)
    rounds = rounds[:TRACE_ROUNDS[name]]
    tracer = tracing.Tracer()
    passes, overhead = [], []
    attempted = failed = 0
    reasons: List[str] = []
    main_ms: List[float] = []
    start = time.perf_counter()
    while True:  # pairs of passes while another pair fits in `seconds`
        plain = Tally()
        t0 = time.perf_counter()
        run(rounds, 0, plain)
        t1 = time.perf_counter()
        traced = Tally()
        tracer.install()
        try:
            run(rounds, 0, traced, tracer)
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        overhead.append((t2 - t1) - (t1 - t0))
        passes.append(tracer.end_pass())
        if name == "cli":
            main_ms.append(statistics.median(plain.lat) * 1000)
        for t in (plain, traced):
            attempted += len(t.lat)
            failed += t.failed
            reasons += t.reasons
        if t2 - start + (t2 - t0) > seconds:
            break
    tracer.dump(spans_path)
    metrics = {key: statistics.median_low(p[key] for p in passes) for key in passes[0]}
    metrics["trace.overhead_s"] = statistics.median_low(overhead)
    metrics["cli.main_ms"] = statistics.median_low(main_ms) if main_ms else 0
    if name == "cli":
        verdicts = run_probes()
        attempted += len(verdicts)
        failed += verdicts.count("wrong")
        metrics["cli.tracebacks"] = verdicts.count("traceback")
    return {"attempted": attempted, "failed": failed, "reasons": reasons[:5],
            "metrics": metrics, "samples": len(passes)}


def main(argv: List[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    if trace:
        os.makedirs(".perfbench_out", exist_ok=True)
        result = run_traced(name, seed, seconds, f".perfbench_out/spans_{name}_{seed}.jsonl")
    else:
        result = run_untraced(name, seed, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
