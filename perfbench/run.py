"""The trisect benchmark.

    python3 perfbench/run.py --workload <homology|atlas|plans-slides|cli>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (src/trisect must be there).  It measures
set-up time (fresh interpreters importing trisect.cli), then runs the
workload in a fresh child process (worker.py), checks every output, prints
each metric by name with its unit and sample count, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics; --trace 1 the per-module metrics
of a separate traced run (see tracing.py).  The timed end-to-end metrics are
scaled to a reference kernel run between operations (see calib.py), because
this class of host changes speed by up to 2x within minutes; the raw wall
times are printed too.  The run pins itself and its children to one CPU.

Why these workloads: homology is the only one where Smith normal form
dominates; atlas stresses Farey enumeration and form elimination, whose work
grows as max_den^4; plans-slides runs the SL3 word, plan and slide-reducer
kernels no other workload loads; cli spawns one process per operation on
tiny inputs, where interpreter start and import dominate.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calib
from child import run_child
from tracing import PER_LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("homology", "atlas", "plans-slides", "cli")
SETUP_SPAWNS = 7
TIME_LIMIT_S = 170

# Timed metrics are scaled to the reference kernel (calib.py); setup_s keeps
# the unit "s" that BENCHMARK.json requires of it, as seconds at that speed.
E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/ref_s", "op_ms_p50": "ref_ms",
             "op_ms_p90": "ref_ms", "peak_rss_mb": "MB"}
RAW_UNITS = {"ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_p90": "ms"}


def child_env() -> dict:
    """The caller's environment with src/ on PYTHONPATH.  Bytecode caching
    is left on, as in an installed package, so every process after the
    first in a checkout imports from cached bytecode."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_seconds(source: str, env: dict) -> float:
    t0 = time.perf_counter()
    code, _, _ = run_child([sys.executable, "-c", source], env, ROOT, timeout=60, capture=False)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"error: python -c {source!r} exited with {code}")
    return elapsed


def measure_setup(env: dict):
    """Medians of SETUP_SPAWNS fresh interpreters: bare (`pass`) and
    importing trisect.cli (module-level tables included), alternated with
    runs of the reference kernel.  Returns (import, bare, import scaled to
    the reference kernel) in seconds."""
    bare, full, kernel = [], [], []
    for _ in range(SETUP_SPAWNS):
        for runs in (bare, full):
            t0 = time.perf_counter()
            calib.reference_kernel()
            kernel.append(time.perf_counter() - t0)
            runs.append(spawn_seconds("pass" if runs is bare else "import trisect.cli", env))
    scale = calib.REF_MS / 1000 / statistics.median(kernel)
    return statistics.median(full), statistics.median(bare), statistics.median(full) * scale


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "trisect", "cli.py")):
        print(f"error: no trisect sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # one CPU for this process and every child, so that the reference kernel
    # runs on the CPU whose speed it stands for
    affinity = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    env = child_env()
    import_s, interp_s, setup_s = measure_setup(env)
    env_info = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "pinned_cpu": cpu,
        "cli.interp_ms": interp_s * 1000,
    }
    print("env " + json.dumps(env_info))

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
           repr(args.seconds), str(args.trace)]
    budget = TIME_LIMIT_S - (time.perf_counter() - start)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not finish within {budget:.0f} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for reason in result["reasons"]:
        print(f"FAILED {reason}")

    if args.trace:
        metrics = result["metrics"]
        metrics["cli.interp_ms"] = interp_s * 1000
        metrics["cli.import_ms"] = (import_s - interp_s) * 1000
        units = PER_LAYER_UNITS
        counts = {name: result["samples"] for name in units}
        print(f"traced passes: {result['samples']}")
    else:
        metrics = dict(result["metrics"], setup_s=setup_s)
        units = E2E_UNITS
        counts = {"setup_s": SETUP_SPAWNS, "peak_rss_mb": 1}
        if args.workload == "cli":
            print(f"known defect: {result['tracebacks']} of 3 probe inputs end in a traceback")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"fail_ratio = {fail_ratio} 1 (n={result['attempted']})")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit} (n={counts.get(name, result['samples'])})")
    if not args.trace:
        print(f"reference kernel median = {result['kernel_ms']} ms")
        print(f"raw setup_s = {import_s} s (n={SETUP_SPAWNS})")
        for name, unit in RAW_UNITS.items():
            print(f"raw {name} = {result['raw'][name]} {unit} (n={result['samples']})")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
