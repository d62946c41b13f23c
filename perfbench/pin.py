"""Writes the pinned expectations the atlas and cli oracles compare against.

    PYTHONPATH=src python3 perfbench/pin.py

Run from the root of a checkout of the commit whose outputs are the
reference.  atlas_pinned.json holds the row count and CSV sha256 for every
cap the atlas workload can draw; cli_pinned.json holds the fixed cli cases
with their exit code, stdout (literal for the PAPER.md examples, a digest
otherwise) and stderr shape.  Refuses to pin when a PAPER.md example does not
print its documented text or a case ends in a traceback.
"""

import csv
import hashlib
import io
import json
import os
import sys

import gen
import oracles
from worker import op_cli_inprocess

from trisect import cli, farey

HERE = os.path.dirname(os.path.abspath(__file__))
W = gen.WORK_DIR

# The worked examples of PAPER.md, with their documented output.
PAPER_EXAMPLES = [
    (["farey-classify", "1/1", "1/2", "2/3", "--qx"],
     "kind: FareyTriplet\nmanifold: CP2#CP2bar#CP2bar\nrefined: CP2bar#S2x~S2\n"
     "form: odd_indefinite (1, 2)\nqx: [[2, -1, 1], [-1, 0, 0], [1, 0, -1]]\n"),
    (["destab", "51;13,13,23", "--sector", "3", "--times", "10"], "41;13,13,13\n"),
    (["fiber-sum", "2;0,0,0", "1;0,0,0", "--bridge", "2", "--c", "1,1,1"], "6;1,1,1\n"),
    (["plan", "luttinger", "--m", "3", "--n", "-2"],
     "COMPLEMENT\nTAU0\nTAU23\nSHEAR 1 3 0 1\nTAU31\nSHEAR 1 -2 0 1\nTAU31\nTAU23\n"
     "TAUEMPTY\nCOMPOSITE 1 0 3 0 1 -2 0 0 1\n"),
    (["slide", "reduce-mu", "--w3", "MMLML"], "w1= w2= w3=λλ t3=3 t1=0\nmoves: 10\n"),
]

# One or more cases per verb, then inputs that must be refused.
OTHER_CASES = [
    ["validate", f"{W}/cp2.json"],
    ["validate", f"{W}/invalid.json"],
    ["invariants", f"{W}/cp2.json"],
    ["invariants", "--params", "4;1,2,1"],
    ["farey-classify", "1/3", "1/3", "1/3"],
    ["farey-classify", "1/1", "1/2", "2/3", "--json"],
    ["farey-classify", "1/1", "3/1", "5/1"],
    ["farey-atlas", "--max-den", "8"],
    ["farey-atlas", "--max-den", "4", "--json"],
    ["paste", "3;1,1,1", "2;0,1,1", "--closed-page", "1"],
    ["paste", "3;1,1,1;2", "2;1,1,1;2", "--circles", "2", "--common", "1,0,1"],
    ["poke", f"{W}/cp2.json", "--counts", "1,0,2"],
    ["complement", "4;1,1,1", "--arcs", "2"],
    ["plan", "general", "2", "1", "0", "1", "1", "0", "0", "0", "1"],
    ["plan", "log", "2", "1", "1", "1"],
    ["slide", "reduce-full", "--w3", "LMLML", "--trace"],
    # refused inputs: exit 1 (bad input) or 2 (precondition), one error line
    ["farey-classify", "1/0", "0/0", "1/1"],
    ["farey-classify", "1/1", "1/2", "1/3", "--qx"],
    ["plan", "general", "2", "0", "0", "0", "1", "0", "0", "0", "1"],
    ["slide", "reduce-full", "--w3", "MMM"],
    ["destab", "3;1,1,1", "--sector", "1", "--times", "2"],
    ["frobnicate"],
    ["validate", f"{W}/missing.json"],
]


def run_inprocess(argv):
    result = op_cli_inprocess({"argv": argv})
    if result[0] != "ok":
        raise SystemExit(f"{argv}: {result[1]}")
    return result[1:]


def pin_cli() -> list:
    os.makedirs(W, exist_ok=True)
    for path, text in gen.cli_files().items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    cases = []
    for argv, text in PAPER_EXAMPLES:
        code, out, err = run_inprocess(argv)
        if (code, out, err) != (0, text, ""):
            raise SystemExit(f"PAPER.md example {argv} printed {out!r} (exit {code})")
        cases.append({"argv": argv, "stdout": text})
    for argv in OTHER_CASES:
        code, out, err = run_inprocess(argv)
        shape = oracles.stderr_shape(err)
        if shape == "other":
            raise SystemExit(f"{argv}: stderr is not empty or one error line: {err!r}")
        case = {"argv": argv, "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}
        if code != 0:
            case["exit"] = code
        if shape != "empty":
            case["stderr"] = shape
        cases.append(case)
    return cases


def atlas_csv(cap: int):
    """(CSV text, row count) of the atlas library path for one cap."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cli.ATLAS_COLUMNS, lineterminator="\n")
    writer.writeheader()
    rows = 0
    for row in farey.atlas_rows(cap):
        writer.writerow(row)
        rows += 1
    return buf.getvalue(), rows


def pin_atlas() -> dict:
    lo, hi = gen.ATLAS_STRATA[0][0], gen.ATLAS_STRATA[-1][1]
    pinned = {}
    for cap in range(lo, hi + 1):
        text, rows = atlas_csv(cap)
        pinned[str(cap)] = {"rows": rows,
                            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    return pinned


def main() -> int:
    for name, value in (("cli_pinned.json", pin_cli()), ("atlas_pinned.json", pin_atlas())):
        with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
            json.dump(value, fh, indent=1, ensure_ascii=False)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
