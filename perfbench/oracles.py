"""Correctness oracles.  Each check returns None when the output is right and
a one-line reason when it is wrong; the benchmark runs them outside the
timed region and counts every wrong answer as a failed operation.

An operation's output is a tuple: ("ok", ...values), ("reject", exception
class name) for a documented domain error, or ("error", repr) for anything
else.  No oracle calls trisect to compute an expected value, except that the
slide check replays the trace through the program's move engine, as the
check of a reduction requires.
"""

import hashlib
from typing import Dict, List, Optional, Sequence

DIAGRAM_REJECTS = ("DiagramError", "VectorLength")
REJECTS = {"general": ("NotSL3",), "log": ("NotSL2",), "reduce-full": ("NotApplicable",)}


def _reject_reason(out: tuple, allowed: Sequence[str]) -> Optional[str]:
    if out[0] == "reject" and out[1] in allowed:
        return None
    return f"expected a rejection ({'/'.join(allowed)}), got {out[:2]!r}"


def check_homology(case: dict, out: tuple) -> Optional[str]:
    """H1 must equal the block-sum prediction; invalid diagrams must be
    rejected with a DiagramError."""
    expect = case["expect"]
    if expect is None:
        return _reject_reason(out, DIAGRAM_REJECTS)
    if out[0] != "ok":
        return f"genus {case['genus']}: {out!r}"
    free, torsion = out[1], list(out[2])
    if free != expect["free_rank"] or torsion != expect["torsion"]:
        return (f"genus {case['genus']}: H1 = Z^{free} + {torsion}, expected "
                f"Z^{expect['free_rank']} + {expect['torsion']}")
    return None


def check_atlas(cap: int, text: str, rows: int, pinned: Dict[str, dict]) -> Optional[str]:
    """Row count and CSV digest must equal the values pinned for this cap."""
    want = pinned[str(cap)]
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if rows != want["rows"] or digest != want["sha256"]:
        return f"max_den {cap}: {rows} rows, sha256 {digest[:12]}; pinned {want['rows']}, {want['sha256'][:12]}"
    return None


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

_PERM = {
    "tau12": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    "tau23": [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    "tau31": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
}
_IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _block(kind: str, shear) -> List[List[int]]:
    """Block matrices as the plan format documents them."""
    if kind == "shear":
        (a, b), (c, d) = shear
        return [[a, b, 0], [c, d, 0], [0, 0, 1]]
    return _PERM.get(kind, _IDENTITY)


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def expected_composite(case: dict) -> List[List[int]]:
    if case["op"] == "luttinger":
        return [[1, 0, case["m"]], [0, 1, case["n"]], [0, 0, 1]]
    if case["op"] == "log":
        (a, b), (c, d) = case["matrix"]
        return [[1, 0, 0], [0, a, b], [0, c, d]]
    return [list(row) for row in case["matrix"]]


def check_plan(case: dict, out: tuple) -> Optional[str]:
    """The blocks must multiply to the input matrix, the stated composite
    must equal it, and parse_plan(serialize_plan(p)) must give p back."""
    if case.get("reject"):
        return _reject_reason(out, REJECTS[case["op"]])
    if out[0] != "ok":
        return f"{case['op']} plan: {out!r}"
    plan, back = out[1], out[2]
    want = expected_composite(case)
    product = _IDENTITY
    for block in plan.blocks:
        product = _mul(product, _block(block.kind, block.shear))
    if product != want:
        return f"{case['op']} plan: blocks multiply to {product}, not {want}"
    if [list(r) for r in plan.composite] != want:
        return f"{case['op']} plan: stated composite {plan.composite} != {want}"
    if back != plan:
        return f"{case['op']} plan: serialize/parse round trip changed the plan"
    return None


# ---------------------------------------------------------------------------
# slides
# ---------------------------------------------------------------------------

def expected_moves(word: str, full: bool) -> List[str]:
    """The reducer's trace, fixed by the word alone: for each mu with j
    lambdas before it, ExtendB1(j+1), CommuteLambdaMu(j-1 .. 0),
    SlideA1OverAlpha, ShrinkA2; a full reduction then adds ExtendB1(n) and n
    SlideA2OverBeta.  Length 3m + #(lambda, mu) inversions (+ n + 1)."""
    moves: List[str] = []
    lambdas = 0
    for ch in word:
        if ch == "L":
            lambdas += 1
            continue
        moves.append(f"ExtendB1({lambdas + 1})")
        moves.extend(f"CommuteLambdaMu({p})" for p in range(lambdas - 1, -1, -1))
        moves += ["SlideA1OverAlpha", "ShrinkA2"]
    if full:
        moves.append(f"ExtendB1({lambdas})")
        moves += ["SlideA2OverBeta"] * lambdas
    return moves


def expected_final(word: str, full: bool) -> str:
    m, n = word.count("M"), word.count("L")
    if full:
        return f"w1= w2= w3= t3={m} t1={n - 1}"
    return f"w1= w2= w3={'λ' * n} t3={m} t1=0"


def check_slide(case: dict, out: tuple, replay) -> Optional[str]:
    """Trace and final state must match the closed form, the move count must
    be 3m + inversions (+ n + 1 when full), replay(initial, trace) must reach
    the final state, and trace_lines must end in it.  `replay` and the state
    formatter come from the program (out carries the formatted final)."""
    if case.get("reject"):
        return _reject_reason(out, REJECTS[case["op"]])
    if out[0] != "ok":
        return f"{case['op']} of {len(case['word'])} letters: {out!r}"
    initial, final, trace, lines, final_text = out[1:]
    word, full = case["word"], case["op"] == "reduce-full"
    m = word.count("M")
    inversions = sum(word[:i].count("L") for i, ch in enumerate(word) if ch == "M")
    count = 3 * m + inversions + (word.count("L") + 1 if full else 0)
    if len(trace) != count:
        return f"{case['op']}: {len(trace)} moves, expected {count}"
    if [str(mv) for mv in trace] != expected_moves(word, full):
        return f"{case['op']}: trace differs from the closed form"
    want = expected_final(word, full)
    if final_text != want:
        return f"{case['op']}: final state {final_text!r}, expected {want!r}"
    if replay(initial, trace) != final:
        return f"{case['op']}: replaying the trace does not reach the final state"
    if len(lines) != len(trace) or (lines and not lines[-1].endswith("| " + want)):
        return f"{case['op']}: trace_lines does not follow the trace to the final state"
    return None


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def stderr_shape(stderr: str) -> str:
    """"empty", "error" (exactly one `error:` line) or "other"."""
    if stderr == "":
        return "empty"
    lines = stderr.splitlines()
    if len(lines) == 1 and lines[0].startswith("error: ") and stderr.endswith("\n"):
        return "error"
    return "other"


def check_cli(case: dict, out: tuple) -> Optional[str]:
    """Exit code, stdout (literal or digest) and stderr shape."""
    name = " ".join(case["argv"])[:60]
    if out[0] != "ok":
        return f"{name}: {out!r}"
    code, stdout, stderr = out[1], out[2], out[3]
    if code != case.get("exit", 0):
        return f"{name}: exit {code}, expected {case.get('exit', 0)}"
    shape = stderr_shape(stderr)
    if shape != case.get("stderr", "empty"):
        return f"{name}: stderr is {shape}, expected {case.get('stderr', 'empty')}"
    if "stdout" in case and stdout != case["stdout"]:
        return f"{name}: stdout differs from the expected text"
    if "stdout_sha256" in case:
        if hashlib.sha256(stdout.encode("utf-8")).hexdigest() != case["stdout_sha256"]:
            return f"{name}: stdout digest differs from the pinned one"
    return None


def probe_verdict(out: tuple) -> str:
    """Inputs that must end in exit 1 with one `error:` line: "ok",
    "traceback" (the known defect) or "wrong"."""
    if out[0] == "ok" and out[1] == 1 and stderr_shape(out[3]) == "error":
        return "ok"
    if out[0] == "ok" and "Traceback (most recent call last)" in out[3]:
        return "traceback"
    return "wrong"
