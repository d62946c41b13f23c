"""Tests of the benchmark itself: seeded generators and oracles.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import hashlib
import json
import os
import random

import pytest

import calib
import gen
import oracles
import pin
import tracing

from trisect import calculus, diagram, invariants, slides
from trisect.errors import TrisectError


HERE = os.path.dirname(os.path.abspath(__file__))


def _pinned(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def _cli_rounds(seed):
    return gen.cli(seed, _pinned("cli_pinned.json"), _pinned("atlas_pinned.json"))


GENERATORS = {
    "homology": gen.homology,
    "atlas": gen.atlas,
    "plans-slides": gen.plans_slides,
    "cli": _cli_rounds,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    make = GENERATORS[name]
    first = json.dumps(make(7), sort_keys=True)
    assert json.dumps(make(7), sort_keys=True) == first
    assert json.dumps(make(8), sort_keys=True) != first


def test_mixes_are_stratified():
    """Every seed draws the same number of cases from each size class."""
    def homology_strata(seed):
        return [sorted((c["genus"], c["expect"] is None) for c in r) for r in gen.homology(seed)]

    def plan_strata(seed):
        return [sorted((c["op"][:6], len(c.get("word", ""))) for c in r)
                for r in gen.plans_slides(seed)]

    assert homology_strata(1) == homology_strata(2)
    assert plan_strata(1) == plan_strata(2)
    for sweep in gen.atlas(1):
        assert all(lo <= cap <= hi for cap, (lo, hi) in zip(sorted(sweep), gen.ATLAS_STRATA))


def test_invariant_factors():
    assert gen.invariant_factors([2, 3, 4, 2, 9]) == (2, 6, 36)
    assert gen.invariant_factors([5]) == (5,)
    assert gen.invariant_factors([]) == ()


def _homology_out(case):
    try:
        rep = invariants.first_homology(diagram.parse_diagram(case["text"]))
    except TrisectError as e:
        return ("reject", type(e).__name__)
    return ("ok", rep.h1_free_rank, rep.h1_torsion)


def test_homology_prediction_matches_the_program():
    rng = random.Random(5)
    for blocks in (1, 2, 3):
        for invalid in (False, True):
            for _ in range(6):
                case = gen.homology_case(rng, blocks, invalid)
                assert oracles.check_homology(case, _homology_out(case)) is None


def test_homology_oracle_flags_an_altered_torsion_factor():
    rng = random.Random(11)
    case = next(c for c in (gen.homology_case(rng, 3, False) for _ in range(50))
                if c["expect"]["torsion"])
    out = _homology_out(case)
    assert oracles.check_homology(case, out) is None
    torsion = list(out[2])
    torsion[-1] += 1
    assert oracles.check_homology(case, ("ok", out[1], tuple(torsion))) is not None


def test_atlas_oracle_flags_a_changed_csv_byte():
    pinned = _pinned("atlas_pinned.json")
    text, rows = pin.atlas_csv(10)
    assert oracles.check_atlas(10, text, rows, pinned) is None
    i = len(text) // 2
    changed = text[:i] + ("0" if text[i] != "0" else "1") + text[i + 1:]
    assert oracles.check_atlas(10, changed, rows, pinned) is not None


def _slide_out(word, op):
    state = slides.initial_state(word)
    final, trace = (slides.reduce_mu if op == "reduce-mu" else slides.reduce_full)(state)
    return ("ok", state, final, trace, slides.trace_lines(state, trace), slides.format_state(final))


@pytest.mark.parametrize("op", ["reduce-mu", "reduce-full"])
def test_slide_oracle_flags_a_dropped_move(op):
    case = {"op": op, "word": gen.slide_word(random.Random(3), 40)}
    out = _slide_out(case["word"], op)
    assert oracles.check_slide(case, out, slides.replay) is None
    trace = list(out[3])
    del trace[len(trace) // 2]
    dropped = out[:3] + (trace,) + out[4:]
    assert oracles.check_slide(case, dropped, slides.replay) is not None


def test_slide_oracle_requires_rejecting_a_word_without_lambda():
    case = {"op": "reduce-full", "word": "MMMM", "reject": True}
    with pytest.raises(TrisectError) as err:
        slides.reduce_full(slides.initial_state(case["word"]))
    assert oracles.check_slide(case, ("reject", type(err.value).__name__), slides.replay) is None
    assert oracles.check_slide(case, ("error", "ValueError()"), slides.replay) is not None


def test_plan_oracle_checks_composite_and_round_trip():
    m = gen.sl3_matrix(random.Random(4), 64)
    case = {"op": "general", "matrix": m}
    plan = calculus.surgery_plan_general(m)
    back = calculus.parse_plan(calculus.serialize_plan(plan))
    assert oracles.check_plan(case, ("ok", plan, back)) is None
    other = calculus.surgery_plan_general(gen.sl3_matrix(random.Random(5), 64))
    assert oracles.check_plan(case, ("ok", plan, other)) is not None
    assert oracles.check_plan(case, ("ok", other, other)) is not None


def test_cli_oracle_flags_an_extra_stderr_line():
    case = {"argv": ["frobnicate"], "exit": 1, "stderr": "error",
            "stdout_sha256": hashlib.sha256(b"").hexdigest()}
    assert oracles.check_cli(case, ("ok", 1, "", "error: bad verb\n")) is None
    assert oracles.check_cli(case, ("ok", 1, "", "error: bad verb\nmore\n")) is not None
    assert oracles.check_cli(case, ("ok", 2, "", "error: bad verb\n")) is not None
    assert oracles.probe_verdict(("ok", 1, "", "Traceback (most recent call last):\n  x\n")) \
        == "traceback"


def test_tracer_self_and_busy_times():
    tr = tracing.Tracer()
    tr.spans = [
        ["slides.reduce", 0.0, 10.0, -1, 1],   # reduce_full
        ["slides.reduce", 1.0, 4.0, 0, 1],     # nested reduce_mu
        ["invariants.h1", 19.0, 25.0, -1, 2],
        ["zmatrix.smith", 20.0, 23.0, 2, 2],
    ]
    m = tr.metrics()
    assert m["slides.reduce.busy_s"] == 10.0
    assert m["zmatrix.smith.busy_s"] == 3.0
    assert m["invariants.h1.self_s"] == 3.0


def test_calibrator_scales_by_the_kernel_time_around_each_op():
    cal = calib.Calibrator()
    cal.runs = [0.001] * 10 + [0.002] * 10  # the machine halves its speed
    fast, slow = cal.scaled([0.01, 0.01], [2, 18])
    assert fast == pytest.approx(0.01 * calib.REF_MS / 1.0)
    assert slow == pytest.approx(0.01 * calib.REF_MS / 2.0)
