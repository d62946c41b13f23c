import contextlib
import io
import json
import os
import string
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisect
from trisect.cli import main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


CP2_FILE = json.dumps({
    "basis": "e1 f1", "genus": 1, "boundary": 0,
    "alpha": [[1, 0]], "beta": [[0, 1]], "gamma": [[1, 1]],
})


@pytest.fixture
def cp2_path(tmp_path):
    p = tmp_path / "cp2.json"
    p.write_text(CP2_FILE)
    return str(p)


class TestExamples:
    def test_farey_classify_with_qx(self, run):
        code, out, _ = run("farey-classify", "1/1", "1/2", "2/3", "--qx")
        assert code == 0
        assert "CP2#CP2bar#CP2bar" in out
        assert "[[2, -1, 1], [-1, 0, 0], [1, 0, -1]]" in out

    def test_destab_chain(self, run):
        code, out, _ = run("destab", "51;13,13,23", "--sector", "3", "--times", "10")
        assert code == 0
        assert out.strip() == "41;13,13,13"

    def test_plan_luttinger_identity(self, run):
        code, out, _ = run("plan", "luttinger", "--m", "0", "--n", "0")
        assert code == 0
        assert out.splitlines()[-1] == "COMPOSITE 1 0 0 0 1 0 0 0 1"


class TestNegativeSlopes:
    """farey-classify takes -1/1 as a slope, as it takes it after `--`."""

    @pytest.mark.parametrize("slopes", [
        ("-1/1", "0/1", "1/0"),
        ("0/1", "-1/1", "1/0"),
        ("1/0", "0/1", "-1/1"),
        ("-1/1", "-1/2", "-2/3"),
        ("-1/1", "-1/1", "0/1"),
        ("-1/-2", "1/1", "1/0"),
        ("-3/1", "-3/1", "-3/1"),
    ])
    @pytest.mark.parametrize("flags", [(), ("--json",), ("--qx",), ("--json", "--qx")])
    def test_same_as_after_double_dash(self, run, slopes, flags):
        dashed = run("farey-classify", *flags, "--", *slopes)
        assert run("farey-classify", *slopes, *flags) == dashed
        assert run("farey-classify", *flags, *slopes) == dashed
        assert run("farey-classify", slopes[0], *flags, *slopes[1:]) == dashed

    def test_example(self, run):
        assert run("farey-classify", "-1/1", "0/1", "1/0") == (0, (
            "kind: FareyTriplet\n"
            "manifold: CP2#CP2bar#CP2bar\n"
            "refined: CP2bar#S2x~S2\n"
            "form: odd_indefinite (1, 2)\n"), "")

    @pytest.mark.parametrize("slopes", [
        ("-x/2", "0/1", "1/0"),
        ("-1/x", "0/1", "1/0"),
        ("0/1", "-", "1/0"),
        ("-1/1", "0/1"),
        ("-1/1", "0/1", "1/0", "-1/2"),
    ])
    def test_malformed_is_1(self, run, slopes):
        code, out, err = run("farey-classify", *slopes)
        assert code == 1 and out == "" and one_error_line(err)

    def test_other_verbs_keep_their_parsing(self, run):
        code, out, err = run("paste", "--common", "-1,0,0", "1;0,0,0", "1;0,0,0")
        assert code == 1 and out == "" and one_error_line(err)
        assert "--common" in err


class TestExitCodes:
    def test_invalid_fraction_is_1(self, run):
        code, _, err = run("farey-classify", "1/1", "bogus", "2/3")
        assert code == 1 and "error" in err

    def test_unparseable_params_is_1(self, run):
        code, _, _ = run("destab", "not-params", "--sector", "1")
        assert code == 1

    def test_precondition_failure_is_2(self, run):
        code, _, err = run("destab", "1;0,0,0", "--sector", "1")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("slopes,kind", [
        (("1/1", "1/1", "1/1"), "AllEqual"),
        (("0/1", "1/3", "1/0"), "Invalid"),
    ])
    @pytest.mark.parametrize("flags", [("--qx",), ("--qx", "--json")])
    def test_qx_without_a_form_is_2(self, run, slopes, kind, flags):
        assert run("farey-classify", *slopes, *flags) == (
            2, "", f"error: no intersection form for an {kind} triple\n")

    def test_non_sl3_plan_is_2(self, run):
        code, _, _ = run("plan", "general", "2", "0", "0", "0", "1", "0", "0", "0", "1")
        assert code == 2

    def test_usage_error_is_1(self, run):
        code, _, _ = run("destab")   # missing required arguments
        assert code == 1

    def test_slide_bad_word_is_1(self, run):
        code, _, _ = run("slide", "reduce-mu", "--w3", "xyz")
        assert code == 1

    def test_reduce_full_without_lambda_is_2(self, run):
        code, _, _ = run("slide", "reduce-full", "--w3", "MM")
        assert code == 2

    def test_non_integer_max_den_env_is_1(self, run, monkeypatch):
        monkeypatch.setenv("TRISECT_MAX_DEN", "abc")
        code, out, err = run("farey-atlas")
        assert (code, out) == (1, "")
        assert one_error_line(err) and "TRISECT_MAX_DEN" in err

    def test_atlas_out_into_missing_directory_is_1(self, run, tmp_path):
        target = tmp_path / "missing" / "atlas.csv"
        code, out, err = run("farey-atlas", "--max-den", "1", "--out", str(target))
        assert (code, out) == (1, "")
        assert one_error_line(err) and "cannot write" in err
        assert not target.parent.exists()

    def test_deeply_nested_diagram_is_1(self, run, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code, out, err = run("validate", str(path))
        assert (code, out) == (1, "")
        assert one_error_line(err) and "nested" in err


    def test_line_break_in_input_stays_on_one_error_line(self, run):
        code, out, err = run("validate", "no\nsuch\rfile")
        assert (code, out) == (1, "")
        assert one_error_line(err) and "no\\nsuch\\nfile" in err


REFUSALS = [
    (("paste", "1;0,0,0", "1;0,0,0", "--closed-page", "0", "--common", "1,2"),
     "'1,2': need three comma-separated integers"),
    (("paste", "1;0,0,0", "1;0,0,0", "--closed-page", "0", "--common", "1,x,2"),
     "'1,x,2': entries must be integers"),
    (("farey-atlas", "--max-den", "-1"), "max denominator must be >= 0"),
    (("paste", "1;0,0,0", "1;0,0,0"), "give exactly one of --closed-page or --circles"),
    (("paste", "1;0,0,0", "1;0,0,0", "--closed-page", "0", "--circles", "1"),
     "give exactly one of --closed-page or --circles"),
    (("complement", "1;1,1,1", "--arcs", "x"), "--arcs 'x': need an integer or triple"),
    (("plan", "log", "1", "2", "3"), "plan log takes four matrix entries a11 a12 a21 a22"),
    (("plan", "general", "1"), "plan general takes nine matrix entries, row by row"),
]


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_refusal_is_one_error_line(run, argv, message):
    assert run(*argv) == (1, "", f"error: {message}\n")


class TestVerbs:
    def test_validate_ok(self, run, cp2_path):
        code, out, _ = run("validate", cp2_path)
        assert code == 0 and out.strip().endswith("OK")

    def test_validate_invalid_diagram(self, run, tmp_path):
        bad = json.loads(CP2_FILE)
        bad["alpha"] = [[1, 0], [0, 1]]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, out, _ = run("validate", str(p))
        assert code == 1 and "INVALID" in out

    def test_invariants_file(self, run, cp2_path):
        code, out, _ = run("invariants", cp2_path)
        assert code == 0 and out.strip() == "H1 = 0"

    def test_invariants_params(self, run):
        code, out, _ = run("invariants", "--params", "41;13,13,13")
        assert code == 0
        assert "euler = 4" in out and "(1, 13, 28, 13, 1)" in out

    def test_paste(self, run):
        code, out, _ = run("paste", "1;0,0,0;3", "1;0,0,0;3", "--circles", "3")
        assert code == 0
        assert "genus=4" in out or out.strip().startswith("4;")

    def test_closed_page_refuses_common_counts(self, run):
        # paste never reads the counts on a closed page, so they are refused
        code, out, err = run("paste", "--closed-page", "0", "--common=1,0,0",
                             "1;0,0,0", "1;0,0,0")
        assert (code, out) == (1, "")
        assert err == "error: common-curve counts apply only to boundary-circle pasting\n"

    def test_fiber_sum(self, run):
        code, out, _ = run("fiber-sum", "21;6,6,11", "21;6,6,11",
                           "--bridge", "5", "--common", "1,1,1")
        assert code == 0 and out.strip() == "51;13,13,23"

    def test_poke_round_trips(self, run, cp2_path):
        code, out, _ = run("poke", cp2_path, "--counts", "1,1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["boundary"] == 3
        assert len(doc["alpha"]) == 2

    def test_complement(self, run):
        code, out, _ = run("complement", "1;1,1,1", "--arcs", "1")
        assert code == 0
        assert "punctures = 3" in out
        assert "closure genus = 3" in out

    def test_slide_trace_format(self, run):
        code, out, _ = run("slide", "reduce-mu", "--w3", "MMMMLLL", "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("MOVE ")
        assert "| w1=" in lines[0]
        assert lines[-1] == "moves: 12"
        assert "t3=4" in lines[-2]


# `trisect slide reduce-mu --w3 MMLML` (the README example), pinned as printed
SLIDE_MOVES = [
    "ExtendB1(1)", "SlideA1OverAlpha", "ShrinkA2",
    "ExtendB1(1)", "SlideA1OverAlpha", "ShrinkA2",
    "ExtendB1(2)", "CommuteLambdaMu(0)", "SlideA1OverAlpha", "ShrinkA2",
]
SLIDE_TRACE = [
    "MOVE ExtendB1(1) | w1=μ w2= w3=μλμλ t3=0 t1=0",
    "MOVE SlideA1OverAlpha | w1= w2= w3=μλμλ t3=1 t1=0",
    "MOVE ShrinkA2 | w1= w2= w3=μλμλ t3=1 t1=0",
    "MOVE ExtendB1(1) | w1=μ w2= w3=λμλ t3=1 t1=0",
    "MOVE SlideA1OverAlpha | w1= w2= w3=λμλ t3=2 t1=0",
    "MOVE ShrinkA2 | w1= w2= w3=λμλ t3=2 t1=0",
    "MOVE ExtendB1(2) | w1= w2=λμ w3=λ t3=2 t1=0",
    "MOVE CommuteLambdaMu(0) | w1=μ w2=λ w3=λ t3=2 t1=0",
    "MOVE SlideA1OverAlpha | w1= w2=λ w3=λ t3=3 t1=0",
    "MOVE ShrinkA2 | w1= w2= w3=λλ t3=3 t1=0",
]
SLIDE_FINAL = {"w1": "", "w2": "", "w3": "λλ", "t3": 3, "t1": 0}


class TestSlideOutput:
    def test_plain(self, run):
        code, out, err = run("slide", "reduce-mu", "--w3", "MMLML")
        assert (code, err) == (0, "")
        assert out == "w1= w2= w3=λλ t3=3 t1=0\nmoves: 10\n"

    def test_trace(self, run):
        code, out, _ = run("slide", "reduce-mu", "--w3", "MMLML", "--trace")
        assert code == 0
        assert out == "\n".join(SLIDE_TRACE + ["w1= w2= w3=λλ t3=3 t1=0", "moves: 10"]) + "\n"

    def test_json(self, run):
        code, out, _ = run("slide", "reduce-mu", "--w3", "MMLML", "--json")
        assert code == 0
        doc = {"final": SLIDE_FINAL, "moves": SLIDE_MOVES}
        assert out == json.dumps(doc, indent=1) + "\n"

    def test_json_trace(self, run):
        code, out, _ = run("slide", "reduce-mu", "--w3", "MMLML", "--trace", "--json")
        assert code == 0
        doc = {"final": SLIDE_FINAL, "moves": SLIDE_MOVES, "trace": SLIDE_TRACE}
        assert out == json.dumps(doc, indent=1) + "\n"


PLAN_ENTRIES = {
    "general": ("1", "-5", "0", "0", "1", "0", "0", "0", "1"),
    "log": ("0", "1", "-1", "5"),
}


class TestPlanOptionsAnywhere:
    """Options after the plan kind, before, between or after the matrix
    entries, print what they print before the kind."""

    @pytest.mark.parametrize("kind", sorted(PLAN_ENTRIES))
    def test_json_at_every_position(self, run, kind):
        entries = list(PLAN_ENTRIES[kind])
        expect = run("plan", "--json", kind, *entries)
        assert expect[0] == 0 and json.loads(expect[1])["blocks"]
        for i in range(len(entries) + 1):
            assert run("plan", kind, *entries[:i], "--json", *entries[i:]) == expect, i

    @pytest.mark.parametrize("argv", [
        ("luttinger", "--m", "3", "--n", "-2"),
        ("luttinger", "--n", "-2", "--m", "3"),
        ("luttinger", "--m", "3", "--json", "--n", "-2"),
        ("luttinger", "--json", "--m", "3", "--n", "-2"),
    ])
    def test_luttinger_options_after_kind(self, run, argv):
        as_json = "--json" in argv
        expect = run("plan", *(("--json",) if as_json else ()), "--m", "3", "--n", "-2",
                     "luttinger")
        assert expect[0] == 0
        assert run("plan", *argv) == expect
        if not as_json:
            assert expect[1].splitlines()[3] == "SHEAR 1 3 0 1"
            assert expect[1].splitlines()[-1] == "COMPOSITE 1 0 3 0 1 -2 0 0 1"

    def test_negative_entry(self, run):
        code, out, err = run("plan", "general", *PLAN_ENTRIES["general"])
        assert (code, err) == (0, "")
        assert out == "COMPLEMENT\nTAU0\nSHEAR 1 -5 0 1\nTAUEMPTY\nCOMPOSITE 1 -5 0 0 1 0 0 0 1\n"

    def test_entries_after_options_still_checked(self, run):
        code, out, err = run("plan", "log", "--json", "1", "1", "x", "1")
        assert (code, out) == (1, "")
        assert one_error_line(err) and "invalid int value: 'x'" in err
        code, out, err = run("plan", "luttinger", "--m", "1", "--n", "2", "--json", "7")
        assert (code, out) == (1, "")
        assert one_error_line(err) and "--m and --n only" in err


# `trisect plan general 0 1 0 -1 0 0 0 0 1 --json`, pinned as printed
PLAN_SWAP_DOC = {
    "blocks": [{"kind": "complement", "shear": None}, {"kind": "tau0", "shear": None}]
    + [{"kind": "shear", "shear": s} for s in (
        [[1, 1], [0, 1]], [[0, -1], [1, 0]], [[1, 1], [0, 1]], [[0, 1], [-1, 0]],
        [[1, 1], [0, 1]])]
    + [{"kind": "tauempty", "shear": None}],
    "composite": [[0, 1, 0], [-1, 0, 0], [0, 0, 1]],
}


class TestBuildsOnlyWhatItPrints:
    """Each output mode of plan and slide computes only what it prints."""

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("luttinger", "--m", "3", "--n", "-2"),
        ("log", "--", *PLAN_ENTRIES["log"]),
        ("general", "--", "0", "1", "0", "-1", "0", "0", "0", "0", "1"),
    ], ids=["luttinger", "log", "general"])
    def test_plan_reads_the_composite_once(self, run, monkeypatch, argv, as_json):
        from trisect.calculus import SurgeryPlan
        reads = []
        product = SurgeryPlan.composite.fget
        monkeypatch.setattr(SurgeryPlan, "composite",
                            property(lambda plan: reads.append(1) or product(plan)))
        code, _, _ = run("plan", *(("--json",) if as_json else ()), *argv)
        assert (code, len(reads)) == (0, 1)

    def test_plan_json_payload(self, run):
        code, out, _ = run("plan", "general", "--json", "--", "0", "1", "0", "-1", "0", "0",
                           "0", "0", "1")
        assert code == 0
        assert out == json.dumps(PLAN_SWAP_DOC, indent=1) + "\n"

    @pytest.mark.parametrize("mode,expect", [
        ("reduce-mu", "w1= w2= w3=λλ t3=3 t1=0\nmoves: 10\n"),
        ("reduce-full", "w1= w2= w3= t3=3 t1=1\nmoves: 13\n"),
    ], ids=["reduce-mu", "reduce-full"])
    def test_slide_text_names_no_move(self, run, monkeypatch, mode, expect):
        from trisect.slides import SlideMove

        def unnamed(mv):
            raise AssertionError(f"text mode named the move {mv.kind}")
        monkeypatch.setattr(SlideMove, "__str__", unnamed)
        assert run("slide", mode, "--w3", "MMLML") == (0, expect, "")


class TestJson:
    def test_round_trip_farey(self, run):
        code, out, _ = run("farey-classify", "1/1", "1/2", "2/3", "--qx", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["manifold"] == "CP2#CP2bar#CP2bar"
        assert doc["qx"] == [[2, -1, 1], [-1, 0, 0], [1, 0, -1]]

    def test_round_trip_params(self, run):
        from trisect.diagram import parse_params
        code, out, _ = run("destab", "51;13,13,23", "--sector", "3",
                           "--times", "10", "--json")
        doc = json.loads(out)
        assert parse_params(doc["params"]) == parse_params("41;13,13,13")
        assert doc["k"] == [13, 13, 13]

    def test_plan_json(self, run):
        code, out, _ = run("plan", "log", "0", "1", "-1", "5", "--json")
        doc = json.loads(out)
        assert doc["composite"] == [[1, 0, 0], [0, 0, 1], [0, -1, 5]]
        assert doc["blocks"][0]["kind"] == "complement"

    def test_deterministic(self, run):
        a = run("farey-atlas", "--max-den", "3", "--json")
        b = run("farey-atlas", "--max-den", "3", "--json")
        assert a == b


def dict_writer_csv(max_den):
    import csv

    from trisect.cli import ATLAS_COLUMNS
    from trisect.farey import atlas_rows

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=ATLAS_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(atlas_rows(max_den))
    return buf.getvalue()


class TestAtlas:
    def test_csv_to_stdout(self, run):
        code, out, _ = run("farey-atlas", "--max-den", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "triple,kind,manifold,refined,rank,signature,parity,det"
        assert len(lines) == 17   # 16 triples with all |den| <= 1

    def test_out_file(self, run, tmp_path):
        target = tmp_path / "atlas.csv"
        code, out, _ = run("farey-atlas", "--max-den", "2", "--out", str(target))
        assert code == 0
        text = target.read_text()
        assert text.splitlines()[0].startswith("triple,")
        assert str(len(text.splitlines()) - 1) in out   # row count echoed

    def test_env_var_default(self, run, monkeypatch):
        monkeypatch.setenv("TRISECT_MAX_DEN", "1")
        code, out, _ = run("farey-atlas")
        assert code == 0 and len(out.splitlines()) == 17

    def test_flag_overrides_env(self, run, monkeypatch):
        monkeypatch.setenv("TRISECT_MAX_DEN", "1")
        code, out, _ = run("farey-atlas", "--max-den", "0")
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize("max_den", range(21))
    def test_stdout_and_file_match_a_csv_writer(self, run, tmp_path, max_den):
        # a DictWriter, which places each value by its key, is the
        # reference for the CLI's writer, which takes the values in order
        expected = dict_writer_csv(max_den)
        code, out, _ = run("farey-atlas", "--max-den", str(max_den))
        assert code == 0 and out == expected
        target = tmp_path / "atlas.csv"
        code, out, _ = run("farey-atlas", "--max-den", str(max_den), "--out", str(target))
        assert code == 0 and target.read_bytes() == expected.encode()
        assert out == f"wrote {expected.count(chr(10)) - 1} rows to {target}\n"

    def test_file_with_json_summary_matches_a_csv_writer(self, run, tmp_path):
        expected = dict_writer_csv(20)
        target = tmp_path / "atlas.csv"
        code, out, _ = run("farey-atlas", "--max-den", "20", "--out", str(target), "--json")
        assert code == 0 and target.read_bytes() == expected.encode()
        assert json.loads(out) == {"max_den": 20, "rows": 3064, "out": str(target)}

    def test_stdout_written_in_blocks(self, monkeypatch):
        # on an unbuffered stdout each write is a syscall, so the rows go
        # out in blocks of about 64 kB, not one write each
        class Counting(io.StringIO):
            writes = 0

            def write(self, text):
                Counting.writes += 1
                return super().write(text)

        out = Counting()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["farey-atlas", "--max-den", "20"]) == 0
        text = out.getvalue()
        assert text.count("\n") == 3065  # the header and 3064 rows
        assert Counting.writes <= len(text) // (1 << 16) + 1


VERBS = ("validate", "invariants", "farey-classify", "farey-atlas", "paste", "fiber-sum",
         "destab", "poke", "complement", "plan", "slide")
FLAGS = ("--json", "--help", "--qx", "--trace", "--max-den", "--out", "--closed-page",
         "--circles", "--common", "--bridge", "--sector", "--times", "--counts", "--arcs",
         "--params", "--m", "--n", "--w3")
VALUES = (
    # integers stay small: --max-den and --counts cost grows with them
    *(str(k) for k in range(-3, 8)),
    "1/2", "2/3", "1/1", "0/1", "-1/3", "1/0", "x/2",
    "1,2,3", "0,0,0", "-1,0,2", "1,1", "a,b,c",
    "1;0,0,0", "2;1,1,1", "51;13,13,23", "3;1,1,1;2", "1;2,2,2", ";;",
    "MML", "LLM", "μλλ", "mLl", "MX", "",
    "luttinger", "log", "general", "reduce-mu", "reduce-full",
)
# file arguments, named by role; the test writes them before each example
FILES = ("cp2.json", "invalid.json", "broken.json", "missing.json", "out.csv", ".")
# free text without digits, so no drawn number can be large
TEXT = st.text(alphabet=string.ascii_letters + " -/;,.\n\t[]{}μλ", max_size=6)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write_inputs(root):
    bad = json.loads(CP2_FILE)
    bad["alpha"] = [[1, 0], [0, 1]]
    (root / "cp2.json").write_text(CP2_FILE)
    (root / "invalid.json").write_text(json.dumps(bad))
    (root / "broken.json").write_text("{" + CP2_FILE)
    (root / "missing.json").unlink(missing_ok=True)


class TestArgvFuzz:
    """Any argv ends in exit 0, 1 or 2 with stderr empty or one `error:`
    line, never an uncaught exception."""

    @settings(max_examples=400, deadline=None)
    @given(
        verb=st.one_of(st.sampled_from(VERBS), TEXT),
        rest=st.lists(st.one_of(st.sampled_from(FLAGS), st.sampled_from(VALUES),
                                st.sampled_from(FILES), TEXT), max_size=8),
        max_den_env=st.sampled_from(("2", "0", "-1", "abc", "", " 3")),
    )
    def test_exit_codes_and_stderr(self, fuzz_dir, verb, rest, max_den_env):
        _write_inputs(fuzz_dir)
        argv = [verb] + [str(fuzz_dir / t) if t in FILES else t for t in rest]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(fuzz_dir)  # a drawn --out path lands here
            mp.setenv("TRISECT_MAX_DEN", max_den_env)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as e:  # --help
                    code = e.code
        assert code in (0, 1, 2), argv
        assert err.getvalue() == "" or one_error_line(err.getvalue()), (argv, err.getvalue())


def test_import_leaves_unused_modules_unloaded():
    # start-up cost of every verb: these modules are slow to import and no
    # verb needs them before it runs (csv and json load on first use, fractions never)
    unused = ("dataclasses", "inspect", "fractions", "decimal", "csv", "json")
    code = f"import sys, trisect.cli; print(*[m for m in {unused!r} if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(trisect.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == []


def test_farey_verbs_leave_fractions_unloaded():
    # classify reads the form class off integers, so neither farey verb
    # loads fractions or decimal
    code = (
        "import contextlib, io, sys\n"
        "from trisect.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['farey-classify', '1/1', '1/2', '2/3']) == 0\n"
        "    assert main(['farey-atlas', '--max-den', '6']) == 0\n"
        "print(*[m for m in ('fractions', 'decimal') if m in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(trisect.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == []


def _cli_process(argv, stdout):
    src = os.path.dirname(os.path.dirname(trisect.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-m", "trisect.cli", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_stdout_closed_after_one_line():
    # `trisect farey-atlas | head -1`: the output (about 390 kB) is far
    # larger than a pipe holds, so the verb is still writing when the
    # reader goes away
    proc = _cli_process(["farey-atlas", "--max-den", "30"], subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert first == "triple,kind,manifold,refined,rank,signature,parity,det\n"
    assert err == ""


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_stdout_closed_before_a_short_output(unbuffered, monkeypatch):
    # buffered, the few lines wait for the flush, which must fail inside
    # main and not at exit; unbuffered, the first print fails
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = _cli_process(["plan", "luttinger", "--m", "3", "--n", "-2"], w)
    finally:
        os.close(w)
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == ""
