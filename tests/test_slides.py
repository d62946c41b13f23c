import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect.errors import IllegalMove, MalformedWord, NotApplicable
from trisect.slides import (
    SlideMove,
    SlideState,
    apply_move,
    initial_state,
    lambda_conserved,
    mu_conserved,
    reduce_full,
    reduce_mu,
    render_word,
    replay,
    trace_lines,
)


def inversions(word):
    """Pairs (lambda, mu) with the lambda first."""
    lams = total = 0
    for ch in word:
        if ch == "L":
            lams += 1
        else:
            total += lams
    return total


def stepwise_reduce_mu(s):
    """The reducer as a move-by-move search through the checked engine:
    find the first mu of w3, push it out, commute it to the front, slide
    it off a1 and shrink a2 back, until no mu is left."""
    trace = []

    def step(state, mv):
        trace.append(mv)
        return apply_move(state, mv)

    while "M" in s.w3:
        j = s.w3.index("M")
        s = step(s, SlideMove("ExtendB1", j + 1))
        for pos in range(j - 1, -1, -1):
            s = step(s, SlideMove("CommuteLambdaMu", pos))
        s = step(s, SlideMove("SlideA1OverAlpha"))
        s = step(s, SlideMove("ShrinkA2"))
    return s, trace


def stepwise_reduce_full(s):
    n = s.target[1]
    if n == 0:
        raise NotApplicable("reduction to empty words needs at least one lambda")
    s, trace = stepwise_reduce_mu(s)
    trace.append(SlideMove("ExtendB1", n))
    s = apply_move(s, trace[-1])
    for _ in range(n):
        trace.append(SlideMove("SlideA2OverBeta"))
        s = apply_move(s, trace[-1])
    return s, trace


def shuffles(m, n):
    """All distinct words with m mu's and n lambda's."""
    for positions in itertools.combinations(range(m + n), m):
        word = ["L"] * (m + n)
        for p in positions:
            word[p] = "M"
        yield "".join(word)


class TestStateAndWords:
    def test_greek_and_ascii_input(self):
        assert initial_state("μλμ") == initial_state("MLM")
        assert initial_state("mlm") == initial_state("MLM")

    def test_render(self):
        assert render_word("MLM") == "μλμ"
        assert render_word("") == ""

    @pytest.mark.parametrize("bad", ["MX", "μ", "M L", "m"])
    def test_render_refuses_other_letters(self, bad):
        with pytest.raises(MalformedWord):
            render_word(bad)

    def test_bad_letter(self):
        with pytest.raises(MalformedWord):
            initial_state("MXL")

    def test_target_counts(self):
        s = initial_state("MMLML")
        assert s.target == (3, 2)
        assert mu_conserved(s) and lambda_conserved(s)


class TestMoves:
    def test_commute_rewrites(self):
        # with a1 occupied the mu stays in w2
        s = SlideState("M", "LM", "", 0, 0, (2, 1))
        out = apply_move(s, SlideMove("CommuteLambdaMu", 0))
        assert (out.w1, out.w2) == ("M", "ML")

    def test_commute_then_isotopy_transfer(self):
        # with a1 free the mu hops onto it once it reaches the front
        s = SlideState("", "LM", "", 0, 0, (1, 1))
        out = apply_move(s, SlideMove("CommuteLambdaMu", 0))
        assert (out.w1, out.w2) == ("M", "L")

    def test_slide_a1(self):
        s = SlideState("M", "", "LL", 0, 0, (1, 2))
        out = apply_move(s, SlideMove("SlideA1OverAlpha"))
        assert (out.w1, out.t3) == ("", 1)

    def test_extend_b1(self):
        s = SlideState("", "", "LLM", 0, 0, (1, 2))
        out = apply_move(s, SlideMove("ExtendB1", 2))
        assert (out.w2, out.w3) == ("LL", "M")

    def test_extend_b1_transfers_leading_mu(self):
        s = SlideState("", "", "MLL", 0, 0, (1, 2))
        out = apply_move(s, SlideMove("ExtendB1", 1))
        assert (out.w1, out.w2, out.w3) == ("M", "", "LL")

    def test_shrink_a2(self):
        s = SlideState("", "LL", "L", 0, 0, (0, 3))
        out = apply_move(s, SlideMove("ShrinkA2"))
        assert (out.w2, out.w3) == ("", "LLL")

    def test_slide_a2_twists(self):
        s = SlideState("", "LL", "", 1, 0, (1, 2))
        out = apply_move(s, SlideMove("SlideA2OverBeta"))
        assert (out.w2, out.t1) == ("L", 1)

    def test_slide_a2_final_lambda_absorbed(self):
        s = SlideState("", "L", "", 1, 0, (1, 1))
        out = apply_move(s, SlideMove("SlideA2OverBeta"))
        assert (out.w2, out.t1) == ("", 0)

    @pytest.mark.parametrize("state,move", [
        (SlideState("", "", "", 0, 0, (0, 0)), SlideMove("ExtendB1", 1)),
        (SlideState("", "ML", "", 0, 0, (1, 1)), SlideMove("CommuteLambdaMu", 0)),
        (SlideState("", "", "", 0, 0, (0, 0)), SlideMove("SlideA1OverAlpha")),
        (SlideState("M", "LL", "", 0, 0, (1, 2)), SlideMove("ShrinkA2")),
        (SlideState("", "ML", "", 0, 0, (1, 1)), SlideMove("SlideA2OverBeta")),
        (SlideState("", "", "L", 0, 0, (0, 1)), SlideMove("SlideA2OverBeta")),
    ])
    def test_illegal_moves(self, state, move):
        with pytest.raises(IllegalMove):
            apply_move(state, move)

    def test_illegal_move_message_names_anchor(self):
        with pytest.raises(IllegalMove, match="slide a1 across the alpha curve"):
            apply_move(SlideState("", "", "", 0, 0, (0, 0)),
                       SlideMove("SlideA1OverAlpha"))

    def test_move_arg_validation(self):
        with pytest.raises(IllegalMove):
            SlideMove("SlideA1OverAlpha", 3)
        with pytest.raises(IllegalMove):
            SlideMove("ExtendB1")
        with pytest.raises(IllegalMove):
            SlideMove("Bogus")


class TestReduceMu:
    def test_four_three(self):
        final, trace = reduce_mu(initial_state("MMLMLLM"))
        assert final.w3 == "LLL"
        assert final.t3 == 4
        assert (final.w1, final.w2, final.t1) == ("", "", 0)

    def test_no_mu_is_noop(self):
        s = initial_state("LLLLL")
        final, trace = reduce_mu(s)
        assert final == s and trace == []

    def test_single_mu(self):
        final, trace = reduce_mu(initial_state("M"))
        assert (final.w3, final.t3) == ("", 1)

    def test_requires_initial_state(self):
        with pytest.raises(MalformedWord):
            reduce_mu(SlideState("M", "", "L", 0, 0, (1, 1)))
        with pytest.raises(MalformedWord):
            reduce_mu(SlideState("", "", "L", 1, 0, (1, 1)))
        with pytest.raises(MalformedWord):
            reduce_mu(SlideState("", "", "ML", 0, 0, (5, 5)))

    def test_trace_replays(self):
        s = initial_state("MLLMML")
        final, trace = reduce_mu(s)
        assert replay(s, trace) == final

    def test_conserved_quantities_along_trace(self):
        s = initial_state("MLMLML")
        _, trace = reduce_mu(s)
        cur = s
        for mv in trace:
            cur = apply_move(cur, mv)
            assert mu_conserved(cur)
            assert lambda_conserved(cur)

    def test_exhaustive_small_and_shuffle_independent(self):
        # full sweep of every shuffle for all classes with m + n <= 16;
        # the checked engine replays every trace to the reported final state
        for m in range(0, 17):
            for n in range(0, 17 - m):
                finals = set()
                for word in shuffles(m, n):
                    s = initial_state(word)
                    final, trace = reduce_mu(s)
                    assert (final.w3, final.t3, final.t1) == ("L" * n, m, 0)
                    assert len(trace) == 3 * m + inversions(word)
                    assert replay(s, trace) == final
                    finals.add(final)
                assert len(finals) <= 1


class TestReduceFull:
    @pytest.mark.parametrize("word,t3,t1", [
        ("MMMMLLL", 4, 2),
        ("L", 0, 0),
        ("MMLLLLL", 2, 4),
    ])
    def test_examples(self, word, t3, t1):
        final, _ = reduce_full(initial_state(word))
        assert (final.w1, final.w2, final.w3) == ("", "", "")
        assert (final.t3, final.t1) == (t3, t1)

    def test_no_lambda_refused(self):
        with pytest.raises(NotApplicable):
            reduce_full(initial_state("MMM"))
        with pytest.raises(NotApplicable):
            reduce_full(initial_state(""))

    def test_trace_replays(self):
        s = initial_state("MLMLL")
        final, trace = reduce_full(s)
        assert replay(s, trace) == final

    def test_mu_conserved_throughout(self):
        s = initial_state("MMLL")
        _, trace = reduce_full(s)
        cur = s
        for mv in trace:
            cur = apply_move(cur, mv)
            assert mu_conserved(cur)


@st.composite
def words(draw, max_len=300):
    """Mu/lambda words of up to max_len letters, from all-mu to all-lambda."""
    length = draw(st.integers(0, max_len))
    mu_share = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    return "".join("M" if draw(st.floats(0, 1)) < mu_share else "L" for _ in range(length))


class TestClosedFormAgainstStepwise:
    @settings(max_examples=25, deadline=None)
    @given(words())
    def test_reduce_mu(self, word):
        s = initial_state(word)
        final, trace = reduce_mu(s)
        ref_final, ref_trace = stepwise_reduce_mu(s)
        assert final == ref_final
        assert trace == ref_trace
        assert trace_lines(s, trace) == trace_lines(s, ref_trace)

    @settings(max_examples=25, deadline=None)
    @given(words())
    def test_reduce_full(self, word):
        s = initial_state(word)
        if s.target[1] == 0:
            with pytest.raises(NotApplicable):
                reduce_full(s)
            return
        final, trace = reduce_full(s)
        ref_final, ref_trace = stepwise_reduce_full(s)
        assert final == ref_final
        assert trace == ref_trace
        assert trace_lines(s, trace) == trace_lines(s, ref_trace)

    def test_errors_checked_before_applicability(self):
        # a non-initial state is refused as malformed even without lambdas
        with pytest.raises(MalformedWord):
            reduce_full(SlideState("M", "", "", 0, 0, (1, 0)))


class TestTraceFormat:
    def test_line_shape(self):
        s = initial_state("ML")
        _, trace = reduce_mu(s)
        lines = trace_lines(s, trace)
        assert lines[0].startswith("MOVE ExtendB1(1) | w1=")
        for line in lines:
            assert " | " in line and "t3=" in line and "t1=" in line

    def test_trace_uses_greek_letters(self):
        s = initial_state("LM")
        _, trace = reduce_mu(s)
        joined = "\n".join(trace_lines(s, trace))
        assert "λ" in joined and "μ" in joined
