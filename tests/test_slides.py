import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect.errors import IllegalMove, MalformedWord, NotApplicable
from trisect.slides import (
    MOVE_KINDS,
    SlideMove,
    SlideState,
    apply_move,
    format_state,
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


def fields(s):
    return (s.w1, s.w2, s.w3, s.t3, s.t1, s.target)


def checked_move(s, mv):
    """apply_move, its state then built and checked by SlideState(...)."""
    return SlideState(*fields(apply_move(s, mv)))


def _states(s, trace):
    """Every state apply_move passes through along a trace."""
    for mv in trace:
        s = apply_move(s, mv)
        yield s


class Stepwise:
    """A reduction as a move-by-move search through the checked engine:
    each move is applied by checked_move, and its trace line is printed
    from the checked state by format_state."""

    def __init__(self, s):
        self.state, self.trace, self.lines = s, [], []

    def step(self, mv):
        self.state = checked_move(self.state, mv)
        self.trace.append(mv)
        self.lines.append(f"MOVE {mv} | {format_state(self.state)}")


def stepwise_reduce_mu(s):
    """Find the first mu of w3, push it out, commute it to the front,
    slide it off a1 and shrink a2 back, until no mu is left."""
    run = Stepwise(s)
    while "M" in run.state.w3:
        j = run.state.w3.index("M")
        run.step(SlideMove("ExtendB1", j + 1))
        for pos in range(j - 1, -1, -1):
            run.step(SlideMove("CommuteLambdaMu", pos))
        run.step(SlideMove("SlideA1OverAlpha"))
        run.step(SlideMove("ShrinkA2"))
    return run


def stepwise_reduce_full(s):
    n = s.target[1]
    if n == 0:
        raise NotApplicable("reduction to empty words needs at least one lambda")
    run = stepwise_reduce_mu(s)
    run.step(SlideMove("ExtendB1", n))
    for _ in range(n):
        run.step(SlideMove("SlideA2OverBeta"))
    return run


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
        assert initial_state("M L,M") == initial_state("MLM")  # spaces and commas are skipped

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


def legal(s, mv):
    """Whether mv applies to s: each move's domain, as its anchor states it."""
    k = mv.arg
    return {
        "ExtendB1": lambda: 1 <= k <= len(s.w3),
        "CommuteLambdaMu": lambda: k >= 0 and s.w2[k:k + 2] == "LM",
        "SlideA1OverAlpha": lambda: s.w1 == "M",
        "ShrinkA2": lambda: s.w1 == "" and "M" not in s.w2,
        "SlideA2OverBeta": lambda: s.w1 == s.w3 == "" and s.w2 != "" and "M" not in s.w2,
    }[mv.kind]()


def curve_after(s, mv):
    """(w1 + w2 + w3, t3, t1) after a legal move: a commute swaps one
    lambda-mu pair, a slide of a1 trades the lone mu in front for a twist
    t3, a slide of a2 the lambda in front for a twist t1 (the last lambda
    for none), and ExtendB1 and ShrinkA2 only move the cuts."""
    word, t3, t1 = s.w1 + s.w2 + s.w3, s.t3, s.t1
    if mv.kind == "CommuteLambdaMu":
        at = len(s.w1) + mv.arg
        word = word[:at] + "ML" + word[at + 2:]
    elif mv.kind == "SlideA1OverAlpha":
        word, t3 = word[1:], t3 + 1
    elif mv.kind == "SlideA2OverBeta":
        word, t1 = word[1:], t1 + (len(word) > 1)
    return word, t3, t1


# (state, move) -> why the move is refused, as its IllegalMove message says
ILLEGAL_MOVES = {
    (SlideState("", "", "", 0, 0, (0, 0)), SlideMove("ExtendB1", 1)):
        "w3 = '' has no prefix of length 1",
    (SlideState("", "ML", "", 0, 0, (1, 1)), SlideMove("CommuteLambdaMu", 0)):
        "w2 = 'ML' has no lambda-mu pair at 0",
    (SlideState("", "", "", 0, 0, (0, 0)), SlideMove("SlideA1OverAlpha")):
        "w1 = '', need a lone mu",
    (SlideState("M", "LL", "", 0, 0, (1, 2)), SlideMove("ShrinkA2")):
        "a1 still crosses something (w1 nonempty)",
    (SlideState("", "ML", "", 0, 0, (1, 1)), SlideMove("SlideA2OverBeta")):
        "w2 = 'ML' is not a nonempty lambda run",
    (SlideState("", "", "L", 0, 0, (0, 1)), SlideMove("SlideA2OverBeta")):
        "w1 and w3 must be empty",
    (SlideState("", "", "L", 0, 0, (0, 1)), SlideMove("ExtendB1", 0)):
        "w3 = 'L' has no prefix of length 0",
    (SlideState("", "", "L", 0, 0, (0, 1)), SlideMove("ExtendB1", 2)):
        "w3 = 'L' has no prefix of length 2",
    (SlideState("M", "LM", "", 0, 0, (2, 1)), SlideMove("CommuteLambdaMu", -1)):
        "w2 = 'LM' has no lambda-mu pair at -1",
    (SlideState("M", "LM", "", 0, 0, (2, 1)), SlideMove("CommuteLambdaMu", 1)):
        "w2 = 'LM' has no lambda-mu pair at 1",
    (SlideState("M", "LL", "", 0, 0, (1, 2)), SlideMove("CommuteLambdaMu", 0)):
        "w2 = 'LL' has no lambda-mu pair at 0",
    (SlideState("", "LM", "", 0, 0, (1, 1)), SlideMove("ShrinkA2")):
        "w2 = 'LM' is not a lambda run",
    (SlideState("", "", "", 0, 0, (0, 0)), SlideMove("SlideA2OverBeta")):
        "w2 = '' is not a nonempty lambda run",
    (SlideState("M", "L", "", 0, 0, (1, 1)), SlideMove("SlideA2OverBeta")):
        "w1 and w3 must be empty",
}


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

    @pytest.mark.parametrize("state,move", list(ILLEGAL_MOVES))
    def test_illegal_moves(self, state, move):
        with pytest.raises(IllegalMove) as err:
            apply_move(state, move)
        assert str(err.value) == f"{move}: {ILLEGAL_MOVES[state, move]} [{move.anchor}]"
        with pytest.raises(IllegalMove) as in_replay:
            replay(state, [move])
        assert str(in_replay.value) == str(err.value)

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
        ref = stepwise_reduce_mu(s)
        assert final == ref.state
        assert trace == ref.trace
        assert trace_lines(s, trace) == ref.lines

    @settings(max_examples=25, deadline=None)
    @given(words())
    def test_reduce_full(self, word):
        s = initial_state(word)
        if s.target[1] == 0:
            with pytest.raises(NotApplicable):
                reduce_full(s)
            return
        final, trace = reduce_full(s)
        ref = stepwise_reduce_full(s)
        assert final == ref.state
        assert trace == ref.trace
        assert trace_lines(s, trace) == ref.lines

    def test_errors_checked_before_applicability(self):
        # a non-initial state is refused as malformed even without lambdas
        with pytest.raises(MalformedWord):
            reduce_full(SlideState("M", "", "", 0, 0, (1, 0)))


class TestEngineAgainstReference:
    """The field-stepping engine against the definitions of the moves and
    the checked construction of every state it passes through."""

    @settings(max_examples=25, deadline=None)
    @given(words(), st.booleans())
    def test_trace_lines(self, word, full):
        s = initial_state(word)
        if full and s.target[1] == 0:
            return
        final, trace = (reduce_full if full else reduce_mu)(s)
        assert trace_lines(s, trace) == (stepwise_reduce_full if full else stepwise_reduce_mu)(s).lines
        assert replay(s, trace) == final

    @settings(max_examples=25, deadline=None)
    @given(words(max_len=60), st.booleans())
    def test_states_equal_checked_construction(self, word, full):
        s = initial_state(word)
        if full and s.target[1] == 0:
            return
        _, trace = (reduce_full if full else reduce_mu)(s)
        for t in _states(s, trace):
            checked = SlideState(*fields(t))
            assert t == checked and hash(t) == hash(checked)
            assert copy.copy(t) == t and copy.deepcopy(t) == t
            back = pickle.loads(pickle.dumps(t))
            assert back == t and hash(back) == hash(t)

    @settings(max_examples=300, deadline=None)
    @given(words(max_len=12), st.data())
    def test_any_move_from_any_reachable_state(self, word, data):
        # legal or not, apply_move does what the move's definition says
        s = initial_state(word)
        _, trace = (reduce_full if s.target[1] else reduce_mu)(s)
        states = [s] + list(_states(s, trace))
        state = data.draw(st.sampled_from(states))
        kind = data.draw(st.sampled_from(MOVE_KINDS))
        arg = (data.draw(st.integers(-1, len(word) + 1))
               if kind in ("ExtendB1", "CommuteLambdaMu") else None)
        mv = SlideMove(kind, arg)
        if not legal(state, mv):
            with pytest.raises(IllegalMove) as err:
                apply_move(state, mv)
            assert str(err.value).startswith(f"{mv}: ")
            assert str(err.value).endswith(f" [{mv.anchor}]")
            return
        got = checked_move(state, mv)
        assert (got.w1 + got.w2 + got.w3, got.t3, got.t1) == curve_after(state, mv)
        # a leading mu of w2 hops onto a free a1
        assert not (got.w1 == "" and got.w2.startswith("M"))
        if kind == "ExtendB1":
            assert len(got.w3) == len(state.w3) - arg
        if kind == "ShrinkA2":
            assert got.w2 == ""

    def test_public_constructor_still_checks(self):
        with pytest.raises(MalformedWord):
            SlideState("", "", "MX", 0, 0, (1, 0))


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
