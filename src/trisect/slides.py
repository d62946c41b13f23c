"""Genus-one decomposed-curve rewriting: words over {mu, lambda} with twist
counters, five slide moves, and the two-stage normal-form reduction.

A curve in class m*mu + n*lambda is held as three arc words w1, w2, w3.
Phase one eliminates every mu from the words one at a time, trading each
for a twist of a1 around b3 (counter t3).  Phase two consumes the lambda
run, trading all but the last lambda for twists of a2 around b1 (counter
t1); the final lambda disappears into the closing isotopy, which is why
t1 ends at n - 1.

The shape of a reduction is fixed by the word alone: a mu with j lambdas
before it costs j + 3 moves, so phase one takes 3m + inversions moves, and
phase two n + 1 more.  The reducers therefore emit their traces and final
states in closed form.

_step is the checked move engine: it holds every domain check and
IllegalMove message and works on the five plain fields (w1, w2, w3, t3,
t1).  replay and trace_lines run every move through it without building a
SlideState per move.  apply_move wraps one _step in SlideState._trusted,
which skips SlideState's alphabet scan: a move only cuts, joins and reorders
letters of words that were checked when the input state was built.  The
public SlideState(...) always scans.

Internally letters are "M" and "L"; input accepts the Greek forms too,
and rendering emits them.
"""

from typing import List, Optional, Tuple

from ._record import Record
from .errors import IllegalMove, MalformedWord, NotApplicable

MU = "M"
LAM = "L"

_INPUT_LETTERS = {"M": MU, "m": MU, "μ": MU, "L": LAM, "l": LAM, "λ": LAM}


def _in_alphabet(word: str) -> bool:
    return word.count(MU) + word.count(LAM) == len(word)


def parse_word(text: str) -> str:
    out = []
    for ch in text:
        if ch in (" ", ","):
            continue
        if ch not in _INPUT_LETTERS:
            raise MalformedWord(f"letter {ch!r} is not mu or lambda")
        out.append(_INPUT_LETTERS[ch])
    return "".join(out)


def _greek(word: str) -> str:
    return word.replace(MU, "μ").replace(LAM, "λ")


def render_word(word: str) -> str:
    if not _in_alphabet(word):
        raise MalformedWord(f"word {word!r} contains letters outside the alphabet")
    return _greek(word)


class SlideState(Record):
    __slots__ = ("w1", "w2", "w3", "t3", "t1", "target")

    def __init__(
        self,
        w1: str,
        w2: str,
        w3: str,
        t3: int,
        t1: int,
        target: Tuple[int, int],  # (m, n) curve class
    ):
        for w in (w1, w2, w3):
            if not _in_alphabet(w):
                raise MalformedWord(f"word {w!r} contains letters outside the alphabet")
        self._store(w1, w2, w3, t3, t1, target)

    def counts(self) -> Tuple[int, int]:
        """(mu letters, lambda letters) across all three words."""
        whole = self.w1 + self.w2 + self.w3
        return whole.count(MU), whole.count(LAM)


def initial_state(w3: str) -> SlideState:
    """Fresh reduction input: the whole curve word sits in w3."""
    word = parse_word(w3)
    return SlideState("", "", word, 0, 0, (word.count(MU), word.count(LAM)))


def mu_conserved(s: SlideState) -> bool:
    """Twists plus surviving mu letters always account for the full class."""
    return s.counts()[0] + s.t3 == s.target[0]


def lambda_conserved(s: SlideState) -> bool:
    """Phase-one bookkeeping: no lambda has been consumed yet."""
    return s.counts()[1] == s.target[1] and s.t1 == 0


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

MOVE_KINDS = (
    "ExtendB1",
    "CommuteLambdaMu",
    "SlideA1OverAlpha",
    "ShrinkA2",
    "SlideA2OverBeta",
)

_ANCHORS = {
    "ExtendB1": "push the junction b1 backwards along a3, absorbing a prefix of w3 into w2",
    "CommuteLambdaMu": "slide a lambda crossing past the mu crossing just after it in w2",
    "SlideA1OverAlpha": "slide a1 across the alpha curve, trading the mu in w1 for a twist around b3",
    "ShrinkA2": "shrink a2 toward b1, returning its lambda run to the front of w3",
    "SlideA2OverBeta": "slide a2 across the beta curve, trading one lambda for a twist around b1; "
    "the last lambda is absorbed by the closing isotopy",
}


class SlideMove(Record):
    __slots__ = ("kind", "arg")

    def __init__(self, kind: str, arg: Optional[int] = None):
        if kind not in MOVE_KINDS:
            raise IllegalMove(f"unknown move kind {kind!r}")
        needs_arg = kind in ("ExtendB1", "CommuteLambdaMu")
        if needs_arg != (arg is not None):
            raise IllegalMove(f"move {kind} argument mismatch")
        if needs_arg and type(arg) is not int:  # bool, a subclass of int, too
            raise IllegalMove(f"move {kind} argument must be an integer, got {arg!r}")
        self._store(kind, arg)

    @property
    def anchor(self) -> str:
        return _ANCHORS[self.kind]

    def __str__(self) -> str:
        return self.kind if self.arg is None else f"{self.kind}({self.arg})"


_CLOSE_MU_CYCLE = (SlideMove("SlideA1OverAlpha"), SlideMove("ShrinkA2"))
_SLIDE_A2 = SlideMove("SlideA2OverBeta")


def _illegal(mv: SlideMove, why: str) -> IllegalMove:
    return IllegalMove(f"{mv}: {why} [{mv.anchor}]")


def _step(mv: SlideMove, w1: str, w2: str, w3: str, t3: int, t1: int) -> tuple:
    """One slide move on the plain fields (w1, w2, w3, t3, t1): every
    domain check and IllegalMove message of apply_move.  After the two
    w2-front moves, a leading mu of w2 hops to the empty w1 (an isotopy,
    not a move of its own)."""
    kind = mv.kind
    if kind == "CommuteLambdaMu":  # the most frequent move of a reduction
        pos = mv.arg
        if pos < 0 or pos + 1 >= len(w2) or w2[pos] != LAM or w2[pos + 1] != MU:
            raise _illegal(mv, f"w2 = {w2!r} has no lambda-mu pair at {pos}")
        w2 = w2[:pos] + MU + LAM + w2[pos + 2:]
    elif kind == "ExtendB1":
        count = mv.arg
        if count < 1 or count > len(w3):
            raise _illegal(mv, f"w3 = {w3!r} has no prefix of length {count}")
        w2, w3 = w2 + w3[:count], w3[count:]
    elif kind == "SlideA1OverAlpha":
        if w1 != MU:
            raise _illegal(mv, f"w1 = {w1!r}, need a lone mu")
        return "", w2, w3, t3 + 1, t1
    elif kind == "ShrinkA2":
        if w1 != "":
            raise _illegal(mv, "a1 still crosses something (w1 nonempty)")
        if MU in w2:
            raise _illegal(mv, f"w2 = {w2!r} is not a lambda run")
        return w1, "", w2 + w3, t3, t1
    else:  # SlideA2OverBeta
        if w1 != "" or w3 != "":
            raise _illegal(mv, "w1 and w3 must be empty")
        if len(w2) < 1 or MU in w2:
            raise _illegal(mv, f"w2 = {w2!r} is not a nonempty lambda run")
        if len(w2) >= 2:
            return w1, w2[1:], w3, t3, t1 + 1
        return w1, "", w3, t3, t1  # terminal lambda: absorbed, no twist
    if w1 == "" and w2.startswith(MU):
        return MU, w2[1:], w3, t3, t1
    return w1, w2, w3, t3, t1


def apply_move(s: SlideState, mv: SlideMove) -> SlideState:
    """One slide move; raises IllegalMove when the state is outside its
    domain."""
    return SlideState._trusted(*_step(mv, s.w1, s.w2, s.w3, s.t3, s.t1), s.target)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _require_initial(s: SlideState) -> None:
    if s.w1 != "" or s.w2 != "" or s.t3 != 0 or s.t1 != 0:
        raise MalformedWord("reduction starts from w1 = w2 = empty, t3 = t1 = 0")
    if s.counts() != s.target:
        raise MalformedWord(
            f"w3 letter counts {s.counts()} do not match the target class {s.target}"
        )


def reduce_mu(s: SlideState) -> Tuple[SlideState, List[SlideMove]]:
    """Phase one: eliminate every mu from w3, one cycle each; ends with
    w3 = lambda^n and t3 = m.

    A mu with j lambdas before it is pushed into w2 by ExtendB1(j + 1),
    commuted to the front past those lambdas by CommuteLambdaMu(j - 1),
    ..., CommuteLambdaMu(0), where it hops onto a1, slid off a1, and w2
    shrinks back onto w3, which puts the j lambdas in front of the rest."""
    _require_initial(s)
    m, n = s.target
    # back_to_front[n - j:] commutes a mu from position j to the front
    back_to_front = [SlideMove("CommuteLambdaMu", pos) for pos in range(n - 1, -1, -1)]
    trace: List[SlideMove] = []
    j = 0
    for ch in s.w3:
        if ch == LAM:
            j += 1
            continue
        trace.append(SlideMove("ExtendB1", j + 1))
        trace += back_to_front[n - j:]
        trace += _CLOSE_MU_CYCLE
    return SlideState._trusted("", "", LAM * n, m, 0, s.target), trace


def reduce_full(s: SlideState) -> Tuple[SlideState, List[SlideMove]]:
    """Both phases: all words empty, t3 = m, t1 = n - 1.  Refuses n = 0:
    the closing isotopy needs one lambda to absorb.  Phase two extends b1
    over the whole lambda run and slides a2 over beta once per lambda."""
    _require_initial(s)
    m, n = s.target
    if n == 0:
        raise NotApplicable("reduction to empty words needs at least one lambda")
    _, trace = reduce_mu(s)
    trace.append(SlideMove("ExtendB1", n))
    trace += [_SLIDE_A2] * n
    return SlideState._trusted("", "", "", m, n - 1, s.target), trace


def replay(initial: SlideState, trace: List[SlideMove]) -> SlideState:
    fields = initial.w1, initial.w2, initial.w3, initial.t3, initial.t1
    for mv in trace:
        fields = _step(mv, *fields)
    return SlideState._trusted(*fields, initial.target)


def format_state(s: SlideState) -> str:
    # a SlideState's words were checked against the alphabet when it was built
    return f"w1={_greek(s.w1)} w2={_greek(s.w2)} w3={_greek(s.w3)} t3={s.t3} t1={s.t1}"


def trace_lines(initial: SlideState, trace: List[SlideMove]) -> List[str]:
    """One line per move in the documented `MOVE <kind> | state` shape,
    the state printed as format_state prints it."""
    w1, w2, w3, t3, t1 = initial.w1, initial.w2, initial.w3, initial.t3, initial.t1
    g1, g3 = _greek(w1), _greek(w3)
    out = []
    for mv in trace:
        n1, w2, n3, t3, t1 = _step(mv, w1, w2, w3, t3, t1)
        if n1 is not w1:
            w1, g1 = n1, _greek(n1)
        if n3 is not w3:  # only ExtendB1 and ShrinkA2 change w3
            w3, g3 = n3, _greek(n3)
        out.append(f"MOVE {mv} | w1={g1} w2={_greek(w2)} w3={g3} t3={t3} t1={t1}")
    return out
