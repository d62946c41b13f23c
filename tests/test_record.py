"""Value-class semantics: every trisect value type constructs, compares,
hashes, prints, refuses mutation and copies the way a frozen dataclass of
the same fields does."""

import copy
import pickle

import pytest

from trisect.calculus import (
    TAU12,
    BoundaryCircles,
    ClosedPage,
    ComplementResult,
    PastingInput,
    PlanBlock,
    RibbonGraph,
    SurgeryPlan,
    parse_plan,
)
from trisect.diagram import (
    BridgeData,
    CurveSystem,
    Fraction,
    StarDiagram,
    SymplecticLattice,
    TrisectionParams,
    Violation,
)
from trisect.errors import CellDecompositionMismatch, DiagramError, IllegalMove, MalformedWord
from trisect.farey import FareyClassification, FareyTriple, SpunLens
from trisect.invariants import HomologyReport
from trisect.slides import SlideMove, SlideState
from trisect.zmatrix import (
    CokernelInvariants,
    FormClass,
    FormInvariants,
    Gen,
    SL3Word,
)

A = CurveSystem("alpha", ((1, 0),))
B = CurveSystem("beta", ((0, 1),))
C = CurveSystem("gamma", ((1, 1),))
SHEAR = PlanBlock("shear", ((1, 2), (0, 1)))
P1 = TrisectionParams(1, (0, 0, 0))

# class, field names in order, one instance's field values (no defaults used)
CASES = [
    (Fraction, ("num", "den"), (3, 7)),
    (SymplecticLattice, ("genus",), (2,)),
    (CurveSystem, ("label", "classes"), ("alpha", ((1, 0, 0, 0), (0, 0, 1, 0)))),
    (Violation, ("kind", "message", "advisory"), ("zero_class", "alpha[0] is null", True)),
    (StarDiagram, ("genus", "boundary", "alpha", "beta", "gamma", "common", "geo"),
     (1, 0, A, B, C, (("alpha_beta", ()),), ((("alpha", 0, "beta", 0), 1),))),
    (BridgeData, ("b", "c"), (2, (1, 1, 2))),
    (TrisectionParams, ("genus", "k", "boundary", "bridge"),
     (3, (1, 1, 1), 0, BridgeData(2, (1, 1, 2)))),
    (ClosedPage, ("page_genus",), (2,)),
    (BoundaryCircles, ("circles",), (2,)),
    (PastingInput, ("left", "right", "mode", "common"),
     (TrisectionParams(1, (0, 0, 0)), TrisectionParams(2, (1, 1, 1)), BoundaryCircles(1),
      (1, 1, 1))),
    (ComplementResult, ("params", "punctures", "curves_added", "closure_genus"),
     (TrisectionParams(2, None, 3), 3, (1, 1, 1), 4)),
    (RibbonGraph, ("rotations", "edges"), (((0, 1),), ((0, 1),))),
    (PlanBlock, ("kind", "shear"), ("shear", ((1, 2), (0, 1)))),
    (SurgeryPlan, ("blocks",), ((SHEAR, TAU12),)),
    (CokernelInvariants, ("free_rank", "torsion"), (1, (2, 4))),
    (FormInvariants, ("rank", "signature", "parity", "det"), (3, 1, "Odd", -1)),
    (FormClass, ("kind", "params"), ("odd_indefinite", (2, 1))),
    (Gen, ("kind", "k"), ("e", 5)),
    (SL3Word, ("factors",), ((Gen("s12"), Gen("e", 2)),)),
    (SpunLens, ("p", "q"), (5, 2)),
    (FareyTriple, ("x", "y", "z"), (Fraction(0, 1), Fraction(1, 1), Fraction(1, 2))),
    (FareyClassification, ("kind", "manifold", "refined", "form"),
     ("FareyTriplet", "CP2#CP2#CP2bar", ("CP2", "S2x~S2"), FormClass("odd_indefinite", (2, 1)))),
    (SlideState, ("w1", "w2", "w3", "t3", "t1", "target"), ("M", "L", "", 0, 0, (1, 1))),
    (SlideMove, ("kind", "arg"), ("ExtendB1", 2)),
    (HomologyReport, ("h1_free_rank", "h1_torsion"), (1, (2,))),
]
IDS = [cls.__name__ for cls, _, _ in CASES]

# class: (the fields without defaults, {defaulted field: default})
DEFAULTS = {
    Violation: (("pairing", "m"), {"advisory": False}),
    StarDiagram: ((1, 0, A, B, C), {"common": (), "geo": ()}),
    TrisectionParams: ((3, (1, 1, 1)), {"boundary": 0, "bridge": None}),
    PastingInput: ((TrisectionParams(1, None), TrisectionParams(1, None), ClosedPage(0)),
                   {"common": None}),
    PlanBlock: (("tau0",), {"shear": None}),
    FormClass: (("zero",), {"params": ()}),
    Gen: (("s12",), {"k": 0}),
    SlideMove: (("ShrinkA2",), {"arg": None}),
}


def fields_of(x, names):
    return tuple(getattr(x, n) for n in names)


def test_every_value_class_is_covered():
    from trisect._record import Record

    assert len(CASES) == 25
    assert {cls for cls, _, _ in CASES} == set(Record.__subclasses__())


@pytest.mark.parametrize("cls,names,values", CASES, ids=IDS)
class TestRecord:
    def test_positional_and_keyword(self, cls, names, values):
        x = cls(*values)
        assert fields_of(x, names) == values
        y = cls(**dict(zip(names, values)))
        assert fields_of(y, names) == values
        assert x == y
        assert not (x != y)
        assert cls.__match_args__ == names

    def test_slots_are_the_fields(self, cls, names, values):
        assert cls.__slots__ == names
        assert not hasattr(cls(*values), "__dict__")

    def test_equality_needs_the_same_class(self, cls, names, values):
        x = cls(*values)

        class Other:
            pass

        other = Other()
        for n, v in zip(names, values):
            setattr(other, n, v)
        assert x.__eq__(other) is NotImplemented
        assert x != other
        assert x != values

    def test_hash_is_the_field_tuple_hash(self, cls, names, values):
        x = cls(*values)
        assert hash(x) == hash(values)
        assert hash(x) == hash(cls(*values))

    def test_repr(self, cls, names, values):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
        assert repr(cls(*values)) == f"{cls.__qualname__}({body})"

    def test_frozen(self, cls, names, values):
        x = cls(*values)
        for n in names:
            with pytest.raises(AttributeError):
                setattr(x, n, None)
            with pytest.raises(AttributeError):
                delattr(x, n)
        with pytest.raises(AttributeError):
            x.not_a_field = 1
        assert fields_of(x, names) == values

    def test_copies_and_pickle(self, cls, names, values):
        x = cls(*values)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is cls
            assert y == x
            assert fields_of(y, names) == values

    def test_reduce_goes_through_the_constructor(self, cls, names, values):
        # so copies and unpickled instances are validated again
        x = cls(*values)
        assert x.__reduce__() == (cls, values)


@pytest.mark.parametrize("cls,names,values", CASES, ids=IDS)
def test_constructor_argument_errors(cls, names, values):
    required = len(DEFAULTS[cls][0]) if cls in DEFAULTS else len(names)
    with pytest.raises(TypeError):
        cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


# the classes whose __init__ would only store its arguments
STORE_ONLY = {
    ComplementResult, Violation, SpunLens, FareyTriple,
    FareyClassification, HomologyReport, CokernelInvariants, FormInvariants, FormClass,
    Gen, SL3Word,
}


def test_store_only_classes_use_the_generated_constructor():
    generated = {cls for cls, _, _ in CASES if cls.__init__.__module__ == "trisect._record"}
    assert generated == STORE_ONLY


def test_generated_constructor_binds_like_a_signature():
    assert Gen(k=2, kind="e") == Gen("e", 2) == Gen("e", k=2)
    assert Violation("geo", message="m") == Violation("geo", "m", False)
    with pytest.raises(TypeError, match="missing argument 'message'"):
        Violation("geo", advisory=True)
    with pytest.raises(TypeError, match="multiple values for argument 'kind'"):
        Gen("e", kind="e")
    with pytest.raises(TypeError, match="unexpected keyword argument 'kinds'"):
        Gen(kinds="e")
    with pytest.raises(TypeError, match="takes 2 arguments, got 3"):
        Gen("e", 1, 2)


@pytest.mark.parametrize("cls,names,values", CASES, ids=IDS)
def test_trusted_constructor_stores_the_fields(cls, names, values):
    x = cls._trusted(*values)
    assert type(x) is cls
    assert fields_of(x, names) == values
    assert x == cls(*values)


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=[c.__name__ for c in DEFAULTS])
def test_defaults(cls):
    required, defaults = DEFAULTS[cls]
    x = cls(*required)
    for name, value in defaults.items():
        assert getattr(x, name) == value
    assert x == cls(*required, *defaults.values())


def test_star_diagrams_do_not_share_default_dicts():
    # the claims are tuples, so there is nothing to share
    d1, d2 = StarDiagram(1, 0, A, B, C), StarDiagram(1, 0, A, B, C)
    assert d1.common == d2.common == () and d1.geo == d2.geo == ()
    with pytest.raises(TypeError):
        d1.geo[("alpha", 0, "beta", 0)] = 1
    with pytest.raises(AttributeError):
        d1.common.append(("alpha_beta", (0,)))
    assert hash(d1) == hash(d2)


def test_deepcopy_copies_mutable_fields():
    d = StarDiagram(1, 0, A, B, C, {"alpha_beta": ()}, {("alpha", 0, "beta", 0): 1})
    e = copy.deepcopy(d)
    assert e == d
    assert e.common is not d.common and e.geo is not d.geo


def test_equal_fields_in_different_classes_are_unequal():
    groups = [
        (ClosedPage(2), BoundaryCircles(2), SymplecticLattice(2)),
        (Fraction(3, 7), SpunLens(3, 7)),
        (Gen("e", 3), FormClass("e", 3)),
        (CokernelInvariants(1, (2,)), FormClass(1, (2,))),
    ]
    for group in groups:
        for i, x in enumerate(group):
            for y in group[i + 1:]:
                assert x != y and y != x
                assert not (x == y)


def test_own_str_is_kept():
    assert str(Fraction(3, 7)) == "3/7"
    assert str(FormClass("odd_indefinite", (2, 1))) == "odd_indefinite(2, 1)"
    assert str(FormClass("zero")) == "zero"
    assert str(SpunLens(5, 2)) == "SpunLens(5,2)"
    assert str(FareyTriple(Fraction(0, 1), Fraction(1, 1), Fraction(1, 2))) == "0/1 1/1 1/2"
    assert str(SlideMove("ExtendB1", 2)) == "ExtendB1(2)"
    assert str(SlideMove("ShrinkA2")) == "ShrinkA2"
    assert str(Gen("e", 5)) == repr(Gen("e", 5)) == "Gen(kind='e', k=5)"


BAD = [
    (lambda: Fraction(1.5, 2), DiagramError, "fraction parts must be integers"),
    # own ids: a repeated message id would renumber the case above
    pytest.param(lambda: Fraction(True, 1), DiagramError, "fraction parts must be integers",
                 id="fraction parts must be integers: bool num"),
    pytest.param(lambda: Fraction(1, True), DiagramError, "fraction parts must be integers",
                 id="fraction parts must be integers: bool den"),
    (lambda: Fraction(1, -2), DiagramError, "fraction 1/-2: den must be >= 0"),
    (lambda: Fraction(2, 0), DiagramError, "fraction 2/0: only 1/0 is allowed"),
    (lambda: Fraction(2, 4), DiagramError, "fraction 2/4 is not reduced"),
    (lambda: SymplecticLattice(-1), DiagramError, "genus must be >= 0"),
    pytest.param(lambda: SymplecticLattice(1.5), DiagramError, "genus must be an integer",
                 id="genus must be an integer: float"),
    pytest.param(lambda: SymplecticLattice(True), DiagramError, "genus must be an integer",
                 id="genus must be an integer: bool"),
    (lambda: StarDiagram(-1, 0, A, B, C), DiagramError, "genus and boundary must be >= 0"),
    (lambda: StarDiagram(1, -1, A, B, C), DiagramError, "genus and boundary must be >= 0"),
    (lambda: BridgeData(2, (1, 1)), DiagramError, "bridge data needs three counts >= 0"),
    (lambda: BridgeData(2, (1, -1, 1)), DiagramError, "bridge data needs three counts >= 0"),
    (lambda: BridgeData(2, (0, 0, 0)), DiagramError, "bridge data requires b >= max(c_i) >= 1"),
    (lambda: BridgeData(1, (2, 0, 0)), DiagramError, "bridge data requires b >= max(c_i) >= 1"),
    (lambda: TrisectionParams(-1, None), DiagramError, "genus and boundary must be >= 0"),
    (lambda: TrisectionParams(1, None, -1), DiagramError, "genus and boundary must be >= 0"),
    (lambda: TrisectionParams(3, (1, 1)), DiagramError, "k must be a triple"),
    (lambda: TrisectionParams(3, (1, -1, 1)), DiagramError,
     "k = (1, -1, 1): sector genera must be >= 0"),
    (lambda: TrisectionParams(1, (2, 0, 0)), DiagramError,
     "k = (2, 0, 0): closed parameters need k_i <= g = 1"),
    (lambda: TrisectionParams(1, (1, 1, 1), 0, 5), DiagramError,
     "bridge must be BridgeData or None, got int"),
    (lambda: ClosedPage(-1), DiagramError, "page genus must be >= 0"),
    (lambda: BoundaryCircles(0), CellDecompositionMismatch, "boundary-circle pasting needs n >= 1"),
    (lambda: PastingInput(P1, P1, 1), DiagramError, "unknown pasting mode 1"),
    pytest.param(lambda: PastingInput(1, 2, ClosedPage(0)), DiagramError,
                 "pasting needs two TrisectionParams, got int and int", id="pasting: ints"),
    pytest.param(lambda: PastingInput(P1, None, BoundaryCircles(1)), DiagramError,
                 "pasting needs two TrisectionParams, got TrisectionParams and NoneType",
                 id="pasting: None"),
    pytest.param(lambda: PastingInput("1;0,0,0", P1, ClosedPage(0)), DiagramError,
                 "pasting needs two TrisectionParams, got str and TrisectionParams",
                 id="pasting: literal"),
    pytest.param(lambda: PastingInput(P1, P1, ClosedPage(0), (True, 0, 0)), DiagramError,
                 "common-curve counts must be three ints >= 0", id="common counts: bool"),
    pytest.param(lambda: PastingInput(P1, P1, ClosedPage(0), 5), DiagramError,
                 "common-curve counts must be three ints >= 0", id="common counts: int"),
    pytest.param(lambda: PastingInput(P1, P1, BoundaryCircles(1), (1, -1, 0)), DiagramError,
                 "common-curve counts must be three ints >= 0", id="common counts: negative"),
    pytest.param(lambda: PastingInput(P1, P1, BoundaryCircles(1), (1, 1)), DiagramError,
                 "common-curve counts must be three ints >= 0", id="common counts: two"),
    (lambda: PastingInput(P1, P1, ClosedPage(0), (1, 0, 0)), DiagramError,
     "common-curve counts apply only to boundary-circle pasting"),
    pytest.param(lambda: RibbonGraph([(0, 1)], ((0, 1),)), DiagramError,
                 "rotations must be a tuple of int tuples", id="ribbon rotations: list"),
    pytest.param(lambda: RibbonGraph(None, ()), DiagramError,
                 "rotations must be a tuple of int tuples", id="ribbon rotations: None"),
    pytest.param(lambda: RibbonGraph((5,), ()), DiagramError,
                 "rotations must be a tuple of int tuples", id="ribbon rotations: int entry"),
    pytest.param(lambda: RibbonGraph(([0, 1],), ((0, 1),)), DiagramError,
                 "rotations must be a tuple of int tuples", id="ribbon rotations: list entry"),
    pytest.param(lambda: RibbonGraph(((True, 0),), ((0, 1),)), DiagramError,
                 "rotations must be a tuple of int tuples", id="ribbon rotations: bool dart"),
    pytest.param(lambda: RibbonGraph(((0.0, 1),), ((0, 1),)), DiagramError,
                 "rotations must be a tuple of int tuples", id="ribbon rotations: float dart"),
    pytest.param(lambda: RibbonGraph(((0, 1),), [(0, 1)]), DiagramError,
                 "edges must be a tuple of int pairs", id="ribbon edges: list"),
    pytest.param(lambda: RibbonGraph(((0, 1),), ([0, 1],)), DiagramError,
                 "edges must be a tuple of int pairs", id="ribbon edges: list entry"),
    pytest.param(lambda: RibbonGraph(((0, 1),), ((0,),)), DiagramError,
                 "edges must be a tuple of int pairs", id="ribbon edges: one dart"),
    pytest.param(lambda: RibbonGraph(((0, 1, 2),), ((0, 1, 2),)), DiagramError,
                 "edges must be a tuple of int pairs", id="ribbon edges: three darts"),
    pytest.param(lambda: RibbonGraph(((0, 1),), ((0, True),)), DiagramError,
                 "edges must be a tuple of int pairs", id="ribbon edges: bool dart"),
    pytest.param(lambda: RibbonGraph(((0, 1),), ((0, "1"),)), DiagramError,
                 "edges must be a tuple of int pairs", id="ribbon edges: str dart"),
    (lambda: RibbonGraph(((0, 0),), ()), DiagramError, "dart 0 appears at two rotation slots"),
    (lambda: RibbonGraph(((0,),), ((0, 0),)), DiagramError,
     "edge (0,0) must join two distinct darts"),
    (lambda: RibbonGraph(((0,),), ((0, 1),)), DiagramError,
     "edge dart 1 missing from the rotation system"),
    (lambda: RibbonGraph(((0, 1, 2),), ((0, 1), (1, 2))), DiagramError, "dart 1 used by two edges"),
    (lambda: RibbonGraph(((0, 1, 2),), ((0, 1),)), DiagramError,
     "dangling darts with no edge: [2]"),
    (lambda: PlanBlock("twist"), DiagramError, "unknown block kind 'twist'"),
    (lambda: PlanBlock("shear"), DiagramError, "exactly the shear blocks carry a 2x2 matrix"),
    (lambda: PlanBlock("tau0", ((1, 0), (0, 1))), DiagramError,
     "exactly the shear blocks carry a 2x2 matrix"),
    # the one stated composite is a plan file's COMPOSITE line
    (lambda: parse_plan("TAU12\nCOMPOSITE 1 0 0 0 1 0 0 0 1\n"), DiagramError,
     "stated composite [[1, 0, 0], [0, 1, 0], [0, 0, 1]] does not match block product "
     "[[0, 1, 0], [1, 0, 0], [0, 0, 1]]"),
    pytest.param(lambda: SurgeryPlan([TAU12]), DiagramError,
                 "plan blocks must be a tuple of PlanBlocks", id="plan blocks: list"),
    pytest.param(lambda: SurgeryPlan((TAU12, "tau0")), DiagramError,
                 "plan blocks must be a tuple of PlanBlocks", id="plan blocks: str entry"),
    (lambda: SlideState("MX", "", "", 0, 0, (1, 0)), MalformedWord,
     "word 'MX' contains letters outside the alphabet"),
    (lambda: SlideState("", "", "μ", 0, 0, (1, 0)), MalformedWord,
     "word 'μ' contains letters outside the alphabet"),
    (lambda: SlideMove("Hop"), IllegalMove, "unknown move kind 'Hop'"),
    (lambda: SlideMove("ExtendB1"), IllegalMove, "move ExtendB1 argument mismatch"),
    (lambda: SlideMove("ShrinkA2", 1), IllegalMove, "move ShrinkA2 argument mismatch"),
    (lambda: SlideMove("ExtendB1", True), IllegalMove,
     "move ExtendB1 argument must be an integer, got True"),
    (lambda: SlideMove("ExtendB1", 1.5), IllegalMove,
     "move ExtendB1 argument must be an integer, got 1.5"),
]


@pytest.mark.parametrize("build,exc,message", BAD, ids=[m for _, _, m in BAD])
def test_validation_messages(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert str(info.value) == message
