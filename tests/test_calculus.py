import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect.calculus import (
    _GEN_BLOCKS,
    TAU12,
    BoundaryCircles,
    ClosedPage,
    PastingInput,
    PlanBlock,
    RibbonGraph,
    SurgeryPlan,
    block_matrix,
    curve_complement,
    destabilize,
    fiber_sum,
    log_transform_plan,
    luttinger_plan,
    parse_plan,
    paste,
    poke,
    serialize_plan,
    shadow_boundary_curves,
    shear_block,
    surgery_plan_general,
)
from trisect.diagram import BridgeData, CurveSystem, StarDiagram, TrisectionParams, parse_params
from trisect.errors import (
    CannotDestabilize,
    CellDecompositionMismatch,
    DiagramError,
    NotSL2,
    NotSL3,
)
from trisect.zmatrix import Gen, gen_matrix, identity, mat_mul


NON_INTEGER_PROBES = [
    pytest.param(lambda: TrisectionParams(2.5, (1, 1, 1)), id="float genus"),
    pytest.param(lambda: TrisectionParams("2", (1, 1, 1)), id="str genus"),
    pytest.param(lambda: TrisectionParams(True, (1, 1, 1)), id="bool genus"),
    pytest.param(lambda: TrisectionParams(3, (1, 1, 1), 1.0), id="float boundary"),
    pytest.param(lambda: TrisectionParams(3, (1.5, 1, 1)), id="float k"),
    pytest.param(lambda: TrisectionParams(3, (True, 1, 1)), id="bool k"),
    pytest.param(lambda: TrisectionParams(3, "111"), id="str k"),
    pytest.param(lambda: BridgeData(2.0, (1, 1, 1)), id="float b"),
    pytest.param(lambda: BridgeData(2, (1, "1", 1)), id="str c"),
    pytest.param(lambda: BridgeData(2, 3), id="int c"),
    pytest.param(lambda: ClosedPage(0.5), id="float page genus"),
    pytest.param(lambda: ClosedPage(False), id="bool page genus"),
    pytest.param(lambda: BoundaryCircles(1.0), id="float circles"),
    pytest.param(lambda: BoundaryCircles(True), id="bool circles"),
    pytest.param(lambda: destabilize(TrisectionParams(3, (1, 1, 1)), 1, 0.5), id="float times"),
    pytest.param(lambda: curve_complement(TrisectionParams(3, (1, 1, 1)), (0.5,) * 3),
                 id="float arcs"),
    pytest.param(lambda: curve_complement(TrisectionParams(3, (1, 1, 1)), (True,) * 3),
                 id="bool arcs"),
    pytest.param(lambda: paste(PastingInput(
        TrisectionParams(1, (0, 0, 0)), TrisectionParams(1, (0, 0, 0)), ClosedPage(1.5))),
        id="float page genus in paste"),
]


@pytest.mark.parametrize("build", NON_INTEGER_PROBES)
def test_parameter_records_refuse_non_integers(build):
    with pytest.raises(DiagramError):
        build()


def test_parameter_records_store_tuples_and_hash():
    p = TrisectionParams(2, [1, 1, 1])
    b = BridgeData(2, [1, 1, 1])
    assert p.k == (1, 1, 1) and b.c == (1, 1, 1)
    assert p == TrisectionParams(2, (1, 1, 1)) and b == BridgeData(2, (1, 1, 1))
    assert hash(p) == hash(TrisectionParams(2, (1, 1, 1)))
    assert hash(b) == hash(BridgeData(2, (1, 1, 1)))
    assert p.with_bridge(2, [1, 1, 1]).bridge == b


class TestPaste:
    def test_closed_page_at_zero(self):
        out = paste(PastingInput(parse_params("0;0,0,0"), parse_params("0;0,0,0"),
                                 ClosedPage(0)))
        assert parse_params("2;0,0,0") == out

    def test_closed_page_shifts_k(self):
        left = parse_params("1;1,0,1")
        right = parse_params("2;0,2,1")
        out = paste(PastingInput(left, right, ClosedPage(1)))
        assert out.genus == 5 and out.k == (3, 4, 4)

    def test_two_disks_make_sphere(self):
        left = TrisectionParams_like("0;0,0,0;1")
        out = paste(PastingInput(left, left, BoundaryCircles(1)))
        assert out.genus == 0 and out.boundary == 0

    def test_torus_times_sphere_genus(self):
        # two genus-1 pieces with three boundary circles each
        side = TrisectionParams_like("1;0,0,0;3")
        out = paste(PastingInput(side, side, BoundaryCircles(3)))
        assert out.genus == 4
        assert out.boundary == 0

    def test_boundary_circles_common_counts(self):
        side = TrisectionParams_like("2;1,1,1;2")
        out = paste(PastingInput(side, side, BoundaryCircles(2), common=(1, 0, 2)))
        assert out.genus == 5
        assert out.k == (1 + 1 + 1, 1 + 1 + 0, 1 + 1 + 2)

    def test_common_counts_are_stored_as_a_tuple(self):
        side = TrisectionParams_like("2;1,1,1;2")
        inp = PastingInput(side, side, BoundaryCircles(2), common=[1, 0, 2])
        assert inp == PastingInput(side, side, BoundaryCircles(2), common=(1, 0, 2))
        assert hash(inp) == hash((side, side, BoundaryCircles(2), (1, 0, 2)))

    def test_closed_page_refuses_common_counts(self):
        closed = parse_params("1;0,0,0")
        with pytest.raises(DiagramError, match="apply only to boundary-circle pasting"):
            PastingInput(closed, closed, ClosedPage(0), common=(1, 0, 0))
        assert paste(PastingInput(closed, closed, ClosedPage(0))) == parse_params("4;0,0,0")

    def test_boundary_circles_without_common_leaves_k_unknown(self):
        side = TrisectionParams_like("1;1,1,1;2")
        out = paste(PastingInput(side, side, BoundaryCircles(2)))
        assert out.k is None

    def test_mode_mismatch(self):
        closed = parse_params("1;0,0,0")
        bounded = TrisectionParams_like("1;0,0,0;2")
        with pytest.raises(CellDecompositionMismatch):
            paste(PastingInput(closed, bounded, ClosedPage(0)))
        with pytest.raises(CellDecompositionMismatch):
            paste(PastingInput(bounded, bounded, BoundaryCircles(3)))

    def test_zero_circles_rejected(self):
        with pytest.raises(CellDecompositionMismatch):
            BoundaryCircles(0)


def TrisectionParams_like(lit):
    return parse_params(lit)


BRIDGED = parse_params("2;1,1,1").with_bridge(2, (1, 1, 1))


class TestFiberSum:
    def test_cacime_surface(self):
        side = parse_params("21;6,6,11").with_bridge(5, (1, 1, 1))
        out = fiber_sum(side, side)
        assert out == parse_params("51;13,13,23")

    def test_self_sum_formula(self):
        p = parse_params("3;2,1,0").with_bridge(1, (1, 1, 1))
        out = fiber_sum(p, p)
        assert out.genus == 2 * 3 + 1
        assert out.k == (5, 3, 1)

    def test_commutative(self):
        a = parse_params("2;1,1,1").with_bridge(2, (1, 2, 1))
        b = parse_params("4;2,0,3").with_bridge(2, (1, 2, 1))
        assert fiber_sum(a, b) == fiber_sum(b, a)

    def test_bridge_mismatch(self):
        a = parse_params("2;1,1,1").with_bridge(2, (1, 2, 1))
        b = parse_params("2;1,1,1").with_bridge(2, (1, 1, 1))
        with pytest.raises(CellDecompositionMismatch):
            fiber_sum(a, b)

    def test_missing_bridge(self):
        a = parse_params("2;1,1,1")
        with pytest.raises(CellDecompositionMismatch):
            fiber_sum(a, a)

    @pytest.mark.parametrize("left,right,got", [
        (1, 2, "int and int"),
        (None, BRIDGED, "NoneType and TrisectionParams"),
        (BRIDGED, "3;1,1,1", "TrisectionParams and str"),
    ])
    def test_non_params_refused(self, left, right, got):
        with pytest.raises(DiagramError, match=f"^fiber sum needs two TrisectionParams, got {got}$"):
            fiber_sum(left, right)


class TestDestabilize:
    def test_cacime_chain(self):
        out = destabilize(parse_params("51;13,13,23"), sector=3, times=10)
        assert out == parse_params("41;13,13,13")

    def test_zero_times_identity(self):
        p = parse_params("5;2,3,4")
        assert destabilize(p, 1, 0) == p

    def test_deficit_rejected(self):
        with pytest.raises(CannotDestabilize):
            destabilize(parse_params("1;0,0,0"), 1, 1)

    def test_only_named_sector_drops(self):
        out = destabilize(parse_params("5;2,3,3"), 2, 2)
        assert out == parse_params("3;2,1,3")


class TestPoke:
    def base(self):
        return StarDiagram(
            1, 0,
            CurveSystem("alpha", ((1, 0),)),
            CurveSystem("beta", ((0, 1),)),
            CurveSystem("gamma", ((1, 1),)),
        )

    def test_three_pokes(self):
        out = poke(self.base(), (1, 1, 1))
        assert out.boundary == 3
        assert len(out.alpha.classes) == 2
        assert out.alpha.classes[-1] == (0, 0)
        assert len(out.beta.classes) == len(out.gamma.classes) == 2

    def test_zero_identity(self):
        d = self.base()
        assert poke(d, (0, 0, 0)) == d

    def test_uneven_counts(self):
        out = poke(self.base(), (2, 0, 1))
        assert out.boundary == 3
        assert len(out.alpha.classes) == 3
        assert len(out.beta.classes) == 1
        assert out.genus == 1

    @pytest.mark.parametrize("counts", [(0.5, 0, 0), (True, 0, 0), (0, 1.0, 0), (0, 0, "1"), 5,
                                        None, "123", {0: 1, 1: 1, 2: 1}])
    def test_non_integer_counts_refused(self, counts):
        with pytest.raises(DiagramError, match="^poke counts must be three ints >= 0$"):
            poke(self.base(), counts)


@pytest.mark.parametrize("sector,times", [(1, True), (1, 0.5), (1, 1.0), (True, 1), (1.0, 1)])
def test_destabilize_refuses_non_integers(sector, times):
    # True == 1 and 1.0 == 1, so a bare comparison would read them as 1
    with pytest.raises(DiagramError):
        destabilize(TrisectionParams(3, (1, 1, 1)), sector, times)


class TestCurveComplement:
    def test_single_arc_per_sector(self):
        out = curve_complement(parse_params("1;1,1,1"), (1, 1, 1))
        assert out.params.genus == 1
        assert out.params.boundary == 3
        assert out.punctures == 3
        assert out.curves_added == (1, 1, 1)   # one redundant curve dropped
        assert out.closure_genus == 1 + 2

    def test_zero_arcs_identity(self):
        p = parse_params("2;1,1,1")
        out = curve_complement(p, (0, 0, 0))
        assert out.params == p
        assert out.closure_genus is None

    def test_surgery_closure_genus(self):
        out = curve_complement(parse_params("4;2,2,2"), (1, 1, 1))
        assert out.closure_genus == 4 + 2

    def test_unequal_rejected(self):
        with pytest.raises(CellDecompositionMismatch):
            curve_complement(parse_params("1;1,1,1"), (1, 2, 1))


class TestRibbonGraph:
    def test_single_arc(self):
        rg = RibbonGraph(rotations=((0,), (1,)), edges=((0, 1),))
        assert shadow_boundary_curves(rg) == (1, 0)

    def test_loop_two_faces(self):
        rg = RibbonGraph(rotations=((0, 1),), edges=((0, 1),))
        assert len(rg.faces()) == 2

    def test_theta_parallel_edges(self):
        rg = RibbonGraph(rotations=((0, 2), (1, 3)), edges=((0, 1), (2, 3)))
        assert len(rg.faces()) == 2

    def test_dangling_dart_rejected(self):
        with pytest.raises(DiagramError):
            RibbonGraph(rotations=((0, 1),), edges=((0, 2),))
        with pytest.raises(DiagramError):
            RibbonGraph(rotations=((0,),), edges=())

    def test_isolated_vertex_is_boundary_parallel(self):
        # the bare vertex is a disk with one boundary circle; the loop
        # traces two faces, both essential
        rg = RibbonGraph(rotations=((0, 1), ()), edges=((0, 1),))
        assert shadow_boundary_curves(rg) == (1, 2)

    def test_bare_vertex_closes_to_a_sphere(self):
        rg = RibbonGraph(((),), ())
        assert rg.faces() == []
        assert rg.genus_of_closure() == 0

    @pytest.mark.parametrize("rotations,edges", [
        (((0,), (1,)), ((0, 1),)),
        (((0, 1),), ((0, 1),)),
        (((0, 2), (1, 3)), ((0, 1), (2, 3))),
        (((0, 2, 4), (1, 3, 5)), ((0, 1), (2, 3), (4, 5))),
        (((0, 1, 2, 3),), ((0, 1), (2, 3))),
        (((0, 2), (1, 4), (3, 5)), ((0, 1), (2, 3), (4, 5))),
    ])
    def test_euler_consistency(self, rotations, edges):
        rg = RibbonGraph(rotations, edges)
        if len(rg.components()) != 1:
            return
        v, e, f = rg.vertex_count, rg.edge_count, len(rg.faces())
        genus = rg.genus_of_closure()
        assert v - e + f == 2 - 2 * genus

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_connected_rotation_systems(self, data):
        """Edge i joins darts 2i and 2i + 1.  The first v - 1 edges form a
        spanning tree, the rest join any two vertices (loops included),
        and each vertex orders its darts at random."""
        v = data.draw(st.integers(1, 6))
        extra = data.draw(st.integers(0 if v > 1 else 1, 6))
        ends = [(data.draw(st.integers(0, i - 1)), i) for i in range(1, v)]
        ends += [tuple(data.draw(st.lists(st.integers(0, v - 1), min_size=2, max_size=2)))
                 for _ in range(extra)]
        darts = [[] for _ in range(v)]
        for i, (x, y) in enumerate(ends):
            darts[x].append(2 * i)
            darts[y].append(2 * i + 1)
        rotations = tuple(tuple(data.draw(st.permutations(ds))) for ds in darts)
        edges = tuple((2 * i, 2 * i + 1) for i in range(len(ends)))
        rg = RibbonGraph(rotations, edges)
        assert len(rg.components()) == 1
        e, f = len(edges), len(rg.faces())
        genus = rg.genus_of_closure()
        assert v - e + f == 2 - 2 * genus
        assert 0 <= genus <= (e - v + 1) // 2  # f >= 1


def block_product(blocks):
    """A plan's composite by definition: the left-to-right product of its
    blocks' matrices."""
    prod = identity(3)
    for b in blocks:
        prod = mat_mul(prod, block_matrix(b))
    return prod


def with_composite(text, m):
    """A plan text with its COMPOSITE line replaced by one stating m."""
    blocks = text.splitlines()[:-1]
    return "\n".join(blocks + ["COMPOSITE " + " ".join(str(x) for row in m for x in row)]) + "\n"


SL2_GENS = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0))]


def random_sl2(rng, length=8):
    m = ((1, 0), (0, 1))
    for _ in range(length):
        g = rng.choice(SL2_GENS)
        m = tuple(
            tuple(sum(m[i][k] * g[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
    return m


class TestPlans:
    @pytest.mark.parametrize("m,n,expect", [
        (0, 0, identity(3)),
        (1, 0, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
        (2, -3, [[1, 0, 2], [0, 1, -3], [0, 0, 1]]),
    ])
    def test_luttinger_composite(self, m, n, expect):
        plan = luttinger_plan(m, n)
        assert plan.composite == expect
        kinds = [b.kind for b in plan.blocks]
        assert kinds == ["complement", "tau0", "tau23", "shear", "tau31",
                         "shear", "tau31", "tau23", "tauempty"]

    def test_luttinger_random(self):
        rng = random.Random(7)
        for _ in range(50):
            m, n = rng.randint(-30, 30), rng.randint(-30, 30)
            assert luttinger_plan(m, n).composite == \
                [[1, 0, m], [0, 1, n], [0, 0, 1]]

    def test_log_transform_ap(self):
        plan = log_transform_plan(((0, 1), (-1, 5)))
        assert plan.composite == [[1, 0, 0], [0, 0, 1], [0, -1, 5]]

    def test_log_transform_identity(self):
        plan = log_transform_plan(((1, 0), (0, 1)))
        assert plan.composite == identity(3)

    def test_log_transform_p0(self):
        plan = log_transform_plan(((0, 1), (-1, 0)))
        assert plan.composite == [[1, 0, 0], [0, 0, 1], [0, -1, 0]]

    def test_log_transform_random(self):
        rng = random.Random(11)
        for _ in range(100):
            a = random_sl2(rng)
            plan = log_transform_plan(a)
            assert plan.composite == [
                [1, 0, 0],
                [0, a[0][0], a[0][1]],
                [0, a[1][0], a[1][1]],
            ]

    def test_log_transform_rejects_non_sl2(self):
        with pytest.raises(NotSL2):
            log_transform_plan(((1, 1), (1, 1)))
        with pytest.raises(NotSL2):
            log_transform_plan(((1, 0, 0), (0, 1, 0)))

    def test_general_identity(self):
        plan = surgery_plan_general(identity(3))
        assert [b.kind for b in plan.blocks] == ["complement", "tau0", "tauempty"]
        assert plan.composite == identity(3)

    def test_general_round_trip(self):
        rng = random.Random(3)
        kinds = ["s12", "s23", "s31", "s12i", "s23i", "s31i", "e"]
        for _ in range(100):
            m = identity(3)
            for _ in range(rng.randint(0, 12)):
                kind = rng.choice(kinds)
                g = Gen(kind, rng.randint(-4, 4)) if kind == "e" else Gen(kind)
                m = mat_mul(m, gen_matrix(g))
            assert surgery_plan_general(m).composite == m

    def test_general_rejects_non_sl3(self):
        with pytest.raises(NotSL3):
            surgery_plan_general([[2, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_composite_is_block_product(self):
        # the composite is the product of the blocks' matrices, and a file
        # whose COMPOSITE line states another matrix is refused
        plan = luttinger_plan(1, 2)
        assert plan.composite == block_product(plan.blocks)
        with pytest.raises(DiagramError):
            parse_plan(with_composite(serialize_plan(plan), identity(3)))

    def test_shear_block_rejects(self):
        with pytest.raises(NotSL2):
            shear_block(((2, 0), (0, 1)))

    def test_mismatch_message_names_both_matrices(self):
        plan = luttinger_plan(1, 2)
        with pytest.raises(DiagramError) as err:
            parse_plan(with_composite(serialize_plan(plan), identity(3)))
        assert str(identity(3)) in str(err.value)
        assert str([[1, 0, 1], [0, 1, 2], [0, 0, 1]]) in str(err.value)

    @pytest.mark.parametrize("kind", ["s12", "s23", "s31", "s12i", "s23i", "s31i"])
    def test_gen_blocks_multiply_to_generator(self, kind):
        assert block_product(_GEN_BLOCKS[kind]) == gen_matrix(Gen(kind))

    @pytest.mark.parametrize("k", [-7, -1, 0, 1, 12])
    def test_shear_block_is_shear_generator(self, k):
        assert block_matrix(shear_block(((1, k), (0, 1)))) == gen_matrix(Gen("e", k))

    @pytest.mark.parametrize("bad", [
        ((1, 0, 0), (0, 1, 0)),      # not 2x2
        ((1, 0), (0,)),              # ragged
        ((1, 0.5), (0, 1)),          # non-integer entry
        ((1, True), (0, 1)),         # bool is not an integer entry
        ((1, 1), (1, 1)),            # det 0
        ((2, 0), (0, 1)),            # det 2
        (1, 2),                      # rows that are not sequences
        ((1, 0), 1),
        5,                           # not a sequence at all
        None,                        # not a payload, though PlanBlock reads None as none
    ])
    def test_log_transform_and_shear_block_share_sl2_check(self, bad):
        with pytest.raises(NotSL2) as from_shear:
            shear_block(bad)
        with pytest.raises(NotSL2) as from_log:
            log_transform_plan(bad)
        assert str(from_log.value) == str(from_shear.value)


IDENTITY_BLOCKS = [PlanBlock("complement"), PlanBlock("tau0"), PlanBlock("tauempty")]
SWAP_BLOCKS = [PlanBlock("tau12"), PlanBlock("tau23"), PlanBlock("tau31")]


@st.composite
def sl2_payloads(draw):
    """SL2 matrices: a product of up to three elementary shears with
    entries up to 256 bits, or a rotation."""
    m = ((1, 0), (0, 1))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(-(2 ** 256), 2 ** 256))
        g = draw(st.sampled_from((((1, k), (0, 1)), ((1, 0), (k, 1)), ((0, -1), (1, 0)))))
        m = tuple(
            tuple(sum(m[i][t] * g[t][j] for t in range(2)) for j in range(2))
            for i in range(2)
        )
    return m


plan_blocks = st.one_of(
    st.sampled_from(IDENTITY_BLOCKS + SWAP_BLOCKS),
    sl2_payloads().map(shear_block),
)


class TestBlockProduct:
    """SurgeryPlan builds the block product by column operations; the
    reference is the plain matrix product of block_matrix over the blocks."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(plan_blocks, max_size=40), st.integers(0, 8), st.integers(1, 3))
    def test_column_product_matches_matrix_product(self, blocks, cell, delta):
        expect = block_product(blocks)
        plan = SurgeryPlan(tuple(blocks))
        assert plan.composite == expect
        wrong = [row[:] for row in expect]
        wrong[cell // 3][cell % 3] += delta
        with pytest.raises(DiagramError) as err:
            parse_plan(with_composite(serialize_plan(plan), wrong))
        assert str(err.value) == f"stated composite {wrong} does not match block product {expect}"

    def test_unit_shears_of_general_plan_are_sl2(self):
        m = [[1, 5, 0], [0, 1, 0], [0, 0, 1]]
        m = mat_mul(m, [[1, 0, 0], [0, 1, 0], [0, -3, 1]])
        for b in surgery_plan_general(m).blocks:
            if b.kind == "shear":
                assert shear_block(b.shear) == b


@st.composite
def sl3_plans(draw):
    """surgery_plan_general of a random SL3 matrix."""
    kinds = ["s12", "s23", "s31", "s12i", "s23i", "s31i", "e"]
    m = identity(3)
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=14)):
        g = Gen(kind, draw(st.integers(-6, 6))) if kind == "e" else Gen(kind)
        m = mat_mul(m, gen_matrix(g))
    return surgery_plan_general(m)


# edits of one line of a good plan text; some keep it good, most break it
LINE_EDITS = (
    lambda line: "  " + line + "\t",   # padding
    lambda line: line + "\n" + line,    # the line repeated
    lambda line: line + "\n\n",        # a blank line after it
    lambda line: line + " x",           # an extra token
    lambda line: line.replace("1", "2", 1),
    lambda line: line.replace("0", "1", 1),
    lambda line: line.rsplit(" ", 1)[0],
    lambda line: line.lower(),
    lambda line: "",
)

# parse_plan's refusal of one line, naming it, or of the plan as a whole
LINE_MESSAGE = re.compile(r"line (\d+): (content after COMPOSITE|(SHEAR|COMPOSITE) needs "
                          r"(4 |9 )?integers|[A-Z0-9]+ takes no arguments|unknown block '.*')")
PLAN_MESSAGE = re.compile(r"plan has no COMPOSITE line|stated composite .* does not match "
                          r"block product .*|shear payload must have determinant 1, got -?\d+")


class TestParsePlanAgainstReference:
    """parse_plan against the definition of a plan file: the lines of the
    plan it reads are serialize_plan's, its composite is the block_matrix
    product of its blocks, and a refusal is one of parse_plan's messages."""

    @settings(max_examples=60, deadline=None)
    @given(sl3_plans())
    def test_random_general_plans(self, plan):
        text = serialize_plan(plan)
        assert parse_plan(text) == plan
        assert plan.composite == block_product(plan.blocks)

    @settings(max_examples=200, deadline=None)
    @given(sl3_plans(), st.data())
    def test_edited_plans_same_plan_or_message(self, plan, data):
        lines = serialize_plan(plan).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(LINE_EDITS))
        lines[i] = edit(lines[i])
        edited = "\n".join(lines) + "\n"
        try:
            parsed = parse_plan(edited)
        except (DiagramError, NotSL2) as e:
            line = LINE_MESSAGE.fullmatch(str(e))
            if line:
                # a good text breaks only at the edit: line i + 1, or the copy after it
                assert type(e) is DiagramError and int(line.group(1)) in (i + 1, i + 2)
            else:
                assert PLAN_MESSAGE.fullmatch(str(e)), str(e)
        else:
            # the plan of the edited lines, stating the product of its blocks
            assert serialize_plan(parsed).splitlines() == [
                line.strip() for line in edited.splitlines() if line.strip()]
            assert parsed.composite == block_product(parsed.blocks)

    @pytest.mark.parametrize("text,error,message", [
        ("TAU31\nTAU31 x\nCOMPOSITE 1 0 0 0 1 0 0 0 1\n",
         DiagramError, "line 2: TAU31 takes no arguments"),
        ("SHEAR 1 1 0 1\nSHEAR 1 1 1 1\nCOMPOSITE 1 0 0 0 1 0 0 0 1\n",
         NotSL2, "shear payload must have determinant 1, got 0"),
        ("SHEAR 1 1 0 1\nSHEAR 1 1 0\nCOMPOSITE 1 0 0 0 1 0 0 0 1\n",
         DiagramError, "line 2: SHEAR needs 4 integers"),
        ("TAU0\nCOMPOSITE 1 0 0 0 1 0 0 0 1\nTAU0\n",
         DiagramError, "line 3: content after COMPOSITE"),
        ("SHEAR 1 1 0 1\nCOMPOSITE 1 1 0 0 1 0 0 0 1\n\nSHEAR 1 1 0 1\n",
         DiagramError, "line 4: content after COMPOSITE"),
    ])
    def test_bad_line_after_good_line_with_same_token(self, text, error, message):
        with pytest.raises(error) as err:
            parse_plan(text)
        assert type(err.value) is error and str(err.value) == message

    def test_padded_repeats_parse_alike(self):
        plain = "TAU12\nSHEAR 1 2 0 1\nSHEAR 1 2 0 1\nTAU12\nCOMPOSITE 1 0 0 4 1 0 0 0 1\n"
        padded = ("  TAU12\n\nSHEAR 1 2 0 1\t\n   SHEAR 1 2 0 1\n\n"
                  "TAU12   \n  COMPOSITE 1 0 0 4 1 0 0 0 1\n\n")
        blocks = (TAU12, shear_block(((1, 2), (0, 1))), shear_block(((1, 2), (0, 1))), TAU12)
        assert parse_plan(padded) == parse_plan(plain) == SurgeryPlan(blocks)


# plan text -> the message parse_plan refuses it with: each of its messages
PARSE_REJECTS = {
    "": "plan has no COMPOSITE line",
    "TAU0\n": "plan has no COMPOSITE line",
    "BOGUS\nCOMPOSITE 1 0 0 0 1 0 0 0 1\n": "line 1: unknown block 'BOGUS'",
    "COMPOSITE 1 0 0 0 1 0 0 0 1\nTAU0\n": "line 2: content after COMPOSITE",
    "SHEAR 1 0 0\nCOMPOSITE 1 0 0 0 1 0 0 0 1\n": "line 1: SHEAR needs 4 integers",
    "COMPOSITE 1 0 0 0 1 0 0 0 2\n": "stated composite [[1, 0, 0], [0, 1, 0], [0, 0, 2]] "
                                      "does not match block product [[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
    "TAU23\nCOMPOSITE 1 0 0 0 1 0 0 0 1\n": "stated composite [[1, 0, 0], [0, 1, 0], [0, 0, 1]] "
                                             "does not match block product [[1, 0, 0], [0, 0, 1], [0, 1, 0]]",
    "SHEAR 1 x 0 1\nCOMPOSITE 1 0 0 0 1 0 0 0 1\n": "line 1: SHEAR needs integers",
    "TAU0\nCOMPOSITE 1 0 0 0 1 0 0 0\n": "line 2: COMPOSITE needs 9 integers",
    "COMPOSITE 1 0 0 0 1 0 0 0 one\n": "line 1: COMPOSITE needs integers",
    "TAUEMPTY 0\nCOMPOSITE 1 0 0 0 1 0 0 0 1\n": "line 1: TAUEMPTY takes no arguments",
    "tau0\nCOMPOSITE 1 0 0 0 1 0 0 0 1\n": "line 1: unknown block 'tau0'",
}


class TestPlanSerialization:
    def test_round_trip(self):
        for plan in [
            luttinger_plan(2, -3),
            log_transform_plan(((0, 1), (-1, 7))),
            surgery_plan_general(identity(3)),
        ]:
            text = serialize_plan(plan)
            back = parse_plan(text)
            assert back.composite == plan.composite
            assert [b.kind for b in back.blocks] == [b.kind for b in plan.blocks]
            assert serialize_plan(back) == text

    def test_text_shape(self):
        text = serialize_plan(luttinger_plan(0, 0))
        lines = text.splitlines()
        assert lines[0] == "COMPLEMENT"
        assert lines[-1] == "COMPOSITE 1 0 0 0 1 0 0 0 1"
        assert text.endswith("\n")

    @pytest.mark.parametrize("bad", list(PARSE_REJECTS))
    def test_parse_rejects(self, bad):
        with pytest.raises(DiagramError) as err:
            parse_plan(bad)
        assert str(err.value) == PARSE_REJECTS[bad]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_luttinger_serialization_round_trip(self, m, n):
        plan = luttinger_plan(m, n)
        assert parse_plan(serialize_plan(plan)).composite == plan.composite


def perturbed(m, cell, delta):
    rows = [list(row) for row in m]
    rows[cell // 2][cell % 2] += delta
    return tuple(map(tuple, rows))


small_payloads = st.tuples(*[st.integers(-3, 3)] * 4).map(lambda t: (t[:2], t[2:]))
payloads = st.one_of(
    small_payloads,
    sl2_payloads(),
    st.builds(perturbed, sl2_payloads(), st.integers(0, 3), st.integers(-2, 2)),
)


class TestPlanBlockContract:
    """PlanBlock checks a shear's payload where the block is built, so
    every plan that builds round-trips through its file."""

    @settings(max_examples=300, deadline=None)
    @given(payloads)
    def test_shear_builds_iff_det_is_one(self, m):
        (p, q), (r, s) = m
        if p * s - q * r == 1:
            assert PlanBlock("shear", m).shear == m
        else:
            with pytest.raises(NotSL2) as err:
                PlanBlock("shear", m)
            assert str(err.value) == f"shear payload must have determinant 1, got {p * s - q * r}"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(plan_blocks, max_size=30))
    def test_plans_with_random_shears_round_trip(self, blocks):
        plan = SurgeryPlan(tuple(blocks))
        assert plan.composite == block_product(blocks)
        assert parse_plan(serialize_plan(plan)) == plan

    @settings(max_examples=60, deadline=None)
    @given(sl2_payloads())
    def test_trusted_shears_pass_the_check(self, a):
        m = [[1, 0, 0], [0, a[0][0], a[0][1]], [0, a[1][0], a[1][1]]]
        for plan in (log_transform_plan(a), surgery_plan_general(m)):
            for b in plan.blocks:
                assert PlanBlock(b.kind, b.shear) == b

    @pytest.mark.parametrize("shear,message", [
        (((1, 2), (3, 4)), "shear payload must have determinant 1, got -2"),
        (((1.0, 0), (0, 1)), "shear payload entries must be integers, got 1.0"),
        (((1, True), (0, 1)), "shear payload entries must be integers, got True"),
        ([[1, 0], [0, 1]], "shear payload must be 2x2"),
        (((1, 0), [0, 1]), "shear payload must be 2x2"),
        (((1, 0, 0), (0, 1, 0)), "shear payload must be 2x2"),
    ])
    def test_off_contract_shears_are_refused_when_built(self, shear, message):
        with pytest.raises(NotSL2) as err:
            PlanBlock("shear", shear)
        assert str(err.value) == message


class TestFrozenPlan:
    """A plan is its blocks: the composite is derived on each read, so a
    plan cannot disagree with its file, and it hashes and copies."""

    def test_mutating_a_read_of_the_composite_changes_nothing(self):
        plan = luttinger_plan(2, 3)
        plan.composite[0][2] = 99
        assert plan.composite == [[1, 0, 2], [0, 1, 3], [0, 0, 1]]
        assert parse_plan(serialize_plan(plan)) == plan
        assert hash(plan) == hash(luttinger_plan(2, 3))
        assert copy.deepcopy(plan) == plan
        assert pickle.loads(pickle.dumps(plan)) == plan
