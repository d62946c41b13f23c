import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect.diagram import Fraction, parse_fraction, validate_cut_system
from trisect.errors import DiagramError, FormUndefined, NotNeighbors
from trisect.farey import (
    CP2_MINUS,
    CP2_PLUS,
    S2TWS2,
    S2XS2,
    FareyClassification,
    FareyTriple,
    SpunLens,
    atlas_rows,
    classify,
    dmet,
    enumerate_triples,
    farey_homology_model,
    fraction_universe,
    mediants,
    qx,
    triple_kind,
)
from trisect.invariants import first_homology
from trisect.zmatrix import classify_unimodular, determinant, sym_form_invariants


def F(text):
    return parse_fraction(text)


def T(a, b, c):
    return FareyTriple(F(a), F(b), F(c))


class TestDmet:
    @pytest.mark.parametrize("x,y,d", [
        ("1/1", "1/2", 1),
        ("3/5", "3/5", 0),
        ("0/1", "1/0", -1),
    ])
    def test_examples(self, x, y, d):
        assert dmet(F(x), F(y)) == d

    def test_antisymmetric(self):
        for x, y in [("1/2", "3/4"), ("1/0", "5/7"), ("0/1", "0/1")]:
            assert dmet(F(x), F(y)) == -dmet(F(y), F(x))

    def test_one_definition(self):
        import trisect
        from trisect import diagram

        assert dmet is diagram.dmet is trisect.dmet


class TestTripleKind:
    @pytest.mark.parametrize("t,kind", [
        (("1/1", "1/2", "2/3"), "FareyTriplet"),
        (("0/1", "1/1", "1/1"), "TwoDistinct"),
        (("0/1", "2/1", "1/1"), "Invalid"),
        (("1/2", "1/2", "1/2"), "AllEqual"),
    ])
    def test_examples(self, t, kind):
        assert triple_kind(T(*t)) == kind

    def test_distinct_but_not_neighbors(self):
        # three distinct fractions, one pair at distance 2
        assert triple_kind(T("0/1", "1/2", "1/1")) == "FareyTriplet"
        assert triple_kind(T("0/1", "2/5", "1/3")) == "Invalid"


class TestQx:
    def test_spot_value(self):
        assert qx(T("1/1", "1/2", "2/3")) == [[2, -1, 1], [-1, 0, 0], [1, 0, -1]]

    def test_two_distinct_block(self):
        assert qx(T("0/1", "1/1", "1/1")) == [[-1, -1], [-1, 0]]

    def test_all_equal_undefined(self):
        with pytest.raises(FormUndefined):
            qx(T("1/2", "1/2", "1/2"))

    def test_invalid_undefined(self):
        with pytest.raises(FormUndefined):
            qx(T("0/1", "2/1", "1/1"))

    def test_symmetric_and_unimodular(self):
        m = qx(T("1/1", "1/2", "2/3"))
        assert m == [list(r) for r in zip(*m)]
        assert determinant(m) in (1, -1)


class TestClassify:
    def test_triplet_example(self):
        cls = classify(T("1/1", "1/2", "2/3"))
        assert cls.manifold == CP2_MINUS
        assert sym_form_invariants(qx(T("1/1", "1/2", "2/3"))).signature == -1

    def test_positive_signature_triplet(self):
        cls = classify(T("0/1", "1/0", "1/1"))
        assert cls.manifold in (CP2_PLUS, CP2_MINUS)

    def test_two_distinct_parity(self):
        assert classify(T("0/1", "1/1", "1/1")).manifold == S2TWS2  # bd = 1
        assert classify(T("1/0", "1/1", "1/1")).manifold == S2XS2   # bd = 0

    def test_spun_lens(self):
        cls = classify(T("1/2", "1/2", "1/2"))
        assert cls.manifold == SpunLens(2, 1)
        assert str(cls.manifold) == "SpunLens(2,1)"

    def test_invalid(self):
        cls = classify(T("0/1", "2/1", "1/1"))
        assert cls.kind == "Invalid" and cls.manifold is None

    def test_refined_names(self):
        assert classify(T("1/1", "1/2", "2/3")).refined == ("CP2bar", S2TWS2)
        assert classify(T("0/1", "1/1", "1/1")).refined == ("S4", S2TWS2)

    def test_permutation_invariance(self):
        triples = [
            ("1/1", "1/2", "2/3"),
            ("0/1", "1/1", "1/1"),
            ("1/2", "1/2", "1/2"),
            ("1/0", "0/1", "1/1"),
        ]
        for t in triples:
            kinds = set()
            manifolds = set()
            for perm in itertools.permutations(t):
                cls = classify(T(*perm))
                kinds.add(cls.kind)
                manifolds.add(str(cls.manifold))
            assert len(kinds) == 1 and len(manifolds) == 1

    def test_triplet_sign_matches_form_signature(self):
        # classify reads the sign off the form class; the eliminated
        # signature of the canonically ordered triple is the reference
        seen = set()
        for t, cls in enumerate_triples(6):
            if cls.kind != "FareyTriplet":
                continue
            canon = FareyTriple(*sorted(t, key=lambda f: (f.den, f.num)))
            signature = sym_form_invariants(qx(canon)).signature
            assert cls.form.kind == "odd_indefinite"
            assert cls.form.params == ((2, 1) if signature == 1 else (1, 2))
            assert cls.manifold == (CP2_PLUS if signature == 1 else CP2_MINUS)
            seen.add(signature)
        assert seen == {1, -1}


def reference_classify(t):
    """`classify` as it was before the closed form: eliminate qx."""
    kind = triple_kind(t)
    if kind == "Invalid":
        return FareyClassification(kind, None, None, None)
    if kind == "AllEqual":
        return FareyClassification(kind, SpunLens(t.x.den, t.x.num), None, classify_unimodular([]))
    if kind == "TwoDistinct":
        form = classify_unimodular(qx(t))
        counts = Counter(t)
        lone, repeated = sorted(counts, key=counts.__getitem__)
        bundle = S2XS2 if (lone.den * repeated.den) % 2 == 0 else S2TWS2
        return FareyClassification(kind, bundle, ("S4", bundle), form)
    canon = FareyTriple(*sorted(t, key=lambda f: (f.den, f.num)))
    form = classify_unimodular(qx(canon))
    if form.params == (2, 1):
        return FareyClassification(kind, CP2_PLUS, ("CP2", S2TWS2), form)
    return FareyClassification(kind, CP2_MINUS, ("CP2bar", S2TWS2), form)


def assert_same_classification(t):
    cls, ref = classify(t), reference_classify(t)
    assert (cls.kind, cls.manifold, cls.refined, cls.form) == (
        ref.kind, ref.manifold, ref.refined, ref.form), str(t)
    return cls


@st.composite
def farey_neighbors(draw):
    """Fractions x, y at Farey distance +-1 with entries of up to 64 bits:
    extended Euclid gives ad - bc = 1, then y moves along the neighbors of x."""
    bound = 2 ** 64
    x = Fraction.of(draw(st.integers(-bound, bound)), draw(st.integers(1, bound)))
    a, b = x.num, x.den
    d = pow(a, -1, b)  # a*d = 1 (mod b)
    c = (a * d - 1) // b
    k = draw(st.integers(-bound, bound))
    return x, Fraction.of(c + k * a, d + k * b)


class TestClosedFormAgainstElimination:
    def test_every_atlas_triple(self):
        seen = set()
        for t, cls in enumerate_triples(20):
            assert_same_classification(t)
            seen.add((cls.kind, str(cls.form)))
        assert seen == {
            ("AllEqual", "zero"),
            ("TwoDistinct", "even_indefinite(1,)"),
            ("TwoDistinct", "odd_indefinite(1, 1)"),
            ("FareyTriplet", "odd_indefinite(2, 1)"),
            ("FareyTriplet", "odd_indefinite(1, 2)"),
        }

    @settings(max_examples=300, deadline=None)
    @given(farey_neighbors(), st.booleans(), st.booleans(), st.permutations(range(3)))
    def test_wide_triplets_and_two_distinct(self, pair, plus, two_distinct, order):
        x, y = pair
        if two_distinct:
            third = y
        elif plus:
            third = Fraction.of(x.num + y.num, x.den + y.den)
        else:
            third = Fraction.of(x.num - y.num, x.den - y.den)
        fracs = (x, y, third)
        t = FareyTriple(*(fracs[i] for i in order))
        cls = assert_same_classification(t)
        assert cls.kind == ("TwoDistinct" if two_distinct else "FareyTriplet")


class TestMediants:
    def test_examples(self):
        assert mediants(F("1/1"), F("1/2")) == (F("2/3"), F("0/1"))
        assert mediants(F("0/1"), F("1/0")) == (F("1/1"), F("-1/1"))

    def test_not_neighbors(self):
        with pytest.raises(NotNeighbors):
            mediants(F("1/1"), F("1/3"))

    def test_completion_property(self):
        pairs = [("1/1", "1/2"), ("0/1", "1/0"), ("2/3", "1/2"), ("-1/1", "0/1")]
        for x, y in pairs:
            for m in mediants(F(x), F(y)):
                assert triple_kind(T(x, y, str(m))) == "FareyTriplet"


class TestEnumeration:
    def test_universe_max_den_1(self):
        assert {str(f) for f in fraction_universe(1)} == {"1/0", "0/1", "1/1", "-1/1"}

    def test_universe_max_den_0(self):
        assert [str(f) for f in fraction_universe(0)] == ["1/0"]

    def test_max_den_0_triples(self):
        out = list(enumerate_triples(0))
        assert len(out) == 1
        t, cls = out[0]
        assert cls.kind == "AllEqual" and str(t) == "1/0 1/0 1/0"

    def test_max_den_1_contains_triplet(self):
        kinds = {str(t): cls.kind for t, cls in enumerate_triples(1)}
        assert kinds["1/0 0/1 1/1"] == "FareyTriplet"

    def test_count_matches_brute_force(self):
        # independent oracle: test every ordered triple, count unordered reps
        univ = fraction_universe(5)
        fast = sum(1 for _ in enumerate_triples(5))
        slow = 0
        for i, x in enumerate(univ):
            for j in range(i, len(univ)):
                for k in range(j, len(univ)):
                    t = FareyTriple(x, univ[j], univ[k])
                    if triple_kind(t) != "Invalid":
                        slow += 1
        assert fast == slow

    def test_atlas_row_shape(self):
        rows = list(atlas_rows(1))
        for row in rows:
            assert set(row) == {"triple", "kind", "manifold", "refined",
                                "rank", "signature", "parity", "det"}
        kinds = {r["kind"] for r in rows}
        assert kinds == {"AllEqual", "TwoDistinct", "FareyTriplet"}

    def test_atlas_invariants_match_elimination(self):
        # atlas_rows reads the invariants off the form class; eliminating
        # qx of the same triple is the reference
        form_kinds = set()
        for (t, cls), row in zip(enumerate_triples(15), atlas_rows(15)):
            assert row["triple"] == str(t)
            if cls.kind == "AllEqual":
                assert (row["rank"], row["signature"], row["parity"], row["det"]) == (0, 0, "Even", 1)
                continue
            inv = sym_form_invariants(qx(t))
            assert (row["rank"], row["signature"], row["parity"], row["det"]) == (
                inv.rank, inv.signature, inv.parity, inv.det)
            form_kinds.add(cls.form.kind)
        assert form_kinds == {"odd_indefinite", "even_indefinite"}


class TestHomologyModel:
    def test_invalid_triple_rejected(self):
        with pytest.raises(NotNeighbors):
            farey_homology_model(T("0/1", "2/1", "1/1"))

    @pytest.mark.parametrize("t,h1", [
        (("1/2", "1/2", "1/2"), "Z/2"),
        (("1/1", "1/2", "2/3"), "0"),
        (("0/1", "1/1", "1/1"), "0"),
        (("3/5", "3/5", "3/5"), "Z/5"),
        (("1/0", "1/0", "1/0"), "Z"),
    ])
    def test_h1(self, t, h1):
        assert first_homology(farey_homology_model(T(*t))).h1_str() == h1

    def test_cut_systems_validate(self):
        d = farey_homology_model(T("1/1", "1/2", "2/3"))
        lat = d.lattice()
        for s in (d.alpha, d.beta, d.gamma):
            assert all(v.advisory for v in validate_cut_system(s, lat))

    def test_pairwise_heegaard_condition(self):
        """Any two of the three systems must present a genus-3 splitting of
        a closed 3-manifold with free H1 and no torsion (rank deficit <= 1)."""
        from trisect.zmatrix import cokernel_invariants
        for t in [("1/2", "1/2", "1/2"), ("1/1", "1/2", "2/3"), ("1/0", "1/0", "1/0")]:
            d = farey_homology_model(T(*t))
            for s1, s2 in itertools.combinations((d.alpha, d.beta, d.gamma), 2):
                cols = [list(v) for v in s1.classes + s2.classes]
                m = [[col[r] for col in cols] for r in range(6)]
                inv = cokernel_invariants(m)
                assert inv.free_rank <= 1
                assert inv.torsion == ()
