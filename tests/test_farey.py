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
    _class_of,
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
from trisect.zmatrix import FormClass, classify_unimodular, determinant, sym_form_invariants


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
def farey_neighbors(draw, bound=2 ** 64):
    """Fractions x, y at Farey distance +-1 with entries of up to `bound`
    (64 bits by default): extended Euclid gives ad - bc = 1, then y moves
    along the neighbors of x."""
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


# ---------------------------------------------------------------------------
# the integer row path against test-local copies of the code it replaced,
# which compared, hashed and counted Fractions and called dmet per pair
# ---------------------------------------------------------------------------

def dmet_enumeration(max_den):
    """`enumerate_triples` as it was, without classifications: one dmet
    call per pair of the universe, then neighbour-set intersections."""
    universe = fraction_universe(max_den)
    n = len(universe)
    neighbors = [set() for _ in range(n)]
    for i in range(n):
        neighbors[i].add(i)
        for j in range(i + 1, n):
            if abs(dmet(universe[i], universe[j])) <= 1:
                neighbors[i].add(j)
                neighbors[j].add(i)
    for i in range(n):
        for j in sorted(neighbors[i]):
            if j < i:
                continue
            for k in sorted(neighbors[i] & neighbors[j]):
                if k < j:
                    continue
                yield FareyTriple(universe[i], universe[j], universe[k])


def set_kind(t):
    """`triple_kind` as it was: dmet on each pair, then a set of fractions."""
    if any(abs(dmet(u, v)) > 1 for u, v in ((t.x, t.y), (t.x, t.z), (t.y, t.z))):
        return "Invalid"
    return {1: "AllEqual", 2: "TwoDistinct", 3: "FareyTriplet"}[len({t.x, t.y, t.z})]


def count_split(t):
    """(lone, repeated) of a two-distinct triple by `list.count`."""
    fracs = [t.x, t.y, t.z]
    for f in fracs:
        if fracs.count(f) == 1:
            lone = f
        else:
            repeated = f
    return lone, repeated


def sorted_corner(x, y, z):
    a, b, c, d, p, q = x.num, x.den, y.num, y.den, z.num, z.den
    return (b * p - a * q) * (c * q - d * p) * (b * c - a * d)


def count_classify(t):
    """`classify` as it was: the set kind, the lone fraction by count, and
    the corner of the triplet sorted as Fractions by (den, num)."""
    kind = set_kind(t)
    if kind == "Invalid":
        return FareyClassification(kind, None, None, None)
    if kind == "AllEqual":
        return FareyClassification(kind, SpunLens(t.x.den, t.x.num), None, FormClass("zero"))
    if kind == "TwoDistinct":
        lone, repeated = count_split(t)
        if (lone.den * repeated.den) % 2 == 0:
            return FareyClassification(kind, S2XS2, ("S4", S2XS2), FormClass("even_indefinite", (1,)))
        return FareyClassification(kind, S2TWS2, ("S4", S2TWS2), FormClass("odd_indefinite", (1, 1)))
    if sorted_corner(*sorted(t, key=lambda f: (f.den, f.num))) == 1:
        return FareyClassification(kind, CP2_PLUS, ("CP2", S2TWS2), FormClass("odd_indefinite", (2, 1)))
    return FareyClassification(kind, CP2_MINUS, ("CP2bar", S2TWS2), FormClass("odd_indefinite", (1, 2)))


def count_qx(t):
    """`qx` as it was, with the set kind and the count split."""
    kind = set_kind(t)
    if kind == "FareyTriplet":
        a, b, c, d, p, q = t.x.num, t.x.den, t.y.num, t.y.den, t.z.num, t.z.den
        off = b * (c * q - d * p) * (b * c - a * d)
        return [[b * d * (a * d - b * c), -1, off], [-1, 0, 0], [off, 0, sorted_corner(*t)]]
    if kind == "TwoDistinct":
        lone, repeated = count_split(t)
        a, b, c, d = lone.num, lone.den, repeated.num, repeated.den
        return [[b * d * (a * d - b * c), -1], [-1, 0]]
    return None


def assert_matches_counting_code(t):
    assert triple_kind(t) == set_kind(t), str(t)
    assert classify(t) == count_classify(t), str(t)
    try:
        form = qx(t)
    except FormUndefined:
        form = None
    assert form == count_qx(t), str(t)


@st.composite
def slope_triples(draw, bound=2 ** 64):
    """Three slopes in any order and with any repeats: 1/0, small ones
    (often neighbours, often not), wide ones of up to `bound`, and a Farey
    neighbour with both mediants of it."""
    small = st.builds(Fraction.of, st.integers(-6, 6), st.integers(1, 6))
    wide = st.builds(Fraction.of, st.integers(-bound, bound), st.integers(1, bound))
    x, y = draw(farey_neighbors(bound))
    pool = [Fraction(1, 0), x, y, Fraction.of(x.num + y.num, x.den + y.den),
            Fraction.of(x.num - y.num, x.den - y.den), draw(small), draw(small), draw(wide)]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=3))
    return FareyTriple(*(pool[i] for i in picks))


class TestIntegerRowPath:
    def test_enumeration_every_cap_to_30(self):
        for max_den in range(31):
            rows = list(enumerate_triples(max_den))
            assert [t for t, _ in rows] == list(dmet_enumeration(max_den)), max_den
            for t, cls in rows:
                assert cls == count_classify(t), str(t)

    @settings(max_examples=3, deadline=None)
    @given(st.integers(31, 60))
    def test_enumeration_random_caps_to_60(self, max_den):
        assert [t for t, _ in enumerate_triples(max_den)] == list(dmet_enumeration(max_den))

    def test_every_ordered_triple_of_a_small_universe(self):
        univ = fraction_universe(3)
        for t in itertools.product(univ, repeat=3):
            assert_matches_counting_code(FareyTriple(*t))

    @settings(max_examples=400, deadline=None)
    @given(slope_triples())
    def test_random_triples(self, t):
        assert_matches_counting_code(t)


# ---------------------------------------------------------------------------
# atlas rows from shared classifications against a test-local copy of the
# row code they replaced, which built every column of every row afresh
# ---------------------------------------------------------------------------

def fresh_atlas_rows(max_den):
    """`atlas_rows` as it was: a new classification per row, the form
    invariants derived per row, and the triple through Fraction.__str__."""
    for t, _ in enumerate_triples(max_den):
        yield fresh_row(t, count_classify(t))


def fresh_row(t, cls):
    """The atlas row of triple t with classification cls, every column
    built afresh."""
    form = cls.form
    if cls.kind == "AllEqual":
        rank, signature, parity, det = 0, 0, "Even", 1
    elif form.kind == "odd_indefinite":
        p, m = form.params
        rank, signature, parity, det = p + m, p - m, "Odd", (-1) ** m
    else:
        (h,) = form.params
        rank, signature, parity, det = 2 * h, 0, "Even", (-1) ** h
    return {
        "triple": " ".join(map(str, t)),
        "kind": cls.kind,
        "manifold": str(cls.manifold),
        "refined": f"{cls.refined[0]}#{cls.refined[1]}" if cls.refined else "",
        "rank": rank,
        "signature": signature,
        "parity": parity,
        "det": det,
    }


def assert_rows_match_fresh_rows(max_den):
    rows, fresh = list(atlas_rows(max_den)), list(fresh_atlas_rows(max_den))
    assert rows == fresh, max_den
    # --json writes the keys in dict order
    assert [list(r.items()) for r in rows] == [list(r.items()) for r in fresh], max_den


slopes = st.one_of(
    st.just(Fraction(1, 0)),
    st.builds(Fraction.of, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70)),
    st.builds(Fraction.of, st.integers(-9, 9), st.integers(1, 9)),
)


class TestSharedRows:
    def test_every_cap_to_20(self):
        for max_den in range(21):
            assert_rows_match_fresh_rows(max_den)

    @settings(max_examples=3, deadline=None)
    @given(st.integers(21, 40))
    def test_random_caps_to_40(self, max_den):
        assert_rows_match_fresh_rows(max_den)

    def test_changing_a_row_changes_no_later_row(self):
        seen = []
        for row in atlas_rows(8):
            seen.append(dict(row))
            for key in row:
                row[key] = None
            row["extra"] = 1
        assert seen == list(fresh_atlas_rows(8))

    @settings(max_examples=300, deadline=None)
    @given(slopes, slopes, slopes)
    def test_triple_text_is_fraction_text(self, x, y, z):
        t = FareyTriple(x, y, z)
        assert str(t) == " ".join(map(str, t))

    def test_triple_text_examples(self):
        assert str(T("1/0", "-1/1", "0/1")) == "1/0 -1/1 0/1"
        wide = Fraction(-(2 ** 65) - 1, 2 ** 64)
        assert str(FareyTriple(wide, wide, Fraction(1, 0))) == (
            f"-{2 ** 65 + 1}/{2 ** 64} -{2 ** 65 + 1}/{2 ** 64} 1/0")

    @pytest.mark.parametrize("t", [
        ("1/1", "1/2", "2/3"),   # CP2#CP2bar#CP2bar
        ("1/2", "1/1", "2/3"),   # CP2#CP2#CP2bar
        ("1/1", "1/1", "1/2"),   # S2xS2
        ("1/1", "1/1", "0/1"),   # S2x~S2
    ])
    def test_shared_classifications_are_immutable(self, t):
        cls = classify(T(*t))
        assert classify(T(*reversed(t))) is cls
        before = (cls.kind, cls.manifold, cls.refined, cls.form)
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(cls, name, None)
            with pytest.raises(AttributeError):
                delattr(cls, name)
        with pytest.raises(AttributeError):
            cls.form.kind = "zero"
        assert (cls.kind, cls.manifold, cls.refined, cls.form) == before


# ---------------------------------------------------------------------------
# atlas rows straight from integer slopes against the record path: the
# universe against a test-local copy of its Fraction.of filter, the
# integer rule against the classifications, and the literal all-equal
# rows against the rows of their classifications
# ---------------------------------------------------------------------------

def filtered_universe(max_den):
    """`fraction_universe` as it was: Fraction.of over the whole window,
    kept when already reduced with that denominator."""
    out = [Fraction(1, 0)]
    for den in range(1, max_den + 1):
        for num in range(-max_den, max_den + 1):
            f = Fraction.of(num, den)
            if f.den == den:
                out.append(f)
    return out


class TestRowsFromIntegers:
    def test_universe_every_cap_to_40(self):
        for max_den in range(41):
            assert fraction_universe(max_den) == filtered_universe(max_den), max_den

    def test_negative_cap_refused(self):
        with pytest.raises(NotNeighbors):
            fraction_universe(-1)
        with pytest.raises(NotNeighbors):
            next(atlas_rows(-1))

    def test_all_equal_rows_are_their_classifications_rows(self):
        universe = fraction_universe(30)
        assert universe[0] == Fraction(1, 0) and min(s.num for s in universe) == -30
        rows = [row for row in atlas_rows(30) if row["kind"] == "AllEqual"]
        assert len(rows) == len(universe)
        for s, row in zip(universe, rows):
            t = FareyTriple(s, s, s)
            assert list(row.items()) == list(fresh_row(t, classify(t)).items()), str(s)

    @settings(max_examples=400, deadline=None)
    @given(slope_triples(2 ** 80))
    def test_integer_rule_is_the_classification(self, t):
        x, y, z = t
        cls = _class_of(x.num, x.den, y.num, y.den, z.num, z.den)
        expected = count_classify(t)
        assert classify(t) == expected, str(t)
        if expected.kind == "AllEqual":
            assert cls is None, str(t)
        else:
            assert cls is classify(t) and cls == expected, str(t)


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
