import copy
import json
import pickle
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect.diagram import (
    COMMON_KEYS,
    SYSTEM_NAMES,
    BridgeData,
    CurveSystem,
    Fraction,
    StarDiagram,
    SymplecticLattice,
    TrisectionParams,
    Violation,
    _bias,
    _nonzero_digits,
    _pack,
    _packed_rows,
    _violations,
    _width,
    diagram_ok,
    format_params,
    genus1_pair_kind,
    parse_diagram,
    parse_fraction,
    parse_params,
    serialize_diagram,
    validate_cut_system,
    validate_diagram,
    validate_standard_pair,
)
from trisect.errors import DiagramError, TrisectError, VectorLength
from trisect.invariants import _alpha_quotient, first_homology
from trisect.zmatrix import cokernel_invariants


def cp2_text():
    return json.dumps({
        "basis": "e1 f1",
        "genus": 1,
        "boundary": 0,
        "alpha": [[1, 0]],
        "beta": [[0, 1]],
        "gamma": [[1, 1]],
    })


class TestFraction:
    @pytest.mark.parametrize("text,num,den", [
        ("1/2", 1, 2),
        ("-3/7", -3, 7),
        ("1/0", 1, 0),
        ("2/4", 1, 2),      # reduced on input
        ("3/-6", -1, 2),    # sign moves to the numerator
        ("-1/0", 1, 0),     # single representative at infinity
        ("0/5", 0, 1),
    ])
    def test_parse(self, text, num, den):
        f = parse_fraction(text)
        assert (f.num, f.den) == (num, den)

    @pytest.mark.parametrize("bad", ["", "1", "x/y", "1/2/3", "0/0"])
    def test_parse_rejects(self, bad):
        message = {
            "x/y": "fraction 'x/y': parts must be integers",
            "0/0": "fraction 0/0 is undefined",
        }.get(bad, f"fraction {bad!r}: expected the form a/b")
        with pytest.raises(DiagramError) as err:
            parse_fraction(bad)
        assert str(err.value) == message

    def test_canonical_constructor(self):
        with pytest.raises(DiagramError):
            Fraction(2, 4)
        assert Fraction.of(2, 4) == Fraction(1, 2)


class TestCutSystem:
    def test_pairing_violation_on_extended_genus1(self):
        lat = SymplecticLattice(1)
        sys_ = CurveSystem("alpha", ((1, 0), (0, 1)))
        vs = validate_cut_system(sys_, lat)
        assert any(not v.advisory for v in vs)

    def test_disjoint_handles_clean(self):
        lat = SymplecticLattice(2)
        sys_ = CurveSystem("alpha", ((1, 0, 0, 0), (0, 0, 1, 0)))
        assert validate_cut_system(sys_, lat) == []

    def test_zero_vector_is_advisory(self):
        lat = SymplecticLattice(1)
        sys_ = CurveSystem("alpha", ((0, 0),))
        vs = validate_cut_system(sys_, lat)
        assert vs and all(v.advisory for v in vs)

    def test_wrong_length_raises(self):
        with pytest.raises(VectorLength):
            validate_cut_system(CurveSystem("alpha", ((1, 0, 0),)), SymplecticLattice(2))

    @pytest.mark.parametrize("alpha,beta,gamma", [
        # classical closed corpus: CP2, S1xS3, genus-1 stabilized S4
        (((1, 0),), ((0, 1),), ((1, 1),)),
        (((0, 1),), ((0, 1),), ((0, 1),)),
        (((1, 0),), ((1, 0),), ((0, 1),)),
    ])
    def test_corpus_accepted_and_flip_rejected(self, alpha, beta, gamma):
        lat = SymplecticLattice(1)
        for classes in (alpha, beta, gamma):
            assert validate_cut_system(CurveSystem("alpha", classes), lat) == []
        # two copies of a dual pair always break the pairing
        bad = CurveSystem("alpha", ((1, 0), (0, 1)))
        assert validate_cut_system(bad, lat) != []

    def test_entries_are_checked_when_the_system_is_built(self):
        # refused when built, so no float reaches the packing and no bool reads as 1
        with pytest.raises(DiagramError, match=r"^alpha\[0\]\[0\]: not an integer: 0.5$"):
            validate_cut_system(CurveSystem("alpha", ((0.5, 0), (0, 1))), SymplecticLattice(1))
        with pytest.raises(DiagramError, match=r"^alpha\[0\]\[0\]: not an integer: True$"):
            validate_cut_system(CurveSystem("alpha", ((True, 0), (0, 1))), SymplecticLattice(1))
        with pytest.raises(DiagramError, match=r"^alpha\[1\]: expected a tuple of integers$"):
            CurveSystem("alpha", ((1, 0), [0, 1]))

    @pytest.mark.parametrize("system,lattice", [
        (CurveSystem("alpha", ((1, 0),)), 1),
        (((1, 0),), SymplecticLattice(1)),
        (None, None),
    ])
    def test_non_system_or_lattice_refused(self, system, lattice):
        with pytest.raises(DiagramError, match=(
                "^validate_cut_system needs a CurveSystem and a SymplecticLattice$")):
            validate_cut_system(system, lattice)

    def test_wrong_length_message(self):
        with pytest.raises(VectorLength, match=r"^gamma\[1\]: length 3 != 4$"):
            validate_cut_system(CurveSystem("gamma", ((1, 0, 0, 0), (1, 0, 0))),
                                SymplecticLattice(2))


def validate_cut_system_per_pair(system, lattice):
    """validate_cut_system by its definition: each class checked for
    length and for zero, then one `lattice.pair` per pair of classes."""
    out = []
    for idx, v in enumerate(system.classes):
        if len(v) != lattice.dim:
            raise VectorLength(
                f"{system.label}[{idx}]: length {len(v)} != {lattice.dim}"
            )
        if all(x == 0 for x in v):
            out.append(Violation("zero_class", f"{system.label}[{idx}] is null", advisory=True))
    classes = system.classes
    for i, u in enumerate(classes):
        for j in range(i + 1, len(classes)):
            p = lattice.pair(u, classes[j])
            if p != 0:
                out.append(
                    Violation(
                        "pairing",
                        f"{system.label}[{i}] . {system.label}[{j}] = {p}, expected 0",
                    )
                )
    return out


BIG = 10 ** 30
ENTRY_KINDS = (
    st.integers(-1, 1),
    st.integers(-7, 7),
    st.sampled_from((0, 1, -1, BIG, -BIG, BIG + 1, -BIG + 1)),
    st.integers(-BIG, BIG),
)


@st.composite
def cut_systems(draw):
    """A genus 0-5 lattice and 0-6 classes of one entry kind, some of them zero."""
    genus = draw(st.integers(0, 5))
    entries = draw(st.sampled_from(ENTRY_KINDS))
    nonzero = st.lists(entries, min_size=2 * genus, max_size=2 * genus).map(tuple)
    zero = st.just((0,) * (2 * genus))
    classes = draw(st.lists(st.one_of(nonzero, zero), max_size=6))
    return SymplecticLattice(genus), CurveSystem(draw(st.sampled_from(SYSTEM_NAMES)), tuple(classes))


class TestPackedPairings:
    """validate_cut_system against the per-pair loop: the same violations
    in kind, message and order."""

    @settings(max_examples=400, deadline=None)
    @given(cut_systems())
    def test_matches_per_pair_loop(self, case):
        lattice, system = case
        assert validate_cut_system(system, lattice) == validate_cut_system_per_pair(system, lattice)

    @pytest.mark.parametrize("genus", [1, 2, 5])
    @pytest.mark.parametrize("top", [1, 3, BIG])
    def test_pairings_at_the_digit_bound(self, genus, top):
        # |u . v| reaches 2g * top^2, the most a digit of width w must hold
        u, v, minus = (top, -top) * genus, (top, top) * genus, (-top, -top) * genus
        system = CurveSystem("alpha", (u, v, minus, (0,) * (2 * genus), v, u))
        lattice = SymplecticLattice(genus)
        got = validate_cut_system(system, lattice)
        assert got == validate_cut_system_per_pair(system, lattice)
        assert f"alpha[0] . alpha[1] = {2 * genus * top * top}, expected 0" in [
            x.message for x in got]
        assert sum(x.kind == "pairing" for x in got) == 6  # u meets each +-v
        # |u|^2 = 2g * top^2 = |u . v|: the Cauchy-Schwarz width is tight here
        assert _width(system.classes) == (2 * genus * top * top).bit_length() + 1


def packed_by_definition(classes, w, dim, spans):
    """Each span's columns as their definition, one shift per entry."""
    return [[sum(v[k] << (w * t) for t, v in enumerate(classes[i:j])) for k in range(dim)]
            for i, j in spans]


# whole-byte widths: struct's 1-, 2-, 4- and 8-byte fields, the narrowed widths between
# them, and two past 64 bits, where the shift-sum packs
PACK_WIDTHS = (*range(8, 65, 8), 72, 128)


@st.composite
def packings(draw):
    """(classes, w, dim, spans): genus 0-4, 0-6 classes whose entries are
    any w-bit two's-complement values, with the field's edges, 0 and -1
    drawn often, some classes zero or all negative, and 0-3 spans of
    digit positions, empty ones included."""
    w = draw(st.sampled_from(PACK_WIDTHS))
    lo, hi = -1 << (w - 1), (1 << (w - 1)) - 1
    entries = st.one_of(st.sampled_from((0, -1, 1, lo, lo + 1, hi - 1, hi)), st.integers(lo, hi))
    dim = 2 * draw(st.integers(0, 4))
    vectors = st.lists(entries, min_size=dim, max_size=dim).map(tuple)
    special = st.sampled_from(((0,) * dim, (-1,) * dim, (lo,) * dim, (hi,) * dim))
    classes = tuple(draw(st.lists(st.one_of(vectors, special), max_size=6)))
    cut = st.integers(0, len(classes))
    spans = draw(st.lists(st.tuples(cut, cut).map(sorted).map(tuple), max_size=3))
    return classes, w, dim, spans


class TestPack:
    """_pack against its definition, sum_j v_j[k] * 2^(w*j) per column and
    span, at every whole-byte width the byte buffer takes and past it."""

    @settings(max_examples=500, deadline=None)
    @given(packings())
    def test_matches_definition(self, case):
        assert _pack(*case) == packed_by_definition(*case)

    @pytest.mark.parametrize("w", PACK_WIDTHS)
    @pytest.mark.parametrize("classes,dim", [
        ((), 4),                                # no classes: dim zero columns
        (((),) * 3, 0),                         # genus 0: no columns
        (((0, 0),) * 4, 2),                     # zero columns
        (((-1, -2), (-3, -1), (-1, -1)), 2),    # negative columns
        (((0, -1), (0, 0), (0, -1), (0, 0)), 2),  # a zero and a negative column
    ])
    def test_edge_shapes(self, w, classes, dim):
        lo, hi = -1 << (w - 1), (1 << (w - 1)) - 1
        n = len(classes)
        spans = [(0, n), (0, 0), (n, n), (1 % (n + 1), n), (0, n // 2)]
        edges = tuple(tuple(lo if x < -1 else x for x in v) for v in classes)
        for case in (classes, edges, tuple(tuple(hi for _ in v) for v in classes)):
            assert _pack(case, w, dim, spans) == packed_by_definition(case, w, dim, spans)


class TestPairingRows:
    """_packed_rows of us against a packing of vs at the whole-byte width,
    each row read by _nonzero_digits, against one pairing per pair: every
    nonzero pairing at its digit position and no other, with the two sides
    drawn from different entry kinds, so digits of every width are read."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4), st.sampled_from(ENTRY_KINDS), st.sampled_from(ENTRY_KINDS),
           st.data())
    def test_matches_pairwise(self, genus, u_entries, v_entries, data):
        lattice = SymplecticLattice(genus)
        us, vs = (data.draw(st.lists(st.lists(entries, min_size=2 * genus, max_size=2 * genus)
                                     .map(tuple), max_size=5))
                  for entries in (u_entries, v_entries))
        w = (_width(chain(us, vs)) + 7) & -8
        rows = list(_packed_rows(us, _pack(vs, w, lattice.dim, [(0, len(vs))])[0]))
        assert len(rows) == len(us)
        for u, row in zip(us, rows):
            want = [lattice.pair(u, v) for v in vs]
            assert list(_nonzero_digits(row, _bias(w, len(vs)), w)) == [
                (j, x) for j, x in enumerate(want) if x]
            assert (row == 0) == (not any(want))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.data())
    def test_width_bounds_every_pairing(self, genus, data):
        # the Cauchy-Schwarz width holds every pairing and is never wider
        # than the width off the largest entry, 2g * top^2
        lattice = SymplecticLattice(genus)
        zero = st.just((0,) * (2 * genus))
        classes = data.draw(st.lists(st.one_of(
            zero, st.lists(data.draw(st.sampled_from(ENTRY_KINDS)), min_size=2 * genus,
                           max_size=2 * genus).map(tuple)), max_size=6))
        w = _width(classes)
        assert all(abs(lattice.pair(u, v)) < 1 << (w - 1) for u in classes for v in classes)
        top = max(map(abs, chain.from_iterable(classes)), default=0)
        assert w <= (2 * genus * top * top).bit_length() + 1


@st.composite
def star_diagrams(draw):
    """A genus 0-4 diagram, each system of 0 to g + 2 classes of its own
    entry kind, some of them zero, repeated in the system, or shared by
    beta and gamma under a common claim; most draws are not cut systems."""
    genus = draw(st.integers(0, 4))
    zero = (0,) * (2 * genus)
    systems = []
    for _ in SYSTEM_NAMES:
        nonzero = st.lists(draw(st.sampled_from(ENTRY_KINDS)), min_size=2 * genus,
                           max_size=2 * genus).map(tuple)
        classes = draw(st.lists(st.one_of(nonzero, st.just(zero)), max_size=genus + 2))
        if classes and draw(st.booleans()):
            classes.insert(draw(st.integers(0, len(classes))), draw(st.sampled_from(classes)))
        systems.append(classes)
    beta, gamma = systems[1], systems[2]
    common = {}
    shared = min(len(beta), len(gamma))
    if shared and draw(st.booleans()):
        i = draw(st.integers(0, shared - 1))
        gamma[i] = beta[i]
        common["beta_gamma"] = [i]
    return StarDiagram(genus, draw(st.integers(0, 2)),
                       *(CurveSystem(name, tuple(c)) for name, c in zip(SYSTEM_NAMES, systems)),
                       common=common)


def pairing_per_pair(d):
    """The alpha pairing matrix as one pairing per pair: for each distinct
    nonzero alpha class, in file order, {digit position: pairing} over
    every beta and gamma class, nonzero pairings only."""
    lattice, alpha = d.lattice(), d.alpha.classes
    return {u: {j: x for j, v in enumerate(d.beta.classes + d.gamma.classes, len(alpha))
                if (x := lattice.pair(u, v))}
            for u in alpha if any(u)}


class TestDiagramPacking:
    """One packing per system, and one packed sum per alpha class for both
    validate_diagram and the sparse alpha pairing matrix, against one
    pairing per pair."""

    @settings(max_examples=400, deadline=None)
    @given(star_diagrams())
    def test_matches_per_pair_oracle(self, d):
        lattice = d.lattice()
        violations, pairing = _violations(d)
        assert violations == validate_diagram(d) == [
            v for name in SYSTEM_NAMES for v in validate_cut_system_per_pair(d.system(name), lattice)]
        assert list(pairing.items()) == list(pairing_per_pair(d).items())

    @pytest.mark.parametrize("genus", [1, 2, 5])
    @pytest.mark.parametrize("top", [1, 3, BIG])
    def test_alpha_pairings_at_the_digit_bound(self, genus, top):
        # alpha[0] . beta reads +-2g * top^2, the most a digit holds, at both ends
        u, v, minus = (top, -top) * genus, (top, top) * genus, (-top, -top) * genus
        # u and the e_k - f_k for k >= 2 span the primitive Lagrangian of all e_k - f_k
        rest = []
        for k in range(1, genus):
            vec = [0] * (2 * genus)
            vec[2 * k], vec[2 * k + 1] = 1, -1
            rest.append(tuple(vec))
        d = StarDiagram(genus, 0, CurveSystem("alpha", (u, *rest)),
                        CurveSystem("beta", (v, minus)), CurveSystem("gamma", (v,)),
                        common={"beta_gamma": [0]})
        violations, pairing = _violations(d)
        assert violations == []
        bound = 2 * genus * top * top
        # beta = (v, minus) sits at digits g and g + 1; gamma's v repeats
        # beta[0] at digit g + 2, a repeated column of P
        want = dict(zip(d.alpha.classes, [{genus: bound, genus + 1: -bound, genus + 2: bound}] + [
            {genus: 2 * top, genus + 1: -2 * top, genus + 2: 2 * top}] * (genus - 1)))
        assert list(pairing.items()) == list(pairing_per_pair(d).items()) == list(want.items())
        # a class with gcd top > 1 is in no primitive basis, so only top = 1 takes P
        assert (_alpha_quotient(d, pairing) is None) == (top > 1)
        classes = d.all_classes()
        inv = cokernel_invariants([[c[r] for c in classes] for r in range(2 * genus)])
        rep = first_homology(d)
        assert (rep.h1_free_rank, rep.h1_torsion) == (inv.free_rank, inv.torsion)

    @pytest.mark.parametrize("genus", [1, 2, 5])
    @pytest.mark.parametrize("top", [1, 3, BIG])
    def test_alpha_isotropy_at_the_digit_bound(self, genus, top):
        # alpha . alpha reads +-2g * top^2 in the low digits of rows read
        # against alpha + beta + gamma, whose high digits are nonzero too
        u, v, minus = (top, -top) * genus, (top, top) * genus, (-top, -top) * genus
        d = StarDiagram(genus, 0, CurveSystem("alpha", (u, v, minus)),
                        CurveSystem("beta", (v, u)), CurveSystem("gamma", (minus,)))
        violations, pairing = _violations(d)
        bound = 2 * genus * top * top
        assert violations == [v for name in SYSTEM_NAMES
                              for v in validate_cut_system_per_pair(d.system(name), d.lattice())]
        assert [x.message for x in violations] == [
            f"alpha[0] . alpha[1] = {bound}, expected 0",
            f"alpha[0] . alpha[2] = {-bound}, expected 0",
            f"beta[0] . beta[1] = {-bound}, expected 0"]
        # beta = (v, u) and gamma = (minus,) sit at digits 3, 4 and 5
        want = {u: {3: bound, 5: -bound}, v: {4: -bound}, minus: {4: bound}}
        assert list(pairing.items()) == list(pairing_per_pair(d).items()) == list(want.items())


def standard_pair_diagram(genus, alpha, beta, gamma, geo, common=()):
    return StarDiagram(genus, 0, CurveSystem("alpha", alpha), CurveSystem("beta", beta),
                       CurveSystem("gamma", gamma), common, geo)


class TestStandardPair:
    """validate_standard_pair reads the claims a diagram was built with."""

    def test_single_stab_pair(self):
        d = standard_pair_diagram(1, ((1, 0),), ((0, 1),), ((1, 1),),
                                  {("alpha", 0, "beta", 0): 1})
        assert validate_standard_pair(d, "alpha_beta") == []

    def test_pure_common(self):
        d = standard_pair_diagram(1, ((0, 1),), ((0, 1),), ((1, 1),),
                                  {("alpha", 0, "beta", 0): 0}, {"alpha_beta": [0]})
        assert validate_standard_pair(d, "alpha_beta") == []

    def test_double_point_fails(self):
        d = standard_pair_diagram(1, ((1, 0),), ((1, 1),), ((1, 1),),
                                  {("alpha", 0, "beta", 0): 2})
        assert validate_standard_pair(d, "alpha_beta") == [
            Violation("standard_pair", "alpha[0] meets beta[0] 2 times, expected 0 or 1")]

    def test_missing_geo_raises(self):
        d = standard_pair_diagram(1, ((1, 0),), ((0, 1),), ((1, 1),), {})
        with pytest.raises(DiagramError, match="missing geo"):
            validate_standard_pair(d, "alpha_beta")

    def test_nonzero_count_inside_one_system(self):
        e1, f1, e2, f2 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        geo = {("alpha", 0, "alpha", 1): 0, ("beta", 0, "beta", 1): 2,
               ("alpha", 0, "beta", 0): 1, ("alpha", 0, "beta", 1): 0,
               ("alpha", 1, "beta", 0): 0, ("alpha", 1, "beta", 1): 1}
        d = standard_pair_diagram(2, (e1, e2), (f1, f2), (e2,), geo)
        assert validate_standard_pair(d, "alpha_beta") == [
            Violation("standard_pair", "beta[0] meets beta[1] 2 times, expected 0")]

    def test_shared_curve_in_a_crossing_pair(self):
        e1, f1, e2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)
        geo = {("alpha", 0, "alpha", 1): 0, ("beta", 0, "beta", 1): 0,
               ("alpha", 0, "beta", 1): 1, ("alpha", 1, "beta", 0): 0,
               ("alpha", 1, "beta", 1): 0}
        d = standard_pair_diagram(2, (e1, e2), (e1, f1), (e2,), geo, {"alpha_beta": [0]})
        assert validate_standard_pair(d, "alpha_beta") == [
            Violation("standard_pair", "shared curve in a crossing pair (0,1)")]

    def test_common_claim_read_from_d(self):
        # gamma_alpha pairs are looked up in file order, alpha first
        classes = ((1, 0),), ((0, 1),), ((1, 0),)
        shared = standard_pair_diagram(1, *classes, {}, {"gamma_alpha": [0]})
        assert validate_standard_pair(shared, "gamma_alpha") == []
        with pytest.raises(DiagramError, match=r"^missing geo data for alpha\[0\] and gamma\[0\]$"):
            validate_standard_pair(standard_pair_diagram(1, *classes, {}), "gamma_alpha")
        # the claim belongs to gamma_alpha alone
        with pytest.raises(DiagramError, match="missing geo data for alpha"):
            validate_standard_pair(shared, "alpha_beta")
        twice = standard_pair_diagram(1, *classes, {("gamma", 0, "alpha", 0): 2})
        assert validate_standard_pair(twice, "gamma_alpha") == [
            Violation("standard_pair", "alpha[0] meets gamma[0] 2 times, expected 0 or 1")]

    def test_curve_reused_by_two_crossing_pairs(self):
        e1, f1, e2, f2 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        geo = {("alpha", 0, "alpha", 1): 0, ("beta", 0, "beta", 1): 0,
               ("alpha", 0, "beta", 0): 1, ("alpha", 0, "beta", 1): 1,
               ("alpha", 1, "beta", 0): 0, ("alpha", 1, "beta", 1): 0}
        d = standard_pair_diagram(2, (e1, e2), (f1, f2), (e2,), geo)
        assert validate_standard_pair(d, "alpha_beta") == [
            Violation("standard_pair", "curve reused by two crossing pairs (0,1)")]

    def test_unknown_pair_raises(self):
        d = standard_pair_diagram(1, ((1, 0),), ((0, 1),), ((1, 1),), {})
        with pytest.raises(DiagramError, match="^no system pair named 'alpha_gamma'$"):
            validate_standard_pair(d, "alpha_gamma")


class TestGenus1PairKind:
    @pytest.mark.parametrize("x,y,kind", [
        ("1/1", "1/2", "S3"),
        ("3/5", "3/5", "S1xS2"),
        ("0/1", "2/1", "Invalid"),
    ])
    def test_examples(self, x, y, kind):
        assert genus1_pair_kind(parse_fraction(x), parse_fraction(y)) == kind

    def test_symmetric(self):
        pairs = [("1/1", "1/2"), ("0/1", "1/0"), ("1/3", "2/5"), ("0/1", "2/1")]
        for x, y in pairs:
            fx, fy = parse_fraction(x), parse_fraction(y)
            assert genus1_pair_kind(fx, fy) == genus1_pair_kind(fy, fx)


class TestParseSerialize:
    def test_cp2_file(self):
        d = parse_diagram(cp2_text())
        assert d.genus == 1 and d.boundary == 0
        assert len(d.alpha.classes) == len(d.beta.classes) == len(d.gamma.classes) == 1
        assert diagram_ok(validate_diagram(d))

    def test_empty_gamma_torus(self):
        text = json.dumps({
            "basis": "e1 f1", "genus": 1, "boundary": 0,
            "alpha": [[0, 1]], "beta": [[0, 1]], "gamma": [],
        })
        d = parse_diagram(text)
        assert d.gamma.classes == ()
        assert diagram_ok(validate_diagram(d))

    def test_vector_length_error(self):
        text = json.dumps({
            "basis": "e1 f1 e2 f2", "genus": 2, "boundary": 0,
            "alpha": [[1, 0, 0]], "beta": [], "gamma": [],
        })
        with pytest.raises(VectorLength):
            parse_diagram(text)

    def test_unknown_field_rejected(self):
        obj = json.loads(cp2_text())
        obj["color"] = "blue"
        with pytest.raises(DiagramError, match="color"):
            parse_diagram(json.dumps(obj))

    def test_bad_basis_header(self):
        obj = json.loads(cp2_text())
        obj["basis"] = "x1 y1"
        with pytest.raises(DiagramError):
            parse_diagram(json.dumps(obj))

    def test_common_mismatch_rejected(self):
        obj = json.loads(cp2_text())
        obj["common"] = {"alpha_beta": [0]}   # (1,0) != (0,1)
        with pytest.raises(DiagramError, match="common"):
            parse_diagram(json.dumps(obj))

    def test_geo_duplicate_after_normalization(self):
        obj = json.loads(cp2_text())
        obj["geo"] = {"alpha.0:beta.0": 1, "beta.0:alpha.0": 1}
        with pytest.raises(DiagramError):
            parse_diagram(json.dumps(obj))

    def test_geo_pair_spelled_twice_is_named_in_normal_form(self):
        obj = json.loads(cp2_text())
        obj["geo"] = {"alpha.0:beta.0": 1, "alpha.00:beta.0": 1}
        with pytest.raises(DiagramError) as err:
            parse_diagram(json.dumps(obj))
        assert str(err.value) == "geo['alpha.0:beta.0']: duplicate pair after normalization"

    @pytest.mark.parametrize("change,message", [
        (lambda obj: [], "top level: expected an object"),
        (lambda obj: {k: v for k, v in obj.items() if k != "genus"}, "missing field 'genus'"),
        (lambda obj: {**obj, "alpha": 5}, "alpha: expected a list of class vectors"),
        (lambda obj: {**obj, "alpha": [5]}, "alpha[0]: expected a list of integers"),
        (lambda obj: {**obj, "geo": []}, "geo: expected an object"),
        (lambda obj: {**obj, "geo": {"alpha0:beta.0": 1}},
         'geo key \'alpha0:beta.0\': expected "system.index:system.index"'),
    ], ids=["top level list", "no genus", "alpha int", "alpha [int]", "geo list", "geo key"])
    def test_file_shape_refused(self, change, message):
        with pytest.raises(DiagramError) as err:
            parse_diagram(json.dumps(change(json.loads(cp2_text()))))
        assert type(err.value) is DiagramError
        assert str(err.value) == message

    def test_syntax_error_has_location(self):
        with pytest.raises(DiagramError, match="line"):
            parse_diagram("{ not json")

    def test_round_trip_is_identity(self):
        text = serialize_diagram(parse_diagram(cp2_text()))
        assert serialize_diagram(parse_diagram(text)) == text

    @pytest.mark.parametrize("common,geo", [
        ({"alpha_beta": (0,)}, {}),                      # classes differ
        ({"beta_gamma": (2,)}, {}),                      # index past the end
        ({"gamma_alpha": (-1,)}, {}),                    # negative index
        ({}, {("alpha", 0, "beta", 3): 1}),              # no beta[3]
        ({}, {("alpha", -1, "gamma", 0): 0}),            # negative index
        ({"alpha_beta": (1,)}, {("beta", 0, "gamma", 5): 2}),
    ])
    def test_parse_and_validate_agree_on_claims(self, common, geo):
        # the constructor validates the claims, and the parser's refusal is its refusal
        classes = {
            "alpha": ((1, 0, 0, 0), (0, 0, 1, 0)),
            "beta": ((0, 1, 0, 0), (0, 0, 1, 0)),
            "gamma": ((1, 1, 0, 0),),
        }
        with pytest.raises(DiagramError) as built:
            StarDiagram(2, 0, *(CurveSystem(n, c) for n, c in classes.items()), common, geo)
        text = json.dumps({
            "genus": 2,
            **{name: [list(v) for v in vecs] for name, vecs in classes.items()},
            "common": {key: list(indices) for key, indices in common.items()},
            "geo": {f"{a}.{i}:{b}.{j}": count for (a, i, b, j), count in geo.items()},
        })
        with pytest.raises(DiagramError) as parsed:
            parse_diagram(text)
        assert str(built.value) == str(parsed.value)
        assert str(built.value).startswith(("common.", "geo "))

    def test_round_trip_with_common_and_geo(self):
        obj = {
            "basis": "e1 f1 e2 f2", "genus": 2, "boundary": 1,
            "alpha": [[1, 0, 0, 0], [0, 0, 0, 0]],
            "beta": [[0, 1, 0, 0], [0, 0, 0, 0]],
            "gamma": [[1, 1, 0, 0]],
            "common": {"alpha_beta": [1]},
            "geo": {"alpha.0:beta.0": 1},
        }
        text = serialize_diagram(parse_diagram(json.dumps(obj)))
        d2 = parse_diagram(text)
        assert serialize_diagram(d2) == text
        assert d2.common == (("alpha_beta", (1,)),)
        assert d2.geo == ((("alpha", 0, "beta", 0), 1),)


class TestParams:
    def test_parse_format_round_trip(self):
        for lit in ["41;13,13,13", "3;1,1,1;2", "0;0,0,0", "51;13,13,23"]:
            assert format_params(parse_params(lit)) == lit

    def test_spaces_tolerated(self):
        assert parse_params("(41; 13, 13, 13)") == parse_params("41;13,13,13")

    @pytest.mark.parametrize("bad", ["", "1;2", "1;2,3", "1;2,3,4,5", "g;1,1,1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(DiagramError):
            parse_params(bad)

    def test_k_bound_enforced_closed(self):
        with pytest.raises(DiagramError):
            TrisectionParams(2, (3, 0, 0))
        with pytest.raises(DiagramError):
            TrisectionParams(2, (-1, 0, 0))

    def test_bridge_validation(self):
        p = parse_params("21;6,6,11").with_bridge(5, (1, 1, 1))
        assert p.bridge == BridgeData(5, (1, 1, 1))
        with pytest.raises(DiagramError):
            BridgeData(1, (2, 1, 1))     # b >= max(c) fails
        with pytest.raises(DiagramError):
            BridgeData(1, (0, 0, 0))     # max(c) >= 1 fails


def test_construct_diagram_directly():
    d = StarDiagram(
        1, 0,
        CurveSystem("alpha", ((1, 0),)),
        CurveSystem("beta", ((0, 1),)),
        CurveSystem("gamma", ((1, 1),)),
    )
    assert diagram_ok(validate_diagram(d))


# a class vector off the contract: the same error built by hand or parsed
BAD_CLASSES = [
    (2, "alpha", [1, 0, 0], VectorLength, "alpha[0]: length 3 != 4"),
    (1, "alpha", [2, 0.5], DiagramError, "alpha[0][1]: not an integer: 0.5"),
    (1, "beta", [True, 0], DiagramError, "beta[0][0]: not an integer: True"),
    (1, "gamma", [2.0, 0], DiagramError, "gamma[0][0]: not an integer: 2.0"),
]


@pytest.mark.parametrize("genus,name,vec,exc,message", BAD_CLASSES, ids=[m for *_, m in BAD_CLASSES])
def test_class_vectors_checked_where_a_diagram_is_built(genus, name, vec, exc, message):
    raw = {key: [[0] * (2 * genus)] for key in ("alpha", "beta", "gamma")}
    raw[name] = [vec]
    with pytest.raises(exc) as built:
        StarDiagram(genus, 0, *(CurveSystem(key, tuple(tuple(v) for v in raw[key])) for key in raw))
    with pytest.raises(exc) as parsed:
        parse_diagram(json.dumps({"genus": genus, **raw}))
    assert str(built.value) == str(parsed.value) == message


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(lambda g: st.tuples(
    st.just(g),
    st.lists(st.lists(st.lists(st.integers(-9, 9), min_size=2 * g, max_size=2 * g),
                      max_size=3), min_size=3, max_size=3),
)))
def test_parse_inverts_serialize_on_built_diagrams(case):
    genus, classes = case
    systems = [CurveSystem(name, tuple(map(tuple, vecs)))
               for name, vecs in zip(("alpha", "beta", "gamma"), classes)]
    d = StarDiagram(genus, 0, *systems)
    assert parse_diagram(serialize_diagram(d)) == d


CP2 = {
    "genus": 1, "boundary": 0,
    "alpha": CurveSystem("alpha", ((1, 0),)),
    "beta": CurveSystem("beta", ((0, 1),)),
    "gamma": CurveSystem("gamma", ((1, 1),)),
}

# changes to the cp2 diagram that a hand-built diagram could once carry,
# though its file would not parse back to it
PROBES = [
    ({"geo": {("alpha", 0, "beta", 0): True}},
     "geo['alpha.0:beta.0']: expected a nonnegative integer"),
    ({"geo": {("alpha", 0, "beta", 0): -1}},
     "geo['alpha.0:beta.0']: expected a nonnegative integer"),
    ({"geo": {("alpha", 0, "alpha", 0): 1}},
     "geo key 'alpha.0:alpha.0': a curve cannot pair with itself"),
    ({"geo": {("alpha", 0, "delta", 0): 1}},
     "geo key 'alpha.0:delta.0': unknown system 'delta'"),
    ({"geo": {("alpha", 0, "beta", 0): 1, ("beta", 0, "alpha", 0): 2}},
     "geo['beta.0:alpha.0']: duplicate pair after normalization"),
    ({"geo": {("alpha", True, "beta", 0): 1}},
     "geo key ('alpha', True, 'beta', 0): expected (system, index, system, index)"),
    ({"geo": {"alpha.0:beta.0": 1}},
     "geo key 'alpha.0:beta.0': expected (system, index, system, index)"),
    ({"common": {"alpha_beta": [0, 0]}}, "common.alpha_beta: duplicate index"),
    ({"common": {"alpha_gamma": (0,)}}, "common: unknown pair 'alpha_gamma'"),
    ({"common": {"alpha_beta": (0.0,)}}, "common.alpha_beta: expected a list of integers"),
    ({"common": {"alpha_beta": (True,)}}, "common.alpha_beta: expected a list of integers"),
    ({"genus": True}, "genus and boundary must be integers"),
    ({"boundary": 1.0}, "genus and boundary must be integers"),
    # systems built inside the check, since CurveSystem refuses its own faults
    (lambda: {"alpha": CurveSystem("beta", ((1, 0),))},
     "alpha: expected a CurveSystem 'alpha' with a tuple of classes"),
    (lambda: {"alpha": CurveSystem("alpha", [(1, 0)])},
     "alpha: expected a CurveSystem 'alpha' with a tuple of classes"),
    (lambda: {"beta": CurveSystem("beta", ([0, 1],))}, "beta[0]: expected a tuple of integers"),
    ({"common": [("alpha_beta", (0,))]}, "common: expected a dict, got list"),
    ({"geo": 5}, "geo: expected a dict, got int"),
    ({"geo": [(("alpha", 0, "beta", 0), 1)]}, "geo: expected a dict, got list"),
    # the stored tuple form, read back only as (key, value) pairs with distinct keys
    ({"common": (("alpha_beta", ()), ("alpha_beta", ()))}, "common: duplicate pair 'alpha_beta'"),
    ({"common": ((["alpha_beta"], ()),)}, "common: unknown pair ['alpha_beta']"),
    ({"common": (("alpha_beta",),)}, "common: expected a dict, got tuple"),
    ({"geo": ((("alpha", 0, "beta", 0), 1), (("alpha", 0, "beta", 0), 2))},
     "geo['alpha.0:beta.0']: duplicate pair after normalization"),
    ({"geo": ((["alpha", 0, "beta", 0], 1),)},
     "geo key ['alpha', 0, 'beta', 0]: expected (system, index, system, index)"),
    ({"geo": ((("alpha", 0, "beta", 0), 1, 2),)}, "geo: expected a dict, got tuple"),
]


@pytest.mark.parametrize("change,message", PROBES, ids=[m for _, m in PROBES])
def test_off_contract_diagrams_are_refused_when_built(change, message):
    with pytest.raises(TrisectError) as err:
        StarDiagram(**{**CP2, **(change() if callable(change) else change)})
    assert type(err.value) is DiagramError
    assert str(err.value) == message


def test_claims_are_normalized_when_built():
    # stored in file order: common by COMMON_KEYS, geo sorted by oriented key
    d = StarDiagram(**CP2, common={"alpha_beta": (), "gamma_alpha": []},
                    geo={("gamma", 0, "alpha", 0): 2, ("beta", 0, "alpha", 0): 1})
    assert d.common == (("gamma_alpha", ()), ("alpha_beta", ()))
    assert d.geo == ((("alpha", 0, "beta", 0), 1), (("alpha", 0, "gamma", 0), 2))
    assert parse_diagram(serialize_diagram(d)) == d


@st.composite
def constructible_diagrams(draw):
    """Diagrams with random claims on coinciding classes: common indices
    as lists or tuples in any order, geo keys in either order."""
    genus = draw(st.integers(0, 2))
    pool = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * (2 * genus)), min_size=1, max_size=3))
    classes = {name: draw(st.lists(st.sampled_from(pool), max_size=3)) for name in SYSTEM_NAMES}
    common = {}
    for key in draw(st.lists(st.sampled_from(COMMON_KEYS), unique=True)):
        a, b = (classes[name] for name in key.split("_"))
        equal = [i for i in range(min(len(a), len(b))) if a[i] == b[i]]
        chosen = draw(st.lists(st.sampled_from(equal), unique=True)) if equal else []
        common[key] = draw(st.sampled_from((list, tuple)))(chosen)
    curves = [(name, i) for name in SYSTEM_NAMES for i in range(len(classes[name]))]
    pairs = [(u, v) for k, u in enumerate(curves) for v in curves[k + 1:]]
    geo = {}
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []:
        key = (*v, *u) if draw(st.booleans()) else (*u, *v)
        geo[key] = draw(st.integers(0, 5))
    systems = [CurveSystem(name, tuple(classes[name])) for name in SYSTEM_NAMES]
    return StarDiagram(genus, draw(st.integers(0, 3)), *systems, common, geo)


@settings(max_examples=200, deadline=None)
@given(constructible_diagrams())
def test_every_built_diagram_round_trips(d):
    text = serialize_diagram(d)
    assert parse_diagram(text) == d
    assert serialize_diagram(parse_diagram(text)) == text


@settings(max_examples=200, deadline=None)
@given(constructible_diagrams(), st.randoms(use_true_random=False))
def test_built_diagrams_are_frozen_values(d, rnd):
    assert isinstance(d.common, tuple) and isinstance(d.geo, tuple)
    assert [key for key, _ in d.common] == [key for key in COMMON_KEYS if key in dict(d.common)]
    assert all(list(indices) == sorted(indices) for _, indices in d.common)
    assert [key for key, _ in d.geo] == sorted(dict(d.geo))
    # the same claims in another dict order, indices shuffled and geo keys turned around
    common = [(key, rnd.sample(indices, len(indices))) for key, indices in d.common]
    geo = [((sb, j, sa, i) if rnd.random() < 0.5 else (sa, i, sb, j), count)
           for (sa, i, sb, j), count in d.geo]
    rnd.shuffle(common)
    rnd.shuffle(geo)
    systems = (d.alpha, d.beta, d.gamma)
    for e in (StarDiagram(d.genus, d.boundary, *systems, dict(common), dict(geo)),
              StarDiagram(d.genus, d.boundary, *systems, d.common, d.geo),
              copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert e == d and hash(e) == hash(d)


# refused by the constructor, so a file that carries them gets the same message
BAD_FIELDS = [
    ("genus", -1, "genus and boundary must be >= 0"),
    ("genus", "2", "genus and boundary must be integers"),
    ("boundary", 1.5, "genus and boundary must be integers"),
    ("common", [], "common: expected a dict, got list"),
]


@pytest.mark.parametrize("field,value,message", BAD_FIELDS, ids=[f"{f}={v!r}" for f, v, _ in BAD_FIELDS])
def test_file_and_constructor_refuse_alike(field, value, message):
    with pytest.raises(DiagramError) as built:
        StarDiagram(**{**CP2, field: value})
    with pytest.raises(DiagramError) as parsed:
        parse_diagram(json.dumps({**json.loads(cp2_text()), field: value}))
    assert str(built.value) == str(parsed.value) == message


def test_basis_header_is_checked_at_the_cost_of_the_file():
    # a short header claiming a huge genus: no 2g names are built or quoted
    text = json.dumps({"basis": "e1 f1", "genus": 10**6, "alpha": [], "beta": [], "gamma": []})
    with pytest.raises(DiagramError) as err:
        parse_diagram(text)
    assert len(str(err.value)) < 200
    assert str(err.value) == "basis: expected e1 f1 ... eg fg with g = 1000000, got 'e1 f1'"
    for header in ("e1 f1 e2  f2", "e1 f1 f2 e2", ["e1", "f1", "e2", "f2"]):
        with pytest.raises(DiagramError, match="basis"):
            parse_diagram(json.dumps({"basis": header, "genus": 2, "alpha": [], "beta": [], "gamma": []}))
