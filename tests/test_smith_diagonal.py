"""Differential tests for the Smith kernels.

`smith_diagonal` must agree with the diagonal of `smith_normal_form` (the
reference that also builds U and V) and with sympy's Smith form, on random
matrices and on block sums of Farey homology models whose H1 is known in
closed form; `_smith_rows`, the sparse kernel under it, must give that
diagonal off the rows of a matrix and off those of its transpose, under
any column keys.  `smith_normal_form`, which runs the shared pivot loop on a
bordered matrix, must return exactly the (U, S, V) of the earlier
implementation pinned below, which kept U and V by explicit row and column
operations.  H1 of a diagram whose alpha spans a primitive Lagrangian,
read off the alpha pairing matrix, must agree with the cokernel of the
full class matrix.
"""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import diagram, invariants, zmatrix
from trisect.calculus import poke
from trisect.diagram import SYSTEM_NAMES, CurveSystem, StarDiagram, SymplecticLattice, _violations
from trisect.farey import enumerate_triples, farey_homology_model
from trisect.invariants import first_homology
from trisect.zmatrix import check_int_matrix, dims, identity, mat_copy, smith_diagonal, smith_normal_form

from test_zmatrix import verify_smith

# every entry +-1 or 0, and no entry +-1 at all (forces the general pivots)
UNITS = st.sampled_from((-1, 0, 1))
UNIT_FREE = st.sampled_from((0, 2, -2, 3, -3, 6, -6))
# a*x + b*y is never +-1 for x, y in UNIT_FREE and a, b drawn from here
COEFFS = st.sampled_from((-3, -2, 2, 3))


@st.composite
def matrices(draw, entries=st.integers(-9, 9)):
    """Small matrices, empty shapes included, often rank-deficient and with
    zero rows and columns."""
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and draw(st.booleans()):
        a, b = draw(COEFFS), draw(COEFFS)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    if rows and draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [0] * cols
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = 0
    return m


def reference_diagonal(m):
    _, s, _ = smith_normal_form(m)
    return [s[i][i] for i in range(min(dims(m)))]


def sympy_factors(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    ref = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
    return sorted(abs(int(x)) for x in ref.diagonal() if x != 0)


def check_kernel(m):
    diag = smith_diagonal(m)
    assert diag == reference_diagonal(m)
    if m and m[0]:
        assert [d for d in diag if d] == sympy_factors(m)
    return diag


class TestRandomMatrices:
    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_general(self, m):
        check_kernel(m)

    @settings(max_examples=100, deadline=None)
    @given(matrices(UNITS))
    def test_all_unit(self, m):
        check_kernel(m)

    @settings(max_examples=100, deadline=None)
    @given(matrices(UNIT_FREE))
    def test_unit_free(self, m):
        assert all(abs(x) != 1 for row in m for x in row)
        check_kernel(m)

    def test_empty_shapes(self):
        assert smith_diagonal([]) == []
        assert smith_diagonal([[], []]) == []
        assert smith_diagonal([[0, 0, 0]]) == [0]

    def test_divisibility_fix_up(self):
        # diag(2, 3) has no unit entry; its Smith form is diag(1, 6)
        assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
        assert smith_diagonal([[4, 0, 0], [0, 6, 0], [0, 0, 0]]) == [2, 12, 0]

    def test_validates_input(self):
        with pytest.raises(ValueError):
            smith_diagonal([[1, 2], [3]])
        with pytest.raises(ValueError):
            smith_diagonal([[True]])


@st.composite
def repeated_matrices(draw, entries=st.integers(-9, 9)):
    """matrices(), then maybe one row and one column repeated, each copy at
    a drawn place."""
    m = draw(matrices(entries))
    r, c = dims(m)
    if r and draw(st.booleans()):
        m.insert(draw(st.integers(0, r)), list(m[draw(st.integers(0, r - 1))]))
    if c and draw(st.booleans()):
        j, at = draw(st.integers(0, c - 1)), draw(st.integers(0, c))
        for row in m:
            row.insert(at, row[j])
    return m


class TestSmithRows:
    """_smith_rows on the sparse rows of M, and on those of its transpose,
    under any distinct int column keys: the nonzero diagonal of
    smith_normal_form(M) both times, as M and its transpose have one."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(repeated_matrices(), repeated_matrices(UNITS), repeated_matrices(UNIT_FREE)),
           st.data())
    def test_rows_and_columns_against_smith_normal_form(self, m, data):
        want = [x for x in reference_diagonal(m) if x]
        for rows in (m, [list(col) for col in zip(*m)]):
            width = len(rows[0]) if rows else 0
            keys = data.draw(st.lists(st.integers(-50, 50), min_size=width, max_size=width,
                                      unique=True))
            sparse = [{k: x for k, x in zip(keys, row) if x} for row in rows]
            assert zmatrix._smith_rows(sparse) == want


def pinned_smith_normal_form(m):
    """The earlier smith_normal_form, verbatim but for its name."""
    check_int_matrix(m)
    r, c = dims(m)
    s = mat_copy(m)
    u = identity(r)
    v = identity(c)

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def row_add(i, j, k):
        # row_i += k * row_j
        s[i] = [a + k * b for a, b in zip(s[i], s[j])]
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]

    def row_neg(i):
        s[i] = [-a for a in s[i]]
        u[i] = [-a for a in u[i]]

    def col_swap(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, k):
        # col_i += k * col_j
        for row in s:
            row[i] += k * row[j]
        for row in v:
            row[i] += k * row[j]

    n = min(r, c)
    for t in range(n):
        while True:
            # locate a pivot: smallest nonzero magnitude in the block
            pi = pj = -1
            best = None
            for i in range(t, r):
                for j in range(t, c):
                    x = abs(s[i][j])
                    if x and (best is None or x < best):
                        best, pi, pj = x, i, j
            if best is None:
                break
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            # clear column t, restarting if a smaller remainder shows up
            dirty = False
            for i in range(t + 1, r):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    row_add(i, t, -q)
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, c):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    col_add(j, t, -q)
                    if s[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot divides the whole remaining block?
            p = s[t][t]
            culprit = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if s[i][j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_add(t, culprit, 1)
        if t < r and t < c and s[t][t] < 0:
            row_neg(t)
    return u, s, v


BIG = st.integers(-10**6, 10**6)


class TestBorderedSmithNormalForm:
    """The bordered pivot loop makes the pinned implementation's operations
    in the same order, so (U, S, V) must match entry for entry."""

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_matches_pinned(self, m):
        assert smith_normal_form(m) == pinned_smith_normal_form(m)

    @settings(max_examples=100, deadline=None)
    @given(matrices(BIG))
    def test_matches_pinned_large_entries(self, m):
        assert smith_normal_form(m) == pinned_smith_normal_form(m)

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_transforms_are_valid(self, m):
        verify_smith(m, *smith_normal_form(m))

    @settings(max_examples=100, deadline=None)
    @given(matrices(BIG))
    def test_transforms_are_valid_large_entries(self, m):
        verify_smith(m, *smith_normal_form(m))

    def test_empty_shapes(self):
        assert smith_normal_form([]) == ([], [], [])
        assert smith_normal_form([[], []]) == ([[1, 0], [0, 1]], [[], []], [])


# --- block sums of Farey homology models ----------------------------------
#
# Each genus-3 block has H1 = Z/gcd(p1, p2, p3) over the denominators of its
# triple (Z when all three are 1/0).  Symplectic transvections
# T(x) = x + s * (x . v) * v preserve every pairing and map the span of the
# curves by an automorphism of Z^(2g), so the block sum keeps the direct
# sum of the blocks' H1.

TRIPLES = [t for t, _ in enumerate_triples(3)]


def invariant_factors(orders):
    """Invariant factors (> 1) of the sum of cyclic groups Z/n, n >= 1."""
    d = sorted(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(x for x in d if x > 1)


def block_sum(triples, mixes):
    """Block-sum diagram of the triples' homology models, then one
    transvection per (v, s) in mixes applied to every curve."""
    genus = 3 * len(triples)
    lattice = SymplecticLattice(genus)
    systems = {name: [] for name in SYSTEM_NAMES}
    for b, t in enumerate(triples):
        model = farey_homology_model(t)
        for name in SYSTEM_NAMES:
            for cls in model.system(name).classes:
                vec = [0] * (2 * genus)
                vec[6 * b:6 * b + 6] = cls
                systems[name].append(vec)
    for v, s in mixes:
        for name in SYSTEM_NAMES:
            for vec in systems[name]:
                a = s * lattice.pair(vec, v)
                for j, y in enumerate(v):
                    vec[j] += a * y
    curves = {name: CurveSystem(name, tuple(map(tuple, systems[name])))
              for name in SYSTEM_NAMES}
    return StarDiagram(genus=genus, boundary=0, **curves)


def expected_h1(triples):
    orders = [gcd(gcd(t.x.den, t.y.den), t.z.den) for t in triples]
    return orders.count(0), invariant_factors([n for n in orders if n])


def random_mixes(rng, genus, count):
    mixes = []
    for _ in range(count):
        v = [0] * (2 * genus)
        for j in rng.sample(range(2 * genus), 3):
            v[j] = rng.choice((-1, 1))
        mixes.append((v, rng.choice((-1, 1))))
    return mixes


def curve_matrix(d):
    classes = d.all_classes()
    return [[vec[row] for vec in classes] for row in range(2 * d.genus)]


class TestBlockSums:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(TRIPLES), min_size=1, max_size=4), st.randoms())
    def test_matches_references_and_closed_form(self, triples, rng):
        d = block_sum(triples, random_mixes(rng, 3 * len(triples), 6 * len(triples)))
        check_kernel(curve_matrix(d))
        rep = first_homology(d)
        assert (rep.h1_free_rank, rep.h1_torsion) == expected_h1(triples)

    def test_genus_60(self):
        rng = random.Random(60)
        triples = [rng.choice(TRIPLES) for _ in range(20)]
        d = block_sum(triples, random_mixes(rng, 60, 120))
        rep = first_homology(d)
        assert (rep.h1_free_rank, rep.h1_torsion) == expected_h1(triples)

    def test_h1_does_not_use_smith_normal_form(self, monkeypatch):
        def refuse(m):
            raise AssertionError("smith_normal_form called on the H1 path")

        monkeypatch.setattr(zmatrix, "smith_normal_form", refuse)
        triples = TRIPLES[:3]
        d = block_sum(triples, random_mixes(random.Random(1), 9, 18))
        rep = first_homology(d)
        assert (rep.h1_free_rank, rep.h1_torsion) == expected_h1(triples)

    def test_h1_checks_no_entry_again(self, monkeypatch):
        # a built diagram has checked every entry, so H1 checks none again
        def refuse(m, name="matrix"):
            raise AssertionError("check_int_matrix called on the H1 path")

        monkeypatch.setattr(zmatrix, "check_int_matrix", refuse)
        triples = TRIPLES[:3]
        d = block_sum(triples, random_mixes(random.Random(2), 9, 18))
        rep = first_homology(d)
        assert (rep.h1_free_rank, rep.h1_torsion) == expected_h1(triples)
        assert first_homology(poke(d, (1, 0, 2))) == rep

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(TRIPLES), min_size=1, max_size=3), st.randoms(),
           st.tuples(*[st.integers(1, 2)] * 3))
    def test_repeated_classes_match_full_matrix(self, triples, rng, counts):
        # H1 reads each distinct class once; the full matrix repeats them
        d = block_sum(triples, random_mixes(rng, 3 * len(triples), 6 * len(triples)))
        alpha, beta = d.alpha.classes, d.beta.classes
        variants = [
            poke(d, counts),
            StarDiagram(d.genus, 0, d.alpha, CurveSystem("beta", beta + beta[:1]), d.gamma),
            StarDiagram(d.genus, 0, d.alpha, d.beta, CurveSystem("gamma", alpha),
                        {"gamma_alpha": list(range(len(alpha)))}),
        ]
        for v in variants:
            full = curve_matrix(v)
            assert len(set(zip(*full))) < len(full[0])
            inv = zmatrix.cokernel_invariants(full)
            rep = first_homology(v)
            assert (rep.h1_free_rank, rep.h1_torsion) == (inv.free_rank, inv.torsion)


# --- the alpha quotient of first_homology ----------------------------------
#
# When alpha spans a primitive Lagrangian, H1 is the cokernel of the g x n
# pairing matrix of alpha with beta and gamma; otherwise the 2g x n class
# matrix.  Each system below is a symplectic image of a standard Lagrangian
# (one slope p * e_i + q * f_i per plane i), so every system is isotropic and
# H1 is the sum of the planes' cokernels.  The variants break the primitive
# Lagrangian in the two ways the path must notice, add null classes, and
# repeat alpha so that the free rank is above 0.

SLOPES = [(p, q) for p in range(-3, 4) for q in range(-3, 4) if gcd(p, q) == 1]
VARIANTS = ("plain", "scaled", "short", "poked", "beta=alpha", "gamma=alpha")


def standard_lagrangian(slopes):
    genus = len(slopes)
    out = []
    for i, (p, q) in enumerate(slopes):
        vec = [0] * (2 * genus)
        vec[2 * i:2 * i + 2] = p, q
        out.append(vec)
    return out


def mix(draw, genus, vectors):
    """Apply up to 3g drawn transvections x -> x + s * (x . v) * v, v with
    entries in {-1, 0, 1}, to every vector in place."""
    mixes = draw(st.lists(st.tuples(st.lists(UNITS, min_size=2 * genus, max_size=2 * genus),
                                    st.sampled_from((-1, 1))), max_size=3 * genus))
    lattice = SymplecticLattice(genus)
    for v, s in mixes:
        for vec in vectors:
            a = s * lattice.pair(vec, v)
            for j, y in enumerate(v):
                vec[j] += a * y


@st.composite
def lagrangian_diagrams(draw):
    """(variant, diagram): three standard Lagrangians, varied, then mixed by
    transvections."""
    genus = draw(st.integers(1, 4))
    variant = draw(st.sampled_from(VARIANTS))
    slopes = [draw(st.lists(st.sampled_from(SLOPES), min_size=genus, max_size=genus))
              for _ in SYSTEM_NAMES]
    if variant in ("beta=alpha", "gamma=alpha"):
        other = 2 if variant == "beta=alpha" else 1
        slopes[other][0] = slopes[0][0]  # the third system shares a slope with alpha: a free Z
    alpha, beta, gamma = map(standard_lagrangian, slopes)
    if variant == "scaled":
        i, k = draw(st.integers(0, genus - 1)), draw(st.sampled_from((2, 3)))
        alpha[i] = [k * x for x in alpha[i]]
    mix(draw, genus, alpha + beta + gamma)
    common = {}
    if variant == "short":
        alpha = alpha[:-1]
    elif variant == "beta=alpha":
        beta, common = alpha, {"alpha_beta": list(range(genus))}
    elif variant == "gamma=alpha":
        gamma, common = alpha, {"gamma_alpha": list(range(genus))}
    curves = {name: CurveSystem(name, tuple(map(tuple, cls)))
              for name, cls in zip(SYSTEM_NAMES, (alpha, beta, gamma))}
    d = StarDiagram(genus=genus, boundary=0, common=common, **curves)
    if variant == "poked":
        d = poke(d, draw(st.tuples(*[st.integers(0, 2)] * 3)))
    return variant, d


def alpha_quotient(d):
    """_alpha_quotient of d off the pairing matrix that validation reads."""
    return invariants._alpha_quotient(d, _violations(d)[1])


class TestAlphaQuotient:
    @settings(max_examples=200, deadline=None)
    @given(lagrangian_diagrams())
    def test_matches_full_class_matrix(self, case):
        variant, d = case
        inv = zmatrix.cokernel_invariants(curve_matrix(d))
        rep = first_homology(d)
        assert (rep.h1_free_rank, rep.h1_torsion) == (inv.free_rank, inv.torsion)
        # the path is taken exactly when alpha is g primitive classes
        assert (alpha_quotient(d) is None) == (variant in ("scaled", "short"))
        if variant in ("beta=alpha", "gamma=alpha"):
            assert rep.h1_free_rank > 0

    def test_non_primitive_alpha_keeps_its_torsion(self):
        # alpha = 2 e1 is not primitive: the Z/2 of Z^2 / span(2 e1) is not seen by pairing
        d = StarDiagram(1, 0, *(CurveSystem(name, ((2, 0),)) for name in SYSTEM_NAMES))
        assert alpha_quotient(d) is None
        assert first_homology(d).h1_str() == "Z + Z/2"

    @staticmethod
    def smith_rows(monkeypatch):
        """The kernel and row count of every matrix first_homology hands to
        the unit-pivot pass or the Smith kernel, in call order."""
        rows = []

        def record_pivots(m):
            rows.append(("pivots", len(m)))
            return zmatrix._unit_pivots(m)

        def record_smith(m):
            rows.append(("smith", len(m)))
            return zmatrix._smith_rows(m)

        monkeypatch.setattr(invariants, "_unit_pivots", record_pivots)
        monkeypatch.setattr(invariants, "_smith_rows", record_smith)
        return rows

    def test_block_sums_take_the_pairing_path(self, monkeypatch):
        rows = self.smith_rows(monkeypatch)
        triples = TRIPLES[:4]
        d = block_sum(triples, random_mixes(random.Random(3), 12, 24))
        rep = first_homology(d)
        assert (rep.h1_free_rank, rep.h1_torsion) == expected_h1(triples)
        # one elimination of [P | 2I] leaves one row [B | 2T]: then the Smith
        # form of T alpha, and that of the unit-free B; never the class matrix
        assert rows == [("pivots", 12), ("smith", 1), ("smith", 1)]

    def test_a_doubled_alpha_class_skips_both_pairing_forms(self, monkeypatch):
        # 2u is in no basis of a primitive lattice: refused before any elimination
        triples = TRIPLES[:4]
        d = block_sum(triples, random_mixes(random.Random(3), 12, 24))
        alpha = (tuple(2 * x for x in d.alpha.classes[0]),) + d.alpha.classes[1:]
        d = StarDiagram(d.genus, 0, CurveSystem("alpha", alpha), d.beta, d.gamma)
        inv = zmatrix.cokernel_invariants(curve_matrix(d))
        rows = self.smith_rows(monkeypatch)
        rep = first_homology(d)
        # here u lies in the span of the other classes, so doubling it leaves H1 as it was
        assert (rep.h1_free_rank, rep.h1_torsion) == (inv.free_rank, inv.torsion) == expected_h1(triples)
        # the class matrix alone, its 31 distinct classes as rows of the transpose
        assert len(set(d.all_classes())) == 31
        assert rows == [("smith", 31)]

    def test_each_system_is_packed_once(self, monkeypatch):
        calls = []

        def record(classes, w, dim):
            calls.append(classes)
            return pack(classes, w, dim)

        pack = diagram._pack
        monkeypatch.setattr(diagram, "_pack", record)
        d = block_sum(TRIPLES[:4], random_mixes(random.Random(3), 12, 24))
        first_homology(d)
        # alpha, beta and gamma once each, for the violations and for P alike
        assert calls == [d.alpha.classes, d.beta.classes, d.gamma.classes]


@st.composite
def shared_diagrams(draw):
    """(alpha doubled, diagram): beta and gamma share the curves of a drawn
    set of planes under a beta_gamma claim, alpha[0] maybe doubled (off the
    quotient), all mixed by transvections and then poked."""
    genus = draw(st.integers(1, 4))
    slopes = [draw(st.lists(st.sampled_from(SLOPES), min_size=genus, max_size=genus))
              for _ in SYSTEM_NAMES]
    shared = sorted(draw(st.sets(st.integers(0, genus - 1))))
    for i in shared:
        slopes[2][i] = slopes[1][i]
    alpha, beta, gamma = map(standard_lagrangian, slopes)
    doubled = draw(st.booleans())
    if doubled:
        alpha[0] = [2 * x for x in alpha[0]]
    mix(draw, genus, alpha + beta + gamma)
    curves = {name: CurveSystem(name, tuple(map(tuple, cls)))
              for name, cls in zip(SYSTEM_NAMES, (alpha, beta, gamma))}
    d = StarDiagram(genus, 0, common={"beta_gamma": shared} if shared else {}, **curves)
    return doubled, poke(d, draw(st.tuples(*[st.integers(0, 2)] * 3)))


class TestSharedAndPoked:
    @settings(max_examples=200, deadline=None)
    @given(shared_diagrams())
    def test_matches_full_class_matrix(self, case):
        # a common curve is a repeated column, a puncture a null class: on
        # either path H1 is the cokernel of the full class matrix
        doubled, d = case
        inv = zmatrix.cokernel_invariants(curve_matrix(d))
        rep = first_homology(d)
        assert (rep.h1_free_rank, rep.h1_torsion) == (inv.free_rank, inv.torsion)
        assert (alpha_quotient(d) is None) == doubled


# --- the residual check of the alpha quotient --------------------------------
#
# alpha_i = sum_j A[i][j] a_j over a standard Lagrangian a, with the rows of
# A distinct, nonzero and of gcd 1: every alpha class is then primitive and
# alpha spans a primitive Lagrangian iff det A = +-1, so only the check on
# the rows the unit pivots leave can refuse it.  beta or gamma may be alpha
# itself, which zeroes rows of P: the rows left then have an empty P part,
# and their T alpha alone decides.

SHARES = ("none", "beta=alpha", "gamma=alpha", "both")


@st.composite
def sheared_alpha_diagrams(draw):
    """(det A, share, diagram), mixed by transvections."""
    genus = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=genus, max_size=genus).filter(
        lambda r: gcd(*r) == 1)
    shear = draw(st.lists(row, min_size=genus, max_size=genus, unique_by=tuple))
    a, beta, gamma = (standard_lagrangian(draw(st.lists(st.sampled_from(SLOPES), min_size=genus,
                                                        max_size=genus)))
                      for _ in SYSTEM_NAMES)
    alpha = [[sum(c * vec[k] for c, vec in zip(r, a)) for k in range(2 * genus)] for r in shear]
    mix(draw, genus, alpha + beta + gamma)
    share = draw(st.sampled_from(SHARES))
    common = {}
    if share in ("beta=alpha", "both"):
        beta, common["alpha_beta"] = alpha, list(range(genus))
    if share in ("gamma=alpha", "both"):
        gamma, common["gamma_alpha"] = alpha, list(range(genus))
    curves = {name: CurveSystem(name, tuple(map(tuple, cls)))
              for name, cls in zip(SYSTEM_NAMES, (alpha, beta, gamma))}
    return zmatrix.determinant(shear), share, StarDiagram(genus, 0, common=common, **curves)


class TestResidualCheck:
    @settings(max_examples=300, deadline=None)
    @given(sheared_alpha_diagrams())
    def test_matches_full_class_matrix(self, case):
        det, share, d = case
        inv = zmatrix.cokernel_invariants(curve_matrix(d))
        rep = first_homology(d)
        assert (rep.h1_free_rank, rep.h1_torsion) == (inv.free_rank, inv.torsion)
        assert all(gcd(*u) == 1 for u in d.alpha.classes)
        assert (alpha_quotient(d) is None) == (abs(det) != 1)
        if share == "both":
            assert not any(_violations(d)[1].values())  # P = 0

    def test_non_primitive_span_of_primitive_classes(self):
        # e1 + e2 and e1 - e2 span a sublattice of index 2: pairing with alpha
        # alone would read Z + Z, since P = 0 leaves two rows with no P part
        classes = ((1, 0, 1, 0), (1, 0, -1, 0))
        d = StarDiagram(2, 0, *(CurveSystem(name, classes) for name in SYSTEM_NAMES),
                        {"alpha_beta": [0, 1], "gamma_alpha": [0, 1]})
        assert alpha_quotient(d) is None
        assert first_homology(d).h1_str() == "Z + Z + Z/2"


class TestUnitPivots:
    """_unit_pivots on [M | 2I], the 2I block at keys ~i = -1 - i: the
    tracking entries stay even, so no pivot is taken from them; no row
    vanishes, the rows left are [B | 2T] with B = T M holding no unit, and
    for any X the Smith diagonal of [M | X] is the pivots' ones and that of
    [B | T X]."""

    @settings(max_examples=400, deadline=None)
    @given(matrices(), st.integers(0, 3), st.data())
    def test_bordered_pass_against_smith_normal_form(self, m, k, data):
        r, c = dims(m)
        x = [data.draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k)) for _ in range(r)]
        pivots = []

        def record(rows, counts):
            pivot = unit_pivot(rows, counts)
            pivots.append(pivot and pivot[1])
            return pivot

        unit_pivot = zmatrix._unit_pivot
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zmatrix, "_unit_pivot", record)
            rows = [{**{j: v for j, v in enumerate(row) if v}, ~i: 2} for i, row in enumerate(m)]
            ones, rest = zmatrix._unit_pivots(rows)
        assert pivots[-1] is None and len(pivots) == ones + 1
        assert all(j >= 0 for j in pivots[:-1])  # every pivot in M
        assert all(v % 2 == 0 for row in rest for j, v in row.items() if j < 0)
        assert ones + len(rest) == r
        b = [[row.get(j, 0) for j in range(c)] for row in rest]
        t = [[row.get(~i, 0) // 2 for i in range(r)] for row in rest]
        assert b == [[sum(ti * mi[j] for ti, mi in zip(tr, m)) for j in range(c)] for tr in t]
        assert not any(v in (1, -1) for row in b for v in row)
        tx = [[sum(ti * xi[j] for ti, xi in zip(tr, x)) for j in range(k)] for tr in t]
        got = [1] * ones + smith_diagonal([br + txr for br, txr in zip(b, tx)])
        want = reference_diagonal([row + xr for row, xr in zip(m, x)])
        assert [v for v in got if v] == [v for v in want if v]
