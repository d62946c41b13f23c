"""Tests for exact integer linear algebra."""

import os
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import trisect
from trisect import zmatrix
from trisect.errors import FormUndefined, NotSL3, NotUnimodular
from trisect.zmatrix import (
    CokernelInvariants,
    FormClass,
    FormInvariants,
    Gen,
    SIGMA_12,
    SIGMA_23,
    SIGMA_31,
    SL3Word,
    classify_unimodular,
    cokernel_invariants,
    determinant,
    gen_matrix,
    identity,
    is_unimodular,
    mat_mul,
    shear,
    sl3_factor,
    smith_normal_form,
    sym_form_invariants,
)


def random_matrix(rng, rows, cols, lo=-50, hi=50):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def random_symmetric(rng, n, lo=-9, hi=9):
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            q[i][j] = q[j][i] = rng.randint(lo, hi)
    return q


def random_unimodular(rng, n, steps=12):
    """Product of random elementary row operations: always det +-1."""
    u = identity(n)
    for _ in range(steps):
        if n == 1:
            u[0] = [-a for a in u[0]]
            continue
        i, j = rng.sample(range(n), 2)
        op = rng.randrange(3)
        if op == 0:
            k = rng.randint(-3, 3)
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        elif op == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return u


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sympy_form_invariants(q):
    """The invariants of a symmetric form by their definitions, off its
    characteristic polynomial p(x) = det(x I - q), from sympy: rank and
    signature count its nonzero, positive and negative roots, det is
    (-1)^n p(0), and parity is Even iff every diagonal entry is even
    (q(x, x) is then even for every x).  p has only real roots, so by
    Descartes' rule of signs its positive roots, with multiplicity, number
    the sign changes of its coefficients, and its negative roots those of
    p(-x)."""
    n = len(q)
    coeffs = sympy.Matrix(n, n, [x for row in q for x in row]).charpoly().all_coeffs()
    pos = sign_changes(coeffs)
    neg = sign_changes([c * (-1) ** k for k, c in enumerate(reversed(coeffs))])
    parity = "Even" if all(q[i][i] % 2 == 0 for i in range(n)) else "Odd"
    return FormInvariants(rank=pos + neg, signature=pos - neg, parity=parity,
                          det=int((-1) ** n * coeffs[-1]))


@st.composite
def symmetric_forms(draw):
    """Symmetric n x n forms, n <= 7: dense, with an all-zero diagonal,
    sparse, or B^T D B with B of r <= n rows (singular when r < n)."""
    n = draw(st.integers(0, 7))
    shape = draw(st.sampled_from(("dense", "zero_diagonal", "sparse", "low_rank")))
    if shape == "low_rank":
        r = draw(st.integers(0, n))
        b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                          min_size=r, max_size=r))
        d = draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=r, max_size=r))
        return [[sum(b[k][i] * d[k] * b[k][j] for k in range(r)) for j in range(n)]
                for i in range(n)]
    bound = draw(st.sampled_from((1, 3, 9, 2 ** 40)))
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i == j and shape == "zero_diagonal") or (shape == "sparse" and draw(st.booleans())):
                continue
            q[i][j] = q[j][i] = draw(st.integers(-bound, bound))
    return q


def verify_smith(m, u, s, v):
    rows, cols = len(m), len(m[0]) if m else 0
    assert mat_mul(mat_mul(u, m), v) == s
    assert is_unimodular(u) and is_unimodular(v)
    n = min(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s[i][j] == 0
    diag = [s[i][i] for i in range(n)]
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    # zeros only at the tail, divisibility chain on the rest
    assert diag[: len(nz)] == nz
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


class TestSmith:
    def test_diag_2_3(self):
        u, s, v = smith_normal_form([[2, 0], [0, 3]])
        verify_smith([[2, 0], [0, 3]], u, s, v)
        assert s == [[1, 0], [0, 6]]

    def test_cokernel_of_rank_deficient(self):
        assert cokernel_invariants([[2, 0], [0, 0]]) == CokernelInvariants(1, (2,))

    def test_zero_and_empty(self):
        u, s, v = smith_normal_form([[0, 0], [0, 0]])
        verify_smith([[0, 0], [0, 0]], u, s, v)
        assert s == [[0, 0], [0, 0]]
        assert cokernel_invariants([]) == CokernelInvariants(0, ())
        assert cokernel_invariants([[], []]) == CokernelInvariants(2, ())

    def test_identity_input(self):
        m = identity(4)
        u, s, v = smith_normal_form(m)
        verify_smith(m, u, s, v)
        assert s == m

    def test_random_rectangular(self):
        rng = random.Random(7)
        for _ in range(120):
            r = rng.randint(1, 6)
            c = rng.randint(1, 6)
            m = random_matrix(rng, r, c, -30, 30)
            u, s, v = smith_normal_form(m)
            verify_smith(m, u, s, v)

    def test_against_sympy(self):
        rng = random.Random(11)
        for _ in range(40):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            m = random_matrix(rng, r, c, -20, 20)
            _, s, _ = smith_normal_form(m)
            ref = sympy_snf(sympy.Matrix(m))
            mine = [abs(s[i][i]) for i in range(min(r, c))]
            theirs = sorted(abs(x) for x in ref.diagonal() if x != 0)
            assert sorted(d for d in mine if d) == theirs

    def test_cokernel_random_consistency(self):
        # invariants must not change under row/column unimodular moves
        rng = random.Random(3)
        for _ in range(60):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            m = random_matrix(rng, r, c, -15, 15)
            u = random_unimodular(rng, r)
            v = random_unimodular(rng, c)
            assert cokernel_invariants(m) == cokernel_invariants(mat_mul(u, mat_mul(m, v)))


class TestDeterminant:
    def test_known(self):
        assert determinant([[2, -1, 1], [-1, 0, 0], [1, 0, -1]]) == 1
        assert determinant([]) == 1
        assert determinant([[7]]) == 7

    def test_against_expansion(self):
        rng = random.Random(5)

        def cofactor(m):
            n = len(m)
            if n == 0:
                return 1
            if n == 1:
                return m[0][0]
            total = 0
            for j in range(n):
                minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                total += (-1) ** j * m[0][j] * cofactor(minor)
            return total

        for _ in range(80):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, -9, 9)
            assert determinant(m) == cofactor(m)


class TestFormInvariants:
    def test_worked_three_by_three(self):
        inv = sym_form_invariants([[2, -1, 1], [-1, 0, 0], [1, 0, -1]])
        assert (inv.rank, inv.signature, inv.parity, inv.det) == (3, -1, "Odd", 1)
        assert classify_unimodular([[2, -1, 1], [-1, 0, 0], [1, 0, -1]]) == FormClass(
            "odd_indefinite", (1, 2)
        )

    def test_two_by_two_block(self):
        inv = sym_form_invariants([[-1, -1], [-1, 0]])
        assert (inv.rank, inv.signature, inv.det) == (2, 0, -1)
        assert classify_unimodular([[-1, -1], [-1, 0]]) == FormClass("odd_indefinite", (1, 1))

    def test_fixed_points(self):
        assert classify_unimodular([[0, 1], [1, 0]]) == FormClass("even_indefinite", (1,))
        assert classify_unimodular([[1, 0], [0, -1]]) == FormClass("odd_indefinite", (1, 1))

    def test_definite_diagonal(self):
        assert classify_unimodular([[1]]) == FormClass("positive_diagonal", (1,))
        assert classify_unimodular([[-1, 0], [0, -1]]) == FormClass("negative_diagonal", (2,))
        assert classify_unimodular(identity(3)) == FormClass("positive_diagonal", (3,))
        assert classify_unimodular(identity(4)) == FormClass("unclassified")

    def test_e8_is_unclassified(self):
        # even, definite and unimodular: no indefinite or diagonal class names it
        e8 = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]:
            e8[i][j] = e8[j][i] = -1
        inv = sym_form_invariants(e8)
        assert (inv.rank, inv.signature, inv.parity, inv.det) == (8, 8, "Even", 1)
        assert classify_unimodular(e8) == FormClass("unclassified")

    def test_zero_form(self):
        assert classify_unimodular([]) == FormClass("zero")
        inv = sym_form_invariants([])
        assert (inv.rank, inv.signature, inv.parity, inv.det) == (0, 0, "Even", 1)

    def test_rejects(self):
        with pytest.raises(FormUndefined):
            sym_form_invariants([[1, 2], [3, 4]])
        with pytest.raises(FormUndefined):
            sym_form_invariants([[1, 2, 3], [2, 1, 1]])
        with pytest.raises(NotUnimodular):
            classify_unimodular([[2, 0], [0, 1]])

    def test_congruence_invariance(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 5)
            q = random_symmetric(rng, n)
            u = random_unimodular(rng, n)
            ut = [[u[i][j] for i in range(n)] for j in range(n)]
            q2 = mat_mul(ut, mat_mul(q, u))
            assert sym_form_invariants(q) == sym_form_invariants(q2)

    def test_signature_against_sympy(self):
        rng = random.Random(23)
        for _ in range(25):
            q = random_symmetric(rng, rng.randint(1, 4), -6, 6)
            assert sym_form_invariants(q) == sympy_form_invariants(q)


class TestFormBareiss:
    """sym_form_invariants (one Bareiss pass) against sympy."""

    @settings(max_examples=300, deadline=None)
    @given(symmetric_forms())
    @example([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    @example([[0, 0, 0], [0, 0, 5], [0, 5, 0]])
    @example([[0, 0], [0, 0]])
    @example([[1, 1], [1, 1]])
    def test_matches_sympy(self, q):
        assert sym_form_invariants(q) == sympy_form_invariants(q)

    def test_fractions_never_imported(self):
        code = (
            "import sys\n"
            "from trisect.zmatrix import classify_unimodular, sym_form_invariants\n"
            "sym_form_invariants([[0, 1, 2], [1, 0, 3], [2, 3, 0]])\n"
            "classify_unimodular([[2, -1, 1], [-1, 0, 0], [1, 0, -1]])\n"
            "print('fractions' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(trisect.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"


def check_word(m, word):
    """An SL3 word for m by definition: its product is m, within the
    documented length bounds."""
    assert word.product() == m
    # documented generous cap on word growth
    maxabs = max(abs(x) for row in m for x in row)
    assert len(word) <= 200 + 60 * max(1, maxabs.bit_length())
    # tight: 5 letters per conjugated shear, 2 per sign fix
    assert len(word) <= 5 * sum(g.kind == "e" for g in word.factors) + 4


class TestSL3:
    def test_generator_shapes(self):
        assert SIGMA_23 == [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
        assert SIGMA_12 == [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        assert SIGMA_31 == [[0, 0, 1], [0, 1, 0], [-1, 0, 0]]
        for s in (SIGMA_12, SIGMA_23, SIGMA_31):
            assert determinant(s) == 1
        assert shear(5) == [[1, 5, 0], [0, 1, 0], [0, 0, 1]]

    def test_generator_inverses(self):
        for kind in ("s12", "s23", "s31", "s12i", "s23i", "s31i"):
            g = Gen(kind)
            assert mat_mul(gen_matrix(g), gen_matrix(g.inverse())) == identity(3)
            assert g.inverse().inverse() == g
        assert mat_mul(gen_matrix(Gen("e", 4)), gen_matrix(Gen("e", 4).inverse())) == identity(3)

    def test_factor_identity_and_generators(self):
        check_word(identity(3), sl3_factor(identity(3)))
        for g in (Gen("s12"), Gen("s23"), Gen("s31"), Gen("e", 3), Gen("e", -2)):
            check_word(gen_matrix(g), sl3_factor(gen_matrix(g)))

    def test_factor_random_words(self):
        rng = random.Random(29)
        kinds = ["s12", "s23", "s31", "s12i", "s23i", "s31i", "e"]
        for _ in range(150):
            n = rng.randint(1, 25)
            m = identity(3)
            for _ in range(n):
                kind = rng.choice(kinds)
                g = Gen(kind, rng.randint(-4, 4)) if kind == "e" else Gen(kind)
                m = mat_mul(m, gen_matrix(g))
            check_word(m, sl3_factor(m))

    def test_conjugator_table_matches_search(self):
        assert zmatrix._CONJ == {
            ij: (w, tuple(g.inverse() for g in reversed(w)), sign)
            for ij, (w, sign) in _conjugator_search().items()
        }

    def test_row_add_words_are_elementary(self):
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                for k in (-3, 1, 7):
                    e = identity(3)
                    e[i][j] = k
                    assert SL3Word(zmatrix._row_add_word(i, j, k)).product() == e

    @settings(max_examples=100, deadline=None)
    @given(st.integers(8, 256), st.integers(0, 2**32), st.sampled_from([(), (0, 1), (1, 2)]))
    @example(8, 0, (0, 1))  # takes the row 0, 1 sign fix
    @example(8, 0, (1, 2))  # takes the row 1, 2 sign fix
    def test_row_operations_match_matrix_products(self, bits, seed, negated):
        # an SL3 matrix with an entry of >= bits bits, from elementary row steps
        rng = random.Random(seed)
        m = identity(3)
        while max(abs(x) for row in m for x in row).bit_length() < bits:
            i, j = rng.sample(range(3), 2)
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        for i in negated:
            m[i] = [-x for x in m[i]]
        check_word(m, sl3_factor(m))

    def test_rejects_non_sl3(self):
        with pytest.raises(NotSL3):
            sl3_factor([[1, 0], [0, 1]])
        with pytest.raises(NotSL3):
            sl3_factor([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(NotSL3):
            sl3_factor([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # det -1
        with pytest.raises(NotSL3):
            sl3_factor([[1, 0, 0], [0, 1, 0], [0, 0.5, 1]])


def _conjugator_search():
    """Breadth-first search over sigma words, letters in a fixed order: for
    each (i, j), i != j, the first shortest word whose matrix P has
    P e1 = +-e_i and P e2 = +-e_j, with the product of those two signs."""
    letters = [Gen(kind) for kind in ("s12", "s23", "s31", "s12i", "s23i", "s31i")]
    found = {}
    seen = set()
    frontier = [((), identity(3))]
    while len(found) < 6:
        nxt = []
        for word, p in frontier:
            key = tuple(map(tuple, p))
            if key in seen:
                continue
            seen.add(key)
            # p is a signed permutation: one +-1 in each column
            (i, si), (j, sj) = [next((r, p[r][c]) for r in range(3) if p[r][c]) for c in (0, 1)]
            found.setdefault((i, j), (word, si * sj))
            nxt += [(word + (g,), mat_mul(p, gen_matrix(g))) for g in letters]
        frontier = nxt
    return found
