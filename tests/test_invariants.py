import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect.diagram import CurveSystem, StarDiagram, parse_params
from trisect.errors import BoundaryNotSupported, DiagramError
from trisect.invariants import euler_char, first_homology, handle_counts


def closed_diagram(alpha, beta, gamma, genus):
    return StarDiagram(
        genus, 0,
        CurveSystem("alpha", tuple(map(tuple, alpha))),
        CurveSystem("beta", tuple(map(tuple, beta))),
        CurveSystem("gamma", tuple(map(tuple, gamma))),
    )


CP2 = closed_diagram([(1, 0)], [(0, 1)], [(1, 1)], 1)
S1XS3 = closed_diagram([(0, 1)], [(0, 1)], [(0, 1)], 1)
S4_GENUS0 = closed_diagram([], [], [], 0)


class TestFirstHomology:
    def test_cp2(self):
        rep = first_homology(CP2)
        assert (rep.h1_free_rank, rep.h1_torsion) == (0, ())
        assert rep.h1_str() == "0"

    def test_s1_x_s3(self):
        rep = first_homology(S1XS3)
        assert (rep.h1_free_rank, rep.h1_torsion) == (1, ())
        assert rep.h1_str() == "Z"

    def test_genus0(self):
        assert first_homology(S4_GENUS0).h1_free_rank == 0

    def test_torsion_formatting(self):
        d = closed_diagram([(2, 0)], [(0, 1)], [(0, 1)], 1)
        rep = first_homology(d)
        assert rep.h1_torsion == (2,)
        assert rep.h1_str() == "Z/2"

    def test_invalid_diagram_rejected(self):
        bad = closed_diagram([(1, 0), (0, 1)], [(0, 1)], [(0, 1)], 1)
        with pytest.raises(DiagramError):
            first_homology(bad)

    @pytest.mark.parametrize("cls", [(2, 0.5), (2.0, 0), (True, 0)])
    def test_non_int_class_rejected(self, cls):
        # a diagram built by hand, not parsed, is checked where it is built
        with pytest.raises(ValueError):
            first_homology(closed_diagram([cls], [(0, 1)], [(0, 1)], 1))


class TestEulerAndHandles:
    @pytest.mark.parametrize("lit,chi", [
        ("1;0,0,0", 3),
        ("41;13,13,13", 4),
        ("0;0,0,0", 2),
    ])
    def test_euler_examples(self, lit, chi):
        assert euler_char(parse_params(lit)) == chi

    @pytest.mark.parametrize("lit,handles", [
        ("41;13,13,13", (1, 13, 28, 13, 1)),
        ("1;0,0,0", (1, 0, 1, 0, 1)),
        ("7;7,7,7", (1, 7, 0, 7, 1)),   # k2 = g kills the 2-handles
    ])
    def test_handle_examples(self, lit, handles):
        assert handle_counts(parse_params(lit)) == handles

    def test_k_above_genus_refused_at_construction(self):
        # closed parameters never reach handle_counts with k_i > g
        with pytest.raises(DiagramError):
            parse_params("3;1,4,1")

    def test_boundary_refused(self):
        p = parse_params("3;1,1,1;2")
        with pytest.raises(BoundaryNotSupported):
            euler_char(p)
        with pytest.raises(BoundaryNotSupported):
            handle_counts(p)

    @given(st.integers(0, 30), st.data())
    def test_alternating_sum_is_euler(self, g, data):
        ks = tuple(data.draw(st.integers(0, g)) for _ in range(3))
        p = parse_params(f"{g};{ks[0]},{ks[1]},{ks[2]}")
        h = handle_counts(p)
        assert h[0] - h[1] + h[2] - h[3] + h[4] == euler_char(p)


# --- invariance of H1 under presentation changes -------------------------
#
# Valid random diagrams: each system draws its classes from one Lagrangian
# subspace (span of the e's, of the f's, or of the diagonals e_i + f_i), so
# every within-system pairing vanishes and validation passes.

def _lagrangian_basis(which, genus):
    basis = []
    for i in range(genus):
        v = [0] * (2 * genus)
        if which in ("e", "d"):
            v[2 * i] = 1
        if which in ("f", "d"):
            v[2 * i + 1] = 1
        basis.append(tuple(v))
    return basis


def _combo(coeffs, basis):
    n = len(basis[0])
    return tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n))


def random_valid_diagram(data, genus):
    coeff = st.tuples(*([st.integers(-3, 3)] * genus))
    systems = []
    for label, which in (("alpha", "e"), ("beta", "f"), ("gamma", "d")):
        basis = _lagrangian_basis(which, genus)
        count = data.draw(st.integers(0, genus))
        classes = tuple(_combo(data.draw(coeff), basis) for _ in range(count))
        systems.append(CurveSystem(label, classes))
    return StarDiagram(genus, 0, *systems)


def _pair(rep):
    return (rep.h1_free_rank, rep.h1_torsion)


class TestInvariance:
    """first_homology only sees the span of the three systems, so reordering,
    negating, or sliding one vector over another must not change it."""

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 3))
    def test_permute_and_negate(self, data, genus):
        d = random_valid_diagram(data, genus)
        base = _pair(first_homology(d))
        perm = CurveSystem("alpha", tuple(reversed(d.alpha.classes)))
        assert _pair(first_homology(StarDiagram(genus, 0, perm, d.beta, d.gamma))) == base
        if d.beta.classes:
            neg = tuple(tuple(-x for x in v) for v in d.beta.classes)
            d3 = StarDiagram(genus, 0, d.alpha, CurveSystem("beta", neg), d.gamma)
            assert _pair(first_homology(d3)) == base

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(2, 3))
    def test_slide_shadow(self, data, genus):
        d = random_valid_diagram(data, genus)
        if len(d.gamma.classes) < 2:
            return
        base = _pair(first_homology(d))
        v0, v1 = d.gamma.classes[0], d.gamma.classes[1]
        slid = (tuple(a + b for a, b in zip(v0, v1)),) + d.gamma.classes[1:]
        d2 = StarDiagram(genus, 0, d.alpha, d.beta, CurveSystem("gamma", slid))
        assert _pair(first_homology(d2)) == base

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 3))
    def test_symplectic_basis_change(self, data, genus):
        """e_j -> sum A_ij e_i, f_j -> sum B_ij f_i with B = (A^T)^-1 keeps
        the pairing standard, so the transformed diagram still validates."""
        d = random_valid_diagram(data, genus)
        base = _pair(first_homology(d))
        a_mat = _random_gl(data, genus)
        b_mat = _inverse_transpose(a_mat)

        def transform(v):
            es = [v[2 * i] for i in range(genus)]
            fs = [v[2 * i + 1] for i in range(genus)]
            es2 = [sum(a_mat[i][j] * es[j] for j in range(genus)) for i in range(genus)]
            fs2 = [sum(b_mat[i][j] * fs[j] for j in range(genus)) for i in range(genus)]
            out = []
            for e, f in zip(es2, fs2):
                out += [e, f]
            return tuple(out)

        systems = [
            CurveSystem(s.label, tuple(transform(v) for v in s.classes))
            for s in (d.alpha, d.beta, d.gamma)
        ]
        d2 = StarDiagram(genus, 0, *systems)
        assert _pair(first_homology(d2)) == base


def _random_gl(data, n):
    """Unimodular matrix as a short product of elementary row operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(data.draw(st.integers(0, 6))):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            c = data.draw(st.integers(-2, 2))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def _inverse_transpose(m):
    """Exact inverse-transpose of a unimodular integer matrix (adjugate)."""
    from fractions import Fraction as Q

    n = len(m)
    aug = [[Q(m[i][j]) for j in range(n)] + [Q(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    out = [[int(inv[j][i]) for j in range(n)] for i in range(n)]
    assert all(Q(out[i][j]) == inv[j][i] for i in range(n) for j in range(n))
    return out
