"""Acceptance gate: one test per shipped guarantee, each printing a
PASS line on success (run with -v for one line per criterion)."""

import itertools
import random
import time

from trisect.calculus import (
    BoundaryCircles,
    PastingInput,
    destabilize,
    fiber_sum,
    log_transform_plan,
    luttinger_plan,
    paste,
    surgery_plan_general,
)
from trisect.diagram import CurveSystem, StarDiagram, parse_fraction, parse_params
from trisect.farey import (
    CP2_MINUS,
    CP2_PLUS,
    S2TWS2,
    S2XS2,
    FareyTriple,
    SpunLens,
    classify,
    enumerate_triples,
    farey_homology_model,
    fraction_universe,
    qx,
)
from trisect.invariants import euler_char, first_homology, handle_counts
from trisect.slides import (
    apply_move,
    initial_state,
    lambda_conserved,
    mu_conserved,
    reduce_full,
    reduce_mu,
)
from trisect.zmatrix import (
    classify_unimodular,
    determinant,
    is_unimodular,
    mat_mul,
    smith_normal_form,
    sym_form_invariants,
)


def _done(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_farey_atlas_soundness():
    start = time.perf_counter()
    seen = 0
    for t, cls in enumerate_triples(10):
        seen += 1
        if cls.kind == "FareyTriplet":
            inv = sym_form_invariants(qx(t))
            assert abs(inv.det) == 1
            assert inv.parity == "Odd"
            assert inv.signature in (1, -1)
            assert cls.manifold in (CP2_PLUS, CP2_MINUS)
        elif cls.kind == "TwoDistinct":
            inv = sym_form_invariants(qx(t))
            assert inv.det == -1
            dens = sorted(f.den for f in t)
            # the two distinct fractions' denominators decide the bundle
            counts = {}
            for f in t:
                counts[f] = counts.get(f, 0) + 1
            lone = next(f for f, c in counts.items() if c == 1)
            rep = next(f for f, c in counts.items() if c == 2)
            expect = S2XS2 if (lone.den * rep.den) % 2 == 0 else S2TWS2
            assert cls.manifold == expect
    elapsed = time.perf_counter() - start
    assert seen > 0
    assert elapsed < 5.0, f"atlas took {elapsed:.2f}s"
    _done(1, "farey atlas soundness")


def test_criterion_2_qx_spot_value():
    t = FareyTriple(parse_fraction("1/1"), parse_fraction("1/2"), parse_fraction("2/3"))
    assert qx(t) == [[2, -1, 1], [-1, 0, 0], [1, 0, -1]]
    assert classify(t).manifold == CP2_MINUS
    _done(2, "qx spot value")


def test_criterion_3_spun_lens():
    checked = 0
    for f in fraction_universe(10):
        if f.den == 0:
            continue
        t = FareyTriple(f, f, f)
        cls = classify(t)
        assert cls.manifold == SpunLens(f.den, f.num)
        rep = first_homology(farey_homology_model(t))
        if f.den == 1:
            assert (rep.h1_free_rank, rep.h1_torsion) == (0, ())
        else:
            assert (rep.h1_free_rank, rep.h1_torsion) == (0, (f.den,))
        checked += 1
    assert checked > 0
    _done(3, "spun lens classification and homology")


def test_criterion_4_cacime_chain():
    def chain():
        start = time.perf_counter()
        side = parse_params("21;6,6,11").with_bridge(5, (1, 1, 1))
        summed = fiber_sum(side, side)
        assert summed == parse_params("51;13,13,23")
        reduced = destabilize(summed, sector=3, times=10)
        assert reduced == parse_params("41;13,13,13")
        assert handle_counts(reduced) == (1, 13, 28, 13, 1)
        assert euler_char(reduced) == 4
        return time.perf_counter() - start

    # the best of 5 runs, so that one stalled run (a busy machine, a
    # tracer) does not fail the bound; a slow chain is slow in all five
    elapsed = min(chain() for _ in range(5))
    assert elapsed < 0.001, f"chain took {elapsed * 1000:.3f}ms (best of 5)"
    _done(4, "cacime chain")


def test_criterion_5_torus_sphere_pasting():
    side = parse_params("1;0,0,0;3")
    out = paste(PastingInput(side, side, BoundaryCircles(3)))
    assert out.genus == 4
    _done(5, "torus x sphere pasting genus")


def test_criterion_6_surgery_algebra():
    start = time.perf_counter()
    for m in range(-10, 11):
        for n in range(-10, 11):
            assert luttinger_plan(m, n).composite == \
                [[1, 0, m], [0, 1, n], [0, 0, 1]]
    rng = random.Random(20260816)
    for _ in range(100):
        m, n = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        assert luttinger_plan(m, n).composite == \
            [[1, 0, m], [0, 1, n], [0, 0, 1]]

    def rand_sl2():
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(0, 12)):
            g = rng.choice([((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0))])
            m = tuple(tuple(sum(m[i][k] * g[k][j] for k in range(2))
                            for j in range(2)) for i in range(2))
        return m

    mats = [rand_sl2() for _ in range(98)]
    mats.append(((0, 1), (-1, rng.randint(-9, 9))))   # generic A_p
    mats.append(((0, 1), (-1, 0)))                    # p = 0
    for a in mats:
        plan = log_transform_plan(a)
        assert plan.composite == [
            [1, 0, 0],
            [0, a[0][0], a[0][1]],
            [0, a[1][0], a[1][1]],
        ]

    from trisect.zmatrix import Gen, gen_matrix, identity
    kinds = ["s12", "s23", "s31", "s12i", "s23i", "s31i", "e"]
    for _ in range(1000):
        m = identity(3)
        for _ in range(rng.randint(0, 30)):
            kind = rng.choice(kinds)
            g = Gen(kind, rng.randint(-6, 6)) if kind == "e" else Gen(kind)
            m = mat_mul(m, gen_matrix(g))
        assert surgery_plan_general(m).composite == m
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"surgery algebra took {elapsed:.2f}s"
    _done(6, "surgery algebra")


def test_criterion_7_slides_engine():
    start = time.perf_counter()
    final, _ = reduce_mu(initial_state("MMMMLLL"))
    assert final.w3 == "LLL" and final.t3 == 4

    def all_shuffles(m, n):
        for positions in itertools.combinations(range(m + n), m):
            word = ["L"] * (m + n)
            for p in positions:
                word[p] = "M"
            yield "".join(word)

    for m in range(0, 9):
        for n in range(1, 9):
            if m + n > 12:
                continue
            for word in all_shuffles(m, n):
                s = initial_state(word)
                fin, trace = reduce_full(s)
                assert (fin.t3, fin.t1) == (m, n - 1)
                cur = s
                phase1 = True
                for mv in trace:
                    cur = apply_move(cur, mv)
                    assert mu_conserved(cur)
                    if mv.kind == "SlideA2OverBeta":
                        phase1 = False
                    if phase1:
                        assert lambda_conserved(cur)
                assert cur == fin
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"slides sweep took {elapsed:.2f}s"
    _done(7, "slides engine")


def test_criterion_8_linear_algebra_kernel():
    rng = random.Random(4821)
    for _ in range(1000):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        u, s, v = smith_normal_form(m)
        assert is_unimodular(u) and is_unimodular(v)
        assert mat_mul(mat_mul(u, m), v) == s
        diag = [s[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
    for _ in range(20):
        n = rng.randint(1, 5)
        q = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                q[i][j] = q[j][i] = rng.randint(-6, 6)
        base = sym_form_invariants(q)
        for _ in range(5):
            g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    g[i] = [-x for x in g[i]]
                else:
                    c = rng.randint(-2, 2)
                    g[i] = [x + c * y for x, y in zip(g[i], g[j])]
            gt = [list(r) for r in zip(*g)]
            q2 = mat_mul(mat_mul(gt, q), g)
            assert sym_form_invariants(q2) == base
    hyper = classify_unimodular([[0, 1], [1, 0]])
    assert hyper.kind == "even_indefinite"
    assert sym_form_invariants([[0, 1], [1, 0]]).signature == 0
    mixed = classify_unimodular([[1, 0], [0, -1]])
    assert mixed.kind == "odd_indefinite"
    assert sym_form_invariants([[1, 0], [0, -1]]).signature == 0
    _done(8, "linear algebra kernel")


def test_criterion_9_h1_corpus():
    def diagram(alpha, beta, gamma, genus):
        return StarDiagram(
            genus, 0,
            CurveSystem("alpha", alpha),
            CurveSystem("beta", beta),
            CurveSystem("gamma", gamma),
        )

    cp2 = diagram(((1, 0),), ((0, 1),), ((1, 1),), 1)
    s1s3 = diagram(((0, 1),), ((0, 1),), ((0, 1),), 1)
    s4 = diagram((), (), (), 0)
    assert first_homology(cp2).h1_str() == "0"
    assert first_homology(s1s3).h1_str() == "Z"
    assert first_homology(s4).h1_str() == "0"

    rng = random.Random(99)

    def lagrangian(which, genus):
        basis = []
        for i in range(genus):
            v = [0] * (2 * genus)
            if which in ("e", "d"):
                v[2 * i] = 1
            if which in ("f", "d"):
                v[2 * i + 1] = 1
            basis.append(v)
        return basis

    for _ in range(200):
        genus = rng.randint(1, 4)
        systems = []
        for label, which in (("alpha", "e"), ("beta", "f"), ("gamma", "d")):
            basis = lagrangian(which, genus)
            classes = []
            for _ in range(rng.randint(0, genus)):
                coeffs = [rng.randint(-3, 3) for _ in range(genus)]
                classes.append(tuple(
                    sum(c * b[j] for c, b in zip(coeffs, basis))
                    for j in range(2 * genus)))
            systems.append(CurveSystem(label, tuple(classes)))
        d = StarDiagram(genus, 0, *systems)
        base = first_homology(d)
        target = rng.choice([s for s in (d.alpha, d.beta, d.gamma)
                             if len(s.classes) >= 2] or [None])
        if target is None:
            continue
        i, j = rng.sample(range(len(target.classes)), 2)
        slid = list(target.classes)
        slid[i] = tuple(a + b for a, b in zip(slid[i], slid[j]))
        new_systems = [
            CurveSystem(s.label, tuple(slid) if s.label == target.label else s.classes)
            for s in (d.alpha, d.beta, d.gamma)
        ]
        d2 = StarDiagram(genus, 0, *new_systems)
        rep = first_homology(d2)
        assert (rep.h1_free_rank, rep.h1_torsion) == \
            (base.h1_free_rank, base.h1_torsion)
    _done(9, "H1 corpus and slide invariance")
