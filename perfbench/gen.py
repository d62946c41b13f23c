"""Seeded input generators, one per workload.

Every generator takes a seed and returns a list of rounds, each a list of
cases; the benchmark runs whole rounds only.  A case is a dict holding the
input the program sees (and only that goes to the program) plus the
expected answer.  The generators derive expected answers without calling
trisect; the atlas CSVs and the fixed cli cases are compared with outputs
pinned from the seed commit (pin.py).  The same seed gives the same cases;
each generator draws from its own `random.Random(seed)`.

The mixes are stratified: every seed draws the same number of inputs from
each size class and only the content and order vary.  Work per run then
depends on the machine, not on the seed.
"""

import json
import random
from math import gcd
from typing import Dict, List, Sequence, Tuple

import oracles

# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------
# Why: the only workload where Smith normal form (zmatrix.smith) dominates.
# Small genera make p50 mostly parse/validate; the rare large genera make p90
# mostly Smith.  H1 is known by construction: a block sum of genus-3 Farey
# homology blocks, each with H1 = Z/gcd(p1, p2, p3), mixed by symplectic
# transvections, which preserve every pairing and the cokernel.

# block count k (genus 3k) -> cases per round.  p50 falls inside k = 3 and
# p90 inside k = 8; the invalid cases form their own stratum (k = 2 and 4).
HOMOLOGY_MIX = {1: 10, 2: 6, 3: 6, 4: 4, 5: 4, 6: 2, 8: 5, 10: 2, 12: 1}
HOMOLOGY_INVALID = {2: 1, 4: 1}
HOMOLOGY_ROUNDS = 16


def _block_classes(q: Sequence[int], p: Sequence[int]) -> Tuple[list, list, list]:
    """Curve classes of one genus-3 block over the basis
    (z1, y1, z2, y2, lam, mu) = (e1, f1, e2, f2, e3, f3), written from the
    formula stated for farey_homology_model:

        alpha = { z1,      y2 + lam,  q1*lam + p1*(mu + z2) }
        beta  = { z2,      y1,        q2*lam + p2*mu }
        gamma = { z1 + z2, y1 - y2,   q3*lam + p3*mu }
    """
    alpha = [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0], [0, 0, p[0], 0, q[0], p[0]]]
    beta = [[0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, q[1], p[1]]]
    gamma = [[1, 0, 1, 0, 0, 0], [0, 1, 0, -1, 0, 0], [0, 0, 0, 0, q[2], p[2]]]
    return alpha, beta, gamma


def _reduced(rng: random.Random, max_den: int) -> Tuple[int, int]:
    """A reduced slope num/den with 0 < den <= max_den, as (num, den)."""
    while True:
        den = rng.randint(1, max_den)
        num = rng.randint(-max_den, max_den)
        if gcd(num, den) == 1:
            return num, den


def _neighbor(rng: random.Random, num: int, den: int) -> Tuple[int, int]:
    """A Farey neighbor c/d of num/den (num*d - den*c = +-1), d >= 0."""
    # extended Euclid gives one solution; shifting by (num, den) gives others
    old_r, r, old_s, s, old_t, t = num, den, 1, 0, 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    # old_s*num + old_t*den = old_r = +-1, so c/d = -old_t/old_s is a neighbor
    c, d = -old_t * old_r, old_s * old_r
    shift = rng.randint(0, 3)
    c, d = c + shift * num, d + shift * den
    if d < 0 or (d == 0 and c != 1):
        c, d = -c, -d
    return c, d


def _block_triple(rng: random.Random) -> Tuple[List[int], List[int], int]:
    """(nums q, dens p, gcd of dens) for a random valid Farey triple.

    All-equal triples q/p carry the torsion Z/p, and 1/0 a free Z (gcd 0);
    a triple with two distinct neighbors has coprime denominators."""
    shape = rng.random()
    if shape < 0.5:
        if rng.random() < 0.2:
            return [1, 1, 1], [0, 0, 0], 0
        num, den = _reduced(rng, 9)
        return [num] * 3, [den] * 3, den
    num, den = _reduced(rng, 9)
    c, d = _neighbor(rng, num, den)
    if shape < 0.75:  # two distinct
        q, p = [num, c, c], [den, d, d]
    else:  # three distinct: x, y and their mediant
        q, p = [num, c, num + c], [den, d, den + d]
    order = list(range(3))
    rng.shuffle(order)
    return [q[i] for i in order], [p[i] for i in order], 1


def invariant_factors(orders: Sequence[int]) -> Tuple[int, ...]:
    """Invariant factors d1 | d2 | ... (all > 1) of the sum of cyclic groups
    Z/n for n in orders (each n >= 2)."""
    powers: Dict[int, List[int]] = {}
    for n in orders:
        d = 2
        while n > 1:
            if d * d > n:
                d = n  # what is left is prime
            pk = 1
            while n % d == 0:
                n //= d
                pk *= d
            if pk > 1:
                powers.setdefault(d, []).append(pk)
            d += 1
    width = max((len(v) for v in powers.values()), default=0)
    factors = [1] * width
    for pks in powers.values():
        pks.sort(reverse=True)
        for i, pk in enumerate(pks):
            factors[width - 1 - i] *= pk
    return tuple(factors)


def homology_case(rng: random.Random, blocks: int, invalid: bool) -> dict:
    genus = 3 * blocks
    dim = 2 * genus
    systems: List[List[List[int]]] = [[], [], []]
    free, orders = 0, []
    for b in range(blocks):
        q, p, order = _block_triple(rng)
        if order == 0:
            free += 1
        elif order > 1:
            orders.append(order)
        for sys_idx, block in enumerate(_block_classes(q, p)):
            for cls in block:
                vec = [0] * dim
                vec[6 * b:6 * b + 6] = cls
                systems[sys_idx].append(vec)
    # one seeded product of transvections T_v(x) = x + s*(x.v)*v, applied to
    # every curve; v is sparse and spans several blocks to mix them
    # (v held as {coordinate: +-1}; x.v sums x[j^1]*v[j], negated for e_i)
    for _ in range(2 * genus):
        v = {j: rng.choice((-1, 1)) for j in rng.sample(range(dim), 3)}
        s = rng.choice((-1, 1))
        for system in systems:
            for x in system:
                a = sum(x[j ^ 1] * vj if j & 1 else -x[j ^ 1] * vj for j, vj in v.items())
                if a:
                    for j, vj in v.items():
                        x[j] += s * a * vj
    expected = {"free_rank": free, "torsion": list(invariant_factors(orders))}
    if invalid:
        expected = None
        if rng.random() < 0.5:
            # give alpha[0] a class pairing nonzero with alpha[1]
            target = systems[0][1]
            j = next(i for i, x in enumerate(target) if x)
            bump = [0] * dim
            bump[j ^ 1] = 1  # e_i pairs with f_i and vice versa
            systems[0][0] = [x + y for x, y in zip(systems[0][0], bump)]
        else:
            systems[rng.randrange(3)][rng.randrange(genus)].append(0)
    basis = " ".join(f"{c}{i}" for i in range(1, genus + 1) for c in "ef")
    text = json.dumps({"basis": basis, "genus": genus, "boundary": 0,
                       "alpha": systems[0], "beta": systems[1], "gamma": systems[2]})
    return {"text": text, "genus": genus, "expect": expected}


def homology(seed: int) -> List[List[dict]]:
    rng = random.Random(seed)
    strata = [(k, False) for k, n in HOMOLOGY_MIX.items() for _ in range(n)]
    strata += [(k, True) for k, n in HOMOLOGY_INVALID.items() for _ in range(n)]
    rounds = []
    for _ in range(HOMOLOGY_ROUNDS):
        rng.shuffle(strata)
        rounds.append([homology_case(rng, k, invalid) for k, invalid in strata])
    return rounds


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------
# Why: pair enumeration and form elimination in farey and zmatrix.form
# dominate, and the work grows as max_den^4.  Each sweep draws one cap from
# every stratum, so every run covers small, middle and large caps alike.

ATLAS_STRATA = ((10, 17), (18, 25), (26, 33), (34, 40))
ATLAS_SWEEPS = 8


def atlas(seed: int) -> List[List[int]]:
    """Rounds of caps (max_den values), one cap per stratum each."""
    rng = random.Random(seed)
    sweeps = []
    for _ in range(ATLAS_SWEEPS):
        sweep = [rng.randint(lo, hi) for lo, hi in ATLAS_STRATA]
        rng.shuffle(sweep)
        sweeps.append(sweep)
    return sweeps


# ---------------------------------------------------------------------------
# plans-slides
# ---------------------------------------------------------------------------
# Why: the word kernels (zmatrix.sl3 factoring, calculus plan building and
# plan I/O, the slides reducer and its trace) run here and nowhere else.

# Per round: one general plan per size, two short plans, one reduction per
# length, one det != 1 matrix and one word without a lambda: 19 cases.  The
# repeated sizes put p50 inside the four 80-letter reductions and p90 inside
# the two 256-bit plans, classes well apart from their neighbours.
PLAN_BITS = (8, 32, 64, 128, 192, 256, 256)
WORD_LENGTHS = (20, 40, 80, 80, 80, 80, 150, 300)
PLANS_ROUNDS = 20


def sl3_matrix(rng: random.Random, bits: int) -> List[List[int]]:
    """A determinant-1 integer matrix whose largest entry has >= bits bits,
    as a product of random elementary matrices I + k*e_ij."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    while max(abs(x) for row in m for x in row).bit_length() < bits:
        i, j = rng.sample(range(3), 2)
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return m


def _sl2(rng: random.Random) -> List[List[int]]:
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 8)):
        i = rng.randrange(2)
        k = rng.randint(-5, 5)
        m[i] = [a + k * b for a, b in zip(m[i], m[1 - i])]
    return m


def slide_word(rng: random.Random, length: int, lambdas: bool = True) -> str:
    if not lambdas:
        return "M" * length
    word = [rng.choice("ML") for _ in range(length)]
    word[rng.randrange(length)] = "L"
    return "".join(word)


def plans_slides(seed: int) -> List[List[dict]]:
    rng = random.Random(seed)
    rounds = []
    for _ in range(PLANS_ROUNDS):
        cases: List[dict] = [{"op": "general", "matrix": sl3_matrix(rng, bits)}
                             for bits in PLAN_BITS]
        bad = sl3_matrix(rng, rng.choice(PLAN_BITS))
        row = rng.randrange(3)
        bad[row] = [x * rng.choice((-1, 2, 3)) for x in bad[row]]  # det -1, 2 or 3
        cases.append({"op": "general", "matrix": bad, "reject": True})
        cases.append({"op": "luttinger", "m": rng.randint(-10**6, 10**6),
                      "n": rng.randint(-10**6, 10**6)})
        log = _sl2(rng)
        if rng.random() < 0.5:
            log[0] = [2 * x for x in log[0]]  # det 2
            cases.append({"op": "log", "matrix": log, "reject": True})
        else:
            cases.append({"op": "log", "matrix": log})
        for length in WORD_LENGTHS:
            mode = rng.choice(("reduce-mu", "reduce-full"))
            cases.append({"op": mode, "word": slide_word(rng, length)})
        cases.append({"op": "reduce-full", "word": slide_word(rng, 20, lambdas=False),
                      "reject": True})
        rng.shuffle(cases)
        rounds.append(cases)
    return rounds


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------
# Why: the same modules on tiny inputs, where interpreter start and import
# dominate.  A change that adds import-time or per-call overhead shows here
# and in homology p50.  Each case is one `python -m trisect.cli` process.
# Fixed cases come from cli_pinned.json (the PAPER.md examples with their
# literal output, one case per verb, error inputs); seeded cases draw fresh
# arguments for verbs whose output has a closed form.

CLI_ROUNDS = 8

CP2_DIAGRAM = {"basis": "e1 f1", "genus": 1, "boundary": 0,
               "alpha": [[1, 0]], "beta": [[0, 1]], "gamma": [[1, 1]]}
INVALID_DIAGRAM = {"genus": 1, "alpha": [[1, 0], [0, 1]], "beta": [[0, 1]],
                   "gamma": [[1, 1]]}
WORK_DIR = ".perfbench_work"


def cli_files() -> Dict[str, str]:
    """Small input files the fixed cases name, relative to the checkout."""
    return {
        f"{WORK_DIR}/cp2.json": json.dumps(CP2_DIAGRAM),
        f"{WORK_DIR}/invalid.json": json.dumps(INVALID_DIAGRAM),
        f"{WORK_DIR}/nested.json": "[" * 100_000,
    }


def _h1_text(free: int, torsion: Sequence[int]) -> str:
    parts = ["Z"] * free + [f"Z/{t}" for t in torsion]
    return " + ".join(parts) if parts else "0"


def _cli_seeded(rng: random.Random, idx: int, kind: str, pinned_atlas: Dict[str, dict]) -> dict:
    if kind == "invariants":
        case = homology_case(rng, 1, False)
        path = f"{WORK_DIR}/seeded_{idx}.json"
        exp = case["expect"]
        return {"argv": ["invariants", path], "files": {path: case["text"]},
                "stdout": f"H1 = {_h1_text(exp['free_rank'], exp['torsion'])}\n"}
    if kind == "slide":
        word = slide_word(rng, rng.randint(3, 12))
        moves = len(oracles.expected_moves(word, full=False))
        return {"argv": ["slide", "reduce-mu", "--w3", word],
                "stdout": f"{oracles.expected_final(word, full=False)}\nmoves: {moves}\n"}
    if kind == "destab":
        g = rng.randint(5, 60)
        k = [rng.randint(0, g) for _ in range(3)]
        sector = rng.randint(1, 3)
        others = max(k[i] for i in range(3) if i != sector - 1)
        times = rng.randint(0, min(k[sector - 1], g - others))  # result keeps k_i <= g
        out = list(k)
        out[sector - 1] -= times
        return {"argv": ["destab", f"{g};{k[0]},{k[1]},{k[2]}", "--sector", str(sector),
                         "--times", str(times)],
                "stdout": f"{g - times};{out[0]},{out[1]},{out[2]}\n"}
    if kind == "fiber-sum":
        c = [rng.randint(0, 3) for _ in range(3)]
        c[rng.randrange(3)] = max(1, max(c))
        b = rng.randint(max(c), 4)
        sides = []
        for _ in range(2):
            g = rng.randint(0, 9)
            sides.append((g, [rng.randint(0, g) for _ in range(3)]))
        (g1, k1), (g2, k2) = sides
        k = [k1[i] + k2[i] + c[i] for i in range(3)]
        return {"argv": ["fiber-sum", f"{g1};{k1[0]},{k1[1]},{k1[2]}",
                         f"{g2};{k2[0]},{k2[1]},{k2[2]}", "--bridge", str(b),
                         "--common", ",".join(map(str, c))],
                "stdout": f"{g1 + g2 + 2 * b - 1};{k[0]},{k[1]},{k[2]}\n"}
    if kind == "luttinger":
        m, n = rng.randint(-99, 99), rng.randint(-99, 99)
        lines = ["COMPLEMENT", "TAU0", "TAU23", f"SHEAR 1 {m} 0 1", "TAU31",
                 f"SHEAR 1 {n} 0 1", "TAU31", "TAU23", "TAUEMPTY",
                 f"COMPOSITE 1 0 {m} 0 1 {n} 0 0 1"]
        return {"argv": ["plan", "luttinger", "--m", str(m), "--n", str(n)],
                "stdout": "\n".join(lines) + "\n"}
    if kind.startswith("atlas"):
        # the heavy class, about a fifth of a round, so p90 falls inside it
        cap = kind[len("atlas"):]
        return {"argv": ["farey-atlas", "--max-den", cap],
                "stdout_sha256": pinned_atlas[cap]["sha256"]}
    assert kind == "error", kind
    text = f"{rng.randint(1, 9)}/{rng.randint(1, 9)}x"
    return {"argv": ["farey-classify", "1/1", "1/2", text], "stdout": "", "exit": 1,
            "stderr": "error"}


# the same caps every round, so the heavy class costs the same for every seed
CLI_SEEDED_KINDS = ("invariants", "slide", "destab", "fiber-sum", "luttinger", "error") \
    + tuple(f"atlas{cap}" for cap in (10, 10, 11, 11, 11, 11, 12, 12))


def cli(seed: int, pinned: Sequence[dict], pinned_atlas: Dict[str, dict]) -> List[List[dict]]:
    """Fixed cases (each once per round) plus seeded ones, shuffled per round.
    The seeded farey-atlas cases print the CSV pinned for the atlas workload."""
    rng = random.Random(seed)
    rounds = []
    for r in range(CLI_ROUNDS):
        cases = [dict(c) for c in pinned]
        for i, kind in enumerate(CLI_SEEDED_KINDS):
            cases.append(_cli_seeded(rng, r * len(CLI_SEEDED_KINDS) + i, kind, pinned_atlas))
        rng.shuffle(cases)
        rounds.append(cases)
    return rounds
