"""Exact integer linear algebra: Smith form, symmetric-form invariants,
and factorization in SL3(Z).

Matrices are plain lists of lists of Python ints (row major), so every
computation is arbitrary-precision exact.  Nothing here rounds.

There is one dense Smith pivot loop, `_smith_block`, and two kernels call
it.  `smith_normal_form` runs it on the matrix bordered by identities, so
the same row and column operations build the unimodular transforms U and
V; it serves callers that need them and is the reference the fast kernel
is tested against.  `_smith_rows` computes the nonzero diagonal alone
off sparse rows {column: entry}: it eliminates +-1 pivots first
(`_unit_pivots`) and runs the loop, unbordered, only on the unit-free
block left.  `smith_diagonal` and `cokernel_invariants` check a dense
matrix and call it.  H1 of a diagram, whose entries were checked when it
was built, calls the unchecked cores: `_unit_pivots` on [P | 2I] and
`_smith_rows` on what is left, or `_smith_rows` on the class matrix.

`determinant` (row swaps) and `sym_form_invariants` (symmetric swaps)
share one fraction-free Bareiss step, so nothing here uses rationals.

The SL3 word alphabet consists of the three quarter-turn matrices

    s12 = [[0,-1,0],[1,0,0],[0,0,1]]
    s23 = [[1,0,0],[0,0,-1],[0,1,0]]
    s31 = [[0,0,1],[0,1,0],[-1,0,0]]

their inverses, and the shears E(k) = [[1,k,0],[0,1,0],[0,0,1]].  These
generate SL3(Z); `sl3_factor` writes any determinant-1 integer matrix as a
word in them by Euclidean row reduction: each row step a_i += k*a_j
emits one conjugated shear of at most 5 letters, and each of the two
possible sign fixes emits 2, so a word has at most 5*(shears) + 4 letters.
"""

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from ._record import Record
from .errors import FormUndefined, NotSL3, NotUnimodular

IntMatrix = List[List[int]]


# ---------------------------------------------------------------------------
# basic matrix helpers
# ---------------------------------------------------------------------------

def check_int_matrix(m: Sequence[Sequence[int]], name: str = "matrix") -> None:
    """Validate a rectangular matrix of Python ints (bools rejected)."""
    if not isinstance(m, (list, tuple)):
        raise ValueError(f"{name}: expected a list of rows")
    width = None
    for i, row in enumerate(m):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"{name}[{i}]: expected a row (list of ints)")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{name}[{i}]: ragged row (len {len(row)} != {width})")
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"{name}[{i}][{j}]: not an integer: {x!r}")


def dims(m: Sequence[Sequence[int]]) -> Tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    ra, ca = dims(a)
    rb, cb = dims(b)
    if ca != rb:
        raise ValueError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    out = [[0] * cb for _ in range(ra)]
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            x = arow[k]
            if x:
                brow = b[k]
                for j in range(cb):
                    orow[j] += x * brow[j]
    return out


def mat_copy(m: Sequence[Sequence[int]]) -> IntMatrix:
    return [list(row) for row in m]


def transpose(m: Sequence[Sequence[int]]) -> IntMatrix:
    r, c = dims(m)
    return [[m[i][j] for i in range(r)] for j in range(c)]


def _bareiss_step(a: IntMatrix, t: int, prev: int) -> int:
    """Bareiss step on the pivot p = a[t][t], in place: for i, j > t,
    a[i][j] = (p*a[i][j] - a[i][t]*a[t][j]) // prev, prev the last pivot
    (1 at t = 0).  Exact by Sylvester's identity: each a[i][j] becomes the
    minor on rows 0..t, i and columns 0..t, j of the input as the caller's
    swaps and basis moves left it, and p its leading principal minor of
    order t + 1.  Returns p."""
    top = a[t]
    p = top[t]
    for row in a[t + 1:]:
        x = row[t]
        for j in range(t + 1, len(top)):
            row[j] = (p * row[j] - x * top[j]) // prev
    return p


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free Bareiss elimination with row swaps."""
    n, c = dims(m)
    if n != c:
        raise ValueError(f"determinant of non-square {n}x{c} matrix")
    a = mat_copy(m)
    sign = prev = 1
    for t in range(n):
        if a[t][t] == 0:
            i = next((i for i in range(t + 1, n) if a[i][t]), None)
            if i is None:
                return 0
            a[t], a[i] = a[i], a[t]
            sign = -sign
        prev = _bareiss_step(a, t, prev)
    return sign * prev


def is_unimodular(m: Sequence[Sequence[int]]) -> bool:
    r, c = dims(m)
    return r == c and determinant(m) in (1, -1)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(m: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, S, V) with U*m*V = S in Smith normal form.

    U and V are unimodular; S is diagonal with nonnegative entries
    satisfying S[i][i] | S[i+1][i+1].  The pivot loop runs on the bordered
    matrix [[m, I_r], [I_c, 0]]: its row operations carry the top-right
    block from I_r to U and its column operations the bottom-left block
    from I_c to V (Cohen, GTM 138, section 2.4).
    """
    check_int_matrix(m)
    r, c = dims(m)
    s = [list(row) + e for row, e in zip(m, identity(r))] + [e + [0] * r for e in identity(c)]
    _smith_block(s, r, c)
    return [row[c:] for row in s[:r]], [row[:c] for row in s[:r]], [row[:c] for row in s[r:]]


def smith_diagonal(m: Sequence[Sequence[int]]) -> List[int]:
    """The diagonal of the Smith normal form of m, without U and V.

    Equal to [S[i][i] for i in range(min(rows, cols))] where S is the
    middle factor of `smith_normal_form(m)`: the nonzero diagonal of
    `_smith_rows` on the sparse rows of m, padded with zeros.  Validates m
    like `smith_normal_form` does.
    """
    check_int_matrix(m)
    diag = _smith_rows([{j: x for j, x in enumerate(row) if x} for row in m])
    return diag + [0] * (min(dims(m)) - len(diag))


def _smith_rows(rows: List[dict]) -> List[int]:
    """The nonzero Smith diagonal of rows {column: entry}, nonzero entries
    only and any int column keys, checked by the caller.  Two phases:

    1. Unit pivots (`_unit_pivots`).  While an entry is +-1, take one from
       the row with the fewest nonzeros (within it, from the column with
       the fewest) and clear its column with row operations, a Schur
       complement step.  The column operations that would clear the pivot
       row then change that row only, so the row is dropped and a
       diagonal 1 emitted.
    2. On the unit-free rows left, `_smith_block` on the columns they use:
       the pivot loop that `smith_normal_form` runs on a bordered matrix,
       here with no border and so no transforms kept.

    The rows are changed in place.  U m V = S gives V^T m^T U^T = S^T, so
    the rows of m and those of its transpose give one diagonal.
    """
    ones, rows = _unit_pivots(rows)
    cols = sorted({j for row in rows for j in row})
    block = [[row.get(j, 0) for j in cols] for row in rows]
    return [1] * ones + _smith_block(block, len(block), len(cols))


def _unit_pivots(rows: List[dict]) -> Tuple[int, List[dict]]:
    """Phase 1 of `_smith_rows`, on its rows and in place: the number of
    unit pivots and the nonzero rows left.  On [M | 2I] the 2I part, never
    a unit as row operations keep it even, ends as 2U for the product U of
    those operations."""
    rows = [row for row in rows if row]
    # nonzeros per column, in a plain dict: its item access is faster than Counter's
    counts = dict(Counter(j for row in rows for j in row))
    ones = 0
    while True:
        pivot = _unit_pivot(rows, counts)
        if pivot is None:
            return ones, rows
        pi, pj = pivot
        prow = rows.pop(pi)
        sign = prow[pj]
        for j in prow:
            counts[j] -= 1
        for row in rows:
            x = row.get(pj)
            if x is None:
                continue
            f = x * sign  # row -= f * prow zeroes row[pj]
            for j, y in prow.items():
                old = row.get(j, 0)
                z = old - f * y
                if z:
                    row[j] = z
                    if not old:
                        counts[j] += 1
                else:
                    del row[j]
                    counts[j] -= 1
        rows = [row for row in rows if row]
        ones += 1


def _unit_pivot(rows: List[dict], counts: Dict[int, int]):
    """(row index, column) of a +-1 entry in the shortest row that has one,
    in the column with the fewest nonzeros; None if there is no such entry."""
    best = None
    for i, row in enumerate(rows):
        if best is not None and len(row) >= len(rows[best]):
            continue
        if 1 in row.values() or -1 in row.values():
            best = i
    if best is None:
        return None
    return best, min((j for j, x in rows[best].items() if x in (1, -1)), key=counts.__getitem__)


def _smith_block(s: IntMatrix, r: int, c: int) -> List[int]:
    """Smith pivot loop on the top-left r x c block of s, in place; returns
    the nonzero diagonal.

    Pivot: the smallest nonzero magnitude in the trailing block, first in
    row-major order.  Its row and column are cleared with floor quotients,
    restarting while a remainder is left; a pivot that does not divide the
    trailing block gets the first row holding a non-multiple added, and is
    sought again.  A final negative pivot has its row negated.  Only the
    block is read, but row operations act on whole rows and column
    operations on every row from the pivot down, so anything bordering the
    block records the transforms.
    """
    diag: List[int] = []
    for t in range(min(r, c)):
        while True:
            pi = pj = -1
            best = None
            for i in range(t, r):
                row = s[i]
                for j in range(t, c):
                    x = abs(row[j])
                    if x and (best is None or x < best):
                        best, pi, pj = x, i, j
            if best is None:
                return diag
            s[t], s[pi] = s[pi], s[t]
            if pj != t:
                for row in s[t:]:
                    row[t], row[pj] = row[pj], row[t]
            top = s[t]
            p = top[t]
            dirty = False
            for i in range(t + 1, r):
                row = s[i]
                if row[t]:
                    q = row[t] // p
                    s[i] = row = [a - q * b for a, b in zip(row, top)]
                    if row[t]:
                        dirty = True
            live = [row for row in s[t:] if row[t]]  # column steps change no other row
            for j in range(t + 1, c):
                if top[j]:
                    q = top[j] // p
                    for row in live:
                        row[j] -= q * row[t]
                    if top[j]:
                        dirty = True
            if dirty:
                continue
            culprit = next(
                (i for i in range(t + 1, r) if any(x % p for x in s[i][t + 1:c])), None
            )
            if culprit is None:
                break
            s[t] = [a + b for a, b in zip(top, s[culprit])]
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
        diag.append(s[t][t])
    return diag


class CokernelInvariants(Record):
    """Invariants of Z^rows / column-span(M)."""
    __slots__ = ("free_rank", "torsion")


def cokernel_invariants(m: Sequence[Sequence[int]]) -> CokernelInvariants:
    """Free rank and torsion factors (>1) of Z^rows / col-span(m)."""
    check_int_matrix(m)
    diag = _smith_rows([{j: x for j, x in enumerate(row) if x} for row in m])
    return CokernelInvariants(len(m) - len(diag), tuple(d for d in diag if d > 1))


# ---------------------------------------------------------------------------
# symmetric bilinear forms
# ---------------------------------------------------------------------------

class FormInvariants(Record):
    """rank, signature and det (ints) of a symmetric form, and its parity:
    "Even" or "Odd"."""
    __slots__ = ("rank", "signature", "parity", "det")


def sym_form_invariants(q: Sequence[Sequence[int]]) -> FormInvariants:
    """Exact rank/signature/parity/determinant of a symmetric integer form.

    One Bareiss pass with symmetric swaps; when every remaining diagonal
    entry is zero, the basis move x_i -> x_i + x_j (a[i][j] != 0) makes the
    pivot 2*a[i][j].  Both are congruences, so the k-th pivot is a leading
    principal minor D_k of a form congruent to q: rank is the number of
    pivots, det is D_n (0 below full rank), and by Jacobi's rule a pivot is
    negative iff D_k and D_{k-1} differ in sign (D_0 = 1).  Parity is Even
    iff every diagonal entry of q is even (equivalently q(x,x) is even for
    all x).
    """
    check_int_matrix(q, "form")
    n, c = dims(q)
    if n != c:
        raise FormUndefined(f"form must be square, got {n}x{c}")
    for i in range(n):
        for j in range(i + 1, n):
            if q[i][j] != q[j][i]:
                raise FormUndefined(f"form not symmetric at ({i},{j})")

    parity = "Even" if all(q[i][i] % 2 == 0 for i in range(n)) else "Odd"

    a = mat_copy(q)
    prev, rank, neg = 1, 0, 0
    for t in range(n):
        if a[t][t] == 0:
            piv = next((i for i in range(t + 1, n) if a[i][i]), None)
            if piv is None:
                hit = next(((i, j) for i in range(t, n) for j in range(i + 1, n) if a[i][j]), None)
                if hit is None:
                    break  # remaining block is zero
                # x_i -> x_i + x_j on the trailing block: row, then column
                piv, j = hit
                a[piv] = [x + y for x, y in zip(a[piv], a[j])]
                for row in a[t:]:
                    row[piv] += row[j]
            a[t], a[piv] = a[piv], a[t]
            for row in a[t:]:
                row[t], row[piv] = row[piv], row[t]
        p = _bareiss_step(a, t, prev)
        if (p > 0) != (prev > 0):
            neg += 1
        rank += 1
        prev = p
    det = prev if rank == n else 0
    return FormInvariants(rank=rank, signature=rank - 2 * neg, parity=parity, det=det)


class FormClass(Record):
    """Classification of a unimodular symmetric form.

    kind is one of "zero", "odd_indefinite" (params (p, q)),
    "even_indefinite" (params (hyperbolic_count,)), "positive_diagonal" /
    "negative_diagonal" (params (n,)), or "unclassified".
    """
    __slots__ = ("kind", "params")
    _defaults = {"params": ()}

    def __str__(self) -> str:
        if self.params:
            return f"{self.kind}{self.params}"
        return self.kind


def classify_unimodular(q: Sequence[Sequence[int]]) -> FormClass:
    """Classify a unimodular symmetric form up to integral equivalence.

    Indefinite forms are determined by (rank, signature, parity); definite
    forms are named only up to rank 3 (diagonalizable range), everything
    else is reported "unclassified".  Raises NotUnimodular when |det| != 1.
    """
    inv = sym_form_invariants(q)
    if abs(inv.det) != 1:
        raise NotUnimodular(f"form determinant is {inv.det}, need +-1")
    if inv.rank == 0:
        return FormClass("zero")
    p = (inv.rank + inv.signature) // 2
    m = (inv.rank - inv.signature) // 2
    if inv.parity == "Odd":
        if m == 0:
            return FormClass("positive_diagonal", (p,)) if p <= 3 else FormClass("unclassified")
        if p == 0:
            return FormClass("negative_diagonal", (m,)) if m <= 3 else FormClass("unclassified")
        return FormClass("odd_indefinite", (p, m))
    if p == m:
        return FormClass("even_indefinite", (p,))
    return FormClass("unclassified")


# ---------------------------------------------------------------------------
# SL3(Z) words
# ---------------------------------------------------------------------------

class Gen(Record):
    """One letter of an SL3 word: kind in {s12, s23, s31, s12i, s23i, s31i, e};
    k is the shear amount and only meaningful for kind "e"."""
    __slots__ = ("kind", "k")
    _defaults = {"k": 0}

    def inverse(self) -> "Gen":
        if self.kind == "e":
            return Gen("e", -self.k)
        if self.kind.endswith("i"):
            return Gen(self.kind[:-1])
        return Gen(self.kind + "i")


SIGMA_12: IntMatrix = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
SIGMA_23: IntMatrix = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
SIGMA_31: IntMatrix = [[0, 0, 1], [0, 1, 0], [-1, 0, 0]]


def shear(k: int) -> IntMatrix:
    return [[1, k, 0], [0, 1, 0], [0, 0, 1]]


_GEN_FIXED = {
    "s12": SIGMA_12,
    "s23": SIGMA_23,
    "s31": SIGMA_31,
    "s12i": transpose(SIGMA_12),
    "s23i": transpose(SIGMA_23),
    "s31i": transpose(SIGMA_31),
}


def gen_matrix(g: Gen) -> IntMatrix:
    if g.kind == "e":
        return shear(g.k)
    try:
        return mat_copy(_GEN_FIXED[g.kind])
    except KeyError:
        raise ValueError(f"unknown generator kind {g.kind!r}") from None


class SL3Word(Record):
    """A word in the SL3 generators: factors, a tuple of Gen."""
    __slots__ = ("factors",)

    def product(self) -> IntMatrix:
        out = identity(3)
        for g in self.factors:
            out = mat_mul(out, gen_matrix(g))
        return out

    def __len__(self) -> int:
        return len(self.factors)


_S12, _S23, _S31 = Gen("s12"), Gen("s23"), Gen("s31")
_S12I, _S23I, _S31I = Gen("s12i"), Gen("s23i"), Gen("s31i")

# (i, j) -> (w, w^-1, s) with w a shortest sigma word whose matrix P has
# P e1 = +-e_i and P e2 = +-e_j, s the product of those two signs; then
# P E(s*k) P^-1 = I + k e_ij.  tests/test_zmatrix.py re-derives it by search.
_CONJ = {
    (0, 1): ((), (), 1),
    (0, 2): ((_S23,), (_S23I,), 1),
    (1, 0): ((_S12,), (_S12I,), -1),
    (1, 2): ((_S12, _S23), (_S23I, _S12I), 1),
    (2, 0): ((_S12, _S31), (_S31I, _S12I), 1),
    (2, 1): ((_S31,), (_S31I,), -1),
}


def _row_add_word(i: int, j: int, k: int) -> Tuple[Gen, ...]:
    """Word whose product is I + k*e_ij (adds k*row_j to row_i on the left)."""
    if k == 0:
        return ()
    word, inv, sign = _CONJ[(i, j)]
    return word + (Gen("e", sign * k),) + inv


def sl3_factor(m: Sequence[Sequence[int]]) -> SL3Word:
    """Factor a determinant-1 integer 3x3 matrix into the word alphabet.

    Raises NotSL3 for anything that is not a 3x3 integer matrix of
    determinant exactly 1.  The returned word multiplies back to m.
    """
    try:
        check_int_matrix(m)
    except ValueError as e:
        raise NotSL3(str(e)) from None
    if dims(m) != (3, 3):
        raise NotSL3(f"need a 3x3 matrix, got {dims(m)[0]}x{dims(m)[1]}")
    det = determinant(m)
    if det != 1:
        raise NotSL3(f"determinant is {det}, need 1")

    # Row steps E_1 .. E_n take a from m to I, so m = E_1^-1 ... E_n^-1:
    # each step appends the word of its own inverse.
    a = mat_copy(m)
    word: List[Gen] = []

    def row_add(i, j, k):
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        word.extend(_row_add_word(i, j, -k))

    def negate(i, j, inv):
        # sigma^2 negates rows i and j; its inverse is inv inv
        a[i] = [-x for x in a[i]]
        a[j] = [-x for x in a[j]]
        word.extend((inv, inv))

    def reduce_column(col: int, rows: List[int]):
        # Euclidean reduction of a[r][col] for r in rows down to one entry
        while True:
            nz = [r for r in rows if a[r][col] != 0]
            if len(nz) == 1:  # det 1: the column is never all zero
                return nz[0]
            piv = min(nz, key=lambda r: abs(a[r][col]))
            for r in nz:
                if r != piv:
                    row_add(r, piv, -(a[r][col] // a[piv][col]))

    # column 0 over all three rows (det 1 leaves one entry, +-1)
    lone = reduce_column(0, [0, 1, 2])
    if lone != 0:
        row_add(0, lone, a[lone][0])  # a[0][0] becomes +1
        row_add(lone, 0, -a[lone][0])
    elif a[0][0] < 0:
        negate(0, 1, _S12I)
    # column 1 over rows 1, 2
    lone = reduce_column(1, [1, 2])
    if lone == 2:
        row_add(1, 2, a[2][1])
        row_add(2, 1, -a[2][1])
    elif a[1][1] < 0:
        negate(1, 2, _S23I)
    # a is now upper triangular with diagonal (1, 1, 1); clear the tail
    row_add(1, 2, -a[1][2])
    row_add(0, 2, -a[0][2])
    row_add(0, 1, -a[0][1])
    return SL3Word(tuple(word))
