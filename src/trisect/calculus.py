"""Parameter arithmetic for pasting, fiber sums, poking, destabilization,
curve complements, ribbon-graph shadows, and torus-surgery planning.

Surgery plans are ordered block sequences over the alphabet
{Complement, Tau0, Tau12, Tau23, Tau31, ShearGlue(f), TauEmpty} whose
composite is the left-to-right product of the blocks' matrices.  The
permutation blocks act by the plain coordinate transpositions; all signs
live in the shear blocks, since every rotation [[0,-1],[1,0]] is itself a
legal SL2 payload.  ShearGlue(f) fixes the third coordinate and acts by f
on the first two.

A plan holds only its blocks: the composite is computed from them on
each read, so no builder states it and nothing can make the two disagree.
The one stated composite is a plan file's COMPOSITE line, which
parse_plan checks against the block product.
"""

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._record import Record
from .diagram import CurveSystem, StarDiagram, TrisectionParams, _is_int
from .errors import (
    CannotDestabilize,
    CellDecompositionMismatch,
    DiagramError,
    NotSL2,
)
from .zmatrix import IntMatrix, identity, sl3_factor

# ---------------------------------------------------------------------------
# pasting and fiber sums
# ---------------------------------------------------------------------------

class ClosedPage(Record):
    """Glue along a fibered boundary with closed fiber of this genus."""
    __slots__ = ("page_genus",)

    def __init__(self, page_genus: int):
        if not _is_int(page_genus):
            raise DiagramError("page genus must be an integer")
        if page_genus < 0:
            raise DiagramError("page genus must be >= 0")
        self._store(page_genus)


class BoundaryCircles(Record):
    """Glue the two trisection surfaces along all n boundary circles."""
    __slots__ = ("circles",)

    def __init__(self, circles: int):
        if not _is_int(circles):
            raise DiagramError("boundary circles must be an integer")
        if circles < 1:
            raise CellDecompositionMismatch("boundary-circle pasting needs n >= 1")
        self._store(circles)


class PastingInput(Record):
    """Two trisection parameter tuples (TrisectionParams) to glue.

    mode is a ClosedPage or a BoundaryCircles; common holds per-sector
    common-curve counts (None, the default, or three ints >= 0), which
    only BoundaryCircles takes.  Construction checks both."""
    __slots__ = ("left", "right", "mode", "common")

    def __init__(self, left: TrisectionParams, right: TrisectionParams,
                 mode: Union[ClosedPage, BoundaryCircles],
                 common: Optional[Tuple[int, int, int]] = None):
        _require_params("pasting", left, right)
        if not isinstance(mode, (ClosedPage, BoundaryCircles)):
            raise DiagramError(f"unknown pasting mode {mode!r}")
        if common is not None:
            if not _is_count_triple(common):
                raise DiagramError("common-curve counts must be three ints >= 0")
            if isinstance(mode, ClosedPage):
                raise DiagramError("common-curve counts apply only to boundary-circle pasting")
            common = tuple(common)
        self._store(left, right, mode, common)


def _require_params(what: str, left, right) -> None:
    if not (isinstance(left, TrisectionParams) and isinstance(right, TrisectionParams)):
        raise DiagramError(f"{what} needs two TrisectionParams, got "
                           f"{type(left).__name__} and {type(right).__name__}")


def _is_count_triple(counts) -> bool:
    """Whether counts is a list or tuple of three ints >= 0."""
    return (isinstance(counts, (list, tuple)) and len(counts) == 3
            and all(map(_is_int, counts)) and min(counts) >= 0)


def paste(inp: PastingInput) -> TrisectionParams:
    """Genus/sector arithmetic of gluing two trisected pieces along their
    boundaries.

    ClosedPage(p): both sides closed surfaces; G = g + g' + 2 and
    K_i = k_i + k_i' + 2p.  BoundaryCircles(n): both surfaces expose
    exactly n circles, all glued; G = g + g' + n - 1, and K is reported
    only when common-curve counts are supplied (it is diagram data, not
    parameter data).
    """
    left, right, mode = inp.left, inp.right, inp.mode
    if isinstance(mode, ClosedPage):
        if left.boundary != 0 or right.boundary != 0:
            raise CellDecompositionMismatch(
                "closed-page pasting needs closed trisection surfaces on both sides"
            )
        genus = left.genus + right.genus + 2
        extra = (2 * mode.page_genus,) * 3
    else:
        n = mode.circles
        if left.boundary != n or right.boundary != n:
            raise CellDecompositionMismatch(
                f"boundary-circle pasting over n = {n} circles needs both "
                f"surfaces to expose n (got {left.boundary} and {right.boundary})"
            )
        genus = left.genus + right.genus + n - 1
        extra = inp.common
    k = None
    if extra is not None and left.k is not None and right.k is not None:
        k = tuple(map(sum, zip(left.k, right.k, extra)))
    return TrisectionParams(genus, k, 0)


def fiber_sum(left: TrisectionParams, right: TrisectionParams) -> TrisectionParams:
    """Sum along embedded surfaces in matching bridge position:
    G = g + g' + 2b - 1, K_i = k_i + k_i' + c_i."""
    _require_params("fiber sum", left, right)
    for p in (left, right):
        if p.boundary != 0:
            raise CellDecompositionMismatch("fiber sum needs closed inputs")
        if p.bridge is None:
            raise CellDecompositionMismatch("fiber sum needs bridge data on both sides")
        if p.k is None:
            raise DiagramError("fiber sum needs sector genera k on both sides")
    if left.bridge != right.bridge:
        raise CellDecompositionMismatch(
            f"bridge data differs: {left.bridge} vs {right.bridge}"
        )
    b, c = left.bridge.b, left.bridge.c
    genus = left.genus + right.genus + 2 * b - 1
    k = tuple(left.k[i] + right.k[i] + c[i] for i in range(3))
    return TrisectionParams(genus, k, 0)


def destabilize(p: TrisectionParams, sector: int, times: int = 1) -> TrisectionParams:
    """Drop genus and one sector count by `times`."""
    if not _is_int(sector) or sector not in (1, 2, 3):
        raise DiagramError(f"sector must be 1, 2, or 3, got {sector}")
    if not _is_int(times) or times < 0:
        raise DiagramError(f"times must be an integer >= 0, got {times!r}")
    if p.k is None:
        raise CannotDestabilize("parameters carry no sector genera k")
    if p.k[sector - 1] < times or p.genus < times:
        raise CannotDestabilize(
            f"cannot destabilize {times} times in sector {sector} of "
            f"(g={p.genus}, k={p.k})"
        )
    k = tuple(p.k[i] - times if i == sector - 1 else p.k[i] for i in range(3))
    return TrisectionParams(p.genus - times, k, p.boundary)


def poke(d: StarDiagram, counts: Tuple[int, int, int]) -> StarDiagram:
    """Puncture the surface away from all curves, once per requested count,
    and add the puncture boundaries (null classes) to the systems."""
    if not _is_count_triple(counts):
        raise DiagramError("poke counts must be three ints >= 0")
    zero = tuple([0] * (2 * d.genus))
    systems = []
    for name, extra in zip(("alpha", "beta", "gamma"), counts):
        sys = d.system(name)
        systems.append(CurveSystem(name, sys.classes + (zero,) * extra))
    return StarDiagram(d.genus, d.boundary + sum(counts), *systems, d.common, d.geo)


class ComplementResult(Record):
    """Bookkeeping for removing a neighborhood of a decomposed curve.

    params: TrisectionParams with k undetermined; the boundary grew by
    punctures.  punctures: the 3a junction punctures.  curves_added: one
    count per system.  closure_genus: the genus after gluing a genus-0
    filling, or None."""
    __slots__ = ("params", "punctures", "curves_added", "closure_genus")


def curve_complement(p: TrisectionParams, arcs: Tuple[int, int, int]) -> ComplementResult:
    """Remove a decomposed curve written as a arcs per sector.

    Each sector contributes a junction punctures; every system gains the a
    junction circles plus the a arc-neighborhood curves, except that a
    closed manifold with a = 1 makes one of them redundant per system.
    The closure genus is what a genus-0 filling glued along all 3a circles
    would produce.
    """
    if not (isinstance(arcs, (list, tuple)) and all(map(_is_int, arcs))):
        raise DiagramError(f"arc counts must be integers, got {arcs!r}")
    if not _is_count_triple(arcs):
        raise CellDecompositionMismatch("arc counts must be three ints >= 0")
    if len(set(arcs)) != 1:
        raise CellDecompositionMismatch(
            f"arc counts {arcs} differ; each arc meets one arc of each neighbor"
        )
    a = arcs[0]
    if a == 0:
        return ComplementResult(p, 0, (0, 0, 0), None)
    drop = 1 if (p.boundary == 0 and a == 1) else 0
    per_system = 2 * a - drop
    out = TrisectionParams(p.genus, None, p.boundary + 3 * a)
    return ComplementResult(out, 3 * a, (per_system,) * 3, p.genus + 3 * a - 1)


# ---------------------------------------------------------------------------
# ribbon graphs (shadow neighborhoods)
# ---------------------------------------------------------------------------

class RibbonGraph(Record):
    """Graph with a rotation system: rotations[v] is the tuple of int darts
    at vertex v in cyclic order, edges a tuple of int pairs of darts (bool
    is not an int).  Each dart lies in one rotation slot and one edge."""
    __slots__ = ("rotations", "edges")

    def __init__(self, rotations: Tuple[Tuple[int, ...], ...],
                 edges: Tuple[Tuple[int, int], ...]):
        if not (isinstance(rotations, tuple) and all(
                isinstance(rot, tuple) and all(map(_is_int, rot)) for rot in rotations)):
            raise DiagramError("rotations must be a tuple of int tuples")
        if not (isinstance(edges, tuple) and all(
                isinstance(e, tuple) and len(e) == 2 and all(map(_is_int, e)) for e in edges)):
            raise DiagramError("edges must be a tuple of int pairs")
        seen = set()
        for rot in rotations:
            for dart in rot:
                if dart in seen:
                    raise DiagramError(f"dart {dart} appears at two rotation slots")
                seen.add(dart)
        used = set()
        for a, b in edges:
            if a == b:
                raise DiagramError(f"edge ({a},{b}) must join two distinct darts")
            for dart in (a, b):
                if dart not in seen:
                    raise DiagramError(f"edge dart {dart} missing from the rotation system")
                if dart in used:
                    raise DiagramError(f"dart {dart} used by two edges")
                used.add(dart)
        if used != seen:
            raise DiagramError(f"dangling darts with no edge: {sorted(seen - used)}")
        self._store(rotations, edges)

    @property
    def vertex_count(self) -> int:
        return len(self.rotations)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def faces(self) -> List[Tuple[int, ...]]:
        """Orbits of dart -> successor(partner(dart)), each from its least
        dart: one per boundary circle of the thickened graph."""
        partner = {}
        for a, b in self.edges:
            partner[a], partner[b] = b, a
        succ = {d: s for rot in self.rotations for d, s in zip(rot, rot[1:] + rot[:1])}
        out = []
        for start in sorted(partner):
            face = []
            d = start
            while d in partner:  # a traced dart leaves partner; the orbit ends at start
                face.append(d)
                d = succ[partner.pop(d)]
            if face:
                out.append(tuple(face))
        return out

    def components(self) -> List[Tuple[int, ...]]:
        """Vertex sets of connected components (isolated vertices count)."""
        parent = list(range(self.vertex_count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]  # path halving
                x = parent[x]
            return x

        vertex_of = {d: v for v, rot in enumerate(self.rotations) for d in rot}
        for a, b in self.edges:
            parent[find(vertex_of[a])] = find(vertex_of[b])
        groups: Dict[int, List[int]] = {}
        for v in range(self.vertex_count):
            groups.setdefault(find(v), []).append(v)
        return [tuple(vs) for vs in groups.values()]

    def genus_of_closure(self) -> int:
        """Genus of the closed surface obtained by capping the thickened
        graph's boundary circles; defined for connected graphs.  The traced
        faces cap it to a closed orientable surface, V - E + F = 2 - 2g,
        except a bare vertex: a disk with no darts, so no traced face."""
        if len(self.components()) != 1:
            raise DiagramError("genus of closure defined for connected graphs")
        if not self.edges:
            return 0
        return (2 - self.vertex_count + self.edge_count - len(self.faces())) // 2


def shadow_boundary_curves(rg: RibbonGraph) -> Tuple[int, int]:
    """(boundary_parallel, essential) counts of the thickened graph's
    boundary circles.

    A component thickens to a disk exactly when it is a tree; its single
    boundary circle is then parallel to the puncture it came from.  Every
    other traced face encircles essential graph structure.  As each dart
    lies in one edge, a component of V vertices is a tree exactly when it
    has 2(V - 1) darts; a tree traces one face unless it is a bare vertex.
    """
    trees = 0
    for vs in rg.components():
        if sum(len(rg.rotations[v]) for v in vs) == 2 * (len(vs) - 1):
            trees += 1
    bare = rg.rotations.count(())
    return trees, len(rg.faces()) - (trees - bare)


# ---------------------------------------------------------------------------
# surgery plans
# ---------------------------------------------------------------------------

BLOCK_KINDS = ("complement", "tau0", "tau12", "tau23", "tau31", "shear", "tauempty")

_P12: IntMatrix = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
_P23: IntMatrix = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
_P31: IntMatrix = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

_ROT = ((0, -1), (1, 0))
_ROT_INV = ((0, 1), (-1, 0))


class PlanBlock(Record):
    """One plan block: kind (one of BLOCK_KINDS) and, on exactly the shear
    blocks, shear, an SL2 matrix as a tuple of two int tuples; any other
    shear payload raises NotSL2."""
    __slots__ = ("kind", "shear")

    def __init__(
        self,
        kind: str,
        shear: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None,
    ):
        if kind not in BLOCK_KINDS:
            raise DiagramError(f"unknown block kind {kind!r}")
        if (kind == "shear") != (shear is not None):
            raise DiagramError("exactly the shear blocks carry a 2x2 matrix")
        if shear is not None:
            if not (isinstance(shear, tuple) and len(shear) == 2 and all(
                    isinstance(row, tuple) and len(row) == 2 for row in shear)):
                raise NotSL2("shear payload must be 2x2")
            for x in shear[0] + shear[1]:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise NotSL2(f"shear payload entries must be integers, got {x!r}")
            (p, q), (r, s) = shear
            if p * s - q * r != 1:
                raise NotSL2(f"shear payload must have determinant 1, got {p * s - q * r}")
        self._store(kind, shear)


COMPLEMENT = PlanBlock("complement")
TAU0 = PlanBlock("tau0")
TAU12 = PlanBlock("tau12")
TAU23 = PlanBlock("tau23")
TAU31 = PlanBlock("tau31")
TAUEMPTY = PlanBlock("tauempty")


def shear_block(f: Sequence[Sequence[int]]) -> PlanBlock:
    """The shear block of any 2x2 sequence; PlanBlock checks it."""
    try:
        f = tuple(map(tuple, f))
    except TypeError:  # not a sequence of rows, None included
        raise NotSL2("shear payload must be 2x2") from None
    return PlanBlock("shear", f)


def block_matrix(b: PlanBlock) -> IntMatrix:
    """The 3x3 matrix a block stands for; a plan's composite is the
    left-to-right product of these."""
    if b.kind in ("complement", "tau0", "tauempty"):
        return identity(3)
    if b.kind == "tau12":
        return [row[:] for row in _P12]
    if b.kind == "tau23":
        return [row[:] for row in _P23]
    if b.kind == "tau31":
        return [row[:] for row in _P31]
    f = b.shear
    return [[f[0][0], f[0][1], 0], [f[1][0], f[1][1], 0], [0, 0, 1]]


# the two columns each transposition block swaps
_SWAPS = {"tau12": (0, 1), "tau23": (1, 2), "tau31": (0, 2)}


class SurgeryPlan(Record):
    """A tuple of PlanBlocks; construction raises DiagramError for
    anything else.  The composite, the left-to-right product of the
    blocks' matrices, is computed on each read and never stored.

    The product is built column by column: right multiplication by a
    block swaps two columns (tau12, tau23, tau31), mixes the first two
    (a shear), or does nothing (the identity blocks)."""
    __slots__ = ("blocks",)

    def __init__(self, blocks: Tuple[PlanBlock, ...]):
        if not (isinstance(blocks, tuple) and {PlanBlock}.issuperset(map(type, blocks))):
            raise DiagramError("plan blocks must be a tuple of PlanBlocks")
        self._store(blocks)

    @property
    def composite(self) -> IntMatrix:
        """The block product, as a new list of three rows."""
        cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for b in self.blocks:
            if b.kind == "shear":
                (p, q), (r, s) = b.shear
                (x0, x1, x2), (y0, y1, y2) = cols[0], cols[1]
                cols[0] = (p * x0 + r * y0, p * x1 + r * y1, p * x2 + r * y2)
                cols[1] = (q * x0 + s * y0, q * x1 + s * y1, q * x2 + s * y2)
            elif b.kind in _SWAPS:
                i, j = _SWAPS[b.kind]
                cols[i], cols[j] = cols[j], cols[i]
        return [list(row) for row in zip(*cols)]


# Blocks realizing each SL3 rotation generator.  The plane rotations embed
# directly as shear payloads in coordinates (1,2); the other two planes are
# reached by conjugating with the transposition that swaps the fixed
# coordinate into slot 3.  A shear Gen("e", k) is one shear block.
_GEN_BLOCKS: Dict[str, Tuple[PlanBlock, ...]] = {
    "s12": (shear_block(_ROT),),
    "s12i": (shear_block(_ROT_INV),),
    "s23": (TAU31, shear_block(_ROT_INV), TAU31),
    "s23i": (TAU31, shear_block(_ROT), TAU31),
    "s31": (TAU23, shear_block(_ROT_INV), TAU23),
    "s31i": (TAU23, shear_block(_ROT), TAU23),
}


def surgery_plan_general(m: IntMatrix) -> SurgeryPlan:
    """Factor a determinant-1 gluing matrix into a block plan whose
    composite is exactly m."""
    word = sl3_factor(m)  # raises NotSL3 on bad input
    blocks: List[PlanBlock] = [COMPLEMENT, TAU0]
    for g in word.factors:
        if g.kind == "e":
            blocks.append(PlanBlock._trusted("shear", ((1, g.k), (0, 1))))  # SL2 by shape
        else:
            blocks.extend(_GEN_BLOCKS[g.kind])
    blocks.append(TAUEMPTY)
    return SurgeryPlan(tuple(blocks))


def log_transform_plan(a: Sequence[Sequence[int]]) -> SurgeryPlan:
    """Plan for the torus surgery glued by a 2x2 determinant-1 matrix A;
    composite = [[1,0,0],[0,a11,a12],[0,a21,a22]].

    The payload is A conjugated by the antidiagonal flip, wrapped in the
    coordinate swap 1<->3: with J = [[0,1],[1,0]], the identity
    P31 . (JAJ + 1) . P31 = 1 + A holds exactly.
    """
    (a11, a12), (a21, a22) = shear_block(a).shear  # raises NotSL2 on bad input
    jaj = PlanBlock._trusted("shear", ((a22, a21), (a12, a11)))  # det JAJ = det A = 1
    return SurgeryPlan((COMPLEMENT, TAU0, TAU31, jaj, TAU31, TAUEMPTY))


def luttinger_plan(m: int, n: int) -> SurgeryPlan:
    """Plan for the (m, n) torus twist; composite = [[1,0,m],[0,1,n],[0,0,1]]."""
    return SurgeryPlan((COMPLEMENT, TAU0, TAU23, shear_block(((1, m), (0, 1))), TAU31,
                        shear_block(((1, n), (0, 1))), TAU31, TAU23, TAUEMPTY))


# ---------------------------------------------------------------------------
# plan serialization
# ---------------------------------------------------------------------------

# the six argument-free block lines, each the upper-cased kind of its
# module constant
_TOKEN_BLOCKS = {b.kind.upper(): b for b in (COMPLEMENT, TAU0, TAU12, TAU23, TAU31, TAUEMPTY)}


def serialize_plan(plan: SurgeryPlan) -> str:
    """One line per block, then a COMPOSITE line with nine integers."""
    lines = []
    for b in plan.blocks:
        if b.kind == "shear":
            (p, q), (r, s) = b.shear
            lines.append(f"SHEAR {p} {q} {r} {s}")
        else:
            lines.append(b.kind.upper())
    flat = " ".join(str(x) for row in plan.composite for x in row)
    lines.append(f"COMPOSITE {flat}")
    return "\n".join(lines) + "\n"


def parse_plan(text: str) -> SurgeryPlan:
    """Read serialize_plan's format; the COMPOSITE line must equal the
    product of the blocks above it."""
    blocks: List[PlanBlock] = []
    # each good stripped block line -> its block, so a repeated line is
    # split, converted and checked once; a bad line raises before it is kept
    built: Dict[str, PlanBlock] = dict(_TOKEN_BLOCKS)
    stated: Optional[IntMatrix] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if stated is not None:
            raise DiagramError(f"line {lineno}: content after COMPOSITE")
        block = built.get(line)
        if block is not None:
            blocks.append(block)
            continue
        tokens = line.split()
        word = tokens[0]
        if word == "SHEAR":
            if len(tokens) != 5:
                raise DiagramError(f"line {lineno}: SHEAR needs 4 integers")
            try:
                p, q, r, s = (int(t) for t in tokens[1:])
            except ValueError:
                raise DiagramError(f"line {lineno}: SHEAR needs integers") from None
            block = built[line] = shear_block(((p, q), (r, s)))
            blocks.append(block)
        elif word == "COMPOSITE":
            if len(tokens) != 10:
                raise DiagramError(f"line {lineno}: COMPOSITE needs 9 integers")
            try:
                vals = [int(t) for t in tokens[1:]]
            except ValueError:
                raise DiagramError(f"line {lineno}: COMPOSITE needs integers") from None
            stated = [vals[0:3], vals[3:6], vals[6:9]]
        elif word in _TOKEN_BLOCKS:
            raise DiagramError(f"line {lineno}: {word} takes no arguments")
        else:
            raise DiagramError(f"line {lineno}: unknown block {word!r}")
    if stated is None:
        raise DiagramError("plan has no COMPOSITE line")
    plan = SurgeryPlan(tuple(blocks))
    prod = plan.composite
    if prod != stated:
        raise DiagramError(f"stated composite {stated} does not match block product {prod}")
    return plan
