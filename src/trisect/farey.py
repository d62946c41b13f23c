"""Genus-three diagrams indexed by triples of Farey fractions: validity,
intersection form, classification, and enumeration.

Fractions are vertices of the Farey graph; two fractions a/b, c/d are
neighbors when |ad - bc| = 1.  A triple with all pairwise distances in
{-1, 0, 1} determines a closed 4-manifold, classified here through the
symmetric form of the triple (three distinct fractions), a parity rule
(two distinct), or a spun lens space (all equal).  Fractions are kept
reduced with den >= 0, so two are equal exactly when their distance is 0:
the kind is read off the three distances, and no fraction is compared or
hashed.  One rule on the six integers, `_class_of`, classifies a triple;
`classify` reads a FareyTriple into it, and `atlas_rows` calls it on the
universe's (num, den) pairs, with no record built per row.

Classification runs no elimination.  Indefinite unimodular forms are fixed
by rank, signature and parity (Serre, A Course in Arithmetic, ch. V).
Both shapes of qx start with the block [[A, -1], [-1, 0]], of determinant
-1 and so indefinite.  Two distinct fractions give that block alone, with
A = +-bd: even_indefinite (1,) when bd is even, odd_indefinite (1, 1) when
it is odd.  Three distinct fractions give det qx = -C for the corner
C = qx[2][2], the product of the three distances, so C = +-1 and the form
is odd.  The block holds one negative direction, so det -1
(C = 1) leaves one negative eigenvalue in all, odd_indefinite (2, 1), and
det +1 (C = -1) two, odd_indefinite (1, 2).  `zmatrix.classify_unimodular`
of `qx` is the reference.
"""

from typing import Dict, Iterator, List, Optional, Tuple

from ._record import Record
from .diagram import CurveSystem, Fraction, StarDiagram, dmet
from .errors import FormUndefined, NotNeighbors
from .zmatrix import FormClass, IntMatrix

KIND_INVALID = "Invalid"
KIND_ALL_EQUAL = "AllEqual"
KIND_TWO_DISTINCT = "TwoDistinct"
KIND_TRIPLET = "FareyTriplet"

# connected sums of projective planes (three distinct fractions)
CP2_PLUS = "CP2#CP2#CP2bar"     # signature +1
CP2_MINUS = "CP2#CP2bar#CP2bar"  # signature -1
# sphere bundles over the sphere (two distinct fractions)
S2XS2 = "S2xS2"
S2TWS2 = "S2x~S2"   # the twisted bundle

# the only form classes a valid triple has
_ZERO = FormClass("zero")
_EVEN_1 = FormClass("even_indefinite", (1,))
_ODD_11 = FormClass("odd_indefinite", (1, 1))
_ODD_21 = FormClass("odd_indefinite", (2, 1))
_ODD_12 = FormClass("odd_indefinite", (1, 2))


class SpunLens(Record):
    """Spun lens space of L(p, q); the all-equal triple (q/p, q/p, q/p)."""
    __slots__ = ("p", "q")

    def __str__(self) -> str:
        return f"SpunLens({self.p},{self.q})"


class FareyTriple(Record):
    """Three slopes x, y, z (Fractions)."""
    __slots__ = ("x", "y", "z")

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    def __str__(self) -> str:
        # Fraction.__str__ of each slope, in one format
        x, y, z = self.x, self.y, self.z
        return f"{x.num}/{x.den} {y.num}/{y.den} {z.num}/{z.den}"


class FareyClassification(Record):
    """A triple's kind (str), manifold (a name, a SpunLens or None),
    refined ((T, S) with manifold = T # S, or None) and form (a FormClass
    or None)."""
    __slots__ = ("kind", "manifold", "refined", "form")


# the classifications of the two triplet signs, the two two-distinct
# parities and every invalid triple; records are immutable, so `classify`
# returns these shared values
_TRIPLET_PLUS = FareyClassification(KIND_TRIPLET, CP2_PLUS, ("CP2", S2TWS2), _ODD_21)
_TRIPLET_MINUS = FareyClassification(KIND_TRIPLET, CP2_MINUS, ("CP2bar", S2TWS2), _ODD_12)
_TWO_EVEN = FareyClassification(KIND_TWO_DISTINCT, S2XS2, ("S4", S2XS2), _EVEN_1)
_TWO_ODD = FareyClassification(KIND_TWO_DISTINCT, S2TWS2, ("S4", S2TWS2), _ODD_11)
_INVALID = FareyClassification(KIND_INVALID, None, None, None)


def _class_of(a: int, b: int, c: int, d: int, p: int, q: int) -> Optional[FareyClassification]:
    """The shared classification of the reduced fractions a/b, c/d, p/q
    (b, d, q >= 0), or None when all three are equal.

    Everything is read off the three Farey distances, with no elimination
    and no comparison of fractions, by the argument of the module
    docstring.  Canonical reduced fractions are equal exactly when their
    distance is 0, and equality is transitive, so a valid triple has 3, 1
    or no zero distances: all equal, two distinct, or three distinct.  Two
    distinct fractions take the parity of the product of their
    denominators, and a triplet the corner C = qx[2][2] = -det qx of its
    (den, num)-sorted order (C = 1: odd_indefinite (2, 1); C = -1:
    (1, 2)).
    """
    xy, xz, yz = a * d - b * c, a * q - b * p, c * q - d * p
    if not (-1 <= xy <= 1 and -1 <= xz <= 1 and -1 <= yz <= 1):
        return _INVALID
    if xy and xz and yz:
        # C = xy * xz * yz, and each distance is alternating, so C changes
        # sign under every transposition.  An odd permutation of the
        # triple reverses orientation and flips the signature of qx, so
        # the (den, num)-sorted order is canonical: its corner is C times
        # the sign of the sorting permutation.
        odd = ((b, a) > (d, c)) ^ ((b, a) > (q, p)) ^ ((d, c) > (q, p))
        return _TRIPLET_PLUS if (xy * xz * yz == 1) != odd else _TRIPLET_MINUS
    if xy or xz:
        # x = y leaves x and z distinct; x = z or y = z leaves x and y
        return _TWO_EVEN if (b * (q if not xy else d)) % 2 == 0 else _TWO_ODD
    return None


def _class_of_triple(t: FareyTriple) -> Optional[FareyClassification]:
    x, y, z = t.x, t.y, t.z
    return _class_of(x.num, x.den, y.num, y.den, z.num, z.den)


def triple_kind(t: FareyTriple) -> str:
    """Invalid when two slopes are more than one apart; otherwise the
    number of zero Farey distances (3, 1 or 0) gives AllEqual,
    TwoDistinct or FareyTriplet."""
    cls = _class_of_triple(t)
    return KIND_ALL_EQUAL if cls is None else cls.kind


def qx(t: FareyTriple) -> IntMatrix:
    """Symmetric form of the triple's 4-manifold.

    Three distinct fractions a/b, c/d, p/q give the 3x3 matrix
        [[bd/(ad-bc), -1, b(cq-dp)/(bc-ad)],
         [-1, 0, 0],
         [b(cq-dp)/(bc-ad), 0, (bp-aq)(cq-dp)/(bc-ad)]];
    with a repeated fraction the triple is first permuted so the repeat
    sits in slots 2-3, where the third row and column vanish and the
    2x2 block [[bd/(ad-bc), -1], [-1, 0]] remains.  Every divisor is a
    Farey distance +-1 for a valid triple, so each division is a product,
    and the entries are products of the three distances
    xy = ad - bc, xz = aq - bp, yz = cq - dp and the denominators.
    """
    kind = triple_kind(t)
    x, y, z = t.x, t.y, t.z
    b, d, q = x.den, y.den, z.den
    xy, xz, yz = x.num * d - b * y.num, x.num * q - b * z.num, y.num * q - d * z.num
    if kind == KIND_TRIPLET:
        off = -b * yz * xy
        return [[b * d * xy, -1, off], [-1, 0, 0], [off, 0, xy * xz * yz]]
    if kind == KIND_TWO_DISTINCT:
        # the zero distance names the repeated pair; the lone fraction leads
        if not xy:
            corner = -q * b * xz
        elif not xz:
            corner = -d * b * xy
        else:
            corner = b * d * xy
        return [[corner, -1], [-1, 0]]
    raise FormUndefined(f"no intersection form for an {kind} triple")


def classify(t: FareyTriple) -> FareyClassification:
    """Closed 4-manifold of the triple per the Farey trichotomy, by the
    rule of `_class_of`.

    A triplet, a two-distinct triple or an invalid one gets one of five
    shared classifications, the same object on every call: records are
    immutable, so no caller can change it.  Only an all-equal triple,
    whose SpunLens depends on its slope, gets a new record.
    """
    cls = _class_of_triple(t)
    if cls is None:  # fraction a/b spins L(b, a)
        return FareyClassification(KIND_ALL_EQUAL, SpunLens(t.x.den, t.x.num), None, _ZERO)
    return cls


def mediants(x: Fraction, y: Fraction) -> Tuple[Fraction, Fraction]:
    """The two fractions completing neighbors {x, y} to Farey triplets:
    (a+c)/(b+d) and (a-c)/(b-d), canonicalized."""
    if abs(dmet(x, y)) != 1:
        raise NotNeighbors(f"{x} and {y} have distance {dmet(x, y)}, need +-1")
    plus = Fraction.of(x.num + y.num, x.den + y.den)
    minus = Fraction.of(x.num - y.num, x.den - y.den)
    return plus, minus


def _slopes(max_den: int) -> List[Tuple[int, int]]:
    """`fraction_universe(max_den)` as (num, den) int pairs."""
    from math import gcd  # loaded already, by diagram

    if max_den < 0:
        raise NotNeighbors("max_den must be >= 0")
    window = range(-max_den, max_den + 1)
    return [(1, 0)] + [(num, den) for den in range(1, max_den + 1)
                       for num in window if gcd(num, den) == 1]


def fraction_universe(max_den: int) -> List[Fraction]:
    """All reduced fractions with den <= max_den and |num| <= max_den,
    plus the formal 1/0; sorted by (den, num).

    The numerator window makes the set finite: shifting every numerator
    by its denominator preserves all Farey distances, so an unbounded
    window would repeat the same triples forever.
    """
    return [Fraction(num, den) for num, den in _slopes(max_den)]


def _triangles(slopes: List[Tuple[int, int]]) -> Iterator[Tuple[int, int, int]]:
    """Indices (i, j, k) of every valid triple of the distinct reduced
    fractions `slopes`, as (num, den) pairs: i <= j <= k, in lexicographic
    order.

    Every pair is tested once, on plain integers: a/b and c/d are joined
    when |ad - bc| <= 1 (distance 0 only for a fraction and itself).  The
    triples are then i <= j <= k with j and k joined to i and k joined
    to j."""
    n = len(slopes)
    # later[i]: i and its Farey neighbours j > i, ascending
    later: List[List[int]] = []
    for i, (a, b) in enumerate(slopes):
        row = [i]
        for j in range(i + 1, n):
            c, d = slopes[j]
            if -1 <= a * d - b * c <= 1:
                row.append(j)
        later.append(row)
    for i, row in enumerate(later):
        joined = set(row)
        for j in row:
            for k in later[j]:
                if k in joined:
                    yield i, j, k


def enumerate_triples(max_den: int) -> Iterator[Tuple[FareyTriple, FareyClassification]]:
    """All valid triples over fraction_universe(max_den), one ordered
    representative per multiset (sorted by (den, num)), with
    classifications, in lexicographic order of their universe indices."""
    universe = fraction_universe(max_den)
    for i, j, k in _triangles([(f.num, f.den) for f in universe]):
        t = FareyTriple(universe[i], universe[j], universe[k])
        yield t, classify(t)


def _row(cls: FareyClassification) -> Dict[str, object]:
    """The atlas row of a shared classification of a valid triple, with
    the triple column blank.

    Nothing is eliminated: the invariants are read off the form class:
    odd_indefinite (p, m) has rank p + m, signature p - m, parity Odd and
    det (-1)^m; even_indefinite (h,) has rank 2h, signature 0, parity Even
    and det (-1)^h.  Triplets and two-distinct triples have no other form
    classes."""
    form = cls.form
    if form.kind == "odd_indefinite":
        p, m = form.params
        rank, signature, parity, det = p + m, p - m, "Odd", (-1) ** m
    else:
        (h,) = form.params  # even_indefinite
        rank, signature, parity, det = 2 * h, 0, "Even", (-1) ** h
    return {
        "triple": "",
        "kind": cls.kind,
        "manifold": str(cls.manifold),
        "refined": f"{cls.refined[0]}#{cls.refined[1]}",
        "rank": rank,
        "signature": signature,
        "parity": parity,
        "det": det,
    }


# the rows of the four shared classifications of valid triples, by
# identity; an atlas row of one of them is a copy with its triple filled in
_SHARED_ROWS = {id(c): _row(c) for c in (_TRIPLET_PLUS, _TRIPLET_MINUS, _TWO_EVEN, _TWO_ODD)}


def atlas_rows(max_den: int) -> Iterator[Dict[str, object]]:
    """CSV-ready rows for every valid triple, in `enumerate_triples`
    order, each a new dict with these columns in this order:
    - triple: the three slopes, "x y z";
    - kind: AllEqual, TwoDistinct or FareyTriplet;
    - manifold: the closed 4-manifold, SpunLens(p,q) for an all-equal
      triple;
    - refined: the manifold as T#S, empty for an all-equal triple;
    - rank, signature, parity, det: the invariants of the form class of
      `qx`, read off by `_row`.
    The last four describe qx, not the manifold's intersection form.  An
    all-equal triple has no qx, so its row reports the empty form (rank
    0, signature 0, parity Even, det 1) and not b2: 1/0 1/0 1/0 is
    SpunLens(0,1), the spin of S1xS2, whose b2 is 2.

    The rows come straight from the universe's (num, den) ints, with no
    FareyTriple or classification record: each slope's text is formatted
    once, `_class_of` names the shared row to copy, and an all-equal row
    is written as a literal."""
    slopes = _slopes(max_den)
    text = [f"{num}/{den}" for num, den in slopes]
    shared = _SHARED_ROWS
    for i, j, k in _triangles(slopes):
        (a, b), (c, d), (p, q) = slopes[i], slopes[j], slopes[k]
        cls = _class_of(a, b, c, d, p, q)
        if cls is None:  # fraction a/b spins L(b, a)
            s = text[i]
            yield {"triple": f"{s} {s} {s}", "kind": KIND_ALL_EQUAL,
                   "manifold": f"SpunLens({b},{a})", "refined": "",
                   "rank": 0, "signature": 0, "parity": "Even", "det": 1}
        else:
            row = shared[id(cls)].copy()
            row["triple"] = f"{text[i]} {text[j]} {text[k]}"
            yield row


# ---------------------------------------------------------------------------
# homology model
# ---------------------------------------------------------------------------

def _vec(**coords: int) -> Tuple[int, ...]:
    # basis order (e1,f1,e2,f2,e3,f3) = (z1,y1,z2,y2,lam,mu)
    names = ("z1", "y1", "z2", "y2", "lam", "mu")
    return tuple(coords.get(name, 0) for name in names)


def farey_homology_model(t: FareyTriple) -> StarDiagram:
    """A genus-3 diagram whose homology realizes the triple.

    Each system holds two central classes and one slope class.  Writing
    the fractions as q_i/p_i over the basis (z1, y1, z2, y2, lam, mu):

        alpha = { z1,      y2 + lam,  q1*lam + p1*(mu + z2) }
        beta  = { z2,      y1,        q2*lam + p2*mu }
        gamma = { z1 + z2, y1 - y2,   q3*lam + p3*mu }

    Every system is pairwise non-pairing (a valid cut system); any two
    systems span a corank-<=1 sublattice with trivial torsion; and the
    full quotient is Z/gcd(p1,p2,p3) - i.e. Z/p for the all-equal triple
    q/p and 0 as soon as two fractions differ.
    """
    if triple_kind(t) == KIND_INVALID:
        raise NotNeighbors("homology model needs a valid triple")
    q1, p1 = t.x.num, t.x.den
    q2, p2 = t.y.num, t.y.den
    q3, p3 = t.z.num, t.z.den
    alpha = CurveSystem(
        "alpha",
        (_vec(z1=1), _vec(y2=1, lam=1), _vec(z2=p1, lam=q1, mu=p1)),
    )
    beta = CurveSystem(
        "beta",
        (_vec(z2=1), _vec(y1=1), _vec(lam=q2, mu=p2)),
    )
    gamma = CurveSystem(
        "gamma",
        (_vec(z1=1, z2=1), _vec(y1=1, y2=-1), _vec(lam=q3, mu=p3)),
    )
    return StarDiagram(genus=3, boundary=0, alpha=alpha, beta=beta, gamma=gamma)
