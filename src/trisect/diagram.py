"""Surface diagrams: curve systems on a genus-g surface with b boundary
circles, their symplectic pairing, and a canonical JSON file format.

Homology classes live in Z^(2g) with ordered basis e1, f1, ..., eg, fg and
pairing e_i . f_i = +1 (all other basis pairings zero).  Curves are stored
as integer class vectors; geometric intersection counts are optional side
data keyed by curve pairs.
"""

import math
import struct
from itertools import chain
from operator import lshift, mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ._record import Record
from .errors import DiagramError, VectorLength

SYSTEM_NAMES = ("alpha", "beta", "gamma")
COMMON_KEYS = ("gamma_alpha", "alpha_beta", "beta_gamma")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# fractions (slopes)
# ---------------------------------------------------------------------------

class Fraction(Record):
    """A reduced slope num/den with den >= 0.

    den = 0 is allowed only as the formal fraction 1/0.  Use Fraction.of()
    to build one from arbitrary integers; the constructor insists on
    canonical form.
    """
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if not (_is_int(num) and _is_int(den)):
            raise DiagramError("fraction parts must be integers")
        if den < 0:
            raise DiagramError(f"fraction {num}/{den}: den must be >= 0")
        if den == 0:
            if num != 1:
                raise DiagramError(f"fraction {num}/0: only 1/0 is allowed")
        elif math.gcd(num, den) != 1:
            raise DiagramError(f"fraction {num}/{den} is not reduced")
        self._store(num, den)

    @staticmethod
    def of(num: int, den: int) -> "Fraction":
        if num == 0 and den == 0:
            raise DiagramError("fraction 0/0 is undefined")
        if den == 0:
            return Fraction(1, 0)
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        return Fraction(num // g, den // g)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def dmet(x: Fraction, y: Fraction) -> int:
    """Farey distance: det of the column matrix ((a, c), (b, d))."""
    return x.num * y.den - x.den * y.num


def parse_fraction(text: str) -> Fraction:
    """Parse "a/b" (b = 0 only for the formal 1/0)."""
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise DiagramError(f"fraction {text!r}: expected the form a/b")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:
        raise DiagramError(f"fraction {text!r}: parts must be integers") from None
    # unreduced or negative-den input is accepted and normalized
    return Fraction.of(num, den)


# ---------------------------------------------------------------------------
# lattice and curve systems
# ---------------------------------------------------------------------------

class SymplecticLattice(Record):
    """Z^(2g) with the standard pairing e_i . f_i = 1."""
    __slots__ = ("genus",)

    def __init__(self, genus: int):
        if not _is_int(genus):
            raise DiagramError("genus must be an integer")
        if genus < 0:
            raise DiagramError("genus must be >= 0")
        self._store(genus)

    @property
    def dim(self) -> int:
        return 2 * self.genus

    def pair(self, u: Sequence[int], v: Sequence[int]) -> int:
        if len(u) != self.dim or len(v) != self.dim:
            raise VectorLength(
                f"vectors must have length {self.dim}, got {len(u)} and {len(v)}"
            )
        total = 0
        for i in range(self.genus):
            total += u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i]
        return total


class CurveSystem(Record):
    """A labelled list of curve class vectors: label (str), classes (a
    tuple of int tuples).  Construction is the one place the entries are
    checked (bool is not an integer); the length 2g is checked where the
    genus is known, by StarDiagram and validate_cut_system."""
    __slots__ = ("label", "classes")

    def __init__(self, label: str, classes: Tuple[Tuple[int, ...], ...]):
        if not isinstance(classes, tuple):
            raise DiagramError(
                f"{label}: expected a CurveSystem {label!r} with a tuple of classes")
        for i, vec in enumerate(classes):
            if not isinstance(vec, tuple):
                raise DiagramError(f"{label}[{i}]: expected a tuple of integers")
            if not {int}.issuperset(map(type, vec)):  # some entry not an exact int
                for j, x in enumerate(vec):
                    if not _is_int(x):
                        raise DiagramError(f"{label}[{i}][{j}]: not an integer: {x!r}")
        self._store(label, classes)

    def __len__(self) -> int:
        return len(self.classes)


class Violation(Record):
    """One finding of a diagram check: kind is "pairing", "zero_class" or
    "standard_pair", message is its text, advisory (default False) marks a
    finding that does not make the diagram invalid."""
    __slots__ = ("kind", "message", "advisory")
    _defaults = {"advisory": False}


def _width(classes: Iterable[Sequence[int]]) -> int:
    """The least digit width w of a packing.  By Cauchy-Schwarz, as J (it
    swaps and negates coordinate pairs) keeps lengths, |u . v| = |<u, Jv>|
    <= M, the largest |u|^2 among the classes (at most 2g * top^2 for
    entries of size top), so w = M.bit_length() + 1 keeps |u . v| <
    2^(w-1).  Packings round it up to whole bytes, W = 8 * ceil(w / 8)."""
    return max((sum(map(mul, u, u)) for u in classes), default=0).bit_length() + 1


def _pack(classes: Sequence[Sequence[int]], w: int, dim: int,
          spans: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """For each span (i, j), column k of the classes v_i, ..., v_(j-1), each
    of length dim, as the one integer P_k = sum_j' v_j'[k] * 2^(w*(j'-i)),
    w a whole number of bytes whose fields hold every entry.  Up to 64
    bits, struct writes all entries column by column into one buffer of
    two's-complement fields, narrowed to w bits by strided copies; each
    P_k is one int.from_bytes of its slice, and P - ((P & T) << 1), T the
    top bit of each field (`_bias`), restores the signs.  Wider digits, or
    no classes, take the shift-sum."""
    n = len(classes)
    if w > 64 or not n:
        cols = list(zip(*classes)) or [()] * dim
        return [[sum(map(lshift, col[i:j], range(0, w * n, w))) for col in cols] for i, j in spans]
    size = w // 8
    code = "bhiiqqqq"[size - 1]  # the narrowest struct field of at least w bits
    buf = struct.pack(f"<{n * dim}{code}", *chain.from_iterable(zip(*classes)))
    if size < (field := struct.calcsize(code)):
        buf, wide = bytearray(n * dim * size), buf
        for b in range(size):
            buf[b::size] = wide[b::field]
    step, top, from_bytes, out = n * size, _bias(w, n), int.from_bytes, []
    for i, j in spans:
        cols = [from_bytes(buf[s:s + (j - i) * size], "little")
                for s in range(i * size, i * size + step * dim, step)]
        out.append([p - ((p & top) << 1) for p in cols])
    return out


def _packed_rows(us: Iterable[Sequence[int]], packed: Sequence[int]) -> Iterator[int]:
    """For each u, sum_k u[k] * D_k off the dual D = [P_1, -P_0, P_3, -P_2,
    ...] of the packing P of classes v_j: the row sum_j (u . v_j) * 2^(w*j),
    with |u . v_j| < 2^(w-1) by the choice of w."""
    dual = [x for p, q in zip(packed[0::2], packed[1::2]) for x in (q, -p)]
    for u in us:
        yield sum(map(mul, dual, u))


def _bias(w: int, n: int) -> int:
    """B = sum_j 2^(w-1) * 2^(w*j) over n digits of width w."""
    return ((1 << w * n) - 1) // ((1 << w) - 1) << (w - 1)


def _nonzero_digits(row: int, bias: int, w: int) -> Iterator[Tuple[int, int]]:
    """(j, u . v_j) for each nonzero digit of a row (`_packed_rows`), in
    order of j, given B = `_bias` over at least its digits.  Each field of
    row + B is u . v_j + 2^(w-1), with no borrow from the digit below, and
    xor-ing B back leaves u . v_j in w-bit two's complement: a zero pairing
    is a zero field, so only the set fields are read, each cleared after."""
    x = (row + bias) ^ bias
    mask, top = (1 << w) - 1, 1 << (w - 1)
    while x:
        j = ((x & -x).bit_length() - 1) // w
        f = (x >> w * j) & mask
        yield j, f - ((f & top) << 1)
        x ^= f << w * j


def _cut_violations(system: CurveSystem, packed: Sequence[int], w: int, bias: int):
    """(validate_cut_system, the row of each class) off a packing of classes
    whose first k = len(system) are the system's own, with B = `_bias` over
    every digit.  Those k digits are all zero iff row & (2^(w*k) - 1) == 0,
    as their sum is below 2^(w*k-1) in size and balanced digits are unique,
    so a valid system decodes no digit."""
    label, classes = system.label, system.classes
    out = [Violation("zero_class", f"{label}[{i}] is null", advisory=True)
           for i, v in enumerate(classes) if not any(v)]
    k = len(classes)
    own = (1 << w * k) - 1
    rows = list(_packed_rows(classes, packed))
    for i, row in enumerate(rows):
        if row & own:
            out += [Violation("pairing", f"{label}[{i}] . {label}[{j}] = {x}, expected 0")
                    for j, x in _nonzero_digits(row, bias, w) if i < j < k]
    return out, rows


def validate_cut_system(system: CurveSystem, lattice: SymplecticLattice) -> List[Violation]:
    """Pairwise-pairing violations plus zero-class advisories.

    A valid cut system has all pairwise pairings zero; null classes are
    legal (poked diagrams produce them) and only reported as advisories.
    Classes are integer, and the pairings of each class come from one
    packed sum (`_packed_rows`), of which a valid system decodes none.
    """
    if not (isinstance(system, CurveSystem) and isinstance(lattice, SymplecticLattice)):
        raise DiagramError("validate_cut_system needs a CurveSystem and a SymplecticLattice")
    for idx, v in enumerate(system.classes):
        if len(v) != lattice.dim:
            raise VectorLength(
                f"{system.label}[{idx}]: length {len(v)} != {lattice.dim}"
            )
    w, k = (_width(system.classes) + 7) & -8, len(system)
    return _cut_violations(system, _pack(system.classes, w, lattice.dim, [(0, k)])[0], w,
                           _bias(w, k))[0]


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

GeoKey = Tuple[str, int, str, int]


def _claim_pairs(field: str, value):
    """The (key, value) pairs of a common or geo argument: a dict or the stored tuple."""
    if isinstance(value, dict):
        return value.items()
    if isinstance(value, tuple) and all(isinstance(p, tuple) and len(p) == 2 for p in value):
        return value
    raise DiagramError(f"{field}: expected a dict, got {type(value).__name__}")


class StarDiagram(Record):
    """Three curve systems on one genus-g surface with b boundary circles.

    common claims shared curves: ("alpha_beta", (0, 2)) says that the two
    systems' 0th and 2nd classes are equal.  geo gives nonnegative
    geometric intersection counts: (("alpha", 0, "beta", 1), 3).  Each is
    stored as a tuple of such pairs in file order, so a diagram hashes and
    never changes; dict(d.geo) gives a lookup.  The constructor takes each
    as a dict (geo keys in either curve order) or in the stored form.

    Construction is the one place the rest of the file contract is checked
    (each CurveSystem checks its own entries), so every diagram that builds
    serializes to a file that parse_diagram reads back as an equal diagram.
    An argument off the contract raises DiagramError (VectorLength for a
    class of length other than 2g); bool is not an integer here.
    """
    __slots__ = ("genus", "boundary", "alpha", "beta", "gamma", "common", "geo")

    def __init__(
        self,
        genus: int,
        boundary: int,
        alpha: CurveSystem,
        beta: CurveSystem,
        gamma: CurveSystem,
        common: Union[Dict[str, Sequence[int]], tuple] = (),
        geo: Union[Dict[GeoKey, int], tuple] = (),
    ):
        if not (_is_int(genus) and _is_int(boundary)):
            raise DiagramError("genus and boundary must be integers")
        if genus < 0 or boundary < 0:
            raise DiagramError("genus and boundary must be >= 0")
        systems = dict(zip(SYSTEM_NAMES, (alpha, beta, gamma)))
        for name, system in systems.items():
            if not (isinstance(system, CurveSystem) and system.label == name):
                raise DiagramError(
                    f"{name}: expected a CurveSystem {name!r} with a tuple of classes")
            for i, vec in enumerate(system.classes):
                if len(vec) != 2 * genus:
                    raise VectorLength(f"{name}[{i}]: length {len(vec)} != {2 * genus}")

        claims: Dict[str, Tuple[int, ...]] = {}
        for key, indices in _claim_pairs("common", common):
            if key not in COMMON_KEYS:
                raise DiagramError(f"common: unknown pair {key!r}")
            if key in claims:
                raise DiagramError(f"common: duplicate pair {key!r}")
            if not isinstance(indices, (list, tuple)) or not all(map(_is_int, indices)):
                raise DiagramError(f"common.{key}: expected a list of integers")
            if len(set(indices)) != len(indices):
                raise DiagramError(f"common.{key}: duplicate index")
            sa, sb = key.split("_")
            a, b = systems[sa].classes, systems[sb].classes
            claims[key] = tuple(sorted(indices))
            for idx in claims[key]:
                if idx < 0 or idx >= min(len(a), len(b)):
                    raise DiagramError(f"common.{key}: index {idx} out of range")
                if a[idx] != b[idx]:
                    raise DiagramError(
                        f"common.{key}: {sa}[{idx}] != {sb}[{idx}] though marked common"
                    )

        counts: Dict[GeoKey, int] = {}
        for pair, count in _claim_pairs("geo", geo):
            if not (isinstance(pair, tuple) and len(pair) == 4
                    and _is_int(pair[1]) and _is_int(pair[3])):
                raise DiagramError(f"geo key {pair!r}: expected (system, index, system, index)")
            sa, i, sb, j = pair
            text = f"{sa}.{i}:{sb}.{j}"
            for s in (sa, sb):
                if s not in SYSTEM_NAMES:
                    raise DiagramError(f"geo key {text!r}: unknown system {s!r}")
            if (sa, i) == (sb, j):
                raise DiagramError(f"geo key {text!r}: a curve cannot pair with itself")
            if not _is_int(count) or count < 0:
                raise DiagramError(f"geo[{text!r}]: expected a nonnegative integer")
            norm = min(pair, (sb, j, sa, i))  # SYSTEM_NAMES sort as strings in file order
            if norm in counts:
                raise DiagramError(f"geo[{text!r}]: duplicate pair after normalization")
            for s, idx in ((sa, i), (sb, j)):
                if idx < 0 or idx >= len(systems[s].classes):
                    raise DiagramError(f"geo {s}.{idx}: index out of range")
            counts[norm] = count
        common = tuple((key, claims[key]) for key in COMMON_KEYS if key in claims)
        self._store(genus, boundary, alpha, beta, gamma, common, tuple(sorted(counts.items())))

    def system(self, name: str) -> CurveSystem:
        if name not in SYSTEM_NAMES:
            raise DiagramError(f"no system named {name!r}")
        return getattr(self, name)

    def lattice(self) -> SymplecticLattice:
        return SymplecticLattice(self.genus)

    def all_classes(self) -> List[Tuple[int, ...]]:
        return list(self.alpha.classes) + list(self.beta.classes) + list(self.gamma.classes)


def _violations(d: StarDiagram) -> Tuple[List[Violation], Dict[tuple, Dict[int, int]]]:
    """validate_diagram, and the pairing matrix P in sparse rows keyed by
    class: P[u] = {j: u . v_j if nonzero} for each distinct nonzero alpha
    class u, in file order, over every beta and gamma class v_j at its
    digit position j (len(alpha) on).  A repeated class is a repeated
    column of P, which leaves coker P as it is.  Every class of d takes one
    digit width of whole bytes, and d is packed once (`_pack`), read per
    column as alpha + beta + gamma joined, beta and gamma.  Each alpha
    class is read against the joined packing: one sum gives its report
    and its row."""
    alpha, beta, gamma = d.alpha.classes, d.beta.classes, d.gamma.classes
    classes = alpha + beta + gamma
    k, m, n = len(alpha), len(alpha + beta), len(classes)
    w = (_width(classes) + 7) & -8
    joined, beta_packed, gamma_packed = _pack(classes, w, 2 * d.genus, [(0, n), (k, m), (m, n)])
    bias = _bias(w, n)
    out, rows = _cut_violations(d.alpha, joined, w, bias)
    out += _cut_violations(d.beta, beta_packed, w, bias)[0]
    out += _cut_violations(d.gamma, gamma_packed, w, bias)[0]
    return out, {u: {j: x for j, x in _nonzero_digits(row, bias, w) if j >= k}
                 for u, row in zip(alpha, rows) if any(u)}


def validate_diagram(d: StarDiagram) -> List[Violation]:
    """Cut-system report of the three systems: pairing violations and
    zero-class advisories.  The common and geo claims were checked when
    the diagram was built."""
    return _violations(d)[0]


def diagram_ok(violations: Sequence[Violation]) -> bool:
    return all(v.advisory for v in violations)


# ---------------------------------------------------------------------------
# standard-pair check
# ---------------------------------------------------------------------------

def validate_standard_pair(d: StarDiagram, key: str) -> List[Violation]:
    """Check that the two systems named by key, one of COMMON_KEYS, decompose
    into shared curves, one-point dual pairs and mutually disjoint leftovers.

    The check reads the claims d was built with: the shared curves are d's
    common indices for key, and d.geo must count every other curve pair of
    the two systems (a missing pair raises DiagramError).  Each finding is
    one standard_pair violation, with the pairs named in file order.
    """
    if key not in COMMON_KEYS:
        raise DiagramError(f"no system pair named {key!r}")
    a, b = (d.system(name) for name in sorted(key.split("_")))  # geo keys are in file order
    common = set(dict(d.common).get(key, ()))
    geo = dict(d.geo)

    def count(la: str, i: int, lb: str, j: int) -> int:
        if (la, i, lb, j) not in geo:
            raise DiagramError(f"missing geo data for {la}[{i}] and {lb}[{j}]")
        return geo[la, i, lb, j]

    report: List[str] = []
    for sys in (a, b):
        for i in range(len(sys)):
            for j in range(i + 1, len(sys)):
                n = count(sys.label, i, sys.label, j)
                if n:
                    report.append(f"{sys.label}[{i}] meets {sys.label}[{j}] {n} times, expected 0")

    paired_a, paired_b = set(), set()
    for i in range(len(a)):
        for j in range(len(b)):
            if i == j and i in common:
                continue  # one curve, not a pair
            n = count(a.label, i, b.label, j)
            if n == 0:
                continue
            if n > 1:
                report.append(f"{a.label}[{i}] meets {b.label}[{j}] {n} times, expected 0 or 1")
            elif i in common or j in common:
                report.append(f"shared curve in a crossing pair ({i},{j})")
            elif i in paired_a or j in paired_b:
                report.append(f"curve reused by two crossing pairs ({i},{j})")
            else:
                paired_a.add(i)
                paired_b.add(j)
    return [Violation("standard_pair", line) for line in report]


# ---------------------------------------------------------------------------
# parameter tuples
# ---------------------------------------------------------------------------

class BridgeData(Record):
    """Bridge position data (b; c1,c2,c3): b trivial arcs per handlebody,
    c_i trivial disks per sector."""
    __slots__ = ("b", "c")

    def __init__(self, b: int, c: Tuple[int, int, int]):
        if not (_is_int(b) and isinstance(c, (list, tuple)) and all(map(_is_int, c))):
            raise DiagramError("bridge data must be integers")
        if len(c) != 3 or any(ci < 0 for ci in c):
            raise DiagramError("bridge data needs three counts >= 0")
        if max(c) < 1 or b < max(c):
            raise DiagramError("bridge data requires b >= max(c_i) >= 1")
        self._store(b, tuple(c))


class TrisectionParams(Record):
    """The tuple (g; k1,k2,k3; b), optionally carrying bridge data.

    k is None when an operation (boundary-circle pasting without curve
    counts) determines the genus but not the sector handlebody genera.
    """
    __slots__ = ("genus", "k", "boundary", "bridge")

    def __init__(
        self,
        genus: int,
        k: Optional[Tuple[int, int, int]],
        boundary: int = 0,
        bridge: Optional[BridgeData] = None,
    ):
        if not (_is_int(genus) and _is_int(boundary)):
            raise DiagramError("genus and boundary must be integers")
        if genus < 0 or boundary < 0:
            raise DiagramError("genus and boundary must be >= 0")
        if k is not None:
            if not isinstance(k, (list, tuple)) or len(k) != 3:
                raise DiagramError("k must be a triple")
            k = tuple(k)
            if not all(map(_is_int, k)):
                raise DiagramError(f"k = {k}: sector genera must be integers")
            for ki in k:
                if ki < 0:
                    raise DiagramError(f"k = {k}: sector genera must be >= 0")
                if boundary == 0 and ki > genus:
                    raise DiagramError(
                        f"k = {k}: closed parameters need k_i <= g = {genus}"
                    )
        if bridge is not None and not isinstance(bridge, BridgeData):
            raise DiagramError(f"bridge must be BridgeData or None, got {type(bridge).__name__}")
        self._store(genus, k, boundary, bridge)

    def with_bridge(self, b: int, c: Tuple[int, int, int]) -> "TrisectionParams":
        return TrisectionParams(self.genus, self.k, self.boundary, BridgeData(b, c))


def parse_params(text: str) -> TrisectionParams:
    """Parse the literal "g;k1,k2,k3" or "g;k1,k2,k3;b".

    Whitespace and one pair of wrapping parentheses are tolerated, so the
    display form "(51; 13,13,23)" parses too."""
    cleaned = text.strip()
    if cleaned.startswith("(") and cleaned.endswith(")"):
        cleaned = cleaned[1:-1]
    cleaned = cleaned.replace(" ", "")
    parts = cleaned.split(";")
    if len(parts) not in (2, 3):
        raise DiagramError(f'params {text!r}: expected "g;k1,k2,k3[;b]"')
    try:
        genus = int(parts[0])
        ks = tuple(int(x) for x in parts[1].split(","))
        boundary = int(parts[2]) if len(parts) == 3 else 0
    except ValueError:
        raise DiagramError(f"params {text!r}: parts must be integers") from None
    if len(ks) != 3:
        raise DiagramError(f"params {text!r}: need exactly three k values")
    return TrisectionParams(genus, ks, boundary)


def format_params(p: TrisectionParams) -> str:
    if p.k is None:
        raise DiagramError("cannot format parameters with undetermined k")
    body = f"{p.genus};{p.k[0]},{p.k[1]},{p.k[2]}"
    return body if p.boundary == 0 else f"{body};{p.boundary}"


def genus1_pair_kind(x: Fraction, y: Fraction) -> str:
    """Kind of the genus-one diagram with slopes x, y: "S3", "S1xS2", or
    "Invalid" (pair distance outside {-1, 0, 1})."""
    d = dmet(x, y)
    if d == 0:
        return "S1xS2"
    if abs(d) == 1:
        return "S3"
    return "Invalid"


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

_TOP_KEYS = ("basis", "genus", "boundary", "alpha", "beta", "gamma", "common", "geo")


def _expected_basis(genus: int) -> str:
    return " ".join(f"e{i} f{i}" for i in range(1, genus + 1))


def _parse_system(name: str, raw) -> CurveSystem:
    """The list shapes only; CurveSystem and StarDiagram check the class vectors."""
    if not isinstance(raw, list):
        raise DiagramError(f"{name}: expected a list of class vectors")
    for i, vec in enumerate(raw):
        if not isinstance(vec, list):
            raise DiagramError(f"{name}[{i}]: expected a list of integers")
    return CurveSystem(name, tuple([tuple(vec) for vec in raw]))


def parse_diagram(text: str) -> StarDiagram:
    """Parse the JSON diagram format; reject anything off-contract.

    The parser only reads the text: the JSON shapes, the field names and
    the geo key syntax.  It passes geo on as (key, count) pairs in file
    order, so a pair spelled twice ("alpha.0:beta.0" and "alpha.00:beta.0")
    is refused by StarDiagram, which checks every value read; CurveSystem
    checks the class entries.  The basis header is compared with the genus
    of the built diagram.  Errors carry the offending field path (or
    line/column for malformed JSON).
    """
    import json  # on first use, so that verbs that read no diagram start without it

    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DiagramError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise DiagramError("JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise DiagramError("top level: expected an object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise DiagramError(f"unknown field {key!r}")
    for key in ("genus", "alpha", "beta", "gamma"):
        if key not in raw:
            raise DiagramError(f"missing field {key!r}")
    systems = [_parse_system(name, raw[name]) for name in SYSTEM_NAMES]
    geo = raw.get("geo", {})
    if not isinstance(geo, dict):
        raise DiagramError("geo: expected an object")
    pairs = []
    for key, count in geo.items():
        try:
            left, right = key.split(":")
            (sa, i), (sb, j) = left.split("."), right.split(".")
            pairs.append(((sa, int(i), sb, int(j)), count))
        except ValueError:
            raise DiagramError(f'geo key {key!r}: expected "system.index:system.index"') from None
    d = StarDiagram(raw["genus"], raw.get("boundary", 0), *systems, raw.get("common", {}),
                    tuple(pairs))
    basis = raw.get("basis")
    # count the names first, so that a short header with a huge genus builds nothing
    if "basis" in raw and not (isinstance(basis, str) and len(basis.split()) == 2 * d.genus
                               and basis == _expected_basis(d.genus)):
        raise DiagramError(f"basis: expected e1 f1 ... eg fg with g = {d.genus}, got {basis!r}")
    return d


def serialize_diagram(d: StarDiagram) -> str:
    """Canonical serialization: fixed key order, claims in their stored order.

    parse . serialize is the identity on diagrams, and serialize . parse is
    the identity on canonical files.
    """
    import json  # on first use, as in parse_diagram

    obj: Dict[str, object] = {
        "basis": _expected_basis(d.genus),
        "genus": d.genus,
        "boundary": d.boundary,
        "alpha": [list(v) for v in d.alpha.classes],
        "beta": [list(v) for v in d.beta.classes],
        "gamma": [list(v) for v in d.gamma.classes],
    }
    if d.common:
        obj["common"] = {key: list(indices) for key, indices in d.common}
    if d.geo:
        obj["geo"] = {"{}.{}:{}.{}".format(*key): count for key, count in d.geo}
    return json.dumps(obj, indent=1)
