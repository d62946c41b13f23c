"""Homological and handle-theoretic invariants of a trisected 4-manifold.

The surface inclusion is surjective on fundamental groups, so H1 of the
total space is Z^(2g) modulo the classes of every curve in all three
systems.  When the alpha classes span a primitive Lagrangian (g distinct
nonzero classes whose Smith diagonal is all ones), pairing with them
identifies Z^(2g) / span(alpha) with Z^g, and H1 is the cokernel of the
g x n matrix P of their pairings with the beta and gamma classes (read
sparse off the packed sums that validate alpha, one row per alpha class;
one unit-pivot pass over [P | 2I], whose even tracking entries are never
pivots, both tests alpha and reduces P); otherwise it is read off the
distinct classes as the rows of the n x 2g class matrix.  Euler
characteristic and handle counts come straight from the parameter tuple,
for closed manifolds only.
"""

from math import gcd
from typing import Dict, List, Optional, Tuple

from ._record import Record
from .diagram import StarDiagram, TrisectionParams, _violations, diagram_ok
from .errors import BoundaryNotSupported, DiagramError
from .zmatrix import _smith_rows, _unit_pivots


class HomologyReport(Record):
    """H1 as h1_free_rank (int) and h1_torsion (a tuple of ints)."""
    __slots__ = ("h1_free_rank", "h1_torsion")

    def h1_str(self) -> str:
        parts = ["Z"] * self.h1_free_rank + [f"Z/{t}" for t in self.h1_torsion]
        return " + ".join(parts) if parts else "0"


def first_homology(d: StarDiagram) -> HomologyReport:
    """H1 of the trisected manifold: Z^(2g) / span(alpha + beta + gamma),
    off a Smith diagonal (a repeated class, such as a common curve or a
    poked null class, spans nothing new).

    When alpha spans a primitive Lagrangian, H1 is the cokernel of the
    g x n matrix P of pairings of alpha with beta and gamma
    (`_alpha_quotient`); every other diagram is read off the n x 2g matrix
    of the distinct classes.  One packed sum per alpha class gives both its
    violations and its row of P (`_violations`).  The diagram checked every
    entry when it was built, so the kernels check none."""
    violations, pairing = _violations(d)
    if not diagram_ok(violations):
        raise DiagramError(
            "diagram invalid: " + "; ".join(v.message for v in violations if not v.advisory)
        )
    rank, diag = _alpha_quotient(d, pairing) or (2 * d.genus, _smith_rows(
        [{k: x for k, x in enumerate(u) if x} for u in dict.fromkeys(d.all_classes())]))
    return HomologyReport(rank - len(diag), tuple(x for x in diag if x > 1))


def _alpha_quotient(d: StarDiagram, pairing: Dict[tuple, Dict[int, int]]) -> Optional[Tuple[int, List[int]]]:
    """(g, nonzero Smith diagonal of P) when alpha spans a primitive
    Lagrangian L, else None.  P = pairing (`_violations`): the rows
    {j: alpha_i . v_j} keyed by the distinct nonzero alpha classes alpha_i,
    over the beta and gamma classes v_j at digit positions j >= 0.

    The pairing is unimodular, so x -> (alpha_i . x)_i maps Z^(2g) onto
    Z^g iff the alpha_i are a basis of a primitive rank-g lattice L.  L is
    then Lagrangian, as the diagram is isotropic, so the kernel is L and
    H1 = Z^(2g) / (L + span(beta + gamma)) is the cokernel of P.  The image
    is spanned by the columns of alpha J (J only permutes and negates
    columns), so the map is onto iff [P | alpha J] has Smith diagonal all
    ones, as the columns of P = alpha J V (V has the v_j as columns) add
    nothing to it.

    One elimination decides both.  Unit pivots on [P | 2I] (`_unit_pivots`,
    2I at keys ~i = -1 - i) may take any entry: row operations keep the
    tracking entries even, so every pivot is in P.  They apply a unimodular
    U and leave k pivot rows and the other rows [B | 2T] of [U P | 2U].
    The pivot columns are zero in B, so column operations on them clear
    the pivot rows of [U P | U alpha J] and change no other row: U P has
    Smith diagonal k ones and that of B, and [U P | U alpha J] k ones and
    that of [B | T alpha J], where B = T alpha J V again adds nothing.  So
    the map is onto iff T alpha has Smith diagonal all ones, one per row.
    A row whose B part is zero stays (U is invertible): its T alpha still
    needs a unit.  A class k u' with k > 1 is in no basis of a primitive L
    (u' would be in L too), so such an alpha is refused before any
    elimination."""
    g, alpha = d.genus, list(pairing)
    if len(alpha) != g or any(gcd(*u) > 1 for u in alpha):
        return None
    ones, rest = _unit_pivots([{**p, ~i: 2} for i, p in enumerate(pairing.values())])
    t_alpha = [{k: x for k, x in enumerate(map(sum, zip(*(
        [t // 2 * a for a in alpha[~j]] for j, t in row.items() if j < 0)))) if x} for row in rest]
    if _smith_rows(t_alpha) != [1] * len(rest):
        return None
    return g, [1] * ones + _smith_rows([{j: x for j, x in row.items() if j >= 0} for row in rest])


def euler_char(p: TrisectionParams) -> int:
    """chi = 2 + g - k1 - k2 - k3 for closed parameters."""
    _require_closed_with_k(p)
    return 2 + p.genus - sum(p.k)


def handle_counts(p: TrisectionParams) -> Tuple[int, int, int, int, int]:
    """(1, k1, g - k2, k3, 1); alternating sum equals euler_char."""
    _require_closed_with_k(p)
    return (1, p.k[0], p.genus - p.k[1], p.k[2], 1)


def _require_closed_with_k(p: TrisectionParams) -> None:
    if p.boundary != 0:
        raise BoundaryNotSupported(
            "invariant defined for closed trisections only (b = 0)"
        )
    if p.k is None:
        raise DiagramError("parameters carry no sector genera k")
