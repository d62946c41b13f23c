"""Homological and handle-theoretic invariants of a trisected 4-manifold.

The surface inclusion is surjective on fundamental groups, so H1 of the
total space is Z^(2g) modulo the classes of every curve in all three
systems.  When the alpha classes span a primitive Lagrangian (g distinct
nonzero classes whose Smith diagonal is all ones), pairing with them
identifies Z^(2g) / span(alpha) with Z^g, and H1 is the cokernel of the
g x n matrix of their pairings with the beta and gamma classes; otherwise
it is read off the 2g x n matrix of all classes.  Euler characteristic and
handle counts come straight from the parameter tuple and are defined for
closed manifolds only.
"""

from math import gcd
from typing import List, Optional, Tuple

from ._record import Record
from .diagram import (
    StarDiagram, TrisectionParams, _Packing, _pack_diagram, _pairing_matrix, _violations, diagram_ok,
)
from .errors import BoundaryNotSupported, DiagramError
from .zmatrix import _smith_diagonal


class HomologyReport(Record):
    """H1 as h1_free_rank (int) and h1_torsion (a tuple of ints)."""
    __slots__ = ("h1_free_rank", "h1_torsion")

    def h1_str(self) -> str:
        parts = ["Z"] * self.h1_free_rank + [f"Z/{t}" for t in self.h1_torsion]
        return " + ".join(parts) if parts else "0"


def first_homology(d: StarDiagram) -> HomologyReport:
    """H1 of the trisected manifold: Z^(2g) / span(alpha + beta + gamma),
    off a Smith diagonal of distinct classes (a repeat, such as a common
    curve or a poked null class, spans nothing new).

    When alpha spans a primitive Lagrangian, H1 is the cokernel of the
    g x n matrix of pairings of alpha with beta and gamma (`_alpha_quotient`);
    every other diagram is read off the 2g x n matrix of the distinct
    classes.  Each system is packed once, for validate_diagram's report
    and for P alike.  The diagram checked every entry when it was built,
    so the kernels check none."""
    packing = _pack_diagram(d)
    violations = _violations(d, packing)
    if not diagram_ok(violations):
        raise DiagramError(
            "diagram invalid: " + "; ".join(v.message for v in violations if not v.advisory)
        )
    rank, diag = _alpha_quotient(d, packing) or (
        2 * d.genus, _smith_diagonal(list(zip(*dict.fromkeys(d.all_classes())))))
    return HomologyReport(rank - sum(map(bool, diag)), tuple(x for x in diag if x > 1))


def _alpha_quotient(d: StarDiagram, packing: _Packing) -> Optional[Tuple[int, List[int]]]:
    """(g, Smith diagonal of P) when alpha spans a primitive Lagrangian L,
    else None.  P[i][j] = alpha_i . v_j over the g distinct nonzero alpha
    classes and the distinct beta and gamma classes v_j.

    The pairing is unimodular, so x -> (alpha_i . x)_i maps Z^(2g) onto
    Z^g iff the alpha_i are a basis of a primitive rank-g lattice L.  L is
    then Lagrangian, as the diagram is isotropic, so the kernel is L and
    H1 = Z^(2g) / (L + span(beta + gamma)) is the cokernel of P.  The image
    is spanned by the columns of alpha J (J only permutes and negates
    columns) and holds those of P, so the map is onto iff the Smith
    diagonal of [P | alpha] is all ones: the same test as on alpha alone,
    but cheaper, since P is sparse and small (pairings do not change under
    symplectic maps) and its columns give most pivots, where alpha's
    columns are dense.  A class k u' with k > 1 is in no basis of a
    primitive L (u' would be in L too), so such an alpha is refused before
    P is read off the packing of d (`_pairing_matrix`)."""
    alpha = [u for u in dict.fromkeys(d.alpha.classes) if any(u)]
    if len(alpha) != d.genus or any(gcd(*u) > 1 for u in alpha):
        return None
    pairing = _pairing_matrix(alpha, d, packing)
    if not all(x == 1 for x in _smith_diagonal([[*p, *u] for p, u in zip(pairing, alpha)])):
        return None
    return d.genus, _smith_diagonal(pairing)


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
