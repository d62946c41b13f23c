"""Homological and handle-theoretic invariants of a trisected 4-manifold.

The surface inclusion is surjective on fundamental groups, so H1 of the
total space is Z^(2g) modulo the classes of every curve in all three
systems.  Euler characteristic and handle counts come straight from the
parameter tuple and are defined for closed manifolds only.
"""

from typing import Tuple

from ._record import Record
from .diagram import StarDiagram, TrisectionParams, diagram_ok, validate_diagram
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
    off the Smith diagonal of the distinct classes (a repeat, such as a
    common curve or a poked null class, spans nothing new).  The diagram
    checked every entry when it was built, so the kernel checks none."""
    violations = validate_diagram(d)
    if not diagram_ok(violations):
        raise DiagramError(
            "diagram invalid: " + "; ".join(v.message for v in violations if not v.advisory)
        )
    diag = _smith_diagonal(list(zip(*dict.fromkeys(d.all_classes()))))
    return HomologyReport(2 * d.genus - sum(map(bool, diag)), tuple(x for x in diag if x > 1))


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
