"""Round fold map descriptors in standard form and their total spaces.

A standard-form round fold map of a closed n-manifold into R^(n-1) has its
singular value set on the concentric spheres of radii 1..s; it is encoded by
the dimension n, the labeled Reeb graph of its page Morse function, and (for
n = 4 definite-only maps on sphere bundles) one clutching integer.  The total
space is the boundary of page x disk, so every invariant here reduces to
combinatorics of the page.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import pages
from .errors import (
    InvalidDescriptorError,
    NonOrientableError,
    OpenBookUnsupportedError,
    RoundFoldError,
)
from .manifolds import (
    HandleSum,
    ManifoldDescriptor,
    Sphere,
    SurfaceProduct,
    TwistedS2S2,
    normalize,
)
from .pages import (
    LabeledReebGraph,
    SurfaceType,
    ValidationReport,
    VertexKind,
    Violation,
    boundary_count,
    directed_page,
    disk_page,
    handle_page,
    nonorientable_closed_page,
    orientable_closed_page,
    page_orientable,
    regular_fiber_counts,
    sphere_page,
    surface_type,
)


@dataclass(frozen=True)
class RoundFoldDescriptor:
    n: int
    page: LabeledReebGraph
    clutching: int = 0


@dataclass(frozen=True)
class OpenBookDescriptor:
    page: SurfaceType
    binding_circles: int
    monodromy_trivial: bool = True


class Direction(Enum):
    INWARD = "inward"
    OUTWARD = "outward"


def is_sphere_page(graph: LabeledReebGraph) -> bool:
    """The two-critical-point page on S^2 (min under max, no boundary)."""
    kinds = sorted(v.kind.value for v in graph.vertices)
    return kinds == ["max", "min"]


def validate_descriptor(rf: RoundFoldDescriptor) -> ValidationReport:
    """Page validity plus the clutching constraints.

    A nonzero clutching integer is only meaningful for n = 4 with the
    two-critical-point sphere page; for n >= 5 the page determines the map,
    and for the disk page the total space would stop being a sphere.
    """
    bad = list(rf.page.report.violations)
    if not isinstance(rf.n, int) or rf.n < 4:
        bad.append(Violation("dimension", f"descriptor dimension must be an integer >= 4, got {rf.n!r}"))
    if not isinstance(rf.clutching, int):
        bad.append(Violation("clutching_type", "clutching must be an integer"))
    elif rf.clutching != 0:
        if rf.n != 4:
            bad.append(
                Violation("clutching_dim", f"clutching must be 0 for n = {rf.n}; the page determines the map")
            )
        elif not is_sphere_page(rf.page):
            bad.append(
                Violation("clutching_page", "nonzero clutching needs the two-critical-point sphere page")
            )
    return ValidationReport(tuple(bad))


def require_valid_descriptor(rf: RoundFoldDescriptor) -> None:
    report = validate_descriptor(rf)
    if not report.ok:
        raise InvalidDescriptorError(report)


def build_total_space(rf: RoundFoldDescriptor) -> ManifoldDescriptor:
    """Total space of the open book construction over the descriptor's page.

    Closed pages give surface products (split into the trivial and twisted
    S^2-bundle over S^2 by clutching parity when n = 4); bounded pages give
    the boundary of a 1-handlebody: the sphere for the disk page, otherwise a
    handle sum with 1 - chi(page) summands, twisted iff the page is
    non-orientable.
    """
    require_valid_descriptor(rf)
    st = surface_type(rf.page)
    if st.closed:
        if rf.n == 4 and st == pages.orientable_surface(0):
            if rf.clutching % 2 == 1:
                return TwistedS2S2()
            return SurfaceProduct(4, st)
        return SurfaceProduct(rf.n, st)
    if st == pages.orientable_surface(0, 1):
        return Sphere(rf.n)
    handles = 1 - st.euler
    twisted = 0 if st.orientable else 1
    return HandleSum(rf.n, handles - twisted, twisted)


def admits_round_fold(d: ManifoldDescriptor) -> RoundFoldDescriptor:
    """Witness descriptor whose total space is the given manifold.

    Every well-formed descriptor is admissible, so the result is never None;
    the witness page is the matching standard builder output.
    """
    d = normalize(d)
    match d:
        case Sphere(n):
            return RoundFoldDescriptor(n, disk_page())
        case HandleSum(n, a, b):
            return RoundFoldDescriptor(n, handle_page(a, b))
        case SurfaceProduct(n, sigma):
            if sigma.orientable:
                return RoundFoldDescriptor(n, orientable_closed_page(sigma.genus))
            return RoundFoldDescriptor(n, nonorientable_closed_page(sigma.crosscaps))
        case TwistedS2S2():
            return RoundFoldDescriptor(4, sphere_page(), 1)
    raise RoundFoldError(f"unknown descriptor {d!r}")


def admits_directed(d: ManifoldDescriptor) -> RoundFoldDescriptor | None:
    """Witness of a directed round fold map, or None.

    Only the sphere and untwisted handle sums qualify; directedness is
    defined for orientable total spaces only, so anything else gives None.
    """
    d = normalize(d)
    match d:
        case Sphere(n):
            return RoundFoldDescriptor(n, directed_page(1))
        case HandleSum(n, a, 0):
            return RoundFoldDescriptor(n, directed_page(a + 1))
        case _:
            return None


def component_directions(rf: RoundFoldDescriptor) -> list[tuple[int, Direction]]:
    """Normal direction of each critical sphere, from fiber-circle counts.

    The sphere of rank r is inward-directed when the regular fiber has more
    circles on its inner side.  Undefined for non-orientable total spaces.
    """
    require_valid_descriptor(rf)
    if not page_orientable(rf.page):
        raise NonOrientableError("component directions are defined only for orientable total spaces")
    c = regular_fiber_counts(rf.page)
    out = []
    for r in range(1, len(c)):
        out.append((r, Direction.INWARD if c[r - 1] > c[r] else Direction.OUTWARD))
    return out


def is_directed(rf: RoundFoldDescriptor) -> bool:
    """True iff every critical sphere is inward-directed, i.e. the innermost
    regular fiber has one circle per critical sphere."""
    dirs = component_directions(rf)
    return all(d is Direction.INWARD for _, d in dirs)


def fold_counts(rf: RoundFoldDescriptor) -> tuple[int, int]:
    """(definite, indefinite) fold sphere counts: (min + max, saddles)."""
    require_valid_descriptor(rf)
    counts = pages._kind_counts(rf.page)
    n0 = counts[VertexKind.MIN] + counts[VertexKind.MAX]
    n1 = counts[VertexKind.SADDLE_P] + counts[VertexKind.SADDLE_B]
    return n0, n1


def euler_via_folds(rf: RoundFoldDescriptor) -> int:
    """Euler characteristic of the total space as twice the difference of
    definite and indefinite fold counts (even dimensions only)."""
    require_valid_descriptor(rf)
    if rf.n % 2 != 0:
        raise RoundFoldError(f"fold-count Euler characteristic needs even dimension, got n={rf.n}")
    n0, n1 = fold_counts(rf)
    return 2 * (n0 - n1)


def height_critical_counts(rf: RoundFoldDescriptor) -> tuple[int, int]:
    """(even-index, odd-index) critical point counts of a height function
    composed with the map: twice the fold counts."""
    n0, n1 = fold_counts(rf)
    return 2 * n0, 2 * n1


def open_book(rf: RoundFoldDescriptor) -> OpenBookDescriptor:
    """Open book decomposition carried by the map: the page surface, one
    binding circle per page boundary circle, trivial monodromy.

    Nonzero clutching (n = 4 sphere page) leaves the trivial-monodromy model
    and is reported as unsupported.
    """
    require_valid_descriptor(rf)
    if rf.clutching != 0:
        raise OpenBookUnsupportedError(
            "open book with nonzero clutching has non-trivial monodromy; unsupported"
        )
    return OpenBookDescriptor(surface_type(rf.page), boundary_count(rf.page), True)
