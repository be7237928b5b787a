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
from functools import cached_property

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
    directed_page,
    disk_page,
    handle_page,
    nonorientable_closed_page,
    orientable_closed_page,
    page_orientable,
    sphere_page,
    surface_type,
)


@dataclass(frozen=True)
class RoundFoldDescriptor:
    n: int
    page: LabeledReebGraph
    clutching: int = 0

    @cached_property
    def report(self) -> ValidationReport:
        """Page validity plus the clutching constraints, computed once per
        object.

        A nonzero clutching integer is only meaningful for n = 4 with the
        two-critical-point sphere page; for n >= 5 the page determines the
        map, and for the disk page the total space would stop being a
        sphere.
        """
        bad = list(self.page.report.violations)
        if not isinstance(self.n, int) or self.n < 4:
            bad.append(Violation("dimension", f"descriptor dimension must be an integer >= 4, got {self.n!r}"))
        if type(self.clutching) is not int:
            bad.append(Violation("clutching_type", "clutching must be an integer"))
        elif self.clutching != 0:
            if self.n != 4:
                message = f"clutching must be 0 for n = {self.n}; the page determines the map"
                bad.append(Violation("clutching_dim", message))
            elif not is_sphere_page(self.page):
                message = "nonzero clutching needs the two-critical-point sphere page"
                bad.append(Violation("clutching_page", message))
        return ValidationReport(tuple(bad))

    @cached_property
    def _view(self) -> pages._PageView:
        """The :class:`_PageView` of the page of a valid descriptor, read
        once per object; every descriptor function reads it, so on an
        invalid descriptor each raises :class:`InvalidDescriptorError` with
        the descriptor's report."""
        if not self.report.ok:
            raise InvalidDescriptorError(self.report)
        return self.page._view


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
    kinds = [v.kind for v in graph.vertices]
    return len(kinds) == 2 and set(kinds) == {VertexKind.MIN, VertexKind.MAX}


def build_total_space(rf: RoundFoldDescriptor) -> ManifoldDescriptor:
    """Total space of the open book construction over the descriptor's page.

    Closed pages give surface products (split into the trivial and twisted
    S^2-bundle over S^2 by clutching parity when n = 4); bounded pages give
    the boundary of a 1-handlebody: the sphere for the disk page, otherwise a
    handle sum with 1 - chi(page) summands, twisted iff the page is
    non-orientable.
    """
    rf._view  # raises InvalidDescriptorError on an invalid descriptor
    return _total_space(rf.n, surface_type(rf.page), rf.clutching)


def _total_space(n: int, st: SurfaceType, clutching: int) -> ManifoldDescriptor:
    """The total space of a valid descriptor: it depends on the page only
    through its surface type."""
    if st.closed:
        if n == 4 and st == pages.orientable_surface(0):
            if clutching % 2 == 1:
                return TwistedS2S2()
            return SurfaceProduct(4, st)
        return SurfaceProduct(n, st)
    if st == pages.orientable_surface(0, 1):
        return Sphere(n)
    handles = 1 - st.euler
    twisted = 0 if st.orientable else 1
    return HandleSum(n, handles - twisted, twisted)


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
    return [(r, Direction.INWARD if inward else Direction.OUTWARD) for r, inward in enumerate(_inward(rf), 1)]


def is_directed(rf: RoundFoldDescriptor) -> bool:
    """True iff every critical sphere is inward-directed, i.e. the innermost
    regular fiber has one circle per critical sphere."""
    return all(_inward(rf))


def _inward(rf: RoundFoldDescriptor) -> tuple[bool, ...]:
    """Whether the critical sphere of each rank 1..s is inward-directed;
    the descriptor is checked first, then the orientability."""
    view = rf._view
    if not page_orientable(rf.page):
        raise NonOrientableError("component directions are defined only for orientable total spaces")
    return view.inward


def fold_counts(rf: RoundFoldDescriptor) -> tuple[int, int]:
    """(definite, indefinite) fold sphere counts: (min + max, saddles)."""
    view = rf._view
    # n0 + n1 = s and n0 - n1 = chi
    return (view.s + view.chi) // 2, (view.s - view.chi) // 2


def euler_via_folds(rf: RoundFoldDescriptor) -> int:
    """Euler characteristic of the total space as twice the difference of
    definite and indefinite fold counts (even dimensions only)."""
    view = rf._view
    if rf.n % 2 != 0:
        raise RoundFoldError(f"fold-count Euler characteristic needs even dimension, got n={rf.n}")
    return 2 * view.chi  # n0 - n1 = chi


def open_book(rf: RoundFoldDescriptor) -> OpenBookDescriptor:
    """Open book decomposition carried by the map: the page surface, one
    binding circle per page boundary circle, trivial monodromy.

    Nonzero clutching (n = 4 sphere page) leaves the trivial-monodromy model
    and is reported as unsupported.
    """
    view = rf._view
    if rf.clutching != 0:
        raise OpenBookUnsupportedError(
            "open book with nonzero clutching has non-trivial monodromy; unsupported"
        )
    return OpenBookDescriptor(surface_type(rf.page), view.b, True)
