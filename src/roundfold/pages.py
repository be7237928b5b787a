"""Labeled Reeb graphs of page Morse functions.

A page is a compact connected surface F carried by a Morse function
h : F -> [1/2, infinity) with h(boundary F) = 1/2, no critical points near the
boundary, and s >= 1 critical points with distinct values.  Its combinatorial
shadow is a graph whose vertices are the boundary circles (rank 0) and the
critical points (ranks 1..s, one per rank), and whose edges are the annuli of
regular level circles between them.  Each edge carries a Z/2 twist recording
orientation-reversing gluing of the fiber circles.

Vertex kinds match the surface pieces the critical points cut out:

* ``Min`` / ``Max`` - disk caps (definite folds); degree 1.
* ``SaddleP`` - pair of pants; degree 3, merge (two circles become one going
  up) or split, derived from edge incidence.
* ``SaddleB`` - Moebius band minus an open disk; degree 2, one circle in and
  one out; the piece itself is non-orientable.
* ``Boundary`` - a circle of the boundary at level 1/2; rank 0, degree 1.

Twist labelings are considered up to gauge: flipping the chosen fiber
orientation over a vertex piece toggles every incident edge, and the
non-orientable piece at a ``SaddleB`` admits symmetries reversing each of its
incident edges individually.  Gauge classes are decided by linear algebra
over GF(2).
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from . import gf2
from .errors import InvalidPageError, RoundFoldError


class VertexKind(str, Enum):
    BOUNDARY = "boundary"
    MIN = "min"
    MAX = "max"
    SADDLE_P = "saddle_p"
    SADDLE_B = "saddle_b"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# one-letter tags used in canonical encodings
_KIND_TAG = {
    VertexKind.MIN: "m",
    VertexKind.MAX: "M",
    VertexKind.SADDLE_P: "P",
    VertexKind.SADDLE_B: "B",
}


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: VertexKind
    rank: int


@dataclass(frozen=True)
class Edge:
    id: str
    low: str
    high: str
    twist: int = 0


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


# the report every valid page shares
_VALID = ValidationReport()


@dataclass(frozen=True)
class SurfaceType:
    """Homeomorphism type of a compact surface.

    ``genus`` is set for orientable surfaces, ``crosscaps`` (>= 1) for
    non-orientable ones; the other field is None.
    """

    orientable: bool
    boundary_circles: int
    genus: int | None = None
    crosscaps: int | None = None

    def __post_init__(self) -> None:
        if type(self.boundary_circles) is not int:
            raise RoundFoldError(f"boundary_circles must be an int, got {self.boundary_circles!r}")
        for name in ("genus", "crosscaps"):
            count = getattr(self, name)
            if count is not None and type(count) is not int:
                raise RoundFoldError(f"{name} must be an int or None, got {count!r}")
        if self.boundary_circles < 0:
            raise RoundFoldError("boundary_circles must be >= 0")
        if self.orientable:
            if self.genus is None or self.genus < 0 or self.crosscaps is not None:
                raise RoundFoldError("orientable surface needs genus >= 0 and no crosscaps")
        else:
            if self.crosscaps is None or self.crosscaps < 1 or self.genus is not None:
                raise RoundFoldError("non-orientable surface needs crosscaps >= 1 and no genus")

    @property
    def euler(self) -> int:
        if self.orientable:
            return 2 - 2 * self.genus - self.boundary_circles
        return 2 - self.crosscaps - self.boundary_circles

    @property
    def closed(self) -> bool:
        return self.boundary_circles == 0

    def describe(self) -> str:
        kind = f"g={self.genus}" if self.orientable else f"k={self.crosscaps}"
        orient = "orientable" if self.orientable else "nonorientable"
        return f"{orient} {kind} b={self.boundary_circles} chi={self.euler}"


def orientable_surface(genus: int, boundary_circles: int = 0) -> SurfaceType:
    return SurfaceType(True, boundary_circles, genus=genus)


def nonorientable_surface(crosscaps: int, boundary_circles: int = 0) -> SurfaceType:
    return SurfaceType(False, boundary_circles, crosscaps=crosscaps)


@dataclass(frozen=True)
class LabeledReebGraph:
    """Immutable labeled Reeb graph.

    Vertices are stored sorted by (rank, id) and edges by id, so equal graphs
    compare equal regardless of construction order and serialization is
    canonical.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices, key=attrgetter("rank", "id"))))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=attrgetter("id"))))

    @classmethod
    def of(
        cls,
        vertices: Iterable[tuple[str, VertexKind | str, int]],
        edges: Iterable[tuple[str, str, str, int]],
    ) -> "LabeledReebGraph":
        vs = tuple(Vertex(i, k if type(k) is VertexKind else VertexKind(k), r) for i, k, r in vertices)
        es = tuple(Edge(i, lo, hi, t) for i, lo, hi, t in edges)
        return cls(vs, es)

    @property
    def s(self) -> int:
        """Number of critical vertices."""
        return sum(1 for v in self.vertices if v.kind is not VertexKind.BOUNDARY)

    def vertex(self, vid: str) -> Vertex:
        """The vertex with this id.  Deprecated: it scans every vertex, and
        nothing in the package needs it."""
        warnings.warn("LabeledReebGraph.vertex is deprecated; search graph.vertices", DeprecationWarning, stacklevel=2)
        for v in self.vertices:
            if v.id == vid:
                return v
        raise KeyError(vid)

    def critical_by_rank(self) -> dict[int, Vertex]:
        return {v.rank: v for v in self.vertices if v.kind is not VertexKind.BOUNDARY}

    def boundary_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if v.kind is VertexKind.BOUNDARY)

    def with_twists(self, labeling: Mapping[str, int]) -> "LabeledReebGraph":
        """Copy of this graph with edge twists replaced by ``labeling``.  The
        copy of a valid page shares its report and its view, since 0/1
        twists never affect validity and the view does not read them."""
        _check_labeling_domain(self, labeling)
        es = tuple(Edge(e.id, e.low, e.high, int(labeling[e.id])) for e in self.edges)
        copy = LabeledReebGraph(self.vertices, es)
        if self.report.ok:
            copy.__dict__.update(report=_VALID, _view=self._view)
        return copy

    def twist_labeling(self) -> dict[str, int]:
        return {e.id: e.twist for e in self.edges}

    @cached_property
    def report(self) -> ValidationReport:
        """The :func:`validate_page` report of this page, computed once per
        object."""
        return validate_page(self)

    @cached_property
    def _view(self) -> _PageView:
        """The :class:`_PageView` of this page, built once per object; every
        page function reads it, so on an invalid page each raises
        :class:`InvalidPageError` with the page's report."""
        require_valid(self)
        return _PageView(
            {v.rank: v.kind for v in self.vertices if v.kind is not VertexKind.BOUNDARY},
            {v.id: v.rank for v in self.vertices},
            tuple([(e.id, e.low, e.high) for e in self.edges]),
        )

    @cached_property
    def canonical_encoding(self) -> bytes:
        """The :func:`canonical_page_encoding` bytes of this page, computed
        once per object."""
        return _encode_page(self)

    @cached_property
    def _surface(self) -> SurfaceType:
        """The :func:`surface_type` of this page, computed once per object,
        so its orientability costs one :func:`twist_class`."""
        view = self._view
        orientable = not view.has_saddle_b and twist_class(self).representative == 0
        return _surface_of(view.chi, view.b, orientable)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_KIND_DEGREES = {
    VertexKind.BOUNDARY: ((0, 1),),
    VertexKind.MIN: ((0, 1),),
    VertexKind.MAX: ((1, 0),),
    VertexKind.SADDLE_B: ((1, 1),),
    VertexKind.SADDLE_P: ((2, 1), (1, 2)),
}


def validate_page(graph: LabeledReebGraph) -> ValidationReport:
    """Check every page invariant; an empty report means the graph is a page."""
    return _validate_page_data(
        [(v.id, v.kind, v.rank) for v in graph.vertices], [(e.id, e.low, e.high, e.twist) for e in graph.edges]
    )


def _validate_page_data(
    vertices: Sequence[tuple[str, VertexKind, int]],
    edges: Sequence[tuple[str, str, str, int]],
) -> ValidationReport:
    """The :func:`validate_page` report of the page with these (id, kind,
    rank) vertices and (id, low, high, twist) edges, in this order.

    Duplicate ids are reported alone, and so are unknown endpoints and bad
    twists; otherwise the violations come in the order no_critical,
    boundary_rank, rank_bijection, edge_direction, degree, disconnected,
    top_not_max.  One pass over the edges checks their ends, twists and
    directions, counts the degrees and joins the pieces of a union-find over
    the vertices (path halving, union by size), so the time is linear in the
    size of the page."""
    index = {vid: k for k, (vid, _, _) in enumerate(vertices)}
    if len(index) < len(vertices) or len({e[0] for e in edges}) < len(edges):
        return _duplicate_ids(vertices, edges)

    n = len(vertices)
    ranks = [rank for _, _, rank in vertices]
    below, above = [0] * n, [0] * n
    parent, size = list(range(n)), [1] * n
    pieces = n
    bad: list[Violation] = []
    upward: list[Violation] = []
    for eid, low, high, twist in edges:
        i, j = index.get(low), index.get(high)
        if i is None:
            bad.append(Violation("unknown_endpoint", f"edge {eid} references unknown vertex {low}", (eid, low)))
        if j is None:
            bad.append(Violation("unknown_endpoint", f"edge {eid} references unknown vertex {high}", (eid, high)))
        if type(twist) is not int or twist not in (0, 1):
            bad.append(Violation("bad_twist", f"edge {eid} twist must be 0 or 1", (eid,)))
        if bad:
            continue
        if ranks[i] >= ranks[j]:
            upward.append(Violation("edge_direction", f"edge {eid} must go strictly upward in rank", (eid,)))
        above[i] += 1
        below[j] += 1
        # the roots of i and j, halving their paths: each step points a
        # vertex at its grandparent and moves there
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            if size[i] < size[j]:
                i, j = j, i
            parent[j] = i
            size[i] += size[j]
            pieces -= 1
    if bad:
        return ValidationReport(tuple(bad))

    criticals = []
    boundary: list[Violation] = []
    degree: list[Violation] = []
    for k, (vid, kind, rank) in enumerate(vertices):
        if kind is not VertexKind.BOUNDARY:
            criticals.append((vid, kind, rank))
        elif rank != 0:
            boundary.append(Violation("boundary_rank", f"boundary vertex {vid} must have rank 0", (vid,)))
        got = (below[k], above[k])
        if got not in _KIND_DEGREES[kind]:
            want = " or ".join(f"{b} below / {a} above" for b, a in _KIND_DEGREES[kind])
            message = f"{kind.value} vertex {vid} has {got[0]} below / {got[1]} above, needs {want}"
            degree.append(Violation("degree", message, (vid,)))
    s = len(criticals)
    critical_ranks = sorted([rank for _, _, rank in criticals])
    bijective = critical_ranks == list(range(1, s + 1))
    if s < 1:
        bad.append(Violation("no_critical", "a page has at least one critical vertex", ()))
    bad += boundary
    if s >= 1 and not bijective:
        ids = tuple([vid for vid, _, _ in criticals])
        message = f"critical ranks must be exactly 1..{s}, got {critical_ranks}"
        bad.append(Violation("rank_bijection", message, ids))
    bad += upward
    bad += degree
    if pieces != 1:
        bad.append(Violation("disconnected", "page graph must be connected", ()))
    if s >= 1 and bijective:
        top_id, top_kind, _ = next(v for v in criticals if v[2] == s)
        if top_kind is not VertexKind.MAX:
            bad.append(
                Violation("top_not_max", f"the rank-{s} vertex must be a max (outermost fold is definite)", (top_id,))
            )
    return ValidationReport(tuple(bad)) if bad else _VALID


def _duplicate_ids(
    vertices: Sequence[tuple[str, VertexKind, int]], edges: Sequence[tuple[str, str, str, int]]
) -> ValidationReport:
    """The report of a page with a repeated vertex or edge id."""
    bad = []
    for code, what, items in (
        ("duplicate_vertex_id", "vertex", vertices),
        ("duplicate_edge_id", "edge", edges),
    ):
        counts = Counter([x[0] for x in items])
        if len(counts) < len(items):
            dupes = sorted(i for i, n in counts.items() if n > 1)
            bad.append(Violation(code, f"duplicate {what} ids {dupes}", tuple(dupes)))
    return ValidationReport(tuple(bad))


def require_valid(graph: LabeledReebGraph) -> None:
    if not graph.report.ok:
        raise InvalidPageError(graph.report)


class _PageView:
    """A valid page without its twists: the kind of its critical vertex of
    each rank 1..s, the rank of every vertex and the (id, low, high) of every
    edge, in the page's edge order.  The invariants that do not depend on the
    twists are computed when the view is built, except the encoding layout
    and the gauge echelon form, which are cached properties.  A page reads it
    through ``LabeledReebGraph._view`` and a descriptor through
    ``RoundFoldDescriptor._view``; the census builds none, since its walk
    derives the same invariants.  Nothing changes a view once it is built.

    ``b`` is the number of boundary circles, ``chi`` the Euler characteristic
    by fiberwise Morse counting, ``has_saddle_b`` whether a saddle_b vertex
    exists, and ``fiber_counts`` the circle counts c_0..c_s of the regular
    fiber (see :func:`regular_fiber_counts`): c_r counts the edges with
    low rank <= r < high rank.  ``inward`` tells, for each rank 1..s, whether
    the regular fiber has more circles just below it than just above:
    c_(r-1) - c_r is the number of edges arriving from below less those
    leaving upward, so a saddle_p there is a merge, and the critical sphere
    of rank r is inward-directed."""

    def __init__(
        self, kinds: dict[int, VertexKind], rank_of: dict[str, int], edges: tuple[tuple[str, str, str], ...]
    ):
        self.kinds, self.rank_of, self.edges = kinds, rank_of, edges
        s = self.s = len(kinds)
        self.b = len(rank_of) - s
        self.chi = _euler_by_kinds(kinds)
        self.has_saddle_b = VertexKind.SADDLE_B in kinds.values()
        # +1 where an edge starts, -1 where it ends; the running sums are c.
        # They go through a list: tuple() of an iterator of unknown length
        # resizes the tuple as it fills, and in a long-lived process that
        # crept the RSS up by about 2 MB over 8,000 classify requests
        step = [0] * (s + 1)
        for _, low, high in edges:
            step[rank_of[low]] += 1
            step[rank_of[high]] -= 1
        c = self.fiber_counts = tuple(list(itertools.accumulate(step)))
        self.inward = tuple([c[r - 1] > c[r] for r in range(1, s + 1)])

    @cached_property
    def layout(self) -> EncodingLayout:
        return _encoding_layout(self)

    @cached_property
    def gauge_pivots(self) -> dict[int, int]:
        """Echelon form of the gauge span with the edges in this view's
        order (see :func:`gauge_generators`)."""
        rank_of, m = self.rank_of, len(self.edges)
        edges = [(rank_of[low], rank_of[high], m - 1 - j) for j, (_, low, high) in enumerate(self.edges)]
        return gf2.rref(_gauge_vectors(self.kinds, edges))


# ---------------------------------------------------------------------------
# surface invariants
# ---------------------------------------------------------------------------

def _euler_by_kinds(kinds: Mapping[int, VertexKind]) -> int:
    """The Euler characteristic of a page with these kinds by rank, by
    fiberwise Morse counting: each min and max adds 1, each saddle takes 1."""
    kind_list = list(kinds.values())
    return 2 * (kind_list.count(VertexKind.MIN) + kind_list.count(VertexKind.MAX)) - len(kind_list)


def page_euler(graph: LabeledReebGraph) -> int:
    """Euler characteristic of the page, by fiberwise Morse counting."""
    return graph._view.chi


def boundary_count(graph: LabeledReebGraph) -> int:
    """Number of binding circles, i.e. boundary circles of the page."""
    return graph._view.b


def gauge_generators(graph: LabeledReebGraph, edge_order: Sequence[str]) -> list[int]:
    """Generating move vectors of the twist gauge group of a valid page, as
    bitmasks.

    The flip of each critical vertex by rank (toggle all incident edges),
    then the flip of each boundary vertex (a unit vector on its one edge) and
    one unit vector per edge incident to a saddle_b vertex.  Coordinate j of
    ``edge_order`` sits at bit (m - 1 - j).
    """
    view = graph._view
    m, rank_of = len(edge_order), view.rank_of
    bit = {eid: m - 1 - j for j, eid in enumerate(edge_order)}
    return _gauge_vectors(view.kinds, [(rank_of[low], rank_of[high], bit[eid]) for eid, low, high in view.edges])


def _gauge_vectors(kinds: Mapping[int, VertexKind], edges: Iterable[tuple[int, int, int]]) -> list[int]:
    """The gauge generators of the valid page whose critical vertex of each
    rank 1..s has these kinds and whose edges are these (low rank, high
    rank, coordinate bit) triples: the edges at the critical vertex of each
    rank 1..s, then a unit for the one edge of each boundary vertex and one
    for each edge at a saddle_b vertex."""
    incident = [0] * (len(kinds) + 1)
    units = []
    saddle_b = VertexKind.SADDLE_B
    has_saddle_b = saddle_b in kinds.values()
    for low, high, bit in edges:
        x = 1 << bit
        incident[high] |= x
        if low:
            incident[low] |= x
        else:
            units.append(x)
        if has_saddle_b and (kinds.get(low) is saddle_b or kinds[high] is saddle_b):
            units.append(x)
    return [*incident[1:], *units]


def _check_labeling_domain(graph: LabeledReebGraph, labeling: Mapping[str, int]) -> None:
    want = {e.id for e in graph.edges}
    got = set(labeling)
    if want != got:
        missing = sorted(want - got)
        extra = sorted(got - want)
        raise RoundFoldError(f"labeling edge set mismatch: missing {missing}, extra {extra}")
    for eid, t in labeling.items():
        if t not in (0, 1):
            raise RoundFoldError(f"twist of edge {eid} must be 0 or 1")


def _labeling_bits(labeling: Mapping[str, int], edge_order: Sequence[str]) -> int:
    m = len(edge_order)
    v = 0
    for j, eid in enumerate(edge_order):
        if labeling.get(eid):
            v |= 1 << (m - 1 - j)
    return v


def twist_equivalent(
    graph: LabeledReebGraph, t0: Mapping[str, int], t1: Mapping[str, int]
) -> bool:
    """Decide whether two twist labelings differ by gauge moves."""
    return twist_class(graph, t0) == twist_class(graph, t1)


@dataclass(frozen=True)
class TwistClass:
    """Gauge class of a twist labeling: edge order plus the canonical coset
    representative (zero on every pivot coordinate of the gauge span)."""

    edge_ids: tuple[str, ...]
    representative: int


def twist_class(graph: LabeledReebGraph, labeling: Mapping[str, int] | None = None) -> TwistClass:
    view = graph._view
    if labeling is None:
        labeling = graph.twist_labeling()
    else:
        _check_labeling_domain(graph, labeling)
    order = tuple(e.id for e in graph.edges)
    rep = gf2.coset_representative(_labeling_bits(labeling, order), view.gauge_pivots)
    return TwistClass(order, rep)


def page_orientable(graph: LabeledReebGraph) -> bool:
    """True iff the page surface is orientable.

    Requires no saddle_b piece and a gauge-trivial twist labeling
    (equivalently: zero twist sum around every cycle).
    """
    return graph._surface.orientable


def surface_type(graph: LabeledReebGraph) -> SurfaceType:
    """Classify the page surface from Euler characteristic, boundary count
    and orientability."""
    return graph._surface


def _surface_of(chi: int, b: int, orientable: bool) -> SurfaceType:
    """The surface with Euler characteristic ``chi``, ``b`` boundary circles
    and the given orientability."""
    if orientable:
        twice_genus = 2 - b - chi
        assert twice_genus >= 0 and twice_genus % 2 == 0, (
            f"inconsistent orientable page: chi={chi} b={b}"
        )
        return orientable_surface(twice_genus // 2, b)
    crosscaps = 2 - b - chi
    assert crosscaps >= 1, f"inconsistent non-orientable page: chi={chi} b={b}"
    return nonorientable_surface(crosscaps, b)


def regular_fiber_counts(graph: LabeledReebGraph) -> list[int]:
    """Circle counts c_0..c_s of the regular fiber in each annular region.

    c_r counts the edges whose span of levels covers the open interval
    (r, r+1); c_0 equals the boundary count and c_s is 0.
    """
    return list(graph._view.fiber_counts)


# ---------------------------------------------------------------------------
# isomorphism and canonical encoding
# ---------------------------------------------------------------------------

def canonical_page_encoding(graph: LabeledReebGraph) -> bytes:
    """Deterministic byte encoding deciding rank-preserving isomorphism.

    Layout (ASCII): ``P1;s=<s>;K=<kind tags by rank>;B=<boundary targets>;
    E=<edge keys>;T=<canonical twist bits>``.  Critical vertices are pinned by
    rank; boundary vertices are sorted by the rank of their target vertex;
    edges are sorted by (low key, high rank).  The twist block is the
    lexicographically smallest canonical gauge-coset representative over all
    orderings of parallel edges between saddles.  It needs no search: degree
    rules cap a parallel class at two edges, and swapping a pair (e, f)
    keeps the gauge span S and maps the labeling t to
    t + (t_e + t_f)(1_e + 1_f).  These swaps commute, so the union of the
    cosets over all orderings is t + S + span{1_e + 1_f : t_e != t_f}, whose
    least point is one coset representative over one elimination in the
    fixed edge order.  A pair with a saddle_b endpoint would add nothing,
    since 1_e and 1_f already lie in S.

    Two valid pages are isomorphic (kind-, rank- and incidence-preserving
    bijection with gauge-equivalent twists) iff their encodings are equal.
    The bytes are computed once per page object and kept on it.
    """
    return graph.canonical_encoding


@dataclass(frozen=True)
class EncodingLayout:
    """What the canonical encodings of a page and of all its twisted copies
    share: the ``P1;s=;K=;B=;E=`` text, the encoding edge order, the
    parallel-pair vectors 1_e + 1_f and an echelon form of the gauge span S
    in that order.  Only the ``T`` block depends on the twists."""

    prefix: str
    order: tuple[str, ...]
    pairs: tuple[int, ...]
    gauge: dict[int, int]

    def encode(self, labeling: Mapping[str, int]) -> bytes:
        """The encoding of the copy with these twists (an edge missing from
        ``labeling`` has twist 0)."""
        t = _labeling_bits(labeling, self.order)
        return _encode_bits(self.prefix, t, len(self.order), self.pairs, self.gauge)


def _encode_bits(prefix: str, t: int, m: int, pairs: Sequence[int], gauge: dict[int, int]) -> bytes:
    """The encoding with this prefix of the twists ``t``, as bits of the
    encoding edge order of width m with these parallel-pair vectors and this
    echelon form of the gauge span S: the prefix, then the ``T`` block, the
    least point of t + S + span{1_e + 1_f : t_e != t_f} (see
    :func:`canonical_page_encoding`)."""
    swaps = [pair for pair in pairs if t & pair not in (0, pair)]
    pivots = gf2.rref([*gauge.values(), *swaps]) if swaps else gauge
    return f"{prefix}T={gf2.coset_representative(t, pivots):0{m}b}".encode("ascii")


def _edge_key(low: int, high: int, j: int = 0) -> str:
    """The ``E`` key of an edge from a vertex of rank ``low`` up to one of
    rank ``high``; a boundary edge (low rank 0) is named by its position j
    in the encoding order."""
    return f"{low}>{high}" if low else f"b{j}>{high}"


def _layout_start(kinds: Mapping[int, VertexKind], targets: Sequence[int]) -> str:
    """The encoding text, up to the keys of its critical edges, of a page
    with these kinds by rank whose boundary edges end at these ranks, sorted:
    the ``P1;s=;K=;B=`` blocks and ``E=`` with the boundary edges' keys."""
    s = len(kinds)
    tags = ",".join([_KIND_TAG[kinds[r]] for r in range(1, s + 1)])
    keys = ",".join([_edge_key(0, high, j) for j, high in enumerate(targets)])
    return f"P1;s={s};K={tags};B={','.join(map(str, targets))};E={keys}"


def _layout_prefix(start: str, keys: str) -> str:
    """The ``P1;s=;K=;B=;E=`` text of an encoding: ``start`` from
    :func:`_layout_start`, then ``keys``, the keys of the critical edges in
    encoding order, each after a comma, and ``;``."""
    return f"{start}{keys[1:] if start[-1] == '=' else keys};"


def _encoding_layout(view: _PageView) -> EncodingLayout:
    """The :class:`EncodingLayout` of the valid page with this view."""
    rank_of = view.rank_of
    # edges sorted by (low rank, high rank, low id): the boundary edges come
    # first, sorted by target rank; within a target group boundary vertices
    # are interchangeable and their edge twists are individually
    # gauge-trivial, so one fixed order suffices.  A critical vertex is fixed
    # by its rank, so the two edges of a parallel pair have equal ranks and
    # end up adjacent
    keyed = sorted([(rank_of[low], rank_of[high], low, eid) for eid, low, high in view.edges])
    m = len(keyed)
    targets, keys, pairs = [], [], []
    before = None
    for j, (low_r, high_r, _, _) in enumerate(keyed):
        if low_r:
            keys.append(f",{_edge_key(low_r, high_r)}")
            if before == (low_r, high_r):
                pairs.append(3 << (m - 1 - j))  # this edge and the one before it
            before = (low_r, high_r)
        else:
            targets.append(high_r)
    gauge = _gauge_vectors(view.kinds, [(low_r, high_r, m - 1 - j) for j, (low_r, high_r, _, _) in enumerate(keyed)])
    return EncodingLayout(
        prefix=_layout_prefix(_layout_start(view.kinds, targets), "".join(keys)),
        order=tuple([eid for _, _, _, eid in keyed]),
        pairs=tuple(pairs),
        gauge=gf2.rref(gauge),
    )


def _encode_page(graph: LabeledReebGraph) -> bytes:
    """The body of :func:`canonical_page_encoding`."""
    return graph._view.layout.encode(graph.twist_labeling())


def page_isomorphic(g0: LabeledReebGraph, g1: LabeledReebGraph) -> bool:
    """Rank-preserving isomorphism of pages, twists compared up to gauge."""
    return canonical_page_encoding(g0) == canonical_page_encoding(g1)


# ---------------------------------------------------------------------------
# standard builders
# ---------------------------------------------------------------------------

def disk_page() -> LabeledReebGraph:
    """Height function on the disk: one boundary circle, one max."""
    return LabeledReebGraph.of(
        [("b0", VertexKind.BOUNDARY, 0), ("v1", VertexKind.MAX, 1)],
        [("e0", "b0", "v1", 0)],
    )


def sphere_page() -> LabeledReebGraph:
    """Height function on the 2-sphere: min and max only."""
    return LabeledReebGraph.of(
        [("v1", VertexKind.MIN, 1), ("v2", VertexKind.MAX, 2)],
        [("e0", "v1", "v2", 0)],
    )


def annulus_page() -> LabeledReebGraph:
    """Two boundary circles merged once below a max."""
    return LabeledReebGraph.of(
        [
            ("b0", VertexKind.BOUNDARY, 0),
            ("b1", VertexKind.BOUNDARY, 0),
            ("v1", VertexKind.SADDLE_P, 1),
            ("v2", VertexKind.MAX, 2),
        ],
        [("e0", "b0", "v1", 0), ("e1", "b1", "v1", 0), ("e2", "v1", "v2", 0)],
    )


def moebius_page() -> LabeledReebGraph:
    """The Moebius band: one boundary circle through a saddle_b to a max."""
    return LabeledReebGraph.of(
        [
            ("b0", VertexKind.BOUNDARY, 0),
            ("v1", VertexKind.SADDLE_B, 1),
            ("v2", VertexKind.MAX, 2),
        ],
        [("e0", "b0", "v1", 0), ("e1", "v1", "v2", 0)],
    )


def directed_page(s: int) -> LabeledReebGraph:
    """Genus-zero page with s boundary circles whose level sets gain one
    circle at every step toward the boundary: one max over a chain of s - 1
    merges."""
    if s < 1:
        raise RoundFoldError(f"directed page needs s >= 1, got {s}")
    return handle_page(s - 1, 0)


def handle_page(a: int, b: int) -> LabeledReebGraph:
    """Disk with ``a`` orientable and ``b`` non-orientable bands attached.

    Realized with b saddle_b vertices directly under the max and a merge
    saddles fanning out to a + 1 boundary circles; the Euler characteristic is
    1 - a - b and the page is orientable iff b = 0.
    """
    if a < 0 or b < 0 or a + b < 1:
        if (a, b) == (0, 0):
            return disk_page()
        raise RoundFoldError(f"handle page needs a, b >= 0, got a={a} b={b}")
    s = 1 + a + b
    vertices: list[tuple[str, VertexKind, int]] = [(f"v{s}", VertexKind.MAX, s)]
    edges: list[tuple[str, str, str, int]] = []
    eid = itertools.count()
    # chain of saddle_b pieces under the max
    for i in range(b):
        r = s - 1 - i
        vertices.append((f"v{r}", VertexKind.SADDLE_B, r))
        edges.append((f"e{next(eid)}", f"v{r}", f"v{r + 1}", 0))
    # merge fan: each merge feeds the chain above, opening one extra strand
    open_ends: list[str] = [f"v{s - b}"]
    for i in range(a):
        r = a - i
        vertices.append((f"v{r}", VertexKind.SADDLE_P, r))
        edges.append((f"e{next(eid)}", f"v{r}", open_ends.pop(), 0))
        open_ends.extend([f"v{r}", f"v{r}"])
    for i, top in enumerate(open_ends):
        vertices.append((f"b{i}", VertexKind.BOUNDARY, 0))
        edges.append((f"e{next(eid)}", f"b{i}", top, 0))
    return LabeledReebGraph.of(vertices, edges)


def orientable_closed_page(genus: int) -> LabeledReebGraph:
    """Standard height function on the closed orientable surface of the given
    genus: min, then a split/merge pair per handle, then max."""
    if genus < 0:
        raise RoundFoldError(f"genus must be >= 0, got {genus}")
    if genus == 0:
        return sphere_page()
    s = 2 * genus + 2
    vertices = [("v1", VertexKind.MIN, 1), (f"v{s}", VertexKind.MAX, s)]
    vertices += [(f"v{r}", VertexKind.SADDLE_P, r) for r in range(2, s)]
    edges: list[tuple[str, str, str, int]] = []
    eid = itertools.count()
    for r in range(1, s):
        parallel = 2 if (r % 2 == 0 and 2 <= r < s - 1) else 1
        for _ in range(parallel):
            edges.append((f"e{next(eid)}", f"v{r}", f"v{r + 1}", 0))
    return LabeledReebGraph.of(vertices, edges)


def nonorientable_closed_page(crosscaps: int) -> LabeledReebGraph:
    """Height function on the closed non-orientable surface with the given
    number of crosscaps: min, a chain of saddle_b pieces, max."""
    if crosscaps < 1:
        raise RoundFoldError(f"crosscaps must be >= 1, got {crosscaps}")
    s = crosscaps + 2
    vertices = [("v1", VertexKind.MIN, 1), (f"v{s}", VertexKind.MAX, s)]
    vertices += [(f"v{r}", VertexKind.SADDLE_B, r) for r in range(2, s)]
    edges = [(f"e{r - 1}", f"v{r}", f"v{r + 1}", 0) for r in range(1, s)]
    return LabeledReebGraph.of(vertices, edges)


def klein_page() -> LabeledReebGraph:
    """Torus-shaped graph with one twisted parallel edge: the Klein bottle."""
    g = orientable_closed_page(1)
    # e1 and e2 are the torus page's parallel pair, from v2 up to v3
    return g.with_twists({**g.twist_labeling(), "e2": 1})


_BUILDERS = {
    "disk": disk_page,
    "sphere": sphere_page,
    "annulus": annulus_page,
    "moebius": moebius_page,
    "directed": directed_page,
    "orientable_closed": orientable_closed_page,
    "nonorientable_closed": nonorientable_closed_page,
    "handle_page": handle_page,
}


def standard_page(kind: str, *params: int) -> LabeledReebGraph:
    """Dispatch to a named builder: disk | sphere | annulus | moebius |
    directed(s) | orientable_closed(g) | nonorientable_closed(k) |
    handle_page(a, b)."""
    if kind not in _BUILDERS:
        raise RoundFoldError(f"unknown standard page kind {kind!r}")
    return _BUILDERS[kind](*params)
