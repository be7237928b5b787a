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
incident edges individually.  Gauge classes are decided by one pass of a
union-find over the ranks that keeps each rank's parity (see ``_reduce``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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


class Vertex(NamedTuple):
    id: str
    kind: VertexKind
    rank: int


class Edge(NamedTuple):
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
    canonical.  Each item is a record, the (id, kind, rank) or (id, low,
    high, twist) tuple that :func:`validate_page` reads as it is.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _sorted(self.vertices, itemgetter(2, 0)))
        object.__setattr__(self, "edges", _sorted(self.edges, itemgetter(0)))

    @classmethod
    def of(
        cls,
        vertices: Iterable[tuple[str, VertexKind | str, int]],
        edges: Iterable[tuple[str, str, str, int]],
    ) -> "LabeledReebGraph":
        vs = [Vertex(i, k if type(k) is VertexKind else VertexKind(k), r) for i, k, r in vertices]
        return cls(vs, [Edge(i, lo, hi, t) for i, lo, hi, t in edges])

    @property
    def s(self) -> int:
        """Number of critical vertices."""
        return sum(1 for v in self.vertices if v.kind is not VertexKind.BOUNDARY)

    def with_twists(self, labeling: Mapping[str, int]) -> "LabeledReebGraph":
        """Copy of this graph with edge twists replaced by ``labeling``.  The
        copy of a valid page shares its report and its view, since 0/1
        twists never affect validity and the view does not read them."""
        _check_labeling_domain(self, labeling)
        es = [Edge(eid, low, high, int(labeling[eid])) for eid, low, high, _ in self.edges]
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
        return _PageView(self)

    @cached_property
    def canonical_encoding(self) -> bytes:
        """The :func:`canonical_page_encoding` bytes of this page, computed
        once per object."""
        view = self._view
        return _encode_bits(view.prefix, view.twist_bits(self), view.pairs, view.h_edges)

    @cached_property
    def _surface(self) -> SurfaceType:
        """The :func:`surface_type` of this page, computed once per object,
        so its orientability costs one :func:`twist_class`."""
        view = self._view
        orientable = not view.has_saddle_b and twist_class(self).representative == 0
        return _surface_of(view.chi, view.b, orientable)


def _sorted(items: Iterable, key: Callable[[object], object]) -> tuple:
    """``items`` sorted by ``key``; where two keys do not compare, as an id
    or a rank of another type (which validation reports) may not, sorted by
    the text of their keys instead."""
    try:
        return tuple(sorted(items, key=key))
    except TypeError:
        return tuple(sorted(items, key=lambda item: repr(key(item))))


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
    return _validate_page_data(graph.vertices, graph.edges)


def _validate_page_data(
    vertices: Sequence[tuple[str, VertexKind, int]],
    edges: Sequence[tuple[str, str, str, int]],
) -> ValidationReport:
    """The :func:`validate_page` report of the page with these (id, kind,
    rank) vertices and (id, low, high, twist) edges, in this order.

    Duplicate ids, counted among the ids of type str, are reported alone.
    Then the bad_id (an id that is not a non-empty str, which is never
    hashed or compared), bad_kind (a kind whose type is not VertexKind, so
    not its str value either) and bad_rank (a rank whose type is not int, so
    not a bool either) of each vertex, followed by the bad_id, unknown_endpoint
    (an end that is not the str id of a vertex) and bad_twist of each edge,
    are reported alone, before any rank is compared; otherwise the
    violations come in the order no_critical, boundary_rank,
    rank_bijection, edge_direction, degree, disconnected, top_not_max.  One
    pass over the vertices indexes them and checks their ids and ranks; one
    pass over the edges checks their ids, ends, twists and directions,
    counts the degrees and joins the pieces of a union-find over the
    vertices (path halving, union by size), so the time is linear in the
    size of the page."""
    index: dict[str, int] = {}
    ranks: list[int] = []
    bad: list[Violation] = []
    for k, (vid, kind, rank) in enumerate(vertices):
        ranks.append(rank)
        if type(vid) is str:
            index[vid] = k
        if type(vid) is not str or not vid:
            bad.append(Violation("bad_id", f"vertex id {vid!r} must be a non-empty string", (vid,)))
        if type(kind) is not VertexKind:
            bad.append(Violation("bad_kind", f"vertex {vid} kind must be a VertexKind, got {kind!r}", (vid,)))
        if type(rank) is not int:
            bad.append(Violation("bad_rank", f"vertex {vid} rank must be an int, got {rank!r}", (vid,)))

    n = len(vertices)
    below, above = [0] * n, [0] * n
    parent, size = list(range(n)), [1] * n
    pieces = n
    upward: list[Violation] = []
    for eid, low, high, twist in edges:
        if type(eid) is not str or not eid:
            bad.append(Violation("bad_id", f"edge id {eid!r} must be a non-empty string", (eid,)))
        try:
            i, j = index[low], index[high]
        except (KeyError, TypeError):  # an end that is no vertex id, perhaps not even hashable
            for end in (low, high):
                if not isinstance(end, str) or end not in index:
                    bad.append(Violation("unknown_endpoint", f"edge {eid} references unknown vertex {end}", (eid, end)))
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
    # with no bad id every id is a str, safe to hash, and the sizes tell
    # whether one repeats; else only the str ids are counted
    if bad or len(index) < n or len({e[0] for e in edges}) < len(edges):
        repeated = []
        for code, what, items in (("duplicate_vertex_id", "vertex", vertices), ("duplicate_edge_id", "edge", edges)):
            counts = Counter([item[0] for item in items if type(item[0]) is str])
            twice = sorted(i for i, count in counts.items() if count > 1)
            if twice:
                repeated.append(Violation(code, f"duplicate {what} ids {twice}", tuple(twice)))
        return ValidationReport(tuple(repeated or bad))

    criticals = []
    boundary: list[Violation] = []
    degree: list[Violation] = []
    boundary_kind = VertexKind.BOUNDARY
    for k, (vid, kind, rank) in enumerate(vertices):
        if kind is not boundary_kind:
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


def require_valid(graph: LabeledReebGraph) -> None:
    if not graph.report.ok:
        raise InvalidPageError(graph.report)


class _PageView:
    """A valid page without its twists: what the page and its twisted copies
    share, computed from the page in one sort of its edges and a few linear
    passes over them.  A page reads the view through
    ``LabeledReebGraph._view`` and a descriptor through
    ``RoundFoldDescriptor._view``; the census builds none, since its walk
    derives the same invariants, and neither does ``render_reeb``.  Nothing
    changes a view once it is built.

    ``s`` holds the number of critical vertices, ``b`` the number of
    boundary circles, ``chi`` the Euler characteristic by fiberwise Morse
    counting, ``has_saddle_b`` whether a saddle_b vertex exists, and
    ``fiber_counts`` the circle counts c_0..c_s of the regular
    fiber (see :func:`regular_fiber_counts`): c_r counts the edges with
    low rank <= r < high rank.  ``inward`` tells, for each rank 1..s, whether
    the regular fiber has more circles just below it than just above:
    c_(r-1) - c_r is the number of edges arriving from below less those
    leaving upward, so a saddle_p there is a merge, and the critical sphere
    of rank r is inward-directed.

    The canonical encoding orders the edges by (low rank, high rank, low
    id); ``order`` holds their ids in that order, ``prefix`` the
    ``P1;s=;K=;B=;E=`` text, and ``h_edges`` and ``pairs`` the edges of H
    and its parallel pairs as :func:`_h_edges` lists them, in that order
    (see :func:`_reduce`).  Only the ``T`` block depends on the
    twists, which :meth:`twist_bits` reads as one digit per edge of
    ``order``: ``places`` holds the place of each edge of ``order`` in the
    page's edge order."""

    def __init__(self, graph: LabeledReebGraph):
        # the vertices are sorted by rank, so the b boundary vertices, of
        # rank 0, come first and then the critical vertices of ranks 1..s
        vids, vkinds, ranks = zip(*graph.vertices)
        b = self.b = ranks.count(0)
        kinds = dict(zip(ranks[b:], vkinds[b:]))
        s = self.s = len(kinds)
        self.chi = _euler_by_kinds(kinds)
        self.has_saddle_b = VertexKind.SADDLE_B in kinds.values()
        # the edges by (low rank, high rank, low id), each with its place k
        # in the page's edge order: the boundary edges come first, sorted by
        # target rank; within a target group boundary vertices are
        # interchangeable and their edge twists are individually
        # gauge-trivial, so one fixed order suffices.  A critical vertex is
        # fixed by its rank, so the two edges of a parallel pair have equal
        # ranks and end up adjacent.  A boundary vertex has one edge, so the
        # first b edges are the boundary edges; a valid page has at least
        # one edge, the one below its max
        ids, low_ids, high_ids, _ = zip(*graph.edges)
        m = len(ids)
        rank = dict(zip(vids, ranks)).__getitem__
        keyed = sorted(zip(map(rank, low_ids), map(rank, high_ids), low_ids, range(m), ids))
        lows, highs, _, self.places, self.order = zip(*keyed)
        # +1 where an edge starts, -1 where it ends; the running sums are c.
        # c goes through a list: tuple() of an iterator of unknown length
        # resizes the tuple as it fills, and in a long-lived process that
        # crept the RSS up by about 2 MB over 8,000 classify requests
        step = [0] * (s + 1)
        for r in lows:
            step[r] += 1
        for r in highs:
            step[r] -= 1
        c = self.fiber_counts = tuple(list(itertools.accumulate(step)))
        self.inward = tuple([c[r - 1] > c[r] for r in range(1, s + 1)])
        keys = "".join([f",{key}" for key in map(_edge_key, lows[b:], highs[b:])])
        self.prefix = _layout_prefix(_layout_start(kinds, highs[:b]), keys)
        self.h_edges, self.pairs = _h_edges(kinds, zip(lows[b:], highs[b:], range(m - 1 - b, -1, -1)))

    def twist_bits(self, graph: LabeledReebGraph) -> str:
        """The twists of this page, or of a twisted copy of it, as one string
        of m binary digits, the twist of each edge of ``order`` in turn, in
        linear time."""
        # a page sorts its edges by id and a twisted copy has the same ids,
        # so place k holds the same edge in the page and in every copy
        edges = graph.edges
        return "".join(["01"[edges[k].twist] for k in self.places])


# ---------------------------------------------------------------------------
# surface invariants
# ---------------------------------------------------------------------------

def _euler_by_kinds(kinds: Mapping[int, VertexKind]) -> int:
    """The Euler characteristic of a page with these kinds by rank, by
    fiberwise Morse counting: each min and max adds 1, each saddle takes 1."""
    kind_list = list(kinds.values())
    return 2 * (kind_list.count(VertexKind.MIN) + kind_list.count(VertexKind.MAX)) - len(kind_list)


def _check_labeling_domain(graph: LabeledReebGraph, labeling: Mapping[str, int]) -> None:
    want = {e.id for e in graph.edges}
    got = set(labeling)
    if want != got:
        # ids of other types may not compare, so sort as _sorted does
        missing = list(_sorted(want - got, lambda eid: eid))
        extra = list(_sorted(got - want, lambda eid: eid))
        raise RoundFoldError(f"labeling edge set mismatch: missing {missing}, extra {extra}")
    for eid, t in labeling.items():
        if t not in (0, 1):
            raise RoundFoldError(f"twist of edge {eid} must be 0 or 1")


@dataclass(frozen=True)
class TwistClass:
    """Gauge class of a twist labeling: the page's encoding edge order, by
    (low rank, high rank, low id), plus the canonical coset representative,
    as bits of that order, the first edge at the highest bit.  The
    representative is zero on every unit edge and on the greedy spanning
    forest of H (see :func:`_reduce`), and 0 iff the labeling is
    gauge-trivial."""

    edge_ids: tuple[str, ...]
    representative: int


def twist_class(graph: LabeledReebGraph) -> TwistClass:
    """The gauge class of the page's twists, read on the page's view, whose
    edge order and edges of H the canonical encoding shares (see
    :func:`_reduce`).  The class of another labeling t is that of
    ``graph.with_twists(t)``."""
    view = graph._view
    return TwistClass(view.order, int(_reduce(view.h_edges, (), view.twist_bits(graph)), 2))


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
    least point one pass over the edges reads off (see :func:`_reduce`).
    No pair has a saddle_b end, since a saddle_b has one edge below and one
    above: by the degree rules every pair runs from a saddle_p split up to
    a saddle_p merge.

    Two valid pages are isomorphic (kind-, rank- and incidence-preserving
    bijection with gauge-equivalent twists) iff their encodings are equal.
    The bytes are computed once per page object and kept on it.
    """
    return graph.canonical_encoding


def _encode_bits(prefix: str, t: str, pairs: Sequence[tuple], h_edges: Sequence[tuple]) -> bytes:
    """The encoding with this prefix of the twists ``t``, one binary digit
    per edge of the encoding order, with these parallel pairs and these
    edges of H, as :func:`_h_edges` lists them: the prefix, then the ``T``
    block, the least point of t + S + span{1_e + 1_f : t_e != t_f} (see
    :func:`_reduce`)."""
    return f"{prefix}T={_reduce(h_edges, pairs, t)}".encode("ascii")


def _h_edges(kinds: Mapping[int, VertexKind], edges: Iterable[tuple[int, int, int]]) -> tuple[tuple, tuple]:
    """The edges of H and its parallel pairs, among these (low rank, high
    rank, bit) edges between critical vertices with these kinds by rank,
    given in encoding order.  H holds, in that order, the edges with no
    saddle_b end; a pair is the (bit of the first edge, bit of the second
    edge) of two adjacent edges of H with equal ranks.  These are all the
    parallel pairs: by the degree table only a saddle_p split has two edges
    up and only a saddle_p merge two edges down, so both edges of a pair
    lie in H, and the encoding order, which sorts edges by their ranks,
    puts them next to each other."""
    units = {r for r, kind in kinds.items() if kind is VertexKind.SADDLE_B}
    h_edges = tuple([edge for edge in edges if edge[0] not in units and edge[1] not in units])
    return h_edges, tuple([(e[2], f[2]) for e, f in itertools.pairwise(h_edges) if e[0] == f[0] and e[1] == f[1]])


def _reduce(h_edges: Sequence[tuple[int, int, int]], pairs: Iterable[tuple[int, int]], t: str) -> str:
    """The least point of t + S + span{1_e + 1_f : t_e != t_f}, over the
    parallel pairs (e, f) whose bits are ``pairs``, for the twists ``t``,
    one binary digit per edge of the encoding order, as m digits in that
    order.  An edge's bit counts from the last edge, so edge ``bit`` reads
    its twist as ``t[~bit]``.
    ``h_edges`` holds the (low rank, high rank, bit) of the edges of H, the
    graph of the edges between critical vertices other than saddle_b, in
    encoding order; ``pairs`` comes with it from :func:`_h_edges`.

    An edge from a boundary vertex or at a saddle_b vertex, a unit edge,
    is not in H: S holds its unit vector, so its bit is 0.  S is those
    units plus the vertex flips restricted to H, the cut space of H; every
    vector of it and every pair vector has equal bits on both edges of a
    pair, so an unequal pair has one odd edge in every point of the union,
    and the pair vector moves it to either edge, leaving the other bits
    alone.  So the first edge of an unequal pair gets 0, the second gets 1,
    and the pair leaves H.  On what is left, the least point of t plus its
    cut space vanishes on the greedy spanning forest in encoding order, and
    an edge that closes a cycle keeps t summed around that cycle.  One
    union-find over the ranks reads both off: each rank keeps its parity,
    the twist sum along the forest path to its parent, a find sums them up
    to the root, and a forest edge hangs the smaller tree under the root of
    the larger (union by size) at the parity that makes its own sum 0.  So
    no path is longer than log2 of the ranks, and the time is
    O(m + |H| log s)."""
    least, skip = ["0"] * len(t), set()
    for e, f in pairs:
        if t[~e] != t[~f]:
            skip |= {e, f}
            least[~f] = "1"
    n = 1 + max([high for _, high, _ in h_edges], default=0)
    parent, parity, size = list(range(n)), [0] * n, [1] * n
    for i, j, bit in h_edges:
        if bit in skip:
            continue
        # x becomes the twist sum from the root of i through the edge to
        # the root of j
        x = t[~bit] == "1"
        while parent[i] != i:
            x ^= parity[i]
            i = parent[i]
        while parent[j] != j:
            x ^= parity[j]
            j = parent[j]
        if i == j:
            least[~bit] = "01"[x]
        else:
            if size[i] < size[j]:
                i, j = j, i
            parent[j], parity[j] = i, x
            size[i] += size[j]
    return "".join(least)


def _edge_key(low: int, high: int) -> str:
    """The ``E`` key of an edge from a critical vertex of rank ``low`` up to
    one of rank ``high``."""
    return f"{low}>{high}"


def _layout_start(kinds: Mapping[int, VertexKind], targets: Sequence[int]) -> str:
    """The encoding text, up to the keys of its critical edges, of a page
    with these kinds by rank whose boundary edges end at these ranks, sorted:
    the ``P1;s=;K=;B=`` blocks and ``E=`` with the boundary edges' keys,
    each naming its edge by its position j in the encoding order."""
    s = len(kinds)
    tags = ",".join([_KIND_TAG[kinds[r]] for r in range(1, s + 1)])
    keys = ",".join([f"b{j}>{high}" for j, high in enumerate(targets)])
    return f"P1;s={s};K={tags};B={','.join(map(str, targets))};E={keys}"


def _layout_prefix(start: str, keys: str) -> str:
    """The ``P1;s=;K=;B=;E=`` text of an encoding: ``start`` from
    :func:`_layout_start`, then ``keys``, the keys of the critical edges in
    encoding order, each after a comma, and ``;``."""
    return f"{start}{keys[1:] if start[-1] == '=' else keys};"


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

