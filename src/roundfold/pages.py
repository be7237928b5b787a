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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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
        object.__setattr__(
            self, "vertices", tuple(sorted(self.vertices, key=lambda v: (v.rank, v.id)))
        )
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.id)))

    @classmethod
    def of(
        cls,
        vertices: Iterable[tuple[str, VertexKind | str, int]],
        edges: Iterable[tuple[str, str, str, int]],
    ) -> "LabeledReebGraph":
        vs = tuple(Vertex(i, VertexKind(k), r) for i, k, r in vertices)
        es = tuple(Edge(i, lo, hi, t) for i, lo, hi, t in edges)
        return cls(vs, es)

    @property
    def s(self) -> int:
        """Number of critical vertices."""
        return sum(1 for v in self.vertices if v.kind is not VertexKind.BOUNDARY)

    def vertex(self, vid: str) -> Vertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise KeyError(vid)

    def critical_by_rank(self) -> dict[int, Vertex]:
        return {v.rank: v for v in self.vertices if v.kind is not VertexKind.BOUNDARY}

    def boundary_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if v.kind is VertexKind.BOUNDARY)

    def with_twists(self, labeling: Mapping[str, int]) -> "LabeledReebGraph":
        """Copy of this graph with edge twists replaced by ``labeling``."""
        _check_labeling_domain(self, labeling)
        es = tuple(Edge(e.id, e.low, e.high, int(labeling[e.id])) for e in self.edges)
        return LabeledReebGraph(self.vertices, es)

    def twist_labeling(self) -> dict[str, int]:
        return {e.id: e.twist for e in self.edges}

    @cached_property
    def report(self) -> ValidationReport:
        """The :func:`validate_page` report of this page, computed once per
        object; every page function checks it before reading the graph."""
        return validate_page(self)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _degrees(graph: LabeledReebGraph) -> dict[str, tuple[int, int]]:
    """Per-vertex (edges arriving from below, edges leaving upward)."""
    below: dict[str, int] = {v.id: 0 for v in graph.vertices}
    above: dict[str, int] = {v.id: 0 for v in graph.vertices}
    for e in graph.edges:
        if e.high in below:
            below[e.high] += 1
        if e.low in above:
            above[e.low] += 1
    return {vid: (below[vid], above[vid]) for vid in below}


_KIND_DEGREES = {
    VertexKind.BOUNDARY: ((0, 1),),
    VertexKind.MIN: ((0, 1),),
    VertexKind.MAX: ((1, 0),),
    VertexKind.SADDLE_B: ((1, 1),),
    VertexKind.SADDLE_P: ((2, 1), (1, 2)),
}


def validate_page(graph: LabeledReebGraph) -> ValidationReport:
    """Check every page invariant; an empty report means the graph is a page."""
    bad: list[Violation] = []

    for code, what, items in (
        ("duplicate_vertex_id", "vertex", graph.vertices),
        ("duplicate_edge_id", "edge", graph.edges),
    ):
        dupes = sorted(i for i, n in Counter(x.id for x in items).items() if n > 1)
        if dupes:
            bad.append(Violation(code, f"duplicate {what} ids {dupes}", tuple(dupes)))
    if bad:
        return ValidationReport(tuple(bad))

    known = {v.id: v for v in graph.vertices}
    for e in graph.edges:
        for end in (e.low, e.high):
            if end not in known:
                bad.append(Violation("unknown_endpoint", f"edge {e.id} references unknown vertex {end}", (e.id, end)))
        if e.twist not in (0, 1):
            bad.append(Violation("bad_twist", f"edge {e.id} twist must be 0 or 1", (e.id,)))
    if bad:
        return ValidationReport(tuple(bad))

    criticals = [v for v in graph.vertices if v.kind is not VertexKind.BOUNDARY]
    s = len(criticals)
    if s < 1:
        bad.append(Violation("no_critical", "a page has at least one critical vertex", ()))
    for v in graph.vertices:
        if v.kind is VertexKind.BOUNDARY and v.rank != 0:
            bad.append(Violation("boundary_rank", f"boundary vertex {v.id} must have rank 0", (v.id,)))
    ranks = sorted(v.rank for v in criticals)
    if s >= 1 and ranks != list(range(1, s + 1)):
        bad.append(
            Violation(
                "rank_bijection",
                f"critical ranks must be exactly 1..{s}, got {ranks}",
                tuple(v.id for v in criticals),
            )
        )

    for e in graph.edges:
        lo, hi = known[e.low], known[e.high]
        if lo.rank >= hi.rank:
            bad.append(
                Violation("edge_direction", f"edge {e.id} must go strictly upward in rank", (e.id,))
            )

    deg = _degrees(graph)
    for v in graph.vertices:
        if deg[v.id] not in _KIND_DEGREES[v.kind]:
            want = " or ".join(f"{b} below / {a} above" for b, a in _KIND_DEGREES[v.kind])
            got = deg[v.id]
            bad.append(
                Violation(
                    "degree",
                    f"{v.kind.value} vertex {v.id} has {got[0]} below / {got[1]} above, needs {want}",
                    (v.id,),
                )
            )

    if not _connected(graph):
        bad.append(Violation("disconnected", "page graph must be connected", ()))

    if s >= 1 and ranks == list(range(1, s + 1)):
        top = next(v for v in criticals if v.rank == s)
        if top.kind is not VertexKind.MAX:
            bad.append(
                Violation("top_not_max", f"the rank-{s} vertex must be a max (outermost fold is definite)", (top.id,))
            )

    return ValidationReport(tuple(bad)) if bad else _VALID


def _connected(graph: LabeledReebGraph) -> bool:
    if not graph.vertices:
        return False
    parent = {v.id: v.id for v in graph.vertices}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in graph.edges:
        if e.low in parent and e.high in parent:
            parent[find(e.low)] = find(e.high)
    roots = {find(v.id) for v in graph.vertices}
    return len(roots) == 1


def require_valid(graph: LabeledReebGraph) -> None:
    if not graph.report.ok:
        raise InvalidPageError(graph.report)


# ---------------------------------------------------------------------------
# surface invariants
# ---------------------------------------------------------------------------

def _kind_counts(graph: LabeledReebGraph) -> dict[VertexKind, int]:
    counts = {k: 0 for k in VertexKind}
    for v in graph.vertices:
        counts[v.kind] += 1
    return counts


def page_euler(graph: LabeledReebGraph) -> int:
    """Euler characteristic of the page, by fiberwise Morse counting."""
    require_valid(graph)
    c = _kind_counts(graph)
    return c[VertexKind.MIN] + c[VertexKind.MAX] - c[VertexKind.SADDLE_P] - c[VertexKind.SADDLE_B]


def boundary_count(graph: LabeledReebGraph) -> int:
    """Number of binding circles, i.e. boundary circles of the page."""
    require_valid(graph)
    return _kind_counts(graph)[VertexKind.BOUNDARY]


def gauge_generators(graph: LabeledReebGraph, edge_order: Sequence[str]) -> list[int]:
    """Generating move vectors of the twist gauge group, as bitmasks.

    One vector per vertex (toggle all incident edges) plus one unit vector per
    edge incident to a saddle_b vertex.  Coordinate j of ``edge_order`` sits at
    bit (m - 1 - j).
    """
    m = len(edge_order)
    bit = {eid: m - 1 - j for j, eid in enumerate(edge_order)}
    incident: dict[str, int] = {v.id: 0 for v in graph.vertices}
    for e in graph.edges:
        incident[e.low] |= 1 << bit[e.id]
        incident[e.high] |= 1 << bit[e.id]
    gens = [incident[v.id] for v in graph.vertices]
    saddle_b = {v.id for v in graph.vertices if v.kind is VertexKind.SADDLE_B}
    for e in graph.edges:
        if e.low in saddle_b or e.high in saddle_b:
            gens.append(1 << bit[e.id])
    return gens


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
        if labeling[eid]:
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
    require_valid(graph)
    if labeling is None:
        labeling = graph.twist_labeling()
    else:
        _check_labeling_domain(graph, labeling)
    order = tuple(e.id for e in graph.edges)
    pivots = gf2.rref(gauge_generators(graph, order))
    rep = gf2.coset_representative(_labeling_bits(labeling, order), pivots)
    return TwistClass(order, rep)


def page_orientable(graph: LabeledReebGraph) -> bool:
    """True iff the page surface is orientable.

    Requires no saddle_b piece and a gauge-trivial twist labeling
    (equivalently: zero twist sum around every cycle).
    """
    require_valid(graph)
    if _kind_counts(graph)[VertexKind.SADDLE_B]:
        return False
    return twist_class(graph).representative == 0


def surface_type(graph: LabeledReebGraph) -> SurfaceType:
    """Classify the page surface from Euler characteristic, boundary count
    and orientability."""
    b = boundary_count(graph)
    chi = page_euler(graph)
    if page_orientable(graph):
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
    require_valid(graph)
    ranks = {v.id: v.rank for v in graph.vertices}
    s = graph.s
    counts = [0] * (s + 1)
    for e in graph.edges:
        for r in range(ranks[e.low], ranks[e.high]):
            counts[r] += 1
    return counts


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
    """
    require_valid(graph)
    s = graph.s
    crit = graph.critical_by_rank()
    kinds = ",".join(_KIND_TAG[crit[r].kind] for r in range(1, s + 1))

    rank_of = {v.id: v.rank for v in graph.vertices}
    up_target: dict[str, int] = {}
    for e in graph.edges:
        if rank_of[e.low] == 0:
            up_target[e.low] = rank_of[e.high]
    # boundary vertices sorted by target rank; within a target group they are
    # interchangeable and their edge twists are individually gauge-trivial,
    # so one fixed order suffices
    bd_sorted = sorted(graph.boundary_vertices(), key=lambda v: (up_target[v.id], v.id))
    bd_index = {v.id: i for i, v in enumerate(bd_sorted)}
    targets = ",".join(str(up_target[v.id]) for v in bd_sorted)

    def low_key(e: Edge) -> tuple[int, int]:
        r = rank_of[e.low]
        return (r, bd_index[e.low] if r == 0 else -1)

    def base_key(e: Edge) -> tuple[int, int, int]:
        return (*low_key(e), rank_of[e.high])

    groups: dict[tuple, list[Edge]] = {}
    for e in graph.edges:
        groups.setdefault(base_key(e), []).append(e)
    group_keys = sorted(groups)
    edge_keys: list[str] = []
    for k in group_keys:
        low_r, low_i, high_r = k
        low_txt = f"b{low_i}" if low_r == 0 else str(low_r)
        edge_keys.extend([f"{low_txt}>{high_r}"] * len(groups[k]))

    # twist block: least point over all orderings of the parallel pairs, in
    # closed form (see the docstring); groups list their edges by id
    order0 = [e.id for k in group_keys for e in groups[k]]
    m = len(order0)
    bit = {eid: m - 1 - j for j, eid in enumerate(order0)}
    pairs = [groups[k] for k in group_keys if len(groups[k]) == 2]
    swaps = [(1 << bit[e.id]) | (1 << bit[f.id]) for e, f in pairs if e.twist != f.twist]
    pivots = gf2.rref(gauge_generators(graph, order0) + swaps)
    best = gf2.coset_representative(_labeling_bits(graph.twist_labeling(), order0), pivots)
    bits = format(best, f"0{m}b") if m else ""

    text = f"P1;s={s};K={kinds};B={targets};E={','.join(edge_keys)};T={bits}"
    return text.encode("ascii")


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
    labeling = g.twist_labeling()
    parallel = sorted(eid for eid in labeling if _is_parallel_edge(g, eid))
    labeling[parallel[1]] = 1
    return g.with_twists(labeling)


def _is_parallel_edge(graph: LabeledReebGraph, eid: str) -> bool:
    e = next(x for x in graph.edges if x.id == eid)
    return any(x.id != eid and (x.low, x.high) == (e.low, e.high) for x in graph.edges)


_BUILDERS = {
    "disk": lambda: disk_page(),
    "sphere": lambda: sphere_page(),
    "annulus": lambda: annulus_page(),
    "moebius": lambda: moebius_page(),
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
