"""Exhaustive enumeration of pages and round fold maps at desk scale.

Pages are generated top-down by rank.  The rank-s vertex is a max; each lower
rank consumes and opens dangling downward edge ends according to its kind
(max opens one; a merge consumes one and opens two; a split consumes two and
opens one; a min consumes one; a saddle_b consumes one and opens one), and the
ends left after rank 1 close with boundary vertices.  Disconnected results
are discarded, the twist cosets of each skeleton are enumerated through the
non-pivot coordinates of the gauge span, and duplicates are removed during
generation by canonical encoding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gf2
from .classify import canonical_form
from .errors import OracleLimitError, RoundFoldError
from .foldmaps import (
    RoundFoldDescriptor,
    build_total_space,
    is_directed,
    is_sphere_page,
)
from .manifolds import ManifoldDescriptor
from .pages import (
    Edge,
    LabeledReebGraph,
    Vertex,
    VertexKind,
    _degrees,
    canonical_page_encoding,
    gauge_generators,
    page_orientable,
    regular_fiber_counts,
    require_valid,
    surface_type,
    validate_page,
)

MAX_ENUMERATION_S = 7
MAX_CLUTCHING = 1000
ORACLE_S_LIMIT = 5


@dataclass(frozen=True)
class CensusRow:
    canonical: bytes
    s: int
    clutching: int
    summary: str
    manifold: ManifoldDescriptor
    directed: bool


@dataclass(frozen=True)
class CensusTable:
    n: int
    s_max: int
    k_max: int
    rows: tuple[CensusRow, ...]


# ---------------------------------------------------------------------------
# page enumeration
# ---------------------------------------------------------------------------

# (kind, ends consumed, ends opened); merge/split are saddle_p shapes
_SHAPES = (
    (VertexKind.MAX, 0, 1),
    (VertexKind.MIN, 1, 0),
    (VertexKind.SADDLE_B, 1, 1),
    ("merge", 1, 2),
    ("split", 2, 1),
)


def _skeletons(s: int):
    """Yield (kinds by rank, edges) for every connected degree-correct shape
    with exactly s critical vertices; edges are (low, high) vertex-name pairs
    and boundary vertices are named b0, b1, ...  Twists are not assigned."""

    results: list[tuple[dict[int, VertexKind], list[tuple[str, str]]]] = []

    def close(kinds: dict[int, VertexKind], edges: list[tuple[str, str]], dangling: tuple[str, ...]):
        full_edges = list(edges)
        for i, high in enumerate(dangling):
            full_edges.append((f"b{i}", high))
        results.append((dict(kinds), full_edges))

    def rec(rank: int, dangling: tuple[str, ...], kinds: dict[int, VertexKind], edges: list[tuple[str, str]]):
        if rank == 0:
            close(kinds, edges, dangling)
            return
        me = f"v{rank}"
        for shape, consume, open_ in _SHAPES:
            kind = VertexKind.SADDLE_P if shape in ("merge", "split") else shape
            if consume == 0:
                kinds[rank] = kind
                rec(rank - 1, dangling + (me,) * open_, kinds, edges)
                del kinds[rank]
            elif consume == 1:
                for high in sorted(set(dangling)):
                    rest = list(dangling)
                    rest.remove(high)
                    kinds[rank] = kind
                    edges.append((me, high))
                    rec(rank - 1, tuple(rest) + (me,) * open_, kinds, edges)
                    edges.pop()
                    del kinds[rank]
            else:  # split consumes an unordered pair of ends
                uniq = sorted(set(dangling))
                pairs = [(h, h) for h in uniq if dangling.count(h) >= 2]
                pairs += list(itertools.combinations(uniq, 2))
                for h1, h2 in pairs:
                    rest = list(dangling)
                    rest.remove(h1)
                    rest.remove(h2)
                    kinds[rank] = kind
                    edges.append((me, h1))
                    edges.append((me, h2))
                    rec(rank - 1, tuple(rest) + (me,) * open_, kinds, edges)
                    edges.pop()
                    edges.pop()
                    del kinds[rank]

    rec(s - 1, (f"v{s}",), {s: VertexKind.MAX}, [])
    return results


def _graph_from_skeleton(
    kinds: dict[int, VertexKind], edges: list[tuple[str, str]], twists: dict[int, int]
) -> LabeledReebGraph:
    vertices = [Vertex(f"v{r}", k, r) for r, k in kinds.items()]
    vertices += [
        Vertex(name, VertexKind.BOUNDARY, 0)
        for name in {lo for lo, _ in edges if lo.startswith("b")}
    ]
    es = [Edge(f"e{j}", lo, hi, twists.get(j, 0)) for j, (lo, hi) in enumerate(edges)]
    return LabeledReebGraph(tuple(vertices), tuple(es))


def _stratum(s: int) -> list[LabeledReebGraph]:
    """One representative per isomorphism class with exactly s critical
    vertices, sorted by canonical encoding."""
    seen: dict[bytes, LabeledReebGraph] = {}
    for kinds, edges in _skeletons(s):
        skeleton = _graph_from_skeleton(kinds, edges, {})
        if not validate_page(skeleton).ok:
            continue
        m = len(edges)
        order = [f"e{j}" for j in range(m)]
        pivots = gf2.rref(gauge_generators(skeleton, order))
        free_bits = gf2.complement_bits(pivots, m)
        for picks in itertools.product((0, 1), repeat=len(free_bits)):
            twists = {m - 1 - bit: val for bit, val in zip(free_bits, picks)}
            g = skeleton if not twists else _graph_from_skeleton(kinds, edges, twists)
            enc = canonical_page_encoding(g)
            if enc not in seen:
                seen[enc] = g
    return [seen[k] for k in sorted(seen)]


def enumerate_pages(
    s_max: int,
    allow_nonorientable: bool = True,
    allow_closed: bool = True,
    workers: int = 1,
):
    """Yield one representative per page isomorphism class with s <= s_max.

    Output is deterministic: strata in increasing s, each sorted by canonical
    encoding.  ``workers`` is accepted for compatibility; any value runs the
    same single-threaded code.
    """
    if not 1 <= s_max <= MAX_ENUMERATION_S:
        raise RoundFoldError(f"s_max must be between 1 and {MAX_ENUMERATION_S}, got {s_max}")
    for graphs in map(_stratum, range(1, s_max + 1)):
        for g in graphs:
            if not allow_nonorientable and not page_orientable(g):
                continue
            if not allow_closed and not g.boundary_vertices():
                continue
            yield g


# ---------------------------------------------------------------------------
# census tables
# ---------------------------------------------------------------------------

def _summarize(graph: LabeledReebGraph) -> str:
    deg = _degrees(graph)
    crit = graph.critical_by_rank()
    parts = []
    for r in range(1, graph.s + 1):
        v = crit[r]
        name = v.kind.value
        if v.kind is VertexKind.SADDLE_P:
            name = "merge" if deg[v.id] == (2, 1) else "split"
        parts.append(f"{name}@{r}")
    fibers = ",".join(str(c) for c in regular_fiber_counts(graph))
    return f"{' '.join(parts)}; {surface_type(graph).describe()}; c=[{fibers}]"


def census_table(n: int, s_max: int, k_max: int = 3, workers: int = 1) -> CensusTable:
    """One row per equivalence class of round fold maps with the given n and
    s <= s_max; at n = 4 the sphere page splits into clutching classes
    |k| <= k_max <= MAX_CLUTCHING.  Rows are sorted by canonical encoding."""
    if n < 4:
        raise RoundFoldError(f"census dimension must be >= 4, got {n}")
    if not 0 <= k_max <= MAX_CLUTCHING:
        raise RoundFoldError(f"k_max must be between 0 and {MAX_CLUTCHING}, got {k_max}")
    rows = []
    for g in enumerate_pages(s_max, workers=workers):
        clutchings = range(0, k_max + 1) if (n == 4 and is_sphere_page(g)) else range(0, 1)
        for k in clutchings:
            rf = RoundFoldDescriptor(n, g, k)
            directed = page_orientable(g) and is_directed(rf)
            rows.append(
                CensusRow(
                    canonical=canonical_form(rf),
                    s=g.s,
                    clutching=k,
                    summary=_summarize(g),
                    manifold=build_total_space(rf),
                    directed=directed,
                )
            )
    rows.sort(key=lambda r: r.canonical)
    return CensusTable(n, s_max, k_max, tuple(rows))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_isomorphic(g0: LabeledReebGraph, g1: LabeledReebGraph) -> bool:
    """Exhaustive page isomorphism test, independent of the canonical
    encoding: tries every kind/rank-preserving vertex and edge bijection and
    every gauge combination.  Limited to s <= ORACLE_S_LIMIT."""
    require_valid(g0)
    require_valid(g1)
    if g0.s > ORACLE_S_LIMIT or g1.s > ORACLE_S_LIMIT:
        raise OracleLimitError(f"brute-force oracle supports s <= {ORACLE_S_LIMIT}")
    if g0.s != g1.s:
        return False
    crit0, crit1 = g0.critical_by_rank(), g1.critical_by_rank()
    for r in range(1, g0.s + 1):
        if crit0[r].kind != crit1[r].kind:
            return False
    bd0 = [v.id for v in g0.boundary_vertices()]
    bd1 = [v.id for v in g1.boundary_vertices()]
    if len(bd0) != len(bd1) or len(g0.edges) != len(g1.edges):
        return False

    order1 = [e.id for e in g1.edges]
    bit1 = {eid: len(order1) - 1 - j for j, eid in enumerate(order1)}
    t1 = 0
    for e in g1.edges:
        if e.twist:
            t1 |= 1 << bit1[e.id]
    orbit = gf2.subspace_elements(gauge_generators(g1, order1))

    for bd_perm in itertools.permutations(bd1):
        vmap = {crit0[r].id: crit1[r].id for r in range(1, g0.s + 1)}
        vmap.update(dict(zip(bd0, bd_perm)))
        groups0: dict[tuple[str, str], list[Edge]] = {}
        for e in g0.edges:
            groups0.setdefault((vmap[e.low], vmap[e.high]), []).append(e)
        groups1: dict[tuple[str, str], list[Edge]] = {}
        for e in g1.edges:
            groups1.setdefault((e.low, e.high), []).append(e)
        if set(groups0) != set(groups1):
            continue
        if any(len(groups0[k]) != len(groups1[k]) for k in groups0):
            continue
        keys = sorted(groups0)
        for perms in itertools.product(*[itertools.permutations(groups1[k]) for k in keys]):
            t0 = 0
            for k, perm in zip(keys, perms):
                for e0, e1 in zip(groups0[k], perm):
                    if e0.twist:
                        t0 |= 1 << bit1[e1.id]
            if t0 ^ t1 in orbit:
                return True
    return False
