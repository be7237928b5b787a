"""Exhaustive enumeration of pages and round fold maps at desk scale.

Pages are generated top-down by rank.  The rank-s vertex is a max; each lower
rank consumes and opens dangling downward edge ends according to its kind
(max opens one; a merge consumes one and opens two; a split consumes two and
opens one; a min consumes one; a saddle_b consumes one and opens one), and the
ends left after rank 1 close with boundary vertices.  The generator tracks the
component of every dangling end and abandons a branch as soon as the shape can
no longer be connected, so a disconnected skeleton is never built.  The twist
cosets of each skeleton are enumerated through the non-pivot coordinates of
the gauge span, and duplicates are removed during generation by canonical
encoding.  Each page is validated and encoded once: twisted copies share the
skeleton's report, and the encoding stays cached on the page for its row.
``census_table`` can deal the skeletons of each stratum over a process pool
and merge the rows so that the output bytes do not depend on the pool size.
"""

from __future__ import annotations

import itertools
import os
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
    and boundary vertices are named b0, b1, ...  Twists are not assigned.

    Each dangling end carries the label of its component (``comp`` maps the
    vertex an end hangs from to that label).  Only a split joins components,
    and it consumes two open ends, so a component whose last open end a min
    closes can never be joined again: the branch is dead unless nothing else
    is left to place.  At rank 0 the open ends must carry at most one label;
    a closed page has none."""

    def rec(
        rank: int,
        dangling: tuple[str, ...],
        comp: dict[str, str],
        kinds: dict[int, VertexKind],
        edges: list[tuple[str, str]],
    ):
        if rank == 0:
            if len({comp[h] for h in dangling}) <= 1:
                yield dict(kinds), edges + [(f"b{i}", high) for i, high in enumerate(dangling)]
            return
        me = f"v{rank}"
        for shape, consume, open_ in _SHAPES:
            kind = VertexKind.SADDLE_P if shape in ("merge", "split") else shape
            kinds[rank] = kind
            if consume == 0:
                yield from rec(rank - 1, dangling + (me,) * open_, {**comp, me: me}, kinds, edges)
            elif consume == 1:
                for high in sorted(set(dangling)):
                    rest = list(dangling)
                    rest.remove(high)
                    label = comp[high]
                    if not open_ and (rank > 1 or rest) and all(comp[h] != label for h in rest):
                        continue
                    edges.append((me, high))
                    yield from rec(rank - 1, tuple(rest) + (me,) * open_, {**comp, me: label}, kinds, edges)
                    edges.pop()
            else:  # split consumes an unordered pair of ends
                uniq = sorted(set(dangling))
                pairs = [(h, h) for h in uniq if dangling.count(h) >= 2]
                pairs += list(itertools.combinations(uniq, 2))
                for h1, h2 in pairs:
                    rest = list(dangling)
                    rest.remove(h1)
                    rest.remove(h2)
                    keep, gone = comp[h1], comp[h2]
                    joined = {v: keep if label == gone else label for v, label in comp.items()}
                    joined[me] = keep
                    edges += [(me, h1), (me, h2)]
                    yield from rec(rank - 1, tuple(rest) + (me,) * open_, joined, kinds, edges)
                    del edges[-2:]
            del kinds[rank]

    yield from rec(s - 1, (f"v{s}",), {f"v{s}": f"v{s}"}, {s: VertexKind.MAX}, [])


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


def _classes(s: int, part: int = 0, parts: int = 1):
    """Yield (encoding, (skeleton index, candidate index), page) for the first
    page met of each isomorphism class with exactly s critical vertices,
    reading only the skeletons whose index in ``_skeletons(s)`` is ``part``
    modulo ``parts``.  Over all parts, the entry with the least index of a
    class is the page that part 0 of 1 yields."""
    seen: set[bytes] = set()
    for i, (kinds, edges) in enumerate(_skeletons(s)):
        if i % parts != part:
            continue
        skeleton = _graph_from_skeleton(kinds, edges, {})
        report = validate_page(skeleton)
        object.__setattr__(skeleton, "report", report)
        if not report.ok:
            continue
        m = len(edges)
        order = [f"e{j}" for j in range(m)]
        pivots = gf2.rref(gauge_generators(skeleton, order))
        free = [order[m - 1 - bit] for bit in gf2.complement_bits(pivots, m)]
        for j, picks in enumerate(itertools.product((0, 1), repeat=len(free))):
            labeling = dict.fromkeys(order, 0)
            labeling.update(zip(free, picks))
            g = skeleton.with_twists(labeling) if any(picks) else skeleton
            enc = canonical_page_encoding(g)
            if enc not in seen:
                seen.add(enc)
                yield enc, (i, j), g


def _stratum(s: int) -> list[LabeledReebGraph]:
    """One representative per isomorphism class with exactly s critical
    vertices, sorted by canonical encoding."""
    found = {enc: g for enc, _, g in _classes(s)}
    return [found[k] for k in sorted(found)]


def enumerate_pages(
    s_max: int,
    allow_nonorientable: bool = True,
    allow_closed: bool = True,
    workers: int = 1,
):
    """Yield one representative per page isomorphism class with s <= s_max.

    Output is deterministic: strata in increasing s, each sorted by canonical
    encoding.  Pages are yielded lazily from this process, so ``workers`` is
    accepted for compatibility only; :func:`census_table` is the function
    that spreads the work over processes.
    """
    _check_s_max(s_max)
    for graphs in map(_stratum, range(1, s_max + 1)):
        for g in graphs:
            if not allow_nonorientable and not page_orientable(g):
                continue
            if not allow_closed and not g.boundary_vertices():
                continue
            yield g


def _check_s_max(s_max: int) -> None:
    if not 1 <= s_max <= MAX_ENUMERATION_S:
        raise RoundFoldError(f"s_max must be between 1 and {MAX_ENUMERATION_S}, got {s_max}")


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


def _rows(n: int, g: LabeledReebGraph, k_max: int) -> list[CensusRow]:
    """The census rows of one page class: one row, or at n = 4 one per
    clutching 0..k_max of the sphere page."""
    clutchings = range(0, k_max + 1) if (n == 4 and is_sphere_page(g)) else range(0, 1)
    rows = []
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
    return rows


def _census_part(n: int, s: int, k_max: int, part: int, parts: int):
    """One census work unit: [(encoding, index, rows)] for each class that
    ``_classes(s, part, parts)`` meets.  It returns rows, never pages, so a
    worker process sends back only small objects."""
    return [(enc, index, _rows(n, g, k_max)) for enc, index, g in _classes(s, part, parts)]


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def census_table(n: int, s_max: int, k_max: int = 3, workers: int = 1) -> CensusTable:
    """One row per equivalence class of round fold maps with the given n and
    s <= s_max; at n = 4 the sphere page splits into clutching classes
    |k| <= k_max <= MAX_CLUTCHING.  Rows are sorted by canonical encoding.

    With ``workers`` W > 1 the skeletons of each stratum are dealt round-robin
    into min(W, usable CPUs) parts, and each part runs in a process pool; the
    largest stratum is submitted first.  Of the classes several parts meet,
    the one met at the least (skeleton index, candidate index) is kept, which
    is the page a single pass keeps, so the rows are the same bytes for every
    W.  W = 1 runs the same work unit in this process and starts no process.
    """
    if n < 4:
        raise RoundFoldError(f"census dimension must be >= 4, got {n}")
    if not 0 <= k_max <= MAX_CLUTCHING:
        raise RoundFoldError(f"k_max must be between 0 and {MAX_CLUTCHING}, got {k_max}")
    _check_s_max(s_max)
    if workers < 1:
        raise RoundFoldError(f"workers must be >= 1, got {workers}")
    parts = min(workers, usable_cpus())
    tasks = [(n, s, k_max, part, parts) for s in range(s_max, 0, -1) for part in range(parts)]
    if parts == 1:
        results = [_census_part(*task) for task in tasks]
    else:
        # imported here so that importing roundfold loads no pool machinery;
        # there are at least as many tasks as parts, so the pool has `parts`
        # processes
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parts) as pool:
            futures = [pool.submit(_census_part, *task) for task in tasks]
            results = [f.result() for f in futures]
    best: dict[bytes, tuple[tuple[int, int], list[CensusRow]]] = {}
    for result in results:
        for enc, index, rows in result:
            if enc not in best or index < best[enc][0]:
                best[enc] = (index, rows)
    rows = sorted((row for _, rs in best.values() for row in rs), key=lambda r: r.canonical)
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
