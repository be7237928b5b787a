"""Exhaustive enumeration of pages and round fold maps at desk scale.

Pages are generated top-down by rank.  The rank-s vertex is a max; each lower
rank consumes and opens dangling downward edge ends according to its kind
(max opens one; a merge consumes one and opens two; a split consumes two and
opens one; a min consumes one; a saddle_b consumes one and opens one), and the
ends left after rank 1 close with boundary vertices.  The generator tracks the
component of every dangling end and abandons a branch as soon as the shape can
no longer be connected.  Each skeleton is validated, and its encoding layout
(the ``K``/``B``/``E`` blocks, the gauge span and the parallel pairs), fiber
counts, χ and b are derived once.  Its twist candidates, one per coset of the
gauge span, then cost one ``T`` block each, and its classes are their
distinct encodings.  A class's row depends only on its encoding and on
whether its candidate is twisted, so ``census_table`` can deal the skeletons
over a process pool and merge the rows by canonical form.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass

from . import gf2, pages
from .classify import _form_prefix
from .errors import OracleLimitError, RoundFoldError
from .foldmaps import _total_space, is_sphere_page
from .manifolds import ManifoldDescriptor
from .pages import (
    Edge,
    LabeledReebGraph,
    Vertex,
    VertexKind,
    gauge_generators,
    page_orientable,
    require_valid,
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


def _skeleton_pages(s: int, part: int = 0, parts: int = 1):
    """Yield, as untwisted pages, the valid skeletons whose index in
    ``_skeletons(s)`` is ``part`` modulo ``parts``.  Each is validated once,
    and its report is kept on the page."""
    for i, (kinds, edges) in enumerate(_skeletons(s)):
        if i % parts != part:
            continue
        skeleton = _graph_from_skeleton(kinds, edges, {})
        report = validate_page(skeleton)
        object.__setattr__(skeleton, "report", report)
        if report.ok:
            yield skeleton


def _candidates(kinds, rank_of, edges):
    """Yield (twists, encoding) for one twist labeling per gauge coset of the
    valid skeleton with this :func:`pages._page_data`: ``twists`` maps the
    coordinates that an elimination over e0..e{m-1} leaves free to their
    picks, in lexicographic order, and every other twist is 0.  The layout
    is computed once, so a candidate costs one ``T`` block."""
    m = len(edges)
    ids = [f"e{j}" for j in range(m)]
    saddle_b = {v for v, r in rank_of.items() if r and kinds[r] is VertexKind.SADDLE_B}
    pivots = gf2.rref(pages._gauge_vectors(rank_of, saddle_b, edges, ids))
    free = [ids[m - 1 - bit] for bit in gf2.complement_bits(pivots, m)]
    layout = pages._encoding_layout(kinds, rank_of, edges)
    for picks in itertools.product((0, 1), repeat=len(free)):
        twists = dict(zip(free, picks))
        yield twists, layout.encode(twists)


def _pages(s_max: int, allow_nonorientable: bool, allow_closed: bool):
    for s in range(1, s_max + 1):
        found: dict[bytes, tuple[LabeledReebGraph, dict[str, int]]] = {}
        for skeleton in _skeleton_pages(s):
            for twists, enc in _candidates(*pages._page_data(skeleton)):
                found.setdefault(enc, (skeleton, twists))
        for enc in sorted(found):
            g, twists = found[enc]
            if any(twists.values()):
                g = g.with_twists({**g.twist_labeling(), **twists})
            if (allow_nonorientable or page_orientable(g)) and (allow_closed or g.boundary_vertices()):
                yield g


def enumerate_pages(
    s_max: int,
    allow_nonorientable: bool = True,
    allow_closed: bool = True,
    workers: int = 1,
):
    """Iterate over one representative per page isomorphism class, s <= s_max.

    Output is deterministic: strata in increasing s, each sorted by canonical
    encoding.  Pages are built lazily in this process, one per class yielded.
    ``workers`` is deprecated and has no effect; :func:`census_table` is the
    function that spreads the work over processes.
    """
    _check_s_max(s_max)
    if workers != 1:
        message = "enumerate_pages ignores the deprecated workers; census_table spreads the work"
        warnings.warn(message, DeprecationWarning, stacklevel=2)
    return _pages(s_max, allow_nonorientable, allow_closed)


def _check_s_max(s_max: int) -> None:
    if not 1 <= s_max <= MAX_ENUMERATION_S:
        raise RoundFoldError(f"s_max must be between 1 and {MAX_ENUMERATION_S}, got {s_max}")


# ---------------------------------------------------------------------------
# census tables
# ---------------------------------------------------------------------------

def _shape(kinds, rank_of, edges) -> tuple[str, str, int, int, bool]:
    """(kinds text, fiber counts text, χ, b, directed if orientable) of the
    valid skeleton with this :func:`pages._page_data`, which every class of
    the skeleton shares."""
    s = len(kinds)
    c, below = [0] * (s + 1), [0] * (s + 1)
    for _, low, high in edges:
        below[rank_of[high]] += 1
        for r in range(rank_of[low], rank_of[high]):
            c[r] += 1
    names = [
        f"{('merge' if below[r] == 2 else 'split') if kind is VertexKind.SADDLE_P else kind.value}@{r}"
        for r, kind in sorted(kinds.items())
    ]
    chi = sum(1 if kind in (VertexKind.MIN, VertexKind.MAX) else -1 for kind in kinds.values())
    # is_directed: every critical sphere is inward-directed
    inward = all(c[r - 1] > c[r] for r in range(1, s + 1))
    return " ".join(names), ",".join(map(str, c)), chi, len(rank_of) - s, inward


def _census_part(n: int, s: int, k_max: int, part: int, parts: int) -> list[CensusRow]:
    """One census work unit: the rows of the twist candidates of the
    skeletons of stratum s whose index is ``part`` modulo ``parts``; the
    candidates of one class give equal rows.  It returns rows, never pages,
    and rows with the same surface and clutching share their objects, so a
    worker process sends back only small objects."""
    rows: list[CensusRow] = []
    spaces: dict[tuple[int, int, bool, int], tuple[str, ManifoldDescriptor, bytes]] = {}
    for skeleton in _skeleton_pages(s, part, parts):
        data = pages._page_data(skeleton)
        kinds, fibers, chi, b, inward = _shape(*data)
        saddle_b = VertexKind.SADDLE_B in data[0].values()
        clutchings = range(k_max + 1) if n == 4 and is_sphere_page(skeleton) else (0,)
        for twists, enc in _candidates(*data):
            # a candidate lies in the gauge span iff its picks are all 0, and
            # a page is orientable iff its twists do and it has no saddle_b
            orientable = not saddle_b and not any(twists.values())
            for k in clutchings:
                key = (chi, b, orientable, k)
                if key not in spaces:
                    surface = pages._surface_of(chi, b, orientable)
                    spaces[key] = (surface.describe(), _total_space(n, surface, k), _form_prefix(n, k))
                text, manifold, prefix = spaces[key]
                summary = f"{kinds}; {text}; c=[{fibers}]"
                rows.append(CensusRow(prefix + enc, s, k, summary, manifold, orientable and inward))
    return rows


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
    largest stratum is submitted first.  Every row field is an invariant of
    its class, so rows are merged by canonical form alone and the output is
    the same bytes for every W.  W = 1 runs the same work unit in this
    process and starts no process.
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
    rows = {row.canonical: row for result in results for row in result}
    return CensusTable(n, s_max, k_max, tuple(rows[k] for k in sorted(rows)))


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
