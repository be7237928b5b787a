"""Exhaustive enumeration of pages and round fold maps at desk scale.

Pages are generated top-down by rank.  The rank-s vertex is a max; each lower
rank consumes and opens dangling downward edge ends according to its kind
(max opens one; a merge consumes one and opens two; a split consumes two and
opens one; a min consumes one; a saddle_b consumes one and opens one), and the
ends left after rank 1 close with boundary vertices.  The generator tracks the
component of every dangling end and abandons a branch as soon as the shape can
no longer be connected.  Each skeleton is validated as plain data, without
building a page, and its encoding layout (the ``K``/``B``/``E`` blocks, the
gauge span and the parallel pairs), fiber counts, χ and b are derived once.
Its twist candidates, one per coset of the gauge span, then cost one ``T``
block each, and its classes are their distinct encodings.  A class's row
depends only on its encoding and on whether its candidate is twisted, so
``census_table`` can split the generator of each stratum between the parts
of a process pool and merge the rows by canonical form.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass
from typing import Callable

from . import gf2, pages
from .classify import _form_prefix
from .errors import OracleLimitError, RoundFoldError
from .foldmaps import _is_sphere, _total_space
from .manifolds import ManifoldDescriptor, describe
from .pages import (
    Edge,
    LabeledReebGraph,
    VertexKind,
    gauge_generators,
    page_orientable,
)

MAX_ENUMERATION_S = 7
MAX_CLUTCHING = 1000
ORACLE_S_LIMIT = 5
# A pool process takes this many parts of each stratum, one task each.  A
# task's rows come back to the parent as one message.  With one part per
# process a message is about 6 MB at s = 7, and how much of it the parent's
# heap keeps after freeing it depends on which part arrives first, so the
# census's peak memory differs by several MB between runs.  Parts of a few
# hundred kB keep it steady and let the processes even out their loads.
PARTS_PER_PROCESS = 8


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


def _skeletons(s: int, part: int = 0, parts: int = 1):
    """Yield (kinds by rank, edges) for every connected degree-correct shape
    with exactly s critical vertices; edges are (low, high) vertex-name pairs
    and boundary vertices are named b0, b1, ...  Twists are not assigned.

    Each dangling end carries the label of its component (``comp`` maps the
    vertex an end hangs from to that label).  Only a split joins components,
    and it consumes two open ends, so a component whose last open end a min
    closes can never be joined again: the branch is dead unless nothing else
    is left to place.  At rank 0 the open ends must carry at most one label;
    a closed page has none.

    The subtrees of the recursion that start at rank min(2, s - 1) are dealt
    round-robin into ``parts`` parts, and only those of part ``part`` are
    walked.  So the parts partition the skeletons, each part keeps the
    generator order, and ``parts`` = 1 yields them all."""
    split = min(2, s - 1)
    dealt = itertools.count()

    def rec(
        rank: int,
        dangling: tuple[str, ...],
        comp: dict[str, str],
        kinds: dict[int, VertexKind],
        edges: list[tuple[str, str]],
    ):
        if rank == split and next(dealt) % parts != part:
            return
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


def _valid_skeletons(s: int, part: int = 0, parts: int = 1):
    """Yield the :class:`pages._PageView` of each valid skeleton of
    ``_skeletons(s, part, parts)``, with vertices v1..vs by rank, boundary
    vertices b0, b1, ... and edges e0, e1, ... in generator order.  Each is
    validated once, by the checks of :func:`pages.validate_page` run on its
    plain data; no page is built."""
    for kinds, edges in _skeletons(s, part, parts):
        vertices = [(f"v{r}", kind, r) for r, kind in kinds.items()]
        vertices += [(low, VertexKind.BOUNDARY, 0) for low, _ in edges if low[0] == "b"]
        es = [(f"e{j}", low, high, 0) for j, (low, high) in enumerate(edges)]
        if pages._validate_page_data(vertices, es).ok:
            yield pages._PageView(kinds, {vid: r for vid, _, r in vertices}, tuple([e[:3] for e in es]))


def _candidates(view: pages._PageView):
    """Yield (twists, encoding) for one twist labeling per gauge coset of the
    valid skeleton with this view: ``twists`` maps the coordinates that an
    elimination over its edges in order leaves free to their picks, in
    lexicographic order, and every other twist is 0.  The layout is computed
    once, so a candidate costs one ``T`` block."""
    m = len(view.edges)
    layout = view.layout
    free: list[str] = []
    # the rank of the gauge span does not depend on the edge order; at full
    # rank no coordinate is free, and the one candidate is untwisted
    if len(layout.gauge) < m:
        free = [view.edges[m - 1 - bit][0] for bit in gf2.complement_bits(view.gauge_pivots, m)]
    for picks in itertools.product((0, 1), repeat=len(free)):
        twists = dict(zip(free, picks))
        yield twists, layout.encode(twists)


def _pages(s_max: int, allow_nonorientable: bool, allow_closed: bool):
    for s in range(1, s_max + 1):
        found: dict[bytes, tuple[pages._PageView, dict[str, int]]] = {}
        for view in _valid_skeletons(s):
            for twists, enc in _candidates(view):
                found.setdefault(enc, (view, twists))
        for enc in sorted(found):
            view, twists = found[enc]
            g = LabeledReebGraph.of(
                [(vid, view.kinds.get(r, VertexKind.BOUNDARY), r) for vid, r in view.rank_of.items()],
                [(eid, lo, hi, twists.get(eid, 0)) for eid, lo, hi in view.edges],
            )
            # its skeleton is valid, and 0/1 twists never affect validity
            object.__setattr__(g, "report", pages._VALID)
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

def _shape(view: pages._PageView) -> str:
    """The kinds text of the valid skeleton with this view, which every
    class of the skeleton shares: a saddle_p is a merge where its critical
    sphere is inward-directed."""
    return " ".join(
        [
            f"{('merge' if inward else 'split') if kind is VertexKind.SADDLE_P else kind.value}@{r}"
            for (r, kind), inward in zip(sorted(view.kinds.items()), view.inward)
        ]
    )


def _census_part(
    n: int, s: int, k_max: int, part: int, parts: int, finish: Callable | None = None
) -> list[tuple[bytes, object]]:
    """One census work unit: a (canonical form, row) pair for each twist
    candidate of the valid skeletons that ``_skeletons(s, part, parts)``
    yields; the candidates of one class give equal pairs.  With a
    module-level ``finish``, each row is replaced by ``finish(row, text)``,
    where ``text`` is the :func:`manifolds.describe` of its manifold, computed
    once per manifold object.  It returns no pages, and rows with the same
    surface and clutching share their objects, so a worker process sends
    back only small objects."""
    out: list[tuple[bytes, object]] = []
    spaces: dict[tuple[int, int, bool, int], tuple[str, ManifoldDescriptor, str, bytes]] = {}
    for view in _valid_skeletons(s, part, parts):
        kinds, fibers = _shape(view), ",".join(map(str, view.fiber_counts))
        chi, b = view.chi, view.b
        # is_directed: every critical sphere is inward-directed
        inward = all(view.inward)
        sphere = n == 4 and not b and _is_sphere(view.kinds.values())
        clutchings = range(k_max + 1) if sphere else (0,)
        for twists, enc in _candidates(view):
            # a candidate lies in the gauge span iff its picks are all 0, and
            # a page is orientable iff its twists do and it has no saddle_b
            orientable = not view.saddle_b and not any(twists.values())
            for k in clutchings:
                key = (chi, b, orientable, k)
                if key not in spaces:
                    surface = pages._surface_of(chi, b, orientable)
                    manifold = _total_space(n, surface, k)
                    spaces[key] = (surface.describe(), manifold, describe(manifold), _form_prefix(n, k))
                text, manifold, name, prefix = spaces[key]
                summary = f"{kinds}; {text}; c=[{fibers}]"
                row = CensusRow(prefix + enc, s, k, summary, manifold, orientable and inward)
                out.append((row.canonical, row if finish is None else finish(row, name)))
    return out


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_census(n: int, s_max: int, k_max: int, workers: int, finish: Callable | None = None) -> list:
    """The rows of :func:`census_table`, in its order, each passed through
    ``finish`` as :func:`_census_part` describes.  ``census --format``
    passes the formatter of its output lines, so the parts return finished
    lines."""
    if n < 4:
        raise RoundFoldError(f"census dimension must be >= 4, got {n}")
    if not 0 <= k_max <= MAX_CLUTCHING:
        raise RoundFoldError(f"k_max must be between 0 and {MAX_CLUTCHING}, got {k_max}")
    _check_s_max(s_max)
    if workers < 1:
        raise RoundFoldError(f"workers must be >= 1, got {workers}")
    processes = min(workers, usable_cpus())
    parts = 1 if processes == 1 else processes * PARTS_PER_PROCESS
    tasks = [(n, s, k_max, part, parts, finish) for s in range(s_max, 0, -1) for part in range(parts)]
    if parts == 1:
        results = [_census_part(*task) for task in tasks]
    else:
        # imported here so that importing roundfold loads no pool machinery;
        # there are more tasks than processes, so the pool has `processes`
        # processes
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [pool.submit(_census_part, *task) for task in tasks]
            results = [f.result() for f in futures]
    merged: dict[bytes, object] = {}
    for result in results:
        merged.update(result)
    return [merged[k] for k in sorted(merged)]


def census_table(n: int, s_max: int, k_max: int = 3, workers: int = 1) -> CensusTable:
    """One row per equivalence class of round fold maps with the given n and
    s <= s_max; at n = 4 the sphere page splits into clutching classes
    |k| <= k_max <= MAX_CLUTCHING.  Rows are sorted by canonical encoding.

    With ``workers`` W > 1 a process pool of P = min(W, usable CPUs)
    processes runs the census, and the skeleton generator of each stratum is
    split into P * PARTS_PER_PROCESS parts, one task each; the largest
    stratum is submitted first.  Every row field is an invariant of
    its class, so rows are merged by canonical form alone and the output is
    the same bytes for every W.  W = 1 runs the same work unit in this
    process and starts no process.
    """
    return CensusTable(n, s_max, k_max, tuple(_run_census(n, s_max, k_max, workers)))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_isomorphic(g0: LabeledReebGraph, g1: LabeledReebGraph) -> bool:
    """Exhaustive page isomorphism test, independent of the canonical
    encoding: tries every kind/rank-preserving vertex and edge bijection and
    every gauge combination.  Limited to s <= ORACLE_S_LIMIT."""
    view0, view1 = g0._view, g1._view
    if view0.s > ORACLE_S_LIMIT or view1.s > ORACLE_S_LIMIT:
        raise OracleLimitError(f"brute-force oracle supports s <= {ORACLE_S_LIMIT}")
    if view0.kinds != view1.kinds:
        return False
    crit0, crit1 = g0.critical_by_rank(), g1.critical_by_rank()
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
