"""Exhaustive enumeration of pages and round fold maps at desk scale.

Pages are generated top-down by rank, one kind sequence at a time.  A kind
sequence gives the kind of each rank 1..s, and the walk that lists the
sequences with a connected skeleton tracks only how many dangling ends and
components hang above each rank.  For a fixed sequence the rank-s vertex is
a max; each lower rank consumes and opens dangling downward edge ends
according to its kind (max opens one; a merge consumes one and opens two; a
split consumes two and opens one; a min consumes one; a saddle_b consumes
one and opens one), and the ends left after rank 1 close with boundary
vertices.  The generator tracks the component of every dangling end and
abandons a branch as soon as the shape can no longer be connected.  The
census trusts it and validates no skeleton (``tests/test_census.py`` checks
that each one it walks is a valid page); each skeleton's encoding layout
(the ``K``/``B``/``E`` blocks, the gauge span and the parallel pairs), fiber
counts, χ and b are derived once, without building a page.  Its twist
candidates, one per coset of the gauge span, then cost one ``T`` block each,
and the classes of a sequence are their distinct encodings, sorted
(``_classes``).  ``enumerate_pages`` builds a page of each class.  A class's
row depends only on its encoding, its clutching and on whether its
candidate is twisted.  The canonical forms of one stratum sort by kind
sequence first, so ``census_table`` runs parts of adjacent sequences, in a
process pool or in turn, and writes each part's rows as soon as the parts
before it are done.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from . import gf2, pages
from .classify import _form_prefix
from .errors import OracleLimitError, RoundFoldError
from .foldmaps import _total_space
from .manifolds import ManifoldDescriptor, describe
from .pages import (
    Edge,
    LabeledReebGraph,
    VertexKind,
    page_orientable,
)

MAX_ENUMERATION_S = 7
MAX_CLUTCHING = 1000
ORACLE_S_LIMIT = 5
# A census part is a run of kind sequences of one stratum, adjacent in
# canonical order, with skeleton walks of this total size (see
# ``_kind_sequences``) unless it is one sequence: about 50 ms of work, so a
# part's rows, which come back as one message, are a few hundred kB.
_PART_SIZE = 2000
# the kinds of the sphere page, a min under a max, whose class splits by
# clutching at n = 4
_SPHERE = {2: VertexKind.MAX, 1: VertexKind.MIN}


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

# (ends consumed, ends opened) of each way a vertex of a kind takes the
# dangling ends below it: its (edges above, edges below) in the validator's
# degree table; a saddle_p is a merge or a split
_SHAPES = {
    kind: tuple([(above, below) for below, above in degrees])
    for kind, degrees in pages._KIND_DEGREES.items()
    if kind is not VertexKind.BOUNDARY
}


def _moves(kind: VertexKind, rank: int, d: int, c: int) -> list[tuple[int, int, int]]:
    """The (open ends, components) a vertex of this kind at this rank may
    leave behind it when ``d`` open ends of ``c`` components hang above it,
    each with the number of ends, or pairs of ends, it may take that way.
    Every component has an open end, so ``d > c`` iff some component has two;
    a min may close the last end of a component only if it is the last end
    of all, at rank 1."""
    if kind is VertexKind.MAX:
        return [(d + 1, c + 1, 1)]
    if kind is VertexKind.SADDLE_B:
        return [(d, c, d)]
    if kind is VertexKind.MIN:
        return [(d - 1, c, d)] if d > c else [(0, 0, 1)] if rank == 1 and d == 1 else []
    # a merge, or a split joining two components or closing a loop in one
    pairs = d * (d - 1) // 2
    return [(d + 1, c, d)] + [(d - 1, c - 1, pairs)] * (c >= 2) + [(d - 1, c, pairs)] * (d > c)


def _kind_sequences(s: int) -> list[tuple[dict[int, VertexKind], int]]:
    """The kinds by rank, from rank s down to 1, of every sequence that has a
    connected skeleton with s critical vertices, in the order of their ``K``
    texts, each with the size of its skeleton walk.  Only how many ends and
    components hang above a rank decides which kinds it can take, so the
    walk tracks those pairs, each with its number of ways to be reached.
    The size is the number of ways to reach a connected end, with the ends
    of one vertex counted apart, so it is at least the number of skeletons
    of the sequence, and it follows the time of their walk."""
    found: list[tuple[dict[int, VertexKind], int]] = []

    def rec(rank: int, ways: dict[tuple[int, int], int], kinds: dict[int, VertexKind]) -> None:
        if rank == 0:
            size = sum(n for (_, c), n in ways.items() if c <= 1)
            if size:
                found.append((kinds, size))
            return
        for kind in _SHAPES:
            after: dict[tuple[int, int], int] = {}
            for (d, c), n in ways.items():
                for d_after, c_after, choices in _moves(kind, rank, d, c):
                    after[d_after, c_after] = after.get((d_after, c_after), 0) + n * choices
            if after:
                rec(rank - 1, after, {**kinds, rank: kind})

    rec(s - 1, {(1, 1): 1}, {s: VertexKind.MAX})
    found.sort(key=lambda sequence: [pages._KIND_TAG[sequence[0][r]] for r in range(1, s + 1)])
    return found


def _parts(s: int) -> list[list[dict[int, VertexKind]]]:
    """The kind sequences of stratum s in runs of adjacent sequences whose
    walks have a total size of at most _PART_SIZE, or of one sequence."""
    parts: list[list[dict[int, VertexKind]]] = [[]]
    size = 0
    for kinds, n in _kind_sequences(s):
        if parts[-1] and size + n > _PART_SIZE:
            parts.append([])
            size = 0
        parts[-1].append(kinds)
        size += n
    return parts


def _skeletons(s: int, kinds: dict[int, VertexKind]):
    """Yield (kinds, edges) for every connected degree-correct shape with
    these kinds of ranks s..1, ``kinds`` itself each time; edges are (low,
    high) vertex-name pairs and boundary vertices are named b0, b1, ...
    Twists are not assigned.  The order is that of a walk over every kind
    sequence with the kinds of each rank taken in ``_SHAPES`` order, less
    the skeletons of other sequences.

    Each dangling end carries the label of its component (``comp`` maps the
    vertex an end hangs from to that label).  Only a split joins components,
    and it consumes two open ends, so a component whose last open end a min
    closes can never be joined again: the branch is dead unless nothing else
    is left to place.  At rank 0 the open ends must carry at most one label;
    a closed page has none."""

    def rec(rank: int, dangling: tuple[str, ...], comp: dict[str, str], edges: list[tuple[str, str]]):
        if rank == 0:
            if len({comp[h] for h in dangling}) <= 1:
                yield kinds, edges + [(f"b{i}", high) for i, high in enumerate(dangling)]
            return
        me = f"v{rank}"
        for consume, open_ in _SHAPES[kinds[rank]]:
            if consume == 0:
                yield from rec(rank - 1, dangling + (me,) * open_, {**comp, me: me}, edges)
            elif consume == 1:
                for high in sorted(set(dangling)):
                    rest = list(dangling)
                    rest.remove(high)
                    label = comp[high]
                    if not open_ and (rank > 1 or rest) and all(comp[h] != label for h in rest):
                        continue
                    edges.append((me, high))
                    yield from rec(rank - 1, tuple(rest) + (me,) * open_, {**comp, me: label}, edges)
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
                    yield from rec(rank - 1, tuple(rest) + (me,) * open_, joined, edges)
                    del edges[-2:]

    yield from rec(s - 1, (f"v{s}",), {f"v{s}": f"v{s}"}, [])


def _skeleton_views(s: int, kinds: dict[int, VertexKind]):
    """Yield the :class:`pages._PageView` of each skeleton of
    ``_skeletons(s, kinds)``, with vertices v1..vs by rank, boundary
    vertices b0, b1, ... and edges e0, e1, ... in generator order.  The
    generator yields only valid pages, so none is validated here."""
    for kinds, edges in _skeletons(s, kinds):
        rank_of = {f"v{r}": r for r in kinds}
        rank_of.update([(low, 0) for low, _ in edges if low[0] == "b"])
        yield pages._PageView(kinds, rank_of, tuple([(f"e{j}", low, high) for j, (low, high) in enumerate(edges)]))


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


def _classes(s: int, kinds: dict[int, VertexKind], keep: Callable = lambda view: view) -> list[tuple]:
    """(encoding, keep(view), twists) of the first candidate of each class of
    the skeletons of this kind sequence, sorted by encoding, with
    ``keep`` called once per skeleton, so that its view need not outlive the
    walk.  The encodings of one sequence share their text up to the ``K``
    block, and every ``K`` text of a stratum has the same length, so the
    sorted classes of the sequences in ``K`` order are the sorted classes of
    the stratum."""
    found: dict[bytes, tuple] = {}
    for view in _skeleton_views(s, kinds):
        kept = keep(view)
        for twists, enc in _candidates(view):
            found.setdefault(enc, (kept, twists))
    return [(enc, *found[enc]) for enc in sorted(found)]


def _pages(s_max: int, allow_nonorientable: bool, allow_closed: bool):
    for s in range(1, s_max + 1):
        for kinds, _ in _kind_sequences(s):
            for _, view, twists in _classes(s, kinds):
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
    _check_int("s_max", s_max, 1, MAX_ENUMERATION_S)
    if workers != 1:
        message = "enumerate_pages ignores the deprecated workers; census_table spreads the work"
        warnings.warn(message, DeprecationWarning, stacklevel=2)
    return _pages(s_max, allow_nonorientable, allow_closed)


def _check_int(name: str, value: int, low: int, high: int | None = None) -> None:
    """Raise RoundFoldError unless ``value`` is an int, not a bool, from
    ``low`` to ``high``, or at least ``low`` if ``high`` is None."""
    if type(value) is not int:
        raise RoundFoldError(f"{name} must be an int, got {value!r}")
    if value < low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"between {low} and {high}"
        raise RoundFoldError(f"{name} must be {bound}, got {value}")


# ---------------------------------------------------------------------------
# census tables
# ---------------------------------------------------------------------------

def _row_fields(view: pages._PageView, shapes: dict) -> tuple[str, str, int, int, bool, bool]:
    """What the rows of the classes of the valid skeleton with this view
    share: its kinds text, where a saddle_p is a merge if its critical sphere
    is inward-directed; its fiber counts text; χ; b; whether it has a
    saddle_b; and whether every critical sphere is inward-directed, as
    :func:`foldmaps.is_directed` asks.  ``shapes`` keeps the kinds texts of
    the view's kind sequence by inward pattern, so each is written once."""
    shape = shapes.get(view.inward)
    if shape is None:
        shape = shapes[view.inward] = " ".join(
            [
                f"{('merge' if inward else 'split') if kind is VertexKind.SADDLE_P else kind.value}@{r}"
                for (r, kind), inward in zip(sorted(view.kinds.items()), view.inward)
            ]
        )
    fibers = ",".join(map(str, view.fiber_counts))
    return shape, fibers, view.chi, view.b, view.has_saddle_b, all(view.inward)


def _census_part(
    n: int,
    s: int,
    clutchings: Sequence[int],
    sequences: list[dict[int, VertexKind]],
    finish: Callable | None = None,
) -> list:
    """One census work unit: the rows with these clutchings of the classes of
    these kind sequences of stratum s.  The rows are in canonical order if
    the sequences are adjacent in ``K`` order and the clutchings are in the
    order of their ``_form_prefix`` bytes.  No class is met in two
    skeletons, so the parts of a census share no row.  With a module-level
    ``finish``, each row is replaced by ``finish(row, text)``, where ``text``
    is the :func:`manifolds.describe` of its manifold, computed once per
    manifold object.  It returns no pages, and rows with the same surface and
    clutching share their objects, so a worker process sends back only small
    objects."""
    # each kind sequence gets its own kinds-text cache, dropped with its walk
    classes = [c for kinds in sequences for c in _classes(s, kinds, partial(_row_fields, shapes={}))]
    rows = []
    for k in clutchings:
        prefix, spaces = _form_prefix(n, k), {}
        for enc, (shape, fibers, chi, b, saddle_b, inward), twists in classes:
            # a candidate lies in the gauge span iff its picks are all 0, and
            # a page is orientable iff its twists do and it has no saddle_b
            orientable = not saddle_b and not any(twists.values())
            key = (chi, b, orientable)
            if key not in spaces:
                surface = pages._surface_of(*key)
                manifold = _total_space(n, surface, k)
                spaces[key] = (surface.describe(), manifold, describe(manifold))
            text, manifold, name = spaces[key]
            row = CensusRow(prefix + enc, s, k, f"{shape}; {text}; c=[{fibers}]", manifold, orientable and inward)
            rows.append(row if finish is None else finish(row, name))
    return rows


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_census(
    n: int, s_max: int, k_max: int, workers: int, finish: Callable | None = None
) -> Iterator:
    """The rows of :func:`census_table`, in its order, each passed through
    ``finish`` as :func:`_census_part` describes, as an iterator that yields
    each part's rows as soon as the parts before it are done.  ``census
    --format`` passes the formatter of its output lines, so the parts return
    finished lines.  The arguments are checked before this returns."""
    _check_int("census dimension", n, 4)
    _check_int("k_max", k_max, 0, MAX_CLUTCHING)
    _check_int("s_max", s_max, 1, MAX_ENUMERATION_S)
    _check_int("workers", workers, 1)
    # a canonical form reads RF1;n=;k=;P1;s=;K=... and every K text of a
    # stratum has the same length, so with one-digit s the rows with
    # clutching 0 sort by s, then by kind sequence: a part of adjacent
    # sequences is one slice of them
    tasks = [(n, s, (0,), part, finish) for s in range(1, s_max + 1) for part in _parts(s)]
    if n == 4 and s_max >= 2:
        # the sphere page's rows with clutching k >= 1 sort after every row
        # with k = 0: one last part, whose one class costs little per k
        clutchings = sorted(range(1, k_max + 1), key=lambda k: _form_prefix(n, k))
        tasks.append((n, 2, clutchings, [_SPHERE], finish))
    return itertools.chain.from_iterable(_results(tasks, min(workers, usable_cpus())))


def _results(tasks: list[tuple], processes: int) -> Iterator:
    """The :func:`_census_part` results of these tasks, in order: computed
    in this process, each when its turn comes, or in a pool of this many
    processes."""
    if processes == 1:
        yield from itertools.starmap(_census_part, tasks)
        return
    # imported here so that importing roundfold loads no pool machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=processes) as pool:
        yield from pool.map(_census_part, *zip(*tasks))


def census_table(n: int, s_max: int, k_max: int = 3, workers: int = 1) -> CensusTable:
    """One row per equivalence class of round fold maps with the given n and
    s <= s_max; at n = 4 the sphere page splits into clutching classes
    |k| <= k_max <= MAX_CLUTCHING.  Rows are sorted by canonical encoding.

    The census runs in parts, each a run of adjacent kind sequences of one
    stratum, in canonical order, and at n = 4 one last part for the sphere
    page's rows with k >= 1.  A part returns its rows sorted, and no class
    spans two parts, so the rows are the parts' rows in order.  With
    ``workers`` W > 1 a process pool of P = min(W, usable CPUs) processes
    runs the parts; the output is the same for every W.  W = 1 runs the same
    parts in this process and starts no process.
    """
    return CensusTable(n, s_max, k_max, tuple(_run_census(n, s_max, k_max, workers)))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_isomorphic(g0: LabeledReebGraph, g1: LabeledReebGraph) -> bool:
    """Exhaustive page isomorphism test, independent of the canonical
    encoding and its gauge rule: tries every kind/rank-preserving vertex and
    edge bijection and every gauge move, built from the vertices and edges
    alone (each vertex toggles its edges, each edge at a saddle_b toggles
    alone).  Limited to s <= ORACLE_S_LIMIT."""
    pages.require_valid(g0)
    pages.require_valid(g1)
    if g0.s > ORACLE_S_LIMIT or g1.s > ORACLE_S_LIMIT:
        raise OracleLimitError(f"brute-force oracle supports s <= {ORACLE_S_LIMIT}")
    crit0, crit1 = g0.critical_by_rank(), g1.critical_by_rank()
    if {r: v.kind for r, v in crit0.items()} != {r: v.kind for r, v in crit1.items()}:
        return False
    bd0 = [v.id for v in g0.boundary_vertices()]
    bd1 = [v.id for v in g1.boundary_vertices()]
    if len(bd0) != len(bd1) or len(g0.edges) != len(g1.edges):
        return False

    m = len(g1.edges)
    unit = {e.id: 1 << (m - 1 - j) for j, e in enumerate(g1.edges)}
    t1 = sum(unit[e.id] for e in g1.edges if e.twist)
    saddle_b = {v.id for v in g1.vertices if v.kind is VertexKind.SADDLE_B}
    moves = [sum(unit[e.id] for e in g1.edges if v.id in (e.low, e.high)) for v in g1.vertices]
    moves += [unit[e.id] for e in g1.edges if {e.low, e.high} & saddle_b]
    orbit = gf2.subspace_elements(moves)

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
                        t0 |= unit[e1.id]
            if t0 ^ t1 in orbit:
                return True
    return False
