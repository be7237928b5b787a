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
enters no branch whose shape can no longer be connected.  The census
trusts it and validates no skeleton (``tests/test_census.py`` checks
that each one it walks is a valid page).  The generator tracks vertices by
rank and builds, as it descends, what a skeleton's encoding layout shares
with its siblings: each edge's bit in the encoding order, the ``E`` keys of
the ranks above and the fiber counts, and which twists the gauge span
leaves free, by union-find over the edges it places (see ``_skeletons``).
At rank 0 it sorts only the boundary targets and, if some twist is free,
lists the edges of the gauge graph H and its parallel pairs once in the
encoding order, by the same ``pages._h_edges`` that a page view calls, and
encodes the twist candidates, one per coset of the gauge span, at one ``T``
block each, read off one pass of a parity union-find (``pages._reduce``);
it builds no page and no page view.  The classes of a
sequence are their distinct encodings, sorted (``_classes``), and
``enumerate_pages`` builds a page of each class.  A class's row depends only
on its encoding, its clutching, its skeleton's fiber counts c_0..c_s (which
give b = c_0 and the inward-directed spheres) and on whether its candidate is
twisted, so the census keeps only the fiber counts of each skeleton.  The
canonical forms of one stratum sort by kind sequence first, so
``census_table`` runs parts of adjacent sequences, in a process pool or in
turn, and writes each part's rows as soon as the parts before it are done.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from . import pages
from .classify import _form_prefix
from .errors import RoundFoldError
from .foldmaps import _total_space
from .manifolds import ManifoldDescriptor, describe
from .pages import LabeledReebGraph, VertexKind

MAX_ENUMERATION_S = 7
MAX_CLUTCHING = 1000
# A census part is a run of kind sequences of one stratum, adjacent in
# canonical order, with skeleton walks of this total size (see
# ``_kind_sequences``) unless it is one sequence.  The 68 parts of s = 7
# took a median of 10 to 11 ms each, and at most 40 ms, in six runs on a
# shared 2-core Xeon VM under Python 3.11, and a part's rows, which come
# back as one message, are a few hundred kB.  Twice the size was no faster
# when parts took 10 to 17 ms.
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
    """Yield a record (edges, ends, fibers, candidates) for every
    connected degree-correct shape with these kinds of ranks s..1, with
    vertices tracked by rank (0 for a boundary vertex).  ``edges`` holds
    the (low rank, high rank, bit) of the edges from critical vertices, e0,
    e1, ... in the order they are placed; it is the walk's own list, so a
    reader that keeps it copies it.  ``ends`` holds the high ranks of the
    edges from the boundary vertices b0, b1, ..., which come next as
    e{len(edges)}, ...; ``fibers`` is the text of the fiber counts
    c_0..c_s, from which b = c_0 and the inward-directed spheres (those of
    the ranks r with c_(r-1) > c_r) follow; and ``candidates`` are the (t,
    encoding) of :func:`_candidates`.  The order is that of a walk over
    every kind sequence with the kinds of each rank taken in ``_SHAPES``
    order and the ends each vertex takes in order of their ranks, less the
    skeletons of other sequences.  Ranks sort as the names v1..vs of their
    vertices only for one-digit s: from s = 10 on, a walk over names would
    take ends in another order, and so number the edges and keep candidates
    otherwise.

    Each dangling end carries the label of its component (``comp`` maps the
    rank of the vertex an end hangs from to that label; it and ``trees``
    below are lists that every step but a split writes in place), and the
    walk counts the components of its open ends.  Only a split joins
    components, and it consumes two open ends, so a component whose last
    open end a min closes can never be joined again.  Before it places a
    vertex's edges the walk checks that the (open ends, components) they
    leave can still reach a connected end by the rule of :func:`_moves`,
    which allows no such min unless nothing else is left to place; so every
    branch it enters ends in a connected skeleton.

    The encoding order is the boundary edges by target rank, then the edges
    from ranks 1..s-1, each rank's by high rank: the walk's order of ranks,
    reversed.  So an edge's bit in it (m - 1 - j at position j) is fixed when
    it is placed: the number of edges placed before its rank's, plus its
    offset from the end of its rank's.  The walk carries the ``E`` keys of
    the ranks above, each after a comma; at rank 0 it sorts only the
    boundary targets, and keeps the text they start per tuple of targets.
    It carries no parallel pairs: :func:`_candidates` reads them off the
    edges of H, as a page view does.

    The walk also finds which twists the gauge span S leaves free.  Call an
    edge from a boundary vertex or at a saddle_b vertex a unit edge: S holds
    its unit vector.  So S is the units of the unit edges plus the vertex
    flips restricted to the other edges, those of the graph H of edges
    between critical vertices other than saddle_b.  Those restricted flips
    span the cut space of H, whose matroid is the graphic matroid of H.
    In any edge order the pivots of S are therefore every unit edge and
    the greedy (Kruskal) spanning forest of H in that order, and the free
    coordinates are exactly the H edges that close a cycle of H as they
    come.  In the order the walk places edges, each vertex's first edge
    joins a vertex that had no edge yet, so only a split's second edge, up
    to h2, can close a cycle: when h2 already lies in the H-tree of h1, and
    so of the split (``trees`` maps each rank to the label of its H-tree,
    and a parallel pair, h1 == h2, is one).  A vertex joined only by a unit
    edge starts a tree of its own, so a saddle_b, whose edges are all unit
    edges, never shares a label while it has an open end.  ``free`` holds
    the bits of the free edges in the order they are placed."""
    starts: dict[tuple[int, ...], str] = {}
    saddle_b = VertexKind.SADDLE_B

    @functools.cache
    def ahead(rank: int, d: int, c: int) -> set[tuple[int, int]]:
        """The (open ends, components) below this rank, each a move of
        :func:`_moves` from ``d`` ends of ``c`` components above it, from
        which a connected end can still be reached."""
        return {
            (d_after, c_after)
            for d_after, c_after, _ in _moves(kinds[rank], rank, d, c)
            if (c_after <= 1 if rank == 1 else ahead(rank - 1, d_after, c_after))
        }

    def rec(rank, dangling, c, comp, trees, edges, free, keys, fibers):
        if rank == 0:
            targets = tuple(sorted(dangling))
            start = starts.get(targets)
            if start is None:
                start = starts[targets] = pages._layout_start(kinds, targets)
            prefix = pages._layout_prefix(start, keys)
            yield edges, dangling, fibers, _candidates(kinds, prefix, edges, targets, free)
            return
        placed = len(edges)
        live = ahead(rank, len(dangling), c)
        for consume, open_ in _SHAPES[kinds[rank]]:
            # c_(rank - 1) is the number of ends left open below this vertex
            d = len(dangling) - consume + open_
            below = f"{d},{fibers}"
            # each step writes its own rank before a lower rank reads it and
            # reads only the ranks of dangling ends, above its own: so only a
            # split, which relabels those, builds new comp and trees lists
            if consume == 0:
                if (d, c + 1) in live:
                    comp[rank] = trees[rank] = rank
                    ends = dangling + (rank,) * open_
                    yield from rec(rank - 1, ends, c + 1, comp, trees, edges, free, keys, below)
            elif consume == 1:
                for high in sorted(set(dangling)):
                    rest = list(dangling)
                    rest.remove(high)
                    label = comp[high]
                    # a min that closes the last end of a component leaves
                    # one fewer, which _moves allows only at the very end
                    closes = not open_ and label not in [comp[h] for h in rest]
                    if (d, c - closes) not in live:
                        continue
                    comp[rank] = label
                    unit = kinds[rank] is saddle_b or kinds[high] is saddle_b
                    trees[rank] = rank if unit else trees[high]
                    edges.append((rank, high, placed))
                    above = f",{pages._edge_key(rank, high)}{keys}"
                    ends = (*rest, *(rank,) * open_)
                    yield from rec(rank - 1, ends, c - closes, comp, trees, edges, free, above, below)
                    edges.pop()
            else:  # split consumes an unordered pair of ends
                uniq = sorted(set(dangling))
                choices = [(h, h) for h in uniq if dangling.count(h) >= 2]
                choices += list(itertools.combinations(uniq, 2))
                for h1, h2 in choices:
                    keep, gone = comp[h1], comp[h2]
                    joins = keep != gone
                    if (d, c - joins) not in live:
                        continue
                    rest = list(dangling)
                    rest.remove(h1)
                    rest.remove(h2)
                    labels = [keep if label == gone else label for label in comp]
                    labels[rank] = keep
                    tree, other = trees[h1], trees[h2]
                    forest = [tree if label == other else label for label in trees]
                    forest[rank] = tree
                    # h1 <= h2, so the edge up to h1 comes first in encoding
                    # order, and takes the higher bit
                    edges += [(rank, h1, placed + 1), (rank, h2, placed)]
                    above = f",{pages._edge_key(rank, h1)},{pages._edge_key(rank, h2)}{keys}"
                    cycle = (*free, 1 << placed) if tree == other else free
                    ends = (*rest, *(rank,) * open_)
                    yield from rec(rank - 1, ends, c - joins, labels, forest, edges, cycle, above, below)
                    del edges[-2:]

    yield from rec(s - 1, (s,), 1, [0] * s + [s], [0] * s + [s], [], (), "", "1,0")


def _candidates(kinds: dict, prefix: str, edges: list, targets: tuple, free: tuple) -> list:
    """(t, encoding) of one twist labeling per gauge coset of the skeleton
    of :func:`_skeletons` with these ``edges`` and sorted boundary
    ``targets``, whose encodings start with ``prefix``: ``t`` holds the
    twists as bits of the encoding order.  The labelings are those of the
    ``free`` edges that the walk found (see :func:`_skeletons`), in
    lexicographic order of their picks, and every other twist is 0, so the
    first candidate is untwisted.  If no edge is free, the gauge span is
    everything and the one candidate's ``T`` block is all zeros; otherwise
    :func:`pages._h_edges` lists the skeleton's edges of H, those between
    critical vertices other than saddle_b, and its parallel pairs once,
    from the edges in encoding order (descending bit), and each candidate
    goes to :func:`pages._encode_bits` as its m binary digits, for the
    coset minimum of :func:`pages._reduce`."""
    m = len(edges) + len(targets)
    if not free:
        return [(0, f"{prefix}T={'0' * m}".encode("ascii"))]
    h_edges, pairs = pages._h_edges(kinds, sorted(edges, key=operator.itemgetter(2), reverse=True))
    found = []
    for picks in itertools.product((0, 1), repeat=len(free)):
        t = sum([x for x, pick in zip(free, picks) if pick])
        found.append((t, pages._encode_bits(prefix, f"{t:0{m}b}", pairs, h_edges)))
    return found


def _classes(s: int, kinds: dict[int, VertexKind], keep: Callable) -> list[tuple]:
    """(encoding, keep(skeleton), t) of the first candidate of each class of
    the skeletons of this kind sequence, sorted by encoding, with ``keep``
    called once on each record of :func:`_skeletons`, while the walk waits:
    the census keeps each record's fiber text, and :func:`enumerate_pages`
    its edges and ends.
    The encodings of one sequence share their text up to the ``K`` block,
    and every ``K`` text of a stratum has the same length, so the sorted
    classes of the sequences in ``K`` order are the sorted classes of the
    stratum."""
    found: dict[bytes, tuple] = {}
    for skeleton in _skeletons(s, kinds):
        kept = keep(skeleton)
        for t, enc in skeleton[3]:
            found.setdefault(enc, (kept, t))
    return [(enc, *found[enc]) for enc in sorted(found)]


def _pages(s_max: int):
    for s in range(1, s_max + 1):
        for kinds, _ in _kind_sequences(s):
            critical = [(f"v{r}", kind, r) for r, kind in kinds.items()]
            # a page keeps a copy of its skeleton's edges, which the walk reuses
            for _, (edges, ends), t in _classes(s, kinds, lambda skeleton: (list(skeleton[0]), skeleton[1])):
                g = LabeledReebGraph.of(
                    critical + [(f"b{i}", VertexKind.BOUNDARY, 0) for i in range(len(ends))],
                    [(f"e{k}", f"v{low}", f"v{high}", t >> bit & 1) for k, (low, high, bit) in enumerate(edges)]
                    + [(f"e{len(edges) + i}", f"b{i}", f"v{high}", 0) for i, high in enumerate(ends)],
                )
                # its skeleton is valid, and 0/1 twists never affect validity
                object.__setattr__(g, "report", pages._VALID)
                yield g


def enumerate_pages(s_max: int):
    """Iterate over one representative per page isomorphism class, s <= s_max.

    Output is deterministic: strata in increasing s, each sorted by canonical
    encoding.  Pages are built lazily in this process, one per class yielded.
    """
    _check_int("s_max", s_max, 1, MAX_ENUMERATION_S)
    return _pages(s_max)


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
    skeletons, so the parts of a census share no row.  Each sequence is
    walked once, keeping each skeleton's fiber counts c_0..c_s.  A row's
    summary, manifold and directed flag (as :func:`foldmaps.is_directed`
    asks) are made once per clutching, sequence, fiber counts and
    orientability, and rows share them, so a worker process sends back only
    small objects and no page.  The counts give b = c_0 and the kinds text
    of the summary, which names a saddle_p of rank r a merge iff its
    critical sphere is inward-directed, c_(r-1) > c_r.  Each rank moves c
    by at most 1 and c_s = 0, so every sphere is inward-directed iff
    c_0 = s.  With a module-level ``finish``, each row is replaced by
    ``finish(row, text)``, where ``text`` is the :func:`manifolds.describe`
    of its manifold."""
    walked = [(kinds, _classes(s, kinds, operator.itemgetter(2))) for kinds in sequences]
    rows = []
    for k in clutchings:
        prefix = _form_prefix(n, k)
        for kinds, classes in walked:
            chi, saddle_b = pages._euler_by_kinds(kinds), VertexKind.SADDLE_B in kinds.values()
            fields: dict[tuple[str, bool], tuple] = {}
            for enc, fibers, t in classes:
                # a candidate lies in the gauge span iff its twists are all 0,
                # and a page is orientable iff its twists do and it has no
                # saddle_b
                orientable = not saddle_b and not t
                if (fibers, orientable) not in fields:
                    c = [int(count) for count in fibers.split(",")]
                    surface = pages._surface_of(chi, c[0], orientable)
                    manifold = _total_space(n, surface, k)
                    names = [
                        ("merge" if c[r - 1] > c[r] else "split") if kinds[r] is VertexKind.SADDLE_P else kinds[r].value
                        for r in range(1, s + 1)
                    ]
                    shape = " ".join([f"{kind}@{r}" for r, kind in enumerate(names, start=1)])
                    summary = f"{shape}; {surface.describe()}; c=[{fibers}]"
                    fields[fibers, orientable] = (summary, manifold, describe(manifold), orientable and c[0] == s)
                summary, manifold, name, directed = fields[fibers, orientable]
                row = CensusRow(prefix + enc, s, k, summary, manifold, directed)
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
