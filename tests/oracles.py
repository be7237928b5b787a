"""Independent oracles used to compute expected test values.

Nothing here reuses the library's decision procedures: span membership is
exhaustive subset XOR (``span_elements``), fiber counts are re-derived from
scratch, surface bookkeeping comes from the classification formulas, the
generate-all page enumeration builds every labeled graph directly from
degree shapes, the matrix enumerator lists skeletons as edge-multiplicity
matrices filled rank by rank, and the Burnside class count has its own
gauge vectors and GF(2) rank; summed over the matrix skeletons, it checks
the published class counts without the census's top-down skeleton walk.
``page_gauge_vectors`` builds a page's gauge generators vertex by vertex
from its vertices and edges, and ``xor_basis`` gives the pivots of their
span.  ``brute_force_isomorphic``, the exhaustive search that checks
``page_isomorphic``, decides page isomorphism over every vertex and edge
bijection and the whole gauge orbit, reading only a page's vertices and
edges: no validation, no page view, no cached property and none of the
encoder's gauge reduction.  ``skeleton_bucket`` groups pages by what an
isomorphism keeps, so that a separation check compares only pages of one
bucket.
``swap_sensitive`` and ``saddle_b_sensitive`` pick the skeletons on which a
pair swap or the saddle_b rule changes a class, and ``named_edges`` names
the vertices of a census walk record as the other oracles name them.  The
exceptions are references kept from earlier versions of the library:
``min_over_orderings_twist_block``, the search over parallel-edge orderings
that the encoder ran before its closed form, ``census_rows``, which
builds a census row through the public functions of one page, as the
census did before it worked per skeleton, and
``reference_validate_page_data``, the validator that checked a page in one
pass per invariant before it checked them in one pass over the edges, and
``reference_page_problems``, the page parser's schema check as it ran field
by field on every item before it accepted items first.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from typing import Iterator

from roundfold import (
    CensusRow,
    Edge,
    LabeledReebGraph,
    RoundFoldDescriptor,
    Vertex,
    VertexKind,
    build_total_space,
    canonical_form,
    is_directed,
    is_sphere_page,
    page_orientable,
    surface_type,
    validate_page,
)
from roundfold.pages import _KIND_DEGREES, ValidationReport, Violation

# (down slots, up slots) per shape; merge/split are the two saddle_p options
SHAPES = {
    "min": (VertexKind.MIN, 0, 1),
    "max": (VertexKind.MAX, 1, 0),
    "merge": (VertexKind.SADDLE_P, 2, 1),
    "split": (VertexKind.SADDLE_P, 1, 2),
    "saddle_b": (VertexKind.SADDLE_B, 1, 1),
}


def subset_xor_member(vectors: list[int], target: int) -> bool:
    """Exhaustive GF(2) span membership: try every subset XOR."""
    return target in span_elements(vectors)


def span_elements(generators) -> frozenset[int]:
    """Every XOR of a subset of ``generators``, each generator in turn
    doubling the set: the whole span, exhaustively."""
    elements = {0}
    for g in generators:
        elements |= {x ^ g for x in elements}
    return frozenset(elements)


def euler_orientable(genus: int, boundary: int) -> int:
    return 2 - 2 * genus - boundary


def euler_nonorientable(crosscaps: int, boundary: int) -> int:
    return 2 - crosscaps - boundary


def fiber_counts_by_levels(graph: LabeledReebGraph) -> list[int]:
    """Count fiber circles region by region, walking the vertex events from
    the boundary outward instead of counting edge spans."""
    rank_of = {v.id: v.rank for v in graph.vertices}
    s = max(rank_of.values())
    alive = {e.id for e in graph.edges if rank_of[e.low] == 0}
    counts = [len(alive)]
    for r in range(1, s + 1):
        ended = {e.id for e in graph.edges if rank_of[e.high] == r}
        started = {e.id for e in graph.edges if rank_of[e.low] == r}
        alive = (alive - ended) | started
        counts.append(len(alive))
    return counts


def all_valid_pages(s: int) -> list[LabeledReebGraph]:
    """Every valid labeled page with exactly s critical vertices, generated
    the slow way: all shape sequences, all down-slot targets, all twists."""
    out: list[LabeledReebGraph] = []
    for shape_seq in itertools.product(sorted(SHAPES), repeat=s):
        shapes = [SHAPES[name] for name in shape_seq]
        down_slots = [(r, i) for r in range(1, s + 1) for i in range(shapes[r - 1][1])]
        # each down slot of the rank-r vertex picks a lower critical vertex or
        # spawns its own boundary circle
        slot_choices = [
            [f"v{t}" for t in range(1, r)] + ["bd"] for r, _ in down_slots
        ]
        for picks in itertools.product(*slot_choices):
            # up-slot capacities must be met exactly
            taken = {f"v{r}": 0 for r in range(1, s + 1)}
            for target in picks:
                if target != "bd":
                    taken[target] += 1
            if any(taken[f"v{r}"] != shapes[r - 1][2] for r in range(1, s + 1)):
                continue
            vertices = [Vertex(f"v{r}", shapes[r - 1][0], r) for r in range(1, s + 1)]
            edges = []
            n_bd = 0
            for (r, _), target in zip(down_slots, picks):
                if target == "bd":
                    low = f"b{n_bd}"
                    vertices.append(Vertex(low, VertexKind.BOUNDARY, 0))
                    n_bd += 1
                else:
                    low = target
                edges.append((low, f"v{r}"))
            skeleton = LabeledReebGraph(
                tuple(vertices),
                tuple(Edge(f"e{j}", lo, hi, 0) for j, (lo, hi) in enumerate(edges)),
            )
            if not validate_page(skeleton).ok:
                continue
            for twists in itertools.product((0, 1), repeat=len(edges)):
                out.append(
                    LabeledReebGraph(
                        tuple(vertices),
                        tuple(
                            Edge(f"e{j}", lo, hi, t)
                            for j, ((lo, hi), t) in enumerate(zip(edges, twists))
                        ),
                    )
                )
    return out


def partition_by(items, same) -> list[list]:
    """Group items into equivalence classes using the pairwise test ``same``."""
    classes: list[list] = []
    for item in items:
        for cls in classes:
            if same(cls[0], item):
                cls.append(item)
                break
        else:
            classes.append([item])
    return classes


def min_over_orderings_twist_block(graph: LabeledReebGraph) -> str:
    """The ``T=`` block by search: the least canonical gauge-coset
    representative over every ordering of every parallel-edge class, one
    ``xor_basis`` elimination per ordering (2^g eliminations on a genus-g
    page)."""
    rank_of = {v.id: v.rank for v in graph.vertices}
    target = {e.low: rank_of[e.high] for e in graph.edges if rank_of[e.low] == 0}
    bd_index = {b: i for i, b in enumerate(sorted(target, key=lambda b: (target[b], b)))}
    groups: dict[tuple[int, int, int], list[str]] = {}
    for e in graph.edges:
        r = rank_of[e.low]
        key = (r, bd_index[e.low] if r == 0 else -1, rank_of[e.high])
        groups.setdefault(key, []).append(e.id)
    m = len(graph.edges)
    labeling = graph.twist_labeling()
    best = None
    for combo in itertools.product(*(itertools.permutations(sorted(groups[k])) for k in sorted(groups))):
        order = [eid for perm in combo for eid in perm]
        t = sum(1 << (m - 1 - j) for j, eid in enumerate(order) if labeling[eid])
        rep = coset_minimum(t, xor_basis(page_gauge_vectors(graph, order)))
        if best is None or rep < best:
            best = rep
    return format(best, f"0{m}b") if m else ""


def xor_basis(vectors) -> list[int]:
    """A basis of the GF(2) span of int bitmasks, kept in decreasing order,
    so its members have distinct leading bits: the pivots of the span."""
    basis: list[int] = []
    for v in vectors:
        v = coset_minimum(v, basis)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def coset_minimum(v: int, basis: list[int]) -> int:
    """The least point of v + span(basis), for a :func:`xor_basis`: each
    member in turn clears its leading bit from v, touching only lower bits."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def gf2_rank(vectors) -> int:
    return len(xor_basis(vectors))


def page_gauge_vectors(graph: LabeledReebGraph, order: list[str]) -> list[int]:
    """The gauge generators of a page by the per-vertex rule, from its
    vertices and edges alone: each vertex toggles its incident edges, and
    each edge at a saddle_b vertex toggles alone.  Coordinate j of
    ``order`` sits at bit m - 1 - j."""
    m = len(order)
    unit = {eid: 1 << (m - 1 - j) for j, eid in enumerate(order)}
    saddle_b = {v.id for v in graph.vertices if v.kind is VertexKind.SADDLE_B}
    flips = [sum(unit[e.id] for e in graph.edges if v.id in (e.low, e.high)) for v in graph.vertices]
    return flips + [unit[e.id] for e in graph.edges if {e.low, e.high} & saddle_b]


def skeleton_bucket(graph: LabeledReebGraph) -> tuple:
    """The kind of each rank and the sorted (low rank, high rank) of every
    edge, a boundary vertex at rank 0, read from the vertices and edges
    alone.  An isomorphism of pages keeps both, so pages of two buckets are
    never isomorphic; pages of one bucket share a skeleton up to renaming."""
    rank_of = {v.id: v.rank for v in graph.vertices}
    kinds = tuple(sorted((v.rank, v.kind.value) for v in graph.vertices if v.kind is not VertexKind.BOUNDARY))
    return kinds, tuple(sorted((rank_of[e.low], rank_of[e.high]) for e in graph.edges))


def brute_force_isomorphic(g0: LabeledReebGraph, g1: LabeledReebGraph) -> bool:
    """Exhaustive isomorphism of two valid pages, independent of the
    canonical encoding and its gauge rule: tries every kind- and
    rank-preserving bijection of the vertices and of the edges, and every
    gauge move, from ``page_gauge_vectors`` and ``span_elements``.  It reads
    only the vertices and edges, and its cost grows with the factorials of
    the boundary count and of the parallel classes and with the size of the
    gauge orbit, so it suits pages with a few critical vertices."""
    crit0 = {v.rank: v for v in g0.vertices if v.kind is not VertexKind.BOUNDARY}
    crit1 = {v.rank: v for v in g1.vertices if v.kind is not VertexKind.BOUNDARY}
    if {r: v.kind for r, v in crit0.items()} != {r: v.kind for r, v in crit1.items()}:
        return False
    bd0 = [v.id for v in g0.vertices if v.kind is VertexKind.BOUNDARY]
    bd1 = [v.id for v in g1.vertices if v.kind is VertexKind.BOUNDARY]
    if len(bd0) != len(bd1) or len(g0.edges) != len(g1.edges):
        return False

    order = [e.id for e in g1.edges]
    m = len(order)
    unit = {eid: 1 << (m - 1 - j) for j, eid in enumerate(order)}
    t1 = sum(unit[e.id] for e in g1.edges if e.twist)
    orbit = span_elements(page_gauge_vectors(g1, order))
    groups1: dict[tuple[str, str], list[str]] = {}
    for e in g1.edges:
        groups1.setdefault((e.low, e.high), []).append(e.id)
    keys = sorted(groups1)
    crit_map = {crit0[r].id: crit1[r].id for r in crit0}

    for bd_perm in itertools.permutations(bd1):
        vmap = {**crit_map, **dict(zip(bd0, bd_perm))}
        groups0: dict[tuple[str, str], list[int]] = {}
        for e in g0.edges:
            groups0.setdefault((vmap[e.low], vmap[e.high]), []).append(e.twist)
        if any(len(groups0.get(k, ())) != len(ids) for k, ids in groups1.items()):
            continue
        for perms in itertools.product(*[itertools.permutations(groups1[k]) for k in keys]):
            t0 = 0
            for k, perm in zip(keys, perms):
                for twist, eid in zip(groups0[k], perm):
                    if twist:
                        t0 |= unit[eid]
            if t0 ^ t1 in orbit:
                return True
    return False


def below_above(graph: LabeledReebGraph) -> dict[str, tuple[int, int]]:
    """Per-vertex (edges arriving from below, edges leaving upward)."""
    return {
        v.id: (sum(e.high == v.id for e in graph.edges), sum(e.low == v.id for e in graph.edges))
        for v in graph.vertices
    }


def skeleton_vectors(
    kinds: dict[int, VertexKind], edges: list[tuple[str, str]]
) -> tuple[int, list[int], list[int]]:
    """(m, gauge generators, parallel-pair vectors 1_e + 1_f) of a skeleton,
    built from its edge list alone; coordinate j sits at bit m - 1 - j."""
    m = len(edges)
    unit = [1 << (m - 1 - j) for j in range(m)]
    incident: dict[str, int] = {}
    for j, (lo, hi) in enumerate(edges):
        incident[lo] = incident.get(lo, 0) | unit[j]
        incident[hi] = incident.get(hi, 0) | unit[j]
    saddle_b = {f"v{r}" for r, k in kinds.items() if k is VertexKind.SADDLE_B}
    gauge = list(incident.values())
    gauge += [unit[j] for j, (lo, hi) in enumerate(edges) if {lo, hi} & saddle_b]
    pairs = [unit[i] | unit[j] for i, j in itertools.combinations(range(m), 2) if edges[i] == edges[j]]
    return m, gauge, pairs


def swap_sensitive(kinds: dict[int, VertexKind], edges: list[tuple[str, str]]) -> bool:
    """True if swapping some parallel pair can change the gauge class, i.e.
    its vector 1_e + 1_f lies outside the gauge span (interlocked cycles)."""
    _, gauge, pairs = skeleton_vectors(kinds, edges)
    rank = gf2_rank(gauge)
    return any(gf2_rank(gauge + [u]) > rank for u in pairs)


def saddle_b_sensitive(kinds: dict[int, VertexKind], edges: list[tuple[str, str]]) -> bool:
    """True if toggling the twist of some edge at a saddle_b vertex alone
    is not a product of vertex flips (the edge lies on a cycle), so that the
    saddle_b rule changes the gauge span."""
    m = len(edges)
    flips: dict[str, int] = {}
    for j, (lo, hi) in enumerate(edges):
        flips[lo] = flips.get(lo, 0) | 1 << (m - 1 - j)
        flips[hi] = flips.get(hi, 0) | 1 << (m - 1 - j)
    saddle_b = {f"v{r}" for r, k in kinds.items() if k is VertexKind.SADDLE_B}
    rank = gf2_rank(flips.values())
    return any(
        gf2_rank([*flips.values(), 1 << (m - 1 - j)]) > rank for j, (lo, hi) in enumerate(edges) if {lo, hi} & saddle_b
    )


def burnside_class_count(kinds: dict[int, VertexKind], edges: list[tuple[str, str]]) -> int:
    """Twist classes of one skeleton up to gauge and parallel-edge swaps.

    The swaps of the parallel pairs U generate a group (Z/2)^|U| acting on
    V/S, V the twist labelings and S the gauge span; the product of the swaps
    in I fixes 2^(m - rank(S + U_I)) classes, and Burnside's lemma averages
    that over all subsets I.
    """
    m, gauge, pairs = skeleton_vectors(kinds, edges)
    fixed = sum(
        2 ** (m - gf2_rank(gauge + list(subset)))
        for r in range(len(pairs) + 1)
        for subset in itertools.combinations(pairs, r)
    )
    count, rest = divmod(fixed, 2 ** len(pairs))
    assert rest == 0, "Burnside sum not divisible by the group order"
    return count


def all_skeletons(s: int) -> Iterator[tuple[dict[int, VertexKind], list[tuple[str, str]]]]:
    """Yield (kinds by rank, edges) of every degree-correct shape with
    exactly s critical vertices, connected or not: the rank-s vertex is a max
    and each lower rank tries max, min, saddle_b, merge and split against the
    dangling ends above it; the ends left after rank 1 close with boundary
    vertices b0, b1, ...  Nothing is pruned.  Within one kind sequence this
    is the census generator's order."""
    shapes = (
        (VertexKind.MAX, 0, 1),
        (VertexKind.MIN, 1, 0),
        (VertexKind.SADDLE_B, 1, 1),
        (VertexKind.SADDLE_P, 1, 2),  # merge
        (VertexKind.SADDLE_P, 2, 1),  # split
    )

    def rec(rank: int, dangling: tuple[str, ...], kinds: dict[int, VertexKind], edges: list[tuple[str, str]]):
        if rank == 0:
            yield dict(kinds), edges + [(f"b{i}", high) for i, high in enumerate(dangling)]
            return
        me = f"v{rank}"
        for kind, consume, open_ in shapes:
            if consume == 0:
                choices = [()]
            elif consume == 1:
                choices = [(h,) for h in sorted(set(dangling))]
            else:  # an unordered pair of ends
                uniq = sorted(set(dangling))
                choices = [(h, h) for h in uniq if dangling.count(h) >= 2]
                choices += list(itertools.combinations(uniq, 2))
            for highs in choices:
                rest = list(dangling)
                for h in highs:
                    rest.remove(h)
                kinds[rank] = kind
                yield from rec(rank - 1, tuple(rest) + (me,) * open_, kinds, edges + [(me, h) for h in highs])
                del kinds[rank]

    yield from rec(s - 1, (f"v{s}",), {s: VertexKind.MAX}, [])


def skeleton_connected(kinds: dict[int, VertexKind], edges: list[tuple[str, str]]) -> bool:
    """Graph search over the skeleton's vertices and edges."""
    nodes = {f"v{r}" for r in kinds} | {lo for lo, _ in edges}
    adjacent: dict[str, set[str]] = {v: set() for v in nodes}
    for lo, hi in edges:
        adjacent[lo].add(hi)
        adjacent[hi].add(lo)
    start = next(iter(nodes))
    seen, todo = {start}, [start]
    while todo:
        for w in adjacent[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return seen == nodes


# (edges below, edges above) that a vertex of each kind may have
DEGREES = {
    VertexKind.MAX: ((1, 0),),
    VertexKind.MIN: ((0, 1),),
    VertexKind.SADDLE_B: ((1, 1),),
    VertexKind.SADDLE_P: ((2, 1), (1, 2)),
}


def matrix_skeletons(s: int) -> Iterator[tuple[tuple[VertexKind, ...], tuple[tuple[int, int], ...]]]:
    """Yield (kinds of ranks 1..s, matrix) for every connected skeleton with
    s critical vertices, one at a time, so that a pass over them holds only
    the matrices of one degree choice.  Ranks pin the critical vertices and
    each boundary vertex has one edge, so a skeleton up to isomorphism is its
    multiset of (low rank, high rank) edges, boundary lows at rank 0: an
    upper-triangular edge-multiplicity matrix.  For every kind sequence with
    a max at rank s and every degree choice of its saddle_p vertices, the
    matrix is filled column by column, breadth first: column j takes as many
    lows as vertex j has edges below, from rank 0 at will and from ranks
    1..j-1 while they have edges above left.  A matrix is kept when every
    edge above is taken and ranks 1..s are connected.  Each is a tuple of
    (low, high) pairs sorted by (high, low), and the matrices of one kind
    sequence come one after another."""
    for lower in itertools.product(DEGREES, repeat=s - 1):
        kinds = (*lower, VertexKind.MAX)
        for degrees in itertools.product(*(DEGREES[kind] for kind in kinds)):
            # edges below the ranks after each column, to bound what is left open
            later = [sum(below for below, _ in degrees[j:]) for j in range(1, s + 1)]
            states: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = [((), ())]
            for j, (below, above) in enumerate(degrees, start=1):
                grown = []
                for left, edges in states:
                    for lows in itertools.combinations_with_replacement(range(j), below):
                        after = list(left) + [above]
                        for low in lows:
                            if low:
                                after[low - 1] -= 1
                        if min(after) >= 0 and sum(after) <= later[j - 1]:
                            grown.append((tuple(after), edges + tuple((low, j) for low in lows)))
                states = grown
            for left, edges in states:
                if not any(left) and ranks_connected(s, edges):
                    yield kinds, edges


def ranks_connected(s: int, edges) -> bool:
    """Whether the edges between ranks 1..s join them all, by union-find."""
    root = list(range(s + 1))

    def find(r: int) -> int:
        while root[r] != r:
            r = root[r]
        return r

    for low, high in edges:
        if low:
            root[find(low)] = find(high)
    return len({find(r) for r in range(1, s + 1)}) == 1


def graph_from_skeleton(
    kinds: dict[int, VertexKind], edges: list[tuple[str, str]], twists: dict[int, int]
) -> LabeledReebGraph:
    """The page of a generated skeleton: critical vertices v1..vs of the
    given kinds, boundary vertices named as in ``edges``, and edge j named
    ej with twist ``twists.get(j, 0)``."""
    vertices = [(f"v{r}", kind, r) for r, kind in kinds.items()]
    vertices += [(low, VertexKind.BOUNDARY, 0) for low, _ in edges if low[0] == "b"]
    return LabeledReebGraph.of(
        vertices, [(f"e{j}", low, high, twists.get(j, 0)) for j, (low, high) in enumerate(edges)]
    )


def named_edges(edges, ends) -> list[tuple[str, str]]:
    """The (low, high) vertex names of the edges of a census walk record:
    its (low rank, high rank, bit) edges from critical vertices, named
    v1..vs by rank, then one edge from each boundary vertex b0, b1, ... up
    to the rank at its position in ``ends``."""
    return [(f"v{low}", f"v{high}") for low, high, _ in edges] + [(f"b{i}", f"v{high}") for i, high in enumerate(ends)]


def valid_skeletons(s: int):
    """(kinds, edges) of every valid skeleton with exactly s critical
    vertices, filtered from the unpruned :func:`all_skeletons`."""
    for kinds, edges in all_skeletons(s):
        if validate_page(graph_from_skeleton(kinds, edges, {})).ok:
            yield kinds, edges


def burnside_stratum_count(s: int) -> int:
    """Page classes with exactly s critical vertices: the Burnside count
    summed over every valid skeleton."""
    return sum(burnside_class_count(kinds, edges) for kinds, edges in valid_skeletons(s))


def matrix_class_count(s: int) -> int:
    """Page classes with exactly s critical vertices: the Burnside count
    summed over the skeletons of :func:`matrix_skeletons`, each named as an
    edge list with critical vertices v1..vs and a fresh boundary vertex b0,
    b1, ... for every edge from rank 0.  It shares no skeleton generator
    with :func:`burnside_stratum_count` or the census."""
    total = 0
    for kinds, matrix in matrix_skeletons(s):
        boundary = (f"b{i}" for i in itertools.count())
        edges = [(f"v{low}" if low else next(boundary), f"v{high}") for low, high in matrix]
        total += burnside_class_count(dict(enumerate(kinds, start=1)), edges)
    return total


def summarize(graph: LabeledReebGraph) -> str:
    """The census summary of a page: its kinds by rank (a saddle_p with two
    edges from below is a merge), its surface and its fiber counts."""
    below = Counter(e.high for e in graph.edges)
    parts = []
    for v in sorted((v for v in graph.vertices if v.kind is not VertexKind.BOUNDARY), key=lambda v: v.rank):
        name = v.kind.value
        if v.kind is VertexKind.SADDLE_P:
            name = "merge" if below[v.id] == 2 else "split"
        parts.append(f"{name}@{v.rank}")
    fibers = ",".join(str(c) for c in fiber_counts_by_levels(graph))
    return f"{' '.join(parts)}; {surface_type(graph).describe()}; c=[{fibers}]"


def census_rows(n: int, graph: LabeledReebGraph, k_max: int) -> list[CensusRow]:
    """The census rows of one page class, built through the public
    functions: one row, or at n = 4 one per clutching 0..k_max of the
    sphere page."""
    clutchings = range(k_max + 1) if n == 4 and is_sphere_page(graph) else range(1)
    rows = []
    for k in clutchings:
        rf = RoundFoldDescriptor(n, graph, k)
        rows.append(
            CensusRow(
                canonical=canonical_form(rf),
                s=graph.s,
                clutching=k,
                summary=summarize(graph),
                manifold=build_total_space(rf),
                directed=page_orientable(graph) and is_directed(rf),
            )
        )
    return rows


def reference_validate_page_data(vertices, edges) -> ValidationReport:
    """The report of ``pages._validate_page_data`` on these (id, kind, rank)
    vertices and (id, low, high, twist) edges, one pass per invariant, with a
    graph search for connectivity.  Only ids of type str are counted for
    repeats or named by an edge end; an id or an end that is no str, or a
    kind that is no VertexKind member, is never hashed."""
    bad: list[Violation] = []

    for code, what, items in (
        ("duplicate_vertex_id", "vertex", vertices),
        ("duplicate_edge_id", "edge", edges),
    ):
        ids = [x[0] for x in items if type(x[0]) is str]
        if len(set(ids)) < len(ids):
            dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
            bad.append(Violation(code, f"duplicate {what} ids {dupes}", tuple(dupes)))
    if bad:
        return ValidationReport(tuple(bad))

    for vid, kind, rank in vertices:
        if type(vid) is not str or len(vid) == 0:
            bad.append(Violation("bad_id", f"vertex id {vid!r} must be a non-empty string", (vid,)))
        # a member itself, not a value equal to one: VertexKind.MAX == "max"
        if not any(kind is member for member in VertexKind):
            bad.append(Violation("bad_kind", f"vertex {vid} kind must be a VertexKind, got {kind!r}", (vid,)))
        if type(rank) is not int:
            bad.append(Violation("bad_rank", f"vertex {vid} rank must be an int, got {rank!r}", (vid,)))
    rank_of = {vid: rank for vid, _, rank in vertices if type(vid) is str}
    for eid, low, high, twist in edges:
        if type(eid) is not str or len(eid) == 0:
            bad.append(Violation("bad_id", f"edge id {eid!r} must be a non-empty string", (eid,)))
        for end in (low, high):
            if not isinstance(end, str) or end not in rank_of:
                bad.append(Violation("unknown_endpoint", f"edge {eid} references unknown vertex {end}", (eid, end)))
        if type(twist) is not int or twist not in (0, 1):
            bad.append(Violation("bad_twist", f"edge {eid} twist must be 0 or 1", (eid,)))
    if bad:
        return ValidationReport(tuple(bad))

    criticals = [(vid, kind, rank) for vid, kind, rank in vertices if kind is not VertexKind.BOUNDARY]
    s = len(criticals)
    if s < 1:
        bad.append(Violation("no_critical", "a page has at least one critical vertex", ()))
    for vid, kind, rank in vertices:
        if kind is VertexKind.BOUNDARY and rank != 0:
            bad.append(Violation("boundary_rank", f"boundary vertex {vid} must have rank 0", (vid,)))
    ranks = sorted(rank for _, _, rank in criticals)
    bijective = ranks == list(range(1, s + 1))
    if s >= 1 and not bijective:
        bad.append(
            Violation(
                "rank_bijection",
                f"critical ranks must be exactly 1..{s}, got {ranks}",
                tuple(vid for vid, _, _ in criticals),
            )
        )

    for eid, low, high, _ in edges:
        if rank_of[low] >= rank_of[high]:
            bad.append(Violation("edge_direction", f"edge {eid} must go strictly upward in rank", (eid,)))

    below = Counter(high for _, _, high, _ in edges)
    above = Counter(low for _, low, _, _ in edges)
    for vid, kind, _ in vertices:
        got = (below[vid], above[vid])
        if got not in _KIND_DEGREES[kind]:
            want = " or ".join(f"{b} below / {a} above" for b, a in _KIND_DEGREES[kind])
            message = f"{kind.value} vertex {vid} has {got[0]} below / {got[1]} above, needs {want}"
            bad.append(Violation("degree", message, (vid,)))

    adjacent: dict = {vid: [] for vid in rank_of}
    for _, low, high, _ in edges:
        adjacent[low].append(high)
        adjacent[high].append(low)
    seen = set()
    if adjacent:
        todo = [next(iter(adjacent))]
        seen.add(todo[0])
        while todo:
            for w in adjacent[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    if not adjacent or len(seen) < len(adjacent):
        bad.append(Violation("disconnected", "page graph must be connected", ()))

    if s >= 1 and bijective:
        top_id, top_kind, _ = next(v for v in criticals if v[2] == s)
        if top_kind is not VertexKind.MAX:
            bad.append(
                Violation("top_not_max", f"the rank-{s} vertex must be a max (outermost fold is definite)", (top_id,))
            )

    return ValidationReport(tuple(bad))


_REFERENCE_KIND_NAMES = {k.value: k for k in VertexKind}


def reference_page_problems(text: str, validate: bool) -> tuple[str, ...] | None:
    """The ``PageFormatError`` problems of ``parse_page(text, validate)`` as
    the parser found them when it checked every item field by field, or None
    where it accepts.  ``text`` is valid JSON; page invariants are checked by
    :func:`reference_validate_page_data` on the vertices sorted by (rank, id)
    and the edges sorted by id, as a page stores them."""
    problems: list[str] = []
    data = json.loads(text)
    if not isinstance(data, dict):
        return ("$: document must be a JSON object",)
    extra = set(data) - {"vertices", "edges"}
    if extra:
        problems.append(f"$: unexpected keys {sorted(extra)}")
    for key in ("vertices", "edges"):
        if key not in data:
            problems.append(f"$.{key}: missing")
        elif not isinstance(data[key], list):
            problems.append(f"$.{key}: must be an array")
    if problems:
        return tuple(problems)

    vertices = []
    for i, item in enumerate(data["vertices"]):
        path = f"$.vertices[{i}]"
        if not isinstance(item, dict):
            problems.append(f"{path}: must be an object")
            continue
        vid = item.get("id")
        kind = item.get("kind")
        rank = item.get("rank")
        if not isinstance(vid, str) or not vid:
            problems.append(f"{path}.id: must be a non-empty string")
        if not isinstance(kind, str) or kind not in _REFERENCE_KIND_NAMES:
            problems.append(f"{path}.kind: must be one of {sorted(_REFERENCE_KIND_NAMES)}")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            problems.append(f"{path}.rank: must be a non-negative integer")
        extra = set(item) - {"id", "kind", "rank"}
        if extra:
            problems.append(f"{path}: unexpected keys {sorted(extra)}")
        if not problems:
            vertices.append((vid, _REFERENCE_KIND_NAMES[kind], rank))

    edges = []
    for i, item in enumerate(data["edges"]):
        path = f"$.edges[{i}]"
        if not isinstance(item, dict):
            problems.append(f"{path}: must be an object")
            continue
        eid = item.get("id")
        low = item.get("low")
        high = item.get("high")
        twist = item.get("twist")
        if not isinstance(eid, str) or not eid:
            problems.append(f"{path}.id: must be a non-empty string")
        if not isinstance(low, str):
            problems.append(f"{path}.low: must be a vertex id string")
        if not isinstance(high, str):
            problems.append(f"{path}.high: must be a vertex id string")
        if type(twist) is not int or twist not in (0, 1):
            problems.append(f"{path}.twist: must be 0 or 1")
        extra = set(item) - {"id", "low", "high", "twist"}
        if extra:
            problems.append(f"{path}: unexpected keys {sorted(extra)}")
        if not problems:
            edges.append((eid, low, high, twist))

    if problems:
        return tuple(problems)
    if validate:
        vertices.sort(key=lambda v: (v[2], v[0]))
        edges.sort(key=lambda e: e[0])
        report = reference_validate_page_data(vertices, edges)
        if not report.ok:
            return tuple(f"$: {v.message}" for v in report.violations)
    return None
