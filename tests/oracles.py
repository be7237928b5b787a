"""Independent oracles used to compute expected test values.

Nothing here reuses the library's decision procedures: span membership is
exhaustive subset XOR, fiber counts are re-derived from scratch, surface
bookkeeping comes from the classification formulas, the generate-all page
enumeration builds every labeled graph directly from degree shapes, the
matrix enumerator lists skeletons as edge-multiplicity matrices filled rank
by rank, and the Burnside class count has its own gauge vectors and GF(2)
rank; summed over the matrix skeletons, it checks the published class
counts without the census's top-down skeleton walk.  The exceptions are
references kept from earlier versions of the library:
``min_over_orderings_twist_block``, the search over parallel-edge orderings
that the encoder ran before its closed form, and ``census_rows``, which
builds a census row through the public functions of one page, as the
census did before it worked per skeleton.
"""

from __future__ import annotations

import itertools
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
    gf2,
    is_directed,
    is_sphere_page,
    page_orientable,
    surface_type,
    validate_page,
)
from roundfold.pages import gauge_generators

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
    for r in range(len(vectors) + 1):
        for combo in itertools.combinations(vectors, r):
            acc = 0
            for v in combo:
                acc ^= v
            if acc == target:
                return True
    return False


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
    elimination per ordering (2^g eliminations on a genus-g page)."""
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
        rep = gf2.coset_representative(t, gf2.rref(gauge_generators(graph, order)))
        if best is None or rep < best:
            best = rep
    return format(best, f"0{m}b") if m else ""


def gf2_rank(vectors) -> int:
    """GF(2) rank of int bitmasks through an XOR basis kept in decreasing
    order, so its members have distinct leading bits."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


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


def matrix_skeletons(s: int) -> dict[tuple[VertexKind, ...], list[tuple[tuple[int, int], ...]]]:
    """The connected skeletons with s critical vertices, by their kinds of
    ranks 1..s.  Ranks pin the critical vertices and each boundary vertex
    has one edge, so a skeleton up to isomorphism is its multiset of (low
    rank, high rank) edges, boundary lows at rank 0: an upper-triangular
    edge-multiplicity matrix.  For every kind sequence with a max at rank s
    and every degree choice of its saddle_p vertices, the matrix is filled
    column by column, breadth first: column j takes as many lows as vertex
    j has edges below, from rank 0 at will and from ranks 1..j-1 while they
    have edges above left.  A matrix is kept when every edge above is taken
    and ranks 1..s are connected.  Each is a tuple of (low, high) pairs
    sorted by (high, low)."""
    found: dict[tuple[VertexKind, ...], list[tuple[tuple[int, int], ...]]] = {}
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
            matrices = [edges for left, edges in states if not any(left) and ranks_connected(s, edges)]
            if matrices:
                found.setdefault(kinds, []).extend(matrices)
    return found


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
    for kinds, matrices in matrix_skeletons(s).items():
        by_rank = dict(enumerate(kinds, start=1))
        for matrix in matrices:
            boundary = (f"b{i}" for i in itertools.count())
            edges = [(f"v{low}" if low else next(boundary), f"v{high}") for low, high in matrix]
            total += burnside_class_count(by_rank, edges)
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
