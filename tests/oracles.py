"""Independent oracles used to compute expected test values.

Nothing here reuses the library's decision procedures: span membership is
exhaustive subset XOR, fiber counts are re-derived from scratch, surface
bookkeeping comes from the classification formulas, the generate-all page
enumeration builds every labeled graph directly from degree shapes, and the
Burnside class count has its own gauge vectors and GF(2) rank.  The one
exception is ``min_over_orderings_twist_block``: the search over parallel-edge
orderings that the encoder ran before its closed form, kept as a reference.
"""

from __future__ import annotations

import itertools

from roundfold import Edge, LabeledReebGraph, Vertex, VertexKind, gf2, validate_page
from roundfold.census import _graph_from_skeleton, _skeletons
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


def valid_skeletons(s: int):
    """(kinds, edges) of every valid skeleton the enumerator generates with
    exactly s critical vertices."""
    for kinds, edges in _skeletons(s):
        if validate_page(_graph_from_skeleton(kinds, edges, {})).ok:
            yield kinds, edges


def burnside_stratum_count(s: int) -> int:
    """Page classes with exactly s critical vertices: the Burnside count
    summed over every valid skeleton."""
    return sum(burnside_class_count(kinds, edges) for kinds, edges in valid_skeletons(s))
