"""The closed-form twist block of the canonical encoding against the search
over parallel-edge orderings, plus the size gate it makes reachable, the
gauge graph H of every page's view against the pivots of the per-vertex
rule of the oracles and its parallel pairs against the pages' edges, the
oracles' coset minimum against the exhaustive span, and the union-find
reduction against that coset minimum in any edge order, and in linear time
on a large twisted page."""

from __future__ import annotations

import itertools
import random
import time
import timeit
from hashlib import sha256

import pytest
from oracles import (
    burnside_stratum_count,
    coset_minimum,
    graph_from_skeleton,
    matrix_class_count,
    min_over_orderings_twist_block,
    page_gauge_vectors,
    span_elements,
    swap_sensitive,
    valid_skeletons,
    xor_basis,
)

import roundfold as rf
from roundfold import pages


def twist_block(graph: rf.LabeledReebGraph) -> str:
    return rf.canonical_page_encoding(graph).decode("ascii").split(";T=")[1]


def twisted(graph: rf.LabeledReebGraph, rnd: random.Random) -> rf.LabeledReebGraph:
    return graph.with_twists({e.id: rnd.randint(0, 1) for e in graph.edges})


def assert_search_agrees(s: int, sensitive_only: bool) -> int:
    """Compare the encoder's T block with the search on every twist labeling
    of every valid skeleton with s critical vertices (or only of those where
    a pair swap can change the gauge class); return the labelings checked."""
    checked = 0
    for kinds, edges in valid_skeletons(s):
        if sensitive_only and not swap_sensitive(kinds, edges):
            continue
        for twists in itertools.product((0, 1), repeat=len(edges)):
            g = graph_from_skeleton(kinds, edges, dict(enumerate(twists)))
            assert twist_block(g) == min_over_orderings_twist_block(g), g
            checked += 1
    return checked


# at s <= 4 every pair vector lies in the gauge span, so the swaps act
# trivially there; the first skeleton where a swap matters has s = 5
@pytest.mark.parametrize(
    "s, sensitive_only, labelings",
    [(1, False, 2), (2, False, 14), (3, False, 108), (4, False, 1400), (5, True, 128)],
)
def test_closed_form_matches_search(s, sensitive_only, labelings):
    assert assert_search_agrees(s, sensitive_only) == labelings


@pytest.mark.slow
@pytest.mark.parametrize("s, sensitive_only, labelings", [(5, False, 24944), (6, True, 4224)])
def test_closed_form_matches_search_slow(s, sensitive_only, labelings):
    assert assert_search_agrees(s, sensitive_only) == labelings


def test_closed_form_matches_search_on_twisted_closed_pages():
    rnd = random.Random(2021)
    for genus in range(1, 9):
        page = rf.orientable_closed_page(genus)
        for _ in range(4):
            g = twisted(page, rnd)
            assert twist_block(g) == min_over_orderings_twist_block(g), g


def test_genus_60_encodes_within_bound():
    g = twisted(rf.orientable_closed_page(60), random.Random(60))
    t0 = time.perf_counter()
    block = twist_block(g)
    assert time.perf_counter() - t0 < 2.0
    # one bit per edge, and one surviving bit per handle with odd twist sum
    parallel: dict[tuple[str, str], list[int]] = {}
    for e in g.edges:
        parallel.setdefault((e.low, e.high), []).append(e.twist)
    odd_handles = sum(1 for t in parallel.values() if len(t) == 2 and sum(t) % 2)
    assert len(block) == len(g.edges) == 181
    assert block.count("1") == odd_handles > 0


def comb_page(n: int) -> rf.LabeledReebGraph:
    """A min under a tree of n - 1 splits, whose n top ends each merge with
    a fresh merge of two boundary circles, then a chain of merges up to the
    max.  In encoding order every fresh merge's edge joins it to the tree
    of all the ranks below it."""
    vertices, edges = [("v1", "min", 1)], []
    ends, rank = [1], 1
    for _ in range(n - 1):
        rank += 1
        vertices.append((f"v{rank}", "saddle_p", rank))
        edges.append((f"v{ends.pop(0)}", f"v{rank}"))
        ends += [rank, rank]
    for i, end in enumerate(ends):
        fresh, rank = rank + 1, rank + 2
        circles = [f"b{2 * i}", f"b{2 * i + 1}"]
        vertices += [(f"v{fresh}", "saddle_p", fresh), (f"v{rank}", "saddle_p", rank)]
        vertices += [(b, "boundary", 0) for b in circles]
        edges += [(b, f"v{fresh}") for b in circles] + [(f"v{end}", f"v{rank}"), (f"v{fresh}", f"v{rank}")]
        if i:
            vertices.append((f"v{rank + 1}", "saddle_p", rank + 1))
            edges += [(f"v{below}", f"v{rank + 1}"), (f"v{rank}", f"v{rank + 1}")]
            rank += 1
        below = rank
    vertices.append((f"v{rank + 1}", "max", rank + 1))
    edges.append((f"v{below}", f"v{rank + 1}"))
    return rf.LabeledReebGraph.of(vertices, [(f"e{k}", low, high, 0) for k, (low, high) in enumerate(edges)])


def test_twist_class_stays_near_linear_when_each_new_rank_joins_the_large_tree():
    # hanging the larger tree under each fresh rank would make every find
    # walk the whole chain of them; union by size keeps the paths short
    g = comb_page(8000)
    assert rf.surface_type(g) == rf.orientable_surface(7999, 16000)
    t0 = time.perf_counter()
    assert rf.twist_class(g.with_twists({e.id: 1 for e in g.edges})).representative > 0
    assert time.perf_counter() - t0 < 1.0


def test_a_twisted_page_reduces_in_linear_time():
    # with every twist 1, a reduction that shifted an int as wide as the
    # page once per edge of H would take time m * |H|: about 0.85 of one
    # validation of the 111,998-edge page, against about 0.13 when it
    # reads and writes one digit per edge
    g = comb_page(16000)
    g = g.with_twists({e.id: 1 for e in g.edges})
    assert sha256(rf.canonical_page_encoding(g)).hexdigest() == (
        "8d36b1371389be55d44470d9a2d154a758d865cb6779e66b0c5f787b3555ed46"
    )
    assert sha256(f"{rf.twist_class(g).representative:x}".encode()).hexdigest() == (
        "779be37fb2302217bd6bbe26d6c1e3ab7d5ad0fb2f0d697cd369ae738683781e"
    )
    view = g._view
    reduced = min(timeit.repeat(lambda: pages._reduce(view.h_edges, view.pairs, view.twist_bits(g)), number=1, repeat=3))
    validated = min(timeit.repeat(lambda: rf.validate_page(g), number=1, repeat=3))
    assert reduced < 0.4 * validated


def test_coset_representative_is_the_coset_minimum():
    # the oracles' coset representative, which the reduction is checked
    # against below, is the least point of the exhaustive coset
    rnd = random.Random(2111)
    for _ in range(500):
        width = rnd.randint(1, 8)
        gens = [rnd.getrandbits(width) for _ in range(rnd.randint(0, 6))]
        v = rnd.getrandbits(width)
        least = min(v ^ x for x in span_elements(gens))
        assert coset_minimum(v, xor_basis(gens)) == least, (gens, v)


@pytest.mark.parametrize("s, classes", [(1, 1), (2, 3), (3, 9), (4, 43), (5, 287), (6, 2480)])
def test_burnside_count_matches_published_classes(s, classes):
    assert burnside_stratum_count(s) == classes


@pytest.mark.slow
def test_burnside_count_s7():
    assert burnside_stratum_count(7) == 26964


@pytest.mark.parametrize(
    "s, classes",
    [(1, 1), (2, 3), (3, 9), (4, 43), (5, 287), (6, 2480), pytest.param(7, 26964, marks=pytest.mark.slow)],
)
def test_burnside_count_over_the_matrix_skeletons_matches_published_classes(s, classes):
    # the same counts from skeletons that the census walk did not generate
    assert matrix_class_count(s) == classes


GAUGE_PAGES = [
    rf.disk_page(),
    rf.sphere_page(),
    rf.annulus_page(),
    rf.moebius_page(),
    rf.directed_page(3),
    rf.handle_page(2, 1),
    rf.orientable_closed_page(2),
    rf.nonorientable_closed_page(3),
    rf.klein_page(),
] + [graph_from_skeleton(kinds, edges, {}) for s in range(1, 6) for kinds, edges in valid_skeletons(s)]


def oracle_pivots(graph: rf.LabeledReebGraph, order) -> set[int]:
    return {b.bit_length() - 1 for b in xor_basis(page_gauge_vectors(graph, order))}


def forest_bits(h_edges) -> set[int]:
    """The bits of the greedy spanning forest of these (low, high, bit)
    edges in their order: those that join two components as they come."""
    component: dict[int, set[int]] = {}
    bits = set()
    for low, high, bit in h_edges:
        a, b = component.setdefault(low, {low}), component.setdefault(high, {high})
        if a is not b:
            a |= b
            component.update(dict.fromkeys(b, a))
            bits.add(bit)
    return bits


def test_view_and_layout_gauge_spans_follow_the_per_vertex_rule():
    # the per-vertex rule pivots on every edge outside H and on the greedy
    # spanning forest of H in encoding order
    assert len(GAUGE_PAGES) == 9 + 1 + 3 + 8 + 37 + 233
    for g in GAUGE_PAGES:
        order, h = g._view.order, g._view.h_edges
        m = len(order)
        ranks = {v.id: v.rank for v in g.vertices}
        ends = {e.id: (ranks[e.low], ranks[e.high]) for e in g.edges}
        assert [bit for *_, bit in h] == sorted([bit for *_, bit in h], reverse=True), g
        assert all(ends[order[m - 1 - bit]] == (low, high) for low, high, bit in h), g
        outside = set(range(m)) - {bit for *_, bit in h}
        assert outside | forest_bits(h) == oracle_pivots(g, order), g
        # the view's pairs are every pair of edges that share both ends, and
        # each runs from a saddle_p up to a saddle_p
        assert list(g._view.pairs) == h_edges_and_pairs(g, order)[1], g
        kind = {v.id: v.kind for v in g.vertices}
        edge = {e.id: e for e in g.edges}
        for pair in g._view.pairs:
            for bit in pair:
                e = edge[order[m - 1 - bit]]
                assert kind[e.low] is kind[e.high] is rf.VertexKind.SADDLE_P, g


def h_edges_and_pairs(graph: rf.LabeledReebGraph, order) -> tuple[list, list]:
    """The (low rank, high rank, bit) of the edges of H, between critical
    vertices other than saddle_b, with bits of ``order`` (coordinate j at
    bit m - 1 - j), sorted by bit from the highest, and the (bit of the
    first edge, bit of the second edge) of the pairs of parallel edges, in
    the order of their first edges, from the vertices and edges alone."""
    m = len(order)
    vertex = {v.id: v for v in graph.vertices}
    edge = {e.id: e for e in graph.edges}
    outside = (rf.VertexKind.BOUNDARY, rf.VertexKind.SADDLE_B)
    h_edges, parallel = [], {}
    for j, eid in enumerate(order):
        low, high = vertex[edge[eid].low], vertex[edge[eid].high]
        if low.kind not in outside and high.kind not in outside:
            h_edges.append((low.rank, high.rank, m - 1 - j))
        parallel.setdefault((low.id, high.id), []).append(m - 1 - j)
    return h_edges, [tuple(bits) for bits in parallel.values() if len(bits) == 2]


def assert_reduction_is_the_coset_minimum(graph: rf.LabeledReebGraph, rnd: random.Random, labelings: int) -> None:
    order = [e.id for e in graph.edges]
    rnd.shuffle(order)
    h_edges, pairs = h_edges_and_pairs(graph, order)
    gauge = page_gauge_vectors(graph, order)
    basis = xor_basis(gauge)
    m = len(order)
    for _ in range(labelings):
        t = rnd.getrandbits(m)
        swaps = [1 << e | 1 << f for e, f in pairs if t >> e & 1 != t >> f & 1]
        # the reduction reads and writes one binary digit per edge, the
        # first edge of the order first
        for some_pairs, span in [((), basis), (pairs, xor_basis(gauge + swaps))]:
            least = pages._reduce(h_edges, some_pairs, f"{t:0{m}b}")
            assert len(least) == m and set(least) <= {"0", "1"}, (graph, order, t)
            assert int(least, 2) == coset_minimum(t, span), (graph, order, t)


def test_coset_representative_is_the_coset_minimum_in_any_edge_order():
    # the union-find reduction, fed a page's H edges and parallel pairs with
    # the bits of a shuffled edge order, is the least point of the coset of
    # the per-vertex gauge span, with and without the unequal pairs' vectors
    rnd = random.Random(36)
    for g in rf.enumerate_pages(6):
        assert_reduction_is_the_coset_minimum(g, rnd, 2)
    families = [rf.orientable_closed_page(genus) for genus in (1, 2, 5, 20, 100)]
    families += [rf.nonorientable_closed_page(k) for k in (1, 4, 150)]
    families += [rf.directed_page(s) for s in (2, 150)] + [rf.handle_page(60, 40), rf.klein_page()]
    assert max(len(g.edges) for g in families) == 301
    for g in families:
        assert_reduction_is_the_coset_minimum(g, rnd, 3)
