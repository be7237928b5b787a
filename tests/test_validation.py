"""The one-pass page validator reports what the multi-pass reference in
``tests/oracles.py`` reports, on valid pages and on edits of them that
together reach every violation code, and its time is linear in the page
size."""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import named_edges, reference_validate_page_data

import roundfold as rf
from roundfold import Edge, LabeledReebGraph, Vertex, VertexKind, census
from roundfold.pages import _validate_page_data

CODES = {
    "duplicate_vertex_id",
    "duplicate_edge_id",
    "bad_id",
    "bad_kind",
    "bad_rank",
    "unknown_endpoint",
    "bad_twist",
    "no_critical",
    "boundary_rank",
    "rank_bijection",
    "edge_direction",
    "degree",
    "disconnected",
    "top_not_max",
}


def plain(graph: LabeledReebGraph) -> tuple[list, list]:
    return (
        [(v.id, v.kind, v.rank) for v in graph.vertices],
        [(e.id, e.low, e.high, e.twist) for e in graph.edges],
    )


def skeleton_data(s: int) -> list[tuple[list, list]]:
    """The plain data of each skeleton that the census walks in stratum s,
    named as ``enumerate_pages`` names its pages."""
    found = []
    for kinds, _ in census._kind_sequences(s):
        for edges, ends, *_ in census._skeletons(s, kinds):
            vertices = [(f"v{r}", kind, r) for r, kind in kinds.items()]
            vertices += [(f"b{i}", VertexKind.BOUNDARY, 0) for i in range(len(ends))]
            named = named_edges(edges, ends)
            found.append((vertices, [(f"e{j}", low, high, 0) for j, (low, high) in enumerate(named)]))
    return found


BUILDER_PAGES = [
    plain(g)
    for g in (
        rf.disk_page(),
        rf.sphere_page(),
        rf.annulus_page(),
        rf.moebius_page(),
        rf.directed_page(3),
        rf.handle_page(2, 1),
        rf.orientable_closed_page(2),
        rf.nonorientable_closed_page(3),
        rf.klein_page(),
    )
]
BASES = BUILDER_PAGES + [page for s in range(1, 5) for page in skeleton_data(s)]


def single_edits(vertices: list, edges: list) -> list[tuple[list, list]]:
    """Every page one edit away from this one: an edge's ends swapped, a
    vertex's kind or rank changed (a kind possibly to "max", None or an
    unhashable list, a rank possibly to True or 2.0), an edge
    or a vertex dropped, an edge or a vertex added (under a new id or a
    taken one, an edge possibly to an unknown vertex), an edge's twist set
    to 2, an edge's low end set to an unhashable list, or an edge's or a
    vertex's id set to "", 0 or an unhashable list."""
    ids = [vid for vid, _, _ in vertices]
    ranks = range(-1, len(vertices) + 2)
    found = []
    for k, (eid, low, high, twist) in enumerate(edges):
        found.append((vertices, [*edges[:k], (eid, high, low, twist), *edges[k + 1 :]]))
        found.append((vertices, [*edges[:k], (eid, low, high, 2), *edges[k + 1 :]]))
        found.append((vertices, edges[:k] + edges[k + 1 :]))
        found.append((vertices, [*edges[:k], (eid, [low], high, twist), *edges[k + 1 :]]))
        found += [(vertices, [*edges[:k], (new, low, high, twist), *edges[k + 1 :]]) for new in ("", 0, ["x"])]
    for k, (vid, kind, rank) in enumerate(vertices):
        others = vertices[:k] + vertices[k + 1 :]
        found += [([*others[:k], (vid, new, rank), *others[k:]], edges) for new in VertexKind if new is not kind]
        found += [([*others[:k], (vid, new, rank), *others[k:]], edges) for new in ("max", None, ["x"])]
        found += [([*others[:k], (vid, kind, new), *others[k:]], edges) for new in ranks if new != rank]
        found += [([*others[:k], (vid, kind, new), *others[k:]], edges) for new in (True, 2.0)]
        found += [([*others[:k], (new, kind, rank), *others[k:]], edges) for new in ("", 0, ["x"])]
        found.append((others, edges))
    for vid in ["x", *ids[:1]]:
        found += [([*vertices, (vid, kind, rank)], edges) for kind in VertexKind for rank in (0, 1, len(vertices))]
    for eid in ["x", *[e[0] for e in edges[:1]]]:
        found += [(vertices, [*edges, (eid, low, high, 0)]) for low in [*ids, "zz"] for high in [*ids, "zz"]]
    return found


def test_single_edits_reach_every_code_and_match_the_reference():
    codes = set()
    for vertices, edges in BUILDER_PAGES + [page for s in range(1, 4) for page in skeleton_data(s)]:
        for edited in single_edits(vertices, edges):
            report = _validate_page_data(*edited)
            assert report == reference_validate_page_data(*edited)
            codes |= {v.code for v in report.violations}
    assert codes == CODES
    assert _validate_page_data([], []) == reference_validate_page_data([], [])


def test_skeletons_and_builder_pages_are_valid_for_both():
    for vertices, edges in BUILDER_PAGES + skeleton_data(5):
        assert _validate_page_data(vertices, edges).ok
        assert reference_validate_page_data(vertices, edges).ok


@st.composite
def edited_pages(draw) -> tuple[list, list]:
    page = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(1, 4))):
        page = draw(st.sampled_from(single_edits(*page)))
    return page


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edited_pages())
def test_random_edits_match_the_reference(page):
    assert _validate_page_data(*page) == reference_validate_page_data(*page)


CHAINS = ["saddle_b chain, top-down", "saddle_b chain, shuffled", "merge chain, chain first"]


def chain_page(name: str) -> LabeledReebGraph:
    """A page of 20,000 critical vertices, with its edges listed (the
    validator reads them in id order) in an order that makes a union-find
    without path compression or union by size walk long paths."""
    s = 20_000
    if name.startswith("saddle_b chain"):
        # a min, a chain of saddle_b pieces, a max: edges top-down or shuffled
        vertices = [Vertex("v1", VertexKind.MIN, 1), Vertex(f"v{s}", VertexKind.MAX, s)]
        vertices += [Vertex(f"v{r}", VertexKind.SADDLE_B, r) for r in range(2, s)]
        ends = [(f"v{r}", f"v{r + 1}") for r in range(s - 1, 0, -1)]
        if name.endswith("shuffled"):
            random.Random(0).shuffle(ends)
    else:
        # a chain of merges under a max, one boundary circle for each merge
        # and one more under the lowest: the chain bottom-up, then the
        # boundaries
        vertices = [Vertex(f"v{r}", VertexKind.SADDLE_P, r) for r in range(1, s)]
        vertices += [Vertex(f"v{s}", VertexKind.MAX, s)]
        vertices += [Vertex(f"b{r}", VertexKind.BOUNDARY, 0) for r in range(s)]
        ends = [(f"v{r}", f"v{r + 1}") for r in range(1, s)]
        ends += [("b0", "v1")] + [(f"b{r}", f"v{r}") for r in range(1, s)]
    edges = tuple(Edge(f"e{j:05d}", low, high) for j, (low, high) in enumerate(ends))
    return LabeledReebGraph(tuple(vertices), edges)


@pytest.mark.parametrize("name", CHAINS)
def test_validation_and_encoding_take_linear_time(name):
    page = chain_page(name)
    start = time.perf_counter()
    assert rf.validate_page(page).ok
    validated = time.perf_counter()
    assert rf.canonical_page_encoding(page).startswith(b"P1;s=20000;")
    encoded = time.perf_counter()
    # each takes well under a second; without path compression and union
    # by size, a union-find's time on the merge chain grows with the square
    # of its size, to several seconds
    assert validated - start < 2.0
    assert encoded - validated < 2.0


def test_a_page_view_keeps_memory_linear_in_the_page():
    # on the 40,000-edge merge chain a view keeps a few small objects per
    # edge, about 6 MB; an int of up to m bits for each of its m edges
    # would keep about m * m / 16 bytes, over 100 MB.  The 24,001 edges of
    # genus 8000 hold 8000 parallel pairs: kept as two bit positions each,
    # the view keeps about 5 MB; a vector 1_e + 1_f as wide as the page for
    # each pair would add about 13 MB
    for page, most_kept, highest in [
        (chain_page("merge chain, chain first"), 20_000_000, 40_000_000),
        (rf.orientable_closed_page(8000), 10_000_000, 20_000_000),
    ]:
        assert page.report.ok
        tracemalloc.start()
        try:
            page._view
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < most_kept
        assert peak < highest
