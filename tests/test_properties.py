"""Property tests: the canonical form ignores ids, gauge moves and
parallel-edge swaps, and page JSON round-trips exactly.  Pages are twisted
closed pages, twisted skeletons on which a pair swap matters, and census
pages with s <= 5."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import swap_sensitive, valid_skeletons

import roundfold as rf
from roundfold import Edge, LabeledReebGraph, Vertex, VertexKind
from roundfold.census import _graph_from_skeleton

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

CENSUS_PAGES = list(rf.enumerate_pages(5))

# skeletons where some pair swap changes the gauge class; a closed page's
# pairs never do
SWAP_SENSITIVE_SKELETONS = [
    _graph_from_skeleton(kinds, edges, {})
    for s in range(1, 6)
    for kinds, edges in valid_skeletons(s)
    if swap_sensitive(kinds, edges)
]


@st.composite
def twisted_pages(draw) -> LabeledReebGraph:
    page = draw(
        st.one_of(
            st.integers(1, 6).map(rf.orientable_closed_page),
            st.integers(1, 5).map(rf.nonorientable_closed_page),
            st.sampled_from(SWAP_SENSITIVE_SKELETONS),
        )
    )
    twists = draw(st.lists(st.integers(0, 1), min_size=len(page.edges), max_size=len(page.edges)))
    return page.with_twists({e.id: t for e, t in zip(page.edges, twists)})


pages = st.one_of(twisted_pages(), st.sampled_from(CENSUS_PAGES))


def relabeled(graph: LabeledReebGraph, data: st.DataObject) -> LabeledReebGraph:
    """Same page under fresh, shuffled vertex and edge ids."""
    vnames = data.draw(st.permutations([f"x{i}" for i in range(len(graph.vertices))]))
    enames = data.draw(st.permutations([f"y{i}" for i in range(len(graph.edges))]))
    vmap = {v.id: name for v, name in zip(graph.vertices, vnames)}
    vertices = tuple(Vertex(vmap[v.id], v.kind, v.rank) for v in graph.vertices)
    edges = tuple(
        Edge(name, vmap[e.low], vmap[e.high], e.twist) for e, name in zip(graph.edges, enames)
    )
    return LabeledReebGraph(vertices, edges)


def gauge_moved(graph: LabeledReebGraph, data: st.DataObject) -> LabeledReebGraph:
    """Flip the fiber orientation over a subset of vertices, and toggle a
    subset of the edges incident to saddle_b vertices."""
    flipped = {v.id for v in graph.vertices if data.draw(st.booleans())}
    saddle_b = {v.id for v in graph.vertices if v.kind is VertexKind.SADDLE_B}
    toggled = {e.id for e in graph.edges if {e.low, e.high} & saddle_b and data.draw(st.booleans())}
    labeling = {
        e.id: e.twist ^ (e.low in flipped) ^ (e.high in flipped) ^ (e.id in toggled)
        for e in graph.edges
    }
    return graph.with_twists(labeling)


def pairs_swapped(graph: LabeledReebGraph, data: st.DataObject) -> LabeledReebGraph:
    """Exchange the twists within a subset of the parallel-edge pairs."""
    classes: dict[tuple[str, str], list[Edge]] = {}
    for e in graph.edges:
        classes.setdefault((e.low, e.high), []).append(e)
    labeling = graph.twist_labeling()
    for e, f in (c for c in classes.values() if len(c) == 2):
        if data.draw(st.booleans()):
            labeling[e.id], labeling[f.id] = f.twist, e.twist
    return graph.with_twists(labeling)


def form(graph: LabeledReebGraph) -> bytes:
    return rf.canonical_form(rf.RoundFoldDescriptor(5, graph))


@PROPERTY_SETTINGS
@given(pages, st.data())
def test_canonical_form_ignores_relabeling(graph, data):
    assert form(relabeled(graph, data)) == form(graph)


@PROPERTY_SETTINGS
@given(pages, st.data())
def test_canonical_form_ignores_gauge_moves(graph, data):
    assert form(gauge_moved(graph, data)) == form(graph)


@PROPERTY_SETTINGS
@given(pages, st.data())
def test_canonical_form_ignores_parallel_pair_swaps(graph, data):
    assert form(pairs_swapped(graph, data)) == form(graph)


@PROPERTY_SETTINGS
@given(pages, st.data())
def test_parse_serialize_round_trip(graph, data):
    for g in (graph, relabeled(graph, data)):
        assert rf.parse_page(rf.serialize_page(g)) == g
