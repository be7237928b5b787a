"""Property tests: the canonical form ignores ids, gauge moves and
parallel-edge swaps, page JSON round-trips exactly, and the brute-force
isomorphism oracle agrees with the canonical encoding.  Pages are twisted
closed pages, twisted skeletons on which a pair swap matters, twisted
skeletons on which the saddle_b rule matters, and census pages with
s <= 5."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_isomorphic,
    graph_from_skeleton,
    saddle_b_sensitive,
    swap_sensitive,
    valid_skeletons,
)

import roundfold as rf
from roundfold import Edge, LabeledReebGraph, Vertex, VertexKind

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

CENSUS_PAGES = list(rf.enumerate_pages(5))

# skeletons where some pair swap changes the gauge class; a closed page's
# pairs never do
SWAP_SENSITIVE_SKELETONS = [
    graph_from_skeleton(kinds, edges, {})
    for s in range(1, 6)
    for kinds, edges in valid_skeletons(s)
    if swap_sensitive(kinds, edges)
]

# skeletons where toggling an edge at a saddle_b vertex alone is a gauge
# move that no vertex flips make: a census page is a class's first
# candidate, and few of those at s <= 5 have such an edge twisted, so a
# gauge rule without the saddle_b units went unnoticed on them
SADDLE_B_SKELETONS = [
    graph_from_skeleton(kinds, edges, {})
    for s in range(1, 6)
    for kinds, edges in valid_skeletons(s)
    if saddle_b_sensitive(kinds, edges)
]


@st.composite
def twisted(draw, bases: st.SearchStrategy) -> LabeledReebGraph:
    """A page drawn from ``bases``, under random twists."""
    page = draw(bases)
    twists = draw(st.lists(st.integers(0, 1), min_size=len(page.edges), max_size=len(page.edges)))
    return page.with_twists({e.id: t for e, t in zip(page.edges, twists)})


# every one has s <= 5, within the brute-force oracle's limit
skeletons = st.sampled_from(SWAP_SENSITIVE_SKELETONS + SADDLE_B_SKELETONS)
closed = st.one_of(
    st.integers(1, 6).map(rf.orientable_closed_page), st.integers(1, 5).map(rf.nonorientable_closed_page)
)
pages = st.one_of(twisted(st.one_of(closed, skeletons)), st.sampled_from(CENSUS_PAGES))


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


def retwisted(graph: LabeledReebGraph, data: st.DataObject) -> LabeledReebGraph:
    """The same skeleton under fresh random twists."""
    twists = data.draw(st.lists(st.integers(0, 1), min_size=len(graph.edges), max_size=len(graph.edges)))
    return graph.with_twists({e.id: t for e, t in zip(graph.edges, twists)})


@PROPERTY_SETTINGS
@given(st.one_of(st.sampled_from(CENSUS_PAGES), twisted(skeletons)), st.data())
def test_brute_force_oracle_agrees_with_page_isomorphic(graph, data):
    # a moved copy of the page is isomorphic to it; a retwisted one may be,
    # and another census page is not
    other = data.draw(
        st.sampled_from(
            [
                lambda: pairs_swapped(gauge_moved(relabeled(graph, data), data), data),
                lambda: relabeled(retwisted(graph, data), data),
                lambda: data.draw(st.sampled_from(CENSUS_PAGES)),
            ]
        )
    )()
    assert brute_force_isomorphic(graph, other) == rf.page_isomorphic(graph, other)
