"""Page graph invariants, gauge classes, and isomorphism."""

from __future__ import annotations

import itertools
import time

import pytest
from oracles import (
    below_above,
    euler_nonorientable,
    euler_orientable,
    fiber_counts_by_levels,
    subset_xor_member,
)

import roundfold as rf
from roundfold import LabeledReebGraph, VertexKind
from roundfold.pages import gauge_generators


def torus_page():
    return rf.orientable_closed_page(1)


ALL_BUILDERS = [
    rf.disk_page(),
    rf.sphere_page(),
    rf.annulus_page(),
    rf.moebius_page(),
    rf.klein_page(),
    rf.directed_page(3),
    rf.orientable_closed_page(2),
    rf.nonorientable_closed_page(1),
    rf.handle_page(2, 1),
]


def test_builders_are_valid():
    for g in ALL_BUILDERS:
        assert rf.validate_page(g).ok, rf.validate_page(g)


def test_smallest_legal_page_is_the_disk():
    assert rf.validate_page(rf.disk_page()).ok


def test_disconnected_page_rejected():
    g = LabeledReebGraph.of(
        [
            ("b0", "boundary", 0),
            ("b1", "boundary", 0),
            ("v1", "max", 1),
            ("v2", "max", 2),
        ],
        [("e0", "b0", "v1", 0), ("e1", "b1", "v2", 0)],
    )
    report = rf.validate_page(g)
    assert not report.ok
    assert any(v.code == "disconnected" for v in report.violations)


def test_top_vertex_must_be_max():
    # capping a top-rank merge is impossible: its upward edge has no vertex
    # left to land on, so the merge-at-top graph must be rejected
    g = LabeledReebGraph.of(
        [
            ("b0", "boundary", 0),
            ("b1", "boundary", 0),
            ("b2", "boundary", 0),
            ("v1", "saddle_p", 1),
        ],
        [("e0", "b0", "v1", 0), ("e1", "b1", "v1", 0), ("e2", "v1", "b2", 0)],
    )
    report = rf.validate_page(g)
    assert not report.ok


def test_rank_bijection_enforced():
    g = LabeledReebGraph.of(
        [("v1", "min", 1), ("v2", "max", 3)],
        [("e0", "v1", "v2", 0)],
    )
    report = rf.validate_page(g)
    assert any(v.code == "rank_bijection" for v in report.violations)


def test_boundary_rank_must_be_zero():
    g = LabeledReebGraph.of(
        [("b0", "boundary", 1), ("v2", "max", 2)],
        [("e0", "b0", "v2", 0)],
    )
    assert not rf.validate_page(g).ok


def test_edge_must_go_upward():
    g = LabeledReebGraph.of(
        [("v1", "min", 1), ("v2", "max", 2)],
        [("e0", "v2", "v1", 0)],
    )
    report = rf.validate_page(g)
    assert any(v.code == "edge_direction" for v in report.violations)


def test_degree_constraints():
    g = LabeledReebGraph.of(
        [("v1", "min", 1), ("v2", "saddle_b", 2), ("v3", "max", 3), ("v4", "max", 4)],
        [("e0", "v1", "v2", 0), ("e1", "v2", "v3", 0), ("e2", "v2", "v4", 0)],
    )
    report = rf.validate_page(g)
    assert any(v.code == "degree" for v in report.violations)


def test_duplicate_ids_reported_in_linear_time():
    g = LabeledReebGraph.of(
        [(f"v{i % 100}", "max", 1) for i in range(20_000)],
        [(f"e{i % 100}", "v0", "v1", 0) for i in range(20_000)],
    )
    t0 = time.perf_counter()
    report = rf.validate_page(g)
    assert time.perf_counter() - t0 < 1.0
    assert [v.code for v in report.violations] == ["duplicate_vertex_id", "duplicate_edge_id"]
    vertex_dupes = tuple(sorted(f"v{i}" for i in range(100)))
    assert report.violations[0].ids == vertex_dupes
    assert report.violations[0].message == f"duplicate vertex ids {list(vertex_dupes)}"


# -- euler characteristic ---------------------------------------------------

def test_page_euler_disk():
    assert rf.page_euler(rf.disk_page()) == 1


def test_page_euler_torus_matches_handle_count():
    assert rf.page_euler(torus_page()) == euler_orientable(genus=1, boundary=0)


def test_page_euler_moebius():
    # Moebius band: one crosscap, one boundary circle
    assert rf.page_euler(rf.moebius_page()) == euler_nonorientable(1, 1)


def test_page_euler_projective_plane():
    assert rf.page_euler(rf.nonorientable_closed_page(1)) == euler_nonorientable(1, 0)


# -- boundary count ---------------------------------------------------------

def test_boundary_counts():
    assert rf.boundary_count(rf.disk_page()) == 1
    assert rf.boundary_count(torus_page()) == 0
    # telescoping: the innermost fiber count of the directed page equals s
    g = rf.directed_page(3)
    assert rf.boundary_count(g) == fiber_counts_by_levels(g)[0] == 3


# -- orientability ----------------------------------------------------------

def test_page_orientable():
    torus = torus_page()
    assert rf.page_orientable(torus)
    assert rf.page_euler(torus) == euler_orientable(1, 0)
    klein = rf.klein_page()
    assert not rf.page_orientable(klein)
    assert rf.page_euler(klein) == euler_nonorientable(2, 0)
    assert not rf.page_orientable(rf.moebius_page())


# -- surface type -----------------------------------------------------------

def test_surface_types():
    st = rf.surface_type(rf.sphere_page())
    assert st.closed and st.orientable and st.genus == 0
    st = rf.surface_type(rf.klein_page())
    assert st.closed and not st.orientable and st.crosscaps == 2
    st = rf.surface_type(rf.annulus_page())
    assert st.boundary_circles == 2 and st.orientable and st.genus == 0


def test_surface_euler_consistency_everywhere():
    for g in rf.enumerate_pages(4):
        st = rf.surface_type(g)
        assert st.euler == rf.page_euler(g)
        assert st.boundary_circles == rf.boundary_count(g)
        assert st.closed == (rf.boundary_count(g) == 0)


# -- twist gauge classes ----------------------------------------------------

def _edge_order(g):
    return [e.id for e in g.edges]


def test_twist_equivalent_reflexive():
    for g in ALL_BUILDERS:
        t = g.twist_labeling()
        assert rf.twist_equivalent(g, t, t)


def test_twist_equivalent_torus_examples():
    g = torus_page()
    parallel = sorted(
        e.id
        for e in g.edges
        if sum(1 for x in g.edges if (x.low, x.high) == (e.low, e.high)) == 2
    )
    zero = {e.id: 0 for e in g.edges}
    both = dict(zero, **{parallel[0]: 1, parallel[1]: 1})
    one = dict(zero, **{parallel[0]: 1})
    # oracle: exhaustive subset XOR over the move vectors
    order = _edge_order(g)
    gens = gauge_generators(g, order)

    def bits(lab):
        return sum(1 << (len(order) - 1 - j) for j, eid in enumerate(order) if lab[eid])

    assert subset_xor_member(gens, bits(zero) ^ bits(both))
    assert not subset_xor_member(gens, bits(zero) ^ bits(one))
    assert rf.twist_equivalent(g, zero, both)
    assert not rf.twist_equivalent(g, zero, one)


def test_twist_equivalent_agrees_with_subset_xor_everywhere():
    for g in rf.enumerate_pages(3):
        order = _edge_order(g)
        gens = gauge_generators(g, order)
        m = len(order)
        for t0_bits, t1_bits in itertools.product(range(2**m), repeat=2):
            t0 = {eid: (t0_bits >> (m - 1 - j)) & 1 for j, eid in enumerate(order)}
            t1 = {eid: (t1_bits >> (m - 1 - j)) & 1 for j, eid in enumerate(order)}
            assert rf.twist_equivalent(g, t0, t1) == subset_xor_member(gens, t0_bits ^ t1_bits)


def test_twist_labeling_domain_mismatch_rejected():
    g = rf.disk_page()
    with pytest.raises(rf.RoundFoldError):
        rf.twist_equivalent(g, {"e0": 0}, {"bogus": 0})


def test_gauge_moves_preserve_orientability_and_surface_type():
    for g in rf.enumerate_pages(4):
        order = _edge_order(g)
        m = len(order)
        labeling = g.twist_labeling()
        base_bits = sum(1 << (m - 1 - j) for j, eid in enumerate(order) if labeling[eid])
        for gen in gauge_generators(g, order)[:6]:
            moved = base_bits ^ gen
            t = {eid: (moved >> (m - 1 - j)) & 1 for j, eid in enumerate(order)}
            g2 = g.with_twists(t)
            assert rf.page_orientable(g2) == rf.page_orientable(g)
            assert rf.surface_type(g2) == rf.surface_type(g)


def _interlocked_cycles(twists):
    # split@1 feeds split@2 and merge@4; the parallel pair v2==v3 sits on a
    # second independent cycle, so the pair's symmetric difference is not a
    # cut and swapping the pair genuinely changes the gauge coset
    return LabeledReebGraph.of(
        [
            ("b0", "boundary", 0),
            ("v1", "saddle_p", 1),
            ("v2", "saddle_p", 2),
            ("v3", "saddle_p", 3),
            ("v4", "saddle_p", 4),
            ("v5", "max", 5),
        ],
        [
            ("e0", "b0", "v1", 0),
            ("ea", "v1", "v2", twists.get("ea", 0)),
            ("ec", "v1", "v4", twists.get("ec", 0)),
            ("ep", "v2", "v3", twists.get("ep", 0)),
            ("eq", "v2", "v3", twists.get("eq", 0)),
            ("e4", "v3", "v4", twists.get("e4", 0)),
            ("e5", "v4", "v5", 0),
        ],
    )


def test_parallel_pair_on_interlocked_cycles():
    base = _interlocked_cycles({})
    assert rf.surface_type(base) == rf.orientable_surface(2, 1)
    on_p, on_q = _interlocked_cycles({"ep": 1}), _interlocked_cycles({"eq": 1})
    # the pair swap is the only symmetry identifying these two labelings
    assert rf.page_isomorphic(on_p, on_q)
    assert not rf.page_isomorphic(base, on_p)
    assert not rf.page_isomorphic(base, _interlocked_cycles({"ep": 1, "eq": 1}))
    assert not rf.page_isomorphic(on_p, _interlocked_cycles({"ec": 1}))


def test_twist_class_values():
    g = torus_page()
    assert rf.twist_class(g).representative == 0
    klein = rf.klein_page()
    assert rf.twist_class(klein).representative != 0
    assert rf.twist_class(g, klein.twist_labeling()) == rf.twist_class(klein)
    assert rf.twist_class(rf.moebius_page()).representative == 0


def test_saddle_b_does_not_kill_distant_cycle_classes():
    # a handle attached above a saddle_b keeps its own twist class: the
    # one-edge moves at the saddle_b touch only its incident edges
    base = LabeledReebGraph.of(
        [
            ("b0", "boundary", 0),
            ("v1", "saddle_b", 1),
            ("v2", "saddle_p", 2),
            ("v3", "saddle_p", 3),
            ("v4", "max", 4),
        ],
        [
            ("e0", "b0", "v1", 0),
            ("e1", "v1", "v2", 0),
            ("e2", "v2", "v3", 0),
            ("e3", "v2", "v3", 0),
            ("e4", "v3", "v4", 0),
        ],
    )
    twisted = base.with_twists({"e0": 0, "e1": 0, "e2": 1, "e3": 0, "e4": 0})
    assert rf.surface_type(base) == rf.surface_type(twisted)
    assert not rf.twist_equivalent(base, base.twist_labeling(), twisted.twist_labeling())
    assert not rf.page_isomorphic(base, twisted)


# -- fiber counts -----------------------------------------------------------

def test_regular_fiber_counts_examples():
    assert rf.regular_fiber_counts(torus_page()) == [0, 1, 2, 1, 0]
    assert rf.regular_fiber_counts(rf.disk_page()) == [1, 0]
    assert rf.regular_fiber_counts(rf.moebius_page()) == [1, 1, 0]


def test_fiber_counts_match_level_walk_everywhere():
    for g in rf.enumerate_pages(4):
        assert rf.regular_fiber_counts(g) == fiber_counts_by_levels(g)


def test_fiber_count_steps():
    # one step per critical rank: size 1 except at a saddle_b, where it is 0
    for g in rf.enumerate_pages(4):
        counts = rf.regular_fiber_counts(g)
        crit = g.critical_by_rank()
        for r in range(1, g.s + 1):
            step = abs(counts[r] - counts[r - 1])
            expected = 0 if crit[r].kind is VertexKind.SADDLE_B else 1
            assert step == expected
        assert counts[0] == rf.boundary_count(g)
        assert counts[-1] == 0


# -- isomorphism ------------------------------------------------------------

def _permute_ids(g, tag):
    vmap = {v.id: f"{tag}{i}" for i, v in enumerate(reversed(g.vertices))}
    vs = [(vmap[v.id], v.kind, v.rank) for v in g.vertices]
    es = [(f"{tag}e{i}", vmap[e.low], vmap[e.high], e.twist) for i, e in enumerate(reversed(g.edges))]
    return LabeledReebGraph.of(vs, es)


def test_isomorphic_to_id_permuted_copy():
    for g in ALL_BUILDERS:
        assert rf.page_isomorphic(g, _permute_ids(g, "w"))


def test_torus_klein_not_isomorphic():
    assert not rf.page_isomorphic(torus_page(), rf.klein_page())


def test_annulus_moebius_not_isomorphic():
    assert not rf.page_isomorphic(rf.annulus_page(), rf.moebius_page())


def test_isomorphism_is_equivalence_relation():
    pages = list(rf.enumerate_pages(3))
    sample = pages + [_permute_ids(g, "z") for g in pages]
    for g in sample:
        assert rf.page_isomorphic(g, g)
    for g0, g1 in itertools.combinations(sample, 2):
        assert rf.page_isomorphic(g0, g1) == rf.page_isomorphic(g1, g0)
    # transitivity through the permuted copies
    for g0 in pages:
        g1, g2 = _permute_ids(g0, "y"), _permute_ids(g0, "x")
        assert rf.page_isomorphic(g0, g1) and rf.page_isomorphic(g1, g2)
        assert rf.page_isomorphic(g0, g2)


def test_canonical_encoding_invariant_under_id_permutation():
    for g in ALL_BUILDERS:
        assert rf.canonical_page_encoding(g) == rf.canonical_page_encoding(_permute_ids(g, "q"))


# -- builders ---------------------------------------------------------------

def test_directed_builder_shape():
    g = rf.directed_page(3)
    st = rf.surface_type(g)
    assert (st.boundary_circles, st.orientable, st.genus) == (3, True, 0)
    kinds = sorted(v.kind.value for v in g.vertices if v.rank > 0)
    assert kinds == ["max", "saddle_p", "saddle_p"]


def test_orientable_closed_builder():
    for genus in range(4):
        st = rf.surface_type(rf.orientable_closed_page(genus))
        assert st == rf.orientable_surface(genus)


def test_nonorientable_closed_builder():
    g = rf.nonorientable_closed_page(1)
    assert rf.page_euler(g) == 1  # projective plane
    for k in range(1, 5):
        st = rf.surface_type(rf.nonorientable_closed_page(k))
        assert st == rf.nonorientable_surface(k)


def test_handle_page_builder():
    for a in range(4):
        for b in range(4):
            if a + b == 0:
                continue
            st = rf.surface_type(rf.handle_page(a, b))
            assert st.euler == 1 - a - b
            assert st.orientable == (b == 0)
            assert not st.closed


def test_builder_param_errors():
    with pytest.raises(rf.RoundFoldError):
        rf.directed_page(0)
    with pytest.raises(rf.RoundFoldError):
        rf.orientable_closed_page(-1)
    with pytest.raises(rf.RoundFoldError):
        rf.nonorientable_closed_page(0)
    with pytest.raises(rf.RoundFoldError):
        rf.standard_page("nonsense")


def test_standard_page_dispatch():
    assert rf.page_isomorphic(rf.standard_page("disk"), rf.disk_page())
    assert rf.page_isomorphic(rf.standard_page("directed", 3), rf.directed_page(3))
    assert rf.page_isomorphic(rf.standard_page("handle_page", 1, 1), rf.handle_page(1, 1))


def test_directed_shape_equivalence():
    # a page is all max/merge/boundary iff it has one max, s-1 merges,
    # s boundary circles, genus zero, orientable
    for g in rf.enumerate_pages(5):
        deg = below_above(g)
        shape = all(
            v.kind in (VertexKind.BOUNDARY, VertexKind.MAX)
            or (v.kind is VertexKind.SADDLE_P and deg[v.id] == (2, 1))
            for v in g.vertices
        )
        st = rf.surface_type(g)
        n_max = sum(1 for v in g.vertices if v.kind is VertexKind.MAX)
        chi_shape = (
            n_max == 1
            and sum(1 for v in g.vertices if v.kind is VertexKind.SADDLE_P) == g.s - 1
            and st.boundary_circles == g.s
            and st.orientable
            and st.genus == 0
        )
        assert shape == chi_shape


def test_serialization_order_independence():
    g0 = LabeledReebGraph.of(
        [("v1", "min", 1), ("v2", "max", 2)], [("e0", "v1", "v2", 0)]
    )
    g1 = LabeledReebGraph.of(
        [("v2", "max", 2), ("v1", "min", 1)], [("e0", "v1", "v2", 0)]
    )
    assert g0 == g1


def test_vertex_lookup_is_deprecated():
    g = rf.disk_page()
    with pytest.warns(DeprecationWarning, match="LabeledReebGraph.vertex") as record:
        assert g.vertex("v1") == g.vertices[1]
    assert [w.filename for w in record] == [__file__]
    with pytest.warns(DeprecationWarning), pytest.raises(KeyError):
        g.vertex("nope")
