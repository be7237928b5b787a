"""A-equivalence decisions and canonical encodings."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from oracles import brute_force_isomorphic

import roundfold as rf
from roundfold import RoundFoldDescriptor


def test_clutching_compared_by_absolute_value():
    sp = rf.sphere_page()
    assert rf.a_equivalent(RoundFoldDescriptor(4, sp, 2), RoundFoldDescriptor(4, sp, -2))
    assert not rf.a_equivalent(RoundFoldDescriptor(4, sp, 1), RoundFoldDescriptor(4, sp, 2))
    assert rf.a_equivalent(RoundFoldDescriptor(4, sp, 0), RoundFoldDescriptor(4, sp, 0))


def test_page_decides_higher_dimensions():
    torus, klein = rf.orientable_closed_page(1), rf.klein_page()
    assert not rf.a_equivalent(RoundFoldDescriptor(5, torus), RoundFoldDescriptor(5, klein))
    relabeled = rf.parse_page(rf.serialize_page(torus))
    assert rf.a_equivalent(RoundFoldDescriptor(5, torus), RoundFoldDescriptor(5, relabeled))


def test_different_dimensions_never_equivalent():
    assert not rf.a_equivalent(
        RoundFoldDescriptor(5, rf.disk_page()), RoundFoldDescriptor(6, rf.disk_page())
    )


def test_invalid_descriptor_rejected():
    with pytest.raises(rf.InvalidDescriptorError):
        rf.a_equivalent(
            RoundFoldDescriptor(5, rf.sphere_page(), 1),
            RoundFoldDescriptor(5, rf.sphere_page(), 1),
        )


def _census_descriptors(n, s_max, k_max=2):
    out = []
    for g in rf.enumerate_pages(s_max):
        ks = range(0, k_max + 1) if (n == 4 and rf.is_sphere_page(g)) else (0,)
        out.extend(RoundFoldDescriptor(n, g, k) for k in ks)
    return out


def _relabeled_gauge_moved(g: rf.LabeledReebGraph, rank: int) -> rf.LabeledReebGraph:
    """A copy of the page under new vertex and edge ids, listed in reverse,
    with the twists of the edges at its critical vertex of this rank
    flipped: a gauge move."""
    vmap = {v.id: f"x{i}" for i, v in enumerate(reversed(g.vertices))}
    moved = {v.id for v in g.vertices if v.rank == rank and v.kind is not rf.VertexKind.BOUNDARY}
    return rf.LabeledReebGraph.of(
        [(vmap[v.id], v.kind, v.rank) for v in g.vertices],
        [
            (f"y{i}", vmap[e.low], vmap[e.high], e.twist ^ (e.low in moved or e.high in moved))
            for i, e in enumerate(reversed(g.edges))
        ],
    )


# standard forms: one page under two builders, two pages, and one page
# built twice
STANDARD_PAIRS = [
    (RoundFoldDescriptor(5, rf.directed_page(2)), RoundFoldDescriptor(5, rf.annulus_page())),
    (RoundFoldDescriptor(5, rf.disk_page()), RoundFoldDescriptor(5, rf.sphere_page())),
    (
        RoundFoldDescriptor(6, rf.orientable_closed_page(1)),
        RoundFoldDescriptor(6, rf.orientable_closed_page(1)),
    ),
]


def test_r_equivalent_standard():
    # R-equivalence of standard forms is decided by a_equivalent
    assert [rf.a_equivalent(d0, d1) for d0, d1 in STANDARD_PAIRS] == [True, False, True]


def test_canonical_form_equality_matches_a_equivalence():
    # a_equivalent against its rule, checked by code that shares nothing
    # with the encoder: the same n, at n = 4 the same |clutching|, and pages
    # isomorphic by the exhaustive search of the oracles
    sp, torus, klein = rf.sphere_page(), rf.orientable_closed_page(1), rf.klein_page()
    ds = [RoundFoldDescriptor(n, g) for n in (4, 5) for g in rf.enumerate_pages(3)]
    ds += [RoundFoldDescriptor(4, sp, k) for k in (-2, -1, 1, 2)]
    ds += [d for pair in STANDARD_PAIRS for d in pair]
    ds += [RoundFoldDescriptor(5, g) for g in (torus, klein)]
    ds += [RoundFoldDescriptor(5, _relabeled_gauge_moved(g, 2)) for g in (torus, klein)]
    for d0, d1 in itertools.combinations_with_replacement(ds, 2):
        rule = d0.n == d1.n and (d0.n != 4 or abs(d0.clutching) == abs(d1.clutching))
        assert rf.a_equivalent(d0, d1) == (rule and brute_force_isomorphic(d0.page, d1.page))
    # the moved copies are twisted, and each is equivalent to its page alone
    pairs = itertools.product(ds[-4:-2], ds[-2:])
    assert [rf.a_equivalent(d0, d1) for d0, d1 in pairs] == [True, False, False, True]
    assert any(e.twist for e in ds[-2].page.edges)


def test_canonical_form_examples():
    torus = rf.orientable_closed_page(1)
    relabeled = rf.parse_page(rf.serialize_page(torus))
    assert rf.canonical_form(RoundFoldDescriptor(5, torus)) == rf.canonical_form(
        RoundFoldDescriptor(5, relabeled)
    )
    assert rf.canonical_form(RoundFoldDescriptor(5, torus)) != rf.canonical_form(
        RoundFoldDescriptor(5, rf.klein_page())
    )
    sp = rf.sphere_page()
    assert rf.canonical_form(RoundFoldDescriptor(4, sp, 3)) == rf.canonical_form(
        RoundFoldDescriptor(4, sp, -3)
    )


def test_canonical_form_layout():
    enc = rf.canonical_form(RoundFoldDescriptor(4, rf.sphere_page(), -2))
    assert enc.startswith(b"RF1;n=4;k=2;P1;")


def test_equivalence_implies_equal_invariants():
    ds = _census_descriptors(6, 3)
    for d0, d1 in itertools.combinations(ds, 2):
        if rf.a_equivalent(d0, d1):
            assert rf.equivalent(rf.build_total_space(d0), rf.build_total_space(d1))
            assert rf.fold_counts(d0) == rf.fold_counts(d1)
            assert rf.regular_fiber_counts(d0.page) == rf.regular_fiber_counts(d1.page)
            assert rf.surface_type(d0.page) == rf.surface_type(d1.page)


def test_same_manifold_does_not_imply_equivalence():
    # two inequivalent disk-page Morse functions with the same total space
    ds = _census_descriptors(5, 3)
    witnesses = [
        (d0, d1)
        for d0, d1 in itertools.combinations(ds, 2)
        if not rf.a_equivalent(d0, d1)
        and rf.equivalent(rf.build_total_space(d0), rf.build_total_space(d1))
    ]
    assert witnesses
    disk_surface = rf.orientable_surface(0, 1)
    assert any(
        rf.surface_type(d0.page) == disk_surface == rf.surface_type(d1.page)
        for d0, d1 in witnesses
    )


def golden_pages() -> list[rf.LabeledReebGraph]:
    """Standard pages beyond the census strata, then one seeded twisted copy
    of each under fresh, shuffled vertex and edge ids."""
    base = [rf.orientable_closed_page(g) for g in range(1, 12)]
    base += [rf.nonorientable_closed_page(k) for k in range(1, 21)]
    base.append(rf.klein_page())
    for s in (6, 10, 16, 25, 40, 64, 100, 125, 150):
        base += [rf.handle_page(s - 1, 0), rf.handle_page(s - 1 - s // 3, s // 3)]
    rnd = random.Random(10)
    copies = []
    for g in base:
        vnames = [f"x{i}" for i in range(len(g.vertices))]
        enames = [f"y{i}" for i in range(len(g.edges))]
        rnd.shuffle(vnames)
        rnd.shuffle(enames)
        vmap = {v.id: name for v, name in zip(g.vertices, vnames)}
        copies.append(
            rf.LabeledReebGraph.of(
                [(vmap[v.id], v.kind, v.rank) for v in g.vertices],
                [(name, vmap[e.low], vmap[e.high], rnd.randint(0, 1)) for e, name in zip(g.edges, enames)],
            )
        )
    return base + copies


# sha256 of the canonical forms of golden_pages at n = 5, one per line; the
# format is stable within RF1/P1
GOLDEN_FORMS_SHA = "e52ceb2d827dec81d8ccab38fbc96f698cc9f8f9da9f842861ba3a6a720134b5"


def test_canonical_forms_of_large_pages_are_pinned():
    forms = [rf.canonical_form(RoundFoldDescriptor(5, g)) for g in golden_pages()]
    assert len(forms) == 2 * (11 + 20 + 1 + 2 * 9)
    assert hashlib.sha256(b"\n".join(forms)).hexdigest() == GOLDEN_FORMS_SHA
