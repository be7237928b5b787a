"""Round fold descriptors: validation, total spaces, directedness, counts."""

from __future__ import annotations

import pytest

import roundfold as rf
from roundfold import (
    Direction,
    HandleSum,
    RoundFoldDescriptor,
    Sphere,
    SurfaceProduct,
    TwistedS2S2,
)


def test_validate_descriptor_clutching_rules():
    assert RoundFoldDescriptor(4, rf.sphere_page(), 3).report.ok
    assert not RoundFoldDescriptor(5, rf.sphere_page(), 1).report.ok
    assert not RoundFoldDescriptor(4, rf.disk_page(), 1).report.ok
    assert not RoundFoldDescriptor(3, rf.disk_page()).report.ok
    assert RoundFoldDescriptor(4, rf.disk_page(), 0).report.ok
    for clutching in (True, 1.0):
        report = RoundFoldDescriptor(4, rf.sphere_page(), clutching).report
        assert [v.code for v in report.violations] == ["clutching_type"]


def test_build_total_space_examples():
    assert rf.build_total_space(RoundFoldDescriptor(5, rf.disk_page())) == Sphere(5)
    assert rf.build_total_space(RoundFoldDescriptor(5, rf.moebius_page())) == HandleSum(5, 0, 1)
    assert rf.build_total_space(RoundFoldDescriptor(4, rf.sphere_page(), 1)) == TwistedS2S2()
    assert rf.build_total_space(RoundFoldDescriptor(6, rf.klein_page())) == SurfaceProduct(
        6, rf.nonorientable_surface(2)
    )
    assert rf.build_total_space(RoundFoldDescriptor(5, rf.annulus_page())) == HandleSum(5, 1, 0)
    assert rf.build_total_space(RoundFoldDescriptor(6, rf.orientable_closed_page(1))) == SurfaceProduct(
        6, rf.orientable_surface(1)
    )


def test_build_clutching_parity_at_n4():
    for k in range(-5, 6):
        d = rf.build_total_space(RoundFoldDescriptor(4, rf.sphere_page(), k))
        if k % 2 == 0:
            assert d == SurfaceProduct(4, rf.orientable_surface(0))
        else:
            assert d == TwistedS2S2()


def test_build_rejects_invalid_descriptor():
    with pytest.raises(rf.InvalidDescriptorError):
        rf.build_total_space(RoundFoldDescriptor(5, rf.sphere_page(), 2))


def test_admits_round_fold_witnesses():
    w = rf.admits_round_fold(Sphere(7))
    assert w.n == 7 and rf.page_isomorphic(w.page, rf.disk_page())
    w = rf.admits_round_fold(HandleSum(5, 2, 1))
    assert rf.equivalent(rf.build_total_space(w), HandleSum(5, 2, 1))
    w = rf.admits_round_fold(TwistedS2S2())
    assert w == RoundFoldDescriptor(4, rf.sphere_page(), 1)


def test_admits_round_fold_witnesses_use_the_fewest_fold_spheres_of_the_census():
    # the census at n = 5, s <= 7 reaches 21 manifolds; each witness page has
    # the least s among the manifold's census rows
    least: dict = {}
    for row in rf.census_table(5, 7).rows:
        least[row.manifold] = min(least.get(row.manifold, row.s), row.s)
    assert len(least) == 21
    for manifold, s in least.items():
        w = rf.admits_round_fold(manifold)
        assert rf.build_total_space(w) == manifold
        assert w.page.s == s


def test_admits_directed():
    w = rf.admits_directed(HandleSum(5, 3, 0))
    assert w is not None and rf.page_isomorphic(w.page, rf.directed_page(4))
    assert rf.is_directed(w)
    assert rf.admits_directed(SurfaceProduct(6, rf.orientable_surface(1))) is None
    w = rf.admits_directed(Sphere(4))
    assert w is not None and rf.page_isomorphic(w.page, rf.disk_page())
    assert rf.admits_directed(HandleSum(5, 1, 1)) is None
    assert rf.admits_directed(TwistedS2S2()) is None
    assert rf.admits_directed(SurfaceProduct(5, rf.nonorientable_surface(2))) is None


def test_component_directions_torus():
    rfd = RoundFoldDescriptor(6, rf.orientable_closed_page(1))
    dirs = [d for _, d in rf.component_directions(rfd)]
    assert dirs == [Direction.OUTWARD, Direction.OUTWARD, Direction.INWARD, Direction.INWARD]


def test_component_directions_directed_page():
    rfd = RoundFoldDescriptor(5, rf.directed_page(3))
    assert all(d is Direction.INWARD for _, d in rf.component_directions(rfd))


def test_directions_undefined_for_nonorientable():
    with pytest.raises(rf.NonOrientableError):
        rf.component_directions(RoundFoldDescriptor(5, rf.moebius_page()))
    with pytest.raises(rf.NonOrientableError):
        rf.is_directed(RoundFoldDescriptor(5, rf.klein_page()))


def test_is_directed():
    for s in (1, 2, 3):
        assert rf.is_directed(RoundFoldDescriptor(5, rf.directed_page(s)))
    assert rf.is_directed(RoundFoldDescriptor(5, rf.annulus_page()))
    assert not rf.is_directed(RoundFoldDescriptor(5, rf.sphere_page()))
    # equivalent condition: innermost fiber count equals the fold sphere count
    for g in filter(rf.page_orientable, rf.enumerate_pages(4)):
        rfd = RoundFoldDescriptor(6, g)
        assert rf.is_directed(rfd) == (rf.regular_fiber_counts(g)[0] == g.s)


def test_fold_counts():
    assert rf.fold_counts(RoundFoldDescriptor(6, rf.orientable_closed_page(1))) == (2, 2)
    assert rf.fold_counts(RoundFoldDescriptor(5, rf.disk_page())) == (1, 0)
    assert rf.fold_counts(RoundFoldDescriptor(5, rf.nonorientable_closed_page(1))) == (2, 1)
    for g in rf.enumerate_pages(3):
        n0, n1 = rf.fold_counts(RoundFoldDescriptor(5, g))
        assert n0 + n1 == g.s


def test_euler_via_folds():
    assert rf.euler_via_folds(RoundFoldDescriptor(6, rf.orientable_closed_page(1))) == 0
    assert rf.euler_via_folds(RoundFoldDescriptor(4, rf.disk_page())) == 2
    rfd = RoundFoldDescriptor(6, rf.directed_page(3))
    assert rf.euler_via_folds(rfd) == -2
    assert rf.euler_characteristic(rf.build_total_space(rfd)) == -2
    with pytest.raises(rf.RoundFoldError):
        rf.euler_via_folds(RoundFoldDescriptor(5, rf.disk_page()))


def test_orientability_coherence():
    # the total space is orientable exactly when the page is
    for g in rf.enumerate_pages(4):
        for n in (4, 6):
            ks = range(0, 3) if (n == 4 and rf.is_sphere_page(g)) else (0,)
            for k in ks:
                d = rf.build_total_space(RoundFoldDescriptor(n, g, k))
                assert rf.is_orientable_manifold(d) == rf.page_orientable(g)


def test_open_book():
    ob = rf.open_book(RoundFoldDescriptor(5, rf.disk_page()))
    assert ob.page == rf.orientable_surface(0, 1)
    assert ob.binding_circles == 1 and ob.monodromy_trivial
    ob = rf.open_book(RoundFoldDescriptor(6, rf.orientable_closed_page(1)))
    assert ob.page == rf.orientable_surface(1) and ob.binding_circles == 0
    ob = rf.open_book(RoundFoldDescriptor(5, rf.directed_page(2)))
    assert ob.page == rf.orientable_surface(0, 2) and ob.binding_circles == 2
    with pytest.raises(rf.OpenBookUnsupportedError):
        rf.open_book(RoundFoldDescriptor(4, rf.sphere_page(), 2))
