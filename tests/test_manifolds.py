"""Manifold normal forms and invariants."""

from __future__ import annotations

import itertools

import pytest

import roundfold as rf
from roundfold import (
    FreeGroup,
    HandleSum,
    Sphere,
    SurfaceGroup,
    SurfaceProduct,
    Trivial,
    TwistedS2S2,
)

S2 = rf.orientable_surface(0)
T2 = rf.orientable_surface(1)
KLEIN = rf.nonorientable_surface(2)


def all_descriptors(n_range=range(4, 8), size=4):
    for n in n_range:
        yield Sphere(n)
        for a in range(size + 1):
            for b in range(size + 1):
                if a + b >= 1:
                    yield HandleSum(n, a, b)
        for g in range(size + 1):
            yield SurfaceProduct(n, rf.orientable_surface(g))
        for k in range(1, size + 1):
            yield SurfaceProduct(n, rf.nonorientable_surface(k))
        if n == 4:
            yield TwistedS2S2()


def test_normalize_examples():
    assert rf.normalize(HandleSum(5, 3, 0)) == HandleSum(5, 3, 0)
    # the rewrite rule itself: b >= 1 folds down to one twisted summand
    assert rf.normalize(HandleSum(5, 0, 2)) == HandleSum(5, 1, 1)
    assert rf.normalize(SurfaceProduct(6, S2)) == SurfaceProduct(6, S2)


def test_normalize_idempotent_and_invariant_preserving():
    for d in all_descriptors():
        nd = rf.normalize(d)
        assert rf.normalize(nd) == nd
        assert rf.euler_characteristic(nd) == rf.euler_characteristic(d)
        assert rf.fundamental_group(nd) == rf.fundamental_group(d)
        assert rf.is_orientable_manifold(nd) == rf.is_orientable_manifold(d)


def test_equivalent_examples():
    assert rf.equivalent(HandleSum(5, 0, 2), HandleSum(5, 1, 1))
    assert not rf.equivalent(Sphere(4), TwistedS2S2())
    # trivial and twisted bundles over the sphere are distinct types
    assert not rf.equivalent(SurfaceProduct(4, S2), TwistedS2S2())


def test_equivalent_is_equivalence_relation():
    ds = list(all_descriptors(n_range=(4, 5), size=2))
    for d in ds:
        assert rf.equivalent(d, d)
    for d0, d1 in itertools.combinations(ds, 2):
        assert rf.equivalent(d0, d1) == rf.equivalent(d1, d0)


def test_euler_characteristic():
    assert rf.euler_characteristic(Sphere(6)) == 2
    assert rf.euler_characteristic(Sphere(5)) == 0
    # connected sum additivity: each summand has euler 0, each sum drops 2
    assert rf.euler_characteristic(HandleSum(6, 2, 0)) == -2
    assert rf.euler_characteristic(HandleSum(5, 2, 0)) == 0
    assert rf.euler_characteristic(SurfaceProduct(6, T2)) == 0
    assert rf.euler_characteristic(SurfaceProduct(6, S2)) == 4
    assert rf.euler_characteristic(TwistedS2S2()) == 4


def test_euler_even_in_even_dimensions():
    for d in all_descriptors():
        if d.n % 2 == 0:
            assert rf.euler_characteristic(d) % 2 == 0
        else:
            assert rf.euler_characteristic(d) == 0


def test_fundamental_group():
    assert rf.fundamental_group(Sphere(5)) == Trivial()
    assert rf.fundamental_group(TwistedS2S2()) == Trivial()
    assert rf.fundamental_group(HandleSum(5, 2, 1)) == FreeGroup(3)
    assert rf.fundamental_group(SurfaceProduct(6, T2)) == SurfaceGroup(T2)
    assert rf.fundamental_group(SurfaceProduct(6, S2)) == Trivial()


def test_fundamental_group_families():
    for d in all_descriptors():
        assert isinstance(rf.fundamental_group(d), (Trivial, FreeGroup, SurfaceGroup))


def test_orientability():
    assert not rf.is_orientable_manifold(HandleSum(5, 0, 1))
    assert not rf.is_orientable_manifold(SurfaceProduct(5, KLEIN))
    assert rf.is_orientable_manifold(TwistedS2S2())
    assert rf.is_orientable_manifold(Sphere(7))
    assert rf.is_orientable_manifold(HandleSum(6, 3, 0))


def test_descriptor_validation():
    with pytest.raises(rf.RoundFoldError):
        Sphere(3)
    with pytest.raises(rf.RoundFoldError):
        HandleSum(5, 0, 0)
    with pytest.raises(rf.RoundFoldError):
        SurfaceProduct(5, rf.orientable_surface(1, boundary_circles=2))
    with pytest.raises(rf.RoundFoldError):
        FreeGroup(0)


COUNT_CASES = {
    "a=True": (HandleSum, 5, True, 0),
    "b=False": (HandleSum, 5, 0, False),
    "a=1.5": (HandleSum, 5, 1.5, 0),
    "genus=1.5": (rf.orientable_surface, 1.5),
    "genus=True": (rf.orientable_surface, True),
    "boundary_circles=2.0": (rf.orientable_surface, 1, 2.0),
    "crosscaps=1.0": (rf.nonorientable_surface, 1.0),
}


@pytest.mark.parametrize("case", COUNT_CASES)
def test_descriptor_counts_must_be_ints(case):
    # a bool would describe itself as a=True, which the spec grammar cannot
    # read, and a float would fail later in admits_round_fold's range()
    make, *args = COUNT_CASES[case]
    with pytest.raises(rf.RoundFoldError, match="must be an int"):
        make(*args)


def test_describe_round_trips_through_spec_grammar():
    for d in all_descriptors(n_range=(4, 6), size=3):
        assert rf.parse_manifold_spec(rf.describe(d)) == d
