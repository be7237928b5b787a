"""Acceptance suite: one test per criterion, each printing a pass line.

Every check is exact; the stated time budgets are enforced with wall-clock
assertions kept deliberately loose against CI jitter only where the budget
is generous (never looser than the criterion's own bound).
"""

from __future__ import annotations

import itertools
import time

from oracles import below_above, brute_force_isomorphic

import roundfold as rf
from roundfold import (
    FreeGroup,
    HandleSum,
    RoundFoldDescriptor,
    Sphere,
    SurfaceGroup,
    SurfaceProduct,
    Trivial,
    TwistedS2S2,
)


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget


def _all_descriptors(n_range, size, with_twisted=True):
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
        if n == 4 and with_twisted:
            yield TwistedS2S2()


def test_criterion_1_census_baselines():
    t0 = time.time()
    assert sum(1 for g in rf.enumerate_pages(1)) == 1
    s2 = [g for g in rf.enumerate_pages(2) if g.s == 2]
    assert len(s2) == 3
    for want in (rf.sphere_page(), rf.annulus_page(), rf.moebius_page()):
        assert sum(1 for g in s2 if rf.page_isomorphic(g, want)) == 1
    table = rf.census_table(5, 2)
    realized_s2 = {rf.describe(r.manifold) for r in table.rows if r.s == 2}
    assert realized_s2 == {
        "surface_product n=5 genus=0",
        "handle_sum n=5 a=1 b=0",
        "handle_sum n=5 a=0 b=1",
    }
    assert {rf.describe(r.manifold) for r in table.rows if r.s == 1} == {"sphere n=5"}
    _report("1 census baselines", t0, 1.0)


def test_criterion_2_fold_count_euler_identity():
    t0 = time.time()
    checked = 0
    for g in rf.enumerate_pages(5):
        for n in (4, 6):
            ks = range(-3, 4) if (n == 4 and rf.is_sphere_page(g)) else (0,)
            for k in ks:
                d = RoundFoldDescriptor(n, g, k)
                assert rf.euler_via_folds(d) == rf.euler_characteristic(rf.build_total_space(d))
                checked += 1
    assert checked > 600
    _report("2 fold-count euler identity", t0, 60.0)


def test_criterion_3_realization_round_trip():
    t0 = time.time()
    for d in _all_descriptors(range(4, 8), 4):
        w = rf.admits_round_fold(d)
        assert w.report.ok
        assert rf.equivalent(rf.build_total_space(w), d)
    for k in range(-4, 5):
        d = rf.build_total_space(RoundFoldDescriptor(4, rf.sphere_page(), k))
        assert rf.equivalent(rf.build_total_space(rf.admits_round_fold(d)), d)
    _report("3 realization round trip", t0, 10.0)


def test_criterion_4_directed_characterization():
    # Pointwise, a map is directed exactly when its page is a merge tree
    # (one max, s-1 merges, s boundary circles, genus zero, orientable), and
    # every directed map lives on a sphere or an untwisted handle sum.  The
    # converse is an existence statement, not a pointwise one: a sphere is
    # also built by non-directed disk pages (two maxes over a split), so the
    # family is characterized by admitting a directed witness and by the
    # realized-manifold sets coinciding.
    t0 = time.time()
    from roundfold.pages import VertexKind

    directed_builds: set[str] = set()
    family_builds: set[str] = set()
    for g in rf.enumerate_pages(5):
        deg = below_above(g)
        shape = all(
            v.kind in (VertexKind.BOUNDARY, VertexKind.MAX)
            or (v.kind is VertexKind.SADDLE_P and deg[v.id] == (2, 1))
            for v in g.vertices
        )
        d = RoundFoldDescriptor(6, g)
        directed = rf.page_orientable(g) and rf.is_directed(d)
        assert directed == shape
        manifold = rf.build_total_space(d)
        in_family = isinstance(manifold, Sphere) or (
            isinstance(manifold, HandleSum) and manifold.b == 0
        )
        if directed:
            assert in_family
            directed_builds.add(rf.describe(manifold))
        if in_family:
            family_builds.add(rf.describe(manifold))
    assert directed_builds == family_builds
    for d in _all_descriptors(range(4, 8), 3):
        w = rf.admits_directed(d)
        expect = isinstance(d, Sphere) or (
            isinstance(d, HandleSum) and rf.normalize(d).b == 0
        )
        assert (w is not None) == expect
        if w is not None:
            assert rf.is_directed(w)
            assert rf.equivalent(rf.build_total_space(w), d)
    _report("4 directed characterization", t0, 60.0)


def test_criterion_4_family_membership_is_not_sufficient():
    # the witness that forces the existence reading above: a disk page with
    # two maxes over a split builds the sphere yet has an outward sphere
    double_bump = rf.LabeledReebGraph.of(
        [
            ("b0", "boundary", 0),
            ("v1", "saddle_p", 1),
            ("v2", "max", 2),
            ("v3", "max", 3),
        ],
        [("e0", "b0", "v1", 0), ("e1", "v1", "v2", 0), ("e2", "v1", "v3", 0)],
    )
    assert rf.validate_page(double_bump).ok
    assert rf.surface_type(double_bump) == rf.orientable_surface(0, 1)
    d = RoundFoldDescriptor(6, double_bump)
    assert rf.build_total_space(d) == Sphere(6)
    assert not rf.is_directed(d)


def test_criterion_5_torus_klein_separation():
    t0 = time.time()
    torus = rf.orientable_closed_page(1)
    klein = rf.klein_page()
    assert {v for v in torus.vertices} == {v for v in klein.vertices}
    assert sorted((e.low, e.high) for e in torus.edges) == sorted(
        (e.low, e.high) for e in klein.edges
    )
    assert sorted(e.twist for e in torus.edges) == [0, 0, 0, 0]
    assert sorted(e.twist for e in klein.edges) == [0, 0, 0, 1]
    assert not rf.page_isomorphic(torus, klein)
    assert rf.page_orientable(torus) and not rf.page_orientable(klein)
    assert rf.build_total_space(RoundFoldDescriptor(6, torus)) == SurfaceProduct(
        6, rf.orientable_surface(1)
    )
    assert rf.build_total_space(RoundFoldDescriptor(6, klein)) == SurfaceProduct(
        6, rf.nonorientable_surface(2)
    )
    _report("5 torus/klein separation", t0, 1.0)


def test_criterion_6_clutching_classes_at_n4():
    t0 = time.time()
    sp = rf.sphere_page()
    for k0 in range(-5, 6):
        for k1 in range(-5, 6):
            got = rf.a_equivalent(
                RoundFoldDescriptor(4, sp, k0), RoundFoldDescriptor(4, sp, k1)
            )
            assert got == (abs(k0) == abs(k1))
    for k in range(-5, 6):
        if k != 0:
            assert not RoundFoldDescriptor(4, rf.disk_page(), k).report.ok
        built = rf.build_total_space(RoundFoldDescriptor(4, sp, k))
        if k % 2 == 0:
            assert built == SurfaceProduct(4, rf.orientable_surface(0))
        else:
            assert built == TwistedS2S2()
    _report("6 clutching classes at n=4", t0, 1.0)


def test_criterion_7_oracle_equivalence():
    t0 = time.time()
    pages = list(rf.enumerate_pages(4))
    pairs = 0
    for g0, g1 in itertools.combinations_with_replacement(pages, 2):
        assert brute_force_isomorphic(g0, g1) == rf.page_isomorphic(g0, g1)
        pairs += 1
    assert pairs == len(pages) * (len(pages) + 1) // 2
    _report(f"7 oracle equivalence ({pairs} pairs)", t0, 300.0)


def test_criterion_8_structural_remarks():
    t0 = time.time()
    for d in _all_descriptors(range(4, 8), 4):
        group = rf.fundamental_group(d)
        assert isinstance(group, (Trivial, FreeGroup, SurfaceGroup))
        if d.n % 2 == 0:
            assert rf.euler_characteristic(d) % 2 == 0
    _report("8 structural remarks", t0, 1.0)


def test_criterion_9_census_determinism():
    t0 = time.time()
    runs = [
        rf.census_jsonl(rf.census_table(5, 4, workers=w)).encode("utf-8") for w in (1, 3)
    ]
    assert runs[0] == runs[1]
    runs_again = rf.census_jsonl(rf.census_table(5, 4, workers=2)).encode("utf-8")
    assert runs_again == runs[0]
    _report("9 census determinism", t0, 60.0)
