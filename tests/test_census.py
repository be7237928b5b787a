"""Enumeration completeness, census tables, and the brute-force oracle."""

from __future__ import annotations

import hashlib
import itertools

import pytest
from oracles import all_valid_pages, partition_by

import roundfold as rf
from roundfold import HandleSum, Sphere, SurfaceProduct, TwistedS2S2
from roundfold.census import brute_force_isomorphic


def stratum(s):
    return [g for g in rf.enumerate_pages(s) if g.s == s]


def test_stratum_counts():
    assert len(stratum(1)) == 1
    assert len(stratum(2)) == 3
    # class counts verified against the generate-all oracle below, then
    # frozen as regression values
    assert len(stratum(3)) == 9
    assert len(stratum(4)) == 43
    assert len(stratum(5)) == 287


def test_s1_is_the_disk():
    (g,) = stratum(1)
    assert rf.page_isomorphic(g, rf.disk_page())


def test_s2_classes():
    classes = stratum(2)
    expected = [rf.sphere_page(), rf.annulus_page(), rf.moebius_page()]
    assert len(classes) == 3
    for want in expected:
        assert sum(1 for g in classes if rf.page_isomorphic(g, want)) == 1


def test_filters():
    assert sum(1 for g in rf.enumerate_pages(2, allow_nonorientable=False) if g.s == 2) == 2
    assert sum(1 for g in rf.enumerate_pages(2, allow_closed=False) if g.s == 2) == 2
    assert sum(1 for _ in rf.enumerate_pages(2)) == 4


def test_enumeration_s_max_bounds():
    with pytest.raises(rf.RoundFoldError):
        list(rf.enumerate_pages(0))
    with pytest.raises(rf.RoundFoldError):
        list(rf.enumerate_pages(rf.MAX_ENUMERATION_S + 1))


def test_census_table_argument_errors():
    with pytest.raises(rf.RoundFoldError):
        rf.census_table(3, 2)
    with pytest.raises(rf.RoundFoldError):
        rf.census_table(5, 2, k_max=-1)
    with pytest.raises(rf.RoundFoldError):
        rf.census_table(4, 2, k_max=rf.MAX_CLUTCHING + 1)
    assert len(rf.census_table(4, 2, k_max=rf.MAX_CLUTCHING).rows) == 3 + rf.MAX_CLUTCHING + 1


def test_no_two_emitted_pages_isomorphic():
    pages = list(rf.enumerate_pages(4))
    encodings = [rf.canonical_page_encoding(g) for g in pages]
    assert len(set(encodings)) == len(encodings)
    for g0, g1 in itertools.combinations(pages[:25], 2):
        assert not brute_force_isomorphic(g0, g1)


def test_enumeration_complete_against_generate_all_oracle():
    # every valid page with s <= 3 is isomorphic to exactly one emitted page
    for s in (1, 2, 3):
        everything = all_valid_pages(s)
        classes = partition_by(everything, brute_force_isomorphic)
        emitted = stratum(s)
        assert len(classes) == len(emitted)
        for cls in classes:
            matches = [g for g in emitted if brute_force_isomorphic(cls[0], g)]
            assert len(matches) == 1


def test_every_emitted_page_is_valid():
    for g in rf.enumerate_pages(5):
        assert rf.validate_page(g).ok


def test_census_table_n5_s2():
    table = rf.census_table(5, 2)
    assert len(table.rows) == 4
    by_s = {}
    for row in table.rows:
        by_s.setdefault(row.s, []).append(row.manifold)
    assert by_s[1] == [Sphere(5)]
    assert sorted(map(rf.describe, by_s[2])) == [
        "handle_sum n=5 a=0 b=1",
        "handle_sum n=5 a=1 b=0",
        "surface_product n=5 genus=0",
    ]


def test_census_table_n4_clutching_split():
    table = rf.census_table(4, 2, k_max=2)
    sphere_rows = [r for r in table.rows if "min@1 max@2" in r.summary]
    assert sorted(r.clutching for r in sphere_rows) == [0, 1, 2]
    by_k = {r.clutching: r.manifold for r in sphere_rows}
    assert by_k[0] == SurfaceProduct(4, rf.orientable_surface(0))
    assert by_k[1] == TwistedS2S2()
    assert by_k[2] == SurfaceProduct(4, rf.orientable_surface(0))


def test_census_table_n6_s1():
    table = rf.census_table(6, 1)
    assert len(table.rows) == 1
    assert table.rows[0].manifold == Sphere(6)
    assert table.rows[0].directed


def test_census_rows_sorted_and_unique():
    table = rf.census_table(4, 3, k_max=2)
    keys = [r.canonical for r in table.rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_census_directed_flag_characterization():
    table = rf.census_table(6, 4)
    directed_manifolds = set()
    family_manifolds = set()
    for row in table.rows:
        in_family = isinstance(row.manifold, Sphere) or (
            isinstance(row.manifold, HandleSum) and row.manifold.b == 0
        )
        if row.directed:
            assert in_family
            directed_manifolds.add(rf.describe(row.manifold))
        if in_family:
            family_manifolds.add(rf.describe(row.manifold))
    # every family manifold in the table is also realized by a directed row
    assert directed_manifolds == family_manifolds


def test_census_deterministic_across_workers():
    t1 = rf.census_table(5, 4, workers=1)
    t2 = rf.census_table(5, 4, workers=3)
    assert rf.census_jsonl(t1).encode() == rf.census_jsonl(t2).encode()
    assert rf.census_text(t1) == rf.census_text(t2)


# sha256 of the UTF-8 census text; the formats are stable within RF1/P1
@pytest.mark.parametrize(
    "n, s_max, jsonl_sha, text_sha",
    [
        pytest.param(
            4,
            5,
            "979b4eacf318dabb467dd705ece1f19dfe4ba3449adcfc14796910f6ea943a9f",
            "8947072a7e9f6394508ae548a77a1f80eb5b54bc3b8cfede56284a05d9d1e83a",
            id="n4-s5",
        ),
        pytest.param(
            5,
            6,
            "6c290a264d81c2e76c504199ba028a372848b5570869ef489902906a05376105",
            "e63ce3a244606207dcf4593ad6e09d5eae1cc558022368aee878c4227755fb63",
            id="n5-s6",
            marks=pytest.mark.slow,
        ),
    ],
)
def test_census_golden_bytes(n, s_max, jsonl_sha, text_sha):
    table = rf.census_table(n, s_max, k_max=3)
    assert hashlib.sha256(rf.census_jsonl(table).encode("utf-8")).hexdigest() == jsonl_sha
    assert hashlib.sha256(rf.census_text(table).encode("utf-8")).hexdigest() == text_sha


def test_oracle_agrees_with_canonical_isomorphism():
    pages = list(rf.enumerate_pages(3))
    for g0, g1 in itertools.combinations_with_replacement(pages, 2):
        assert brute_force_isomorphic(g0, g1) == rf.page_isomorphic(g0, g1)


def test_oracle_detects_relabeled_copies():
    ann = rf.annulus_page()
    swapped = rf.LabeledReebGraph.of(
        [("b1", "boundary", 0), ("b0", "boundary", 0), ("v1", "saddle_p", 1), ("v2", "max", 2)],
        [("e0", "b1", "v1", 0), ("e1", "b0", "v1", 0), ("e2", "v1", "v2", 0)],
    )
    assert brute_force_isomorphic(ann, swapped)
    assert not brute_force_isomorphic(rf.orientable_closed_page(1), rf.klein_page())
    assert brute_force_isomorphic(rf.klein_page(), rf.klein_page())


def test_oracle_size_limit():
    big = rf.directed_page(rf.ORACLE_S_LIMIT + 1)
    with pytest.raises(rf.OracleLimitError):
        brute_force_isomorphic(big, big)
