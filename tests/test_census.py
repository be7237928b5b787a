"""Enumeration completeness, one page per class, census tables, and the
brute-force oracle."""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import time

import pytest
from oracles import (
    all_skeletons,
    all_valid_pages,
    brute_force_isomorphic,
    census_rows,
    gf2_rank,
    graph_from_skeleton,
    matrix_skeletons,
    named_edges,
    page_gauge_vectors,
    partition_by,
    skeleton_bucket,
    skeleton_connected,
    xor_basis,
)

import roundfold as rf
from roundfold import HandleSum, Sphere, SurfaceProduct, TwistedS2S2, census, pages
from roundfold.census import _kind_sequences, _skeletons
from roundfold.cli import main


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


def up_to_7(values):
    """pytest params for the strata in ``values``; s = 7 runs under slow."""
    return [pytest.param(s, marks=[pytest.mark.slow] if s == 7 else []) for s in values]


# connected skeletons per stratum; all_skeletons also yields the disconnected
# ones (1, 4, 18, 115, 904, 8634, 97156)
SKELETON_COUNTS = {1: 1, 2: 3, 3: 8, 4: 37, 5: 233, 6: 1920, 7: 19630}
# kind sequences of those skeletons
SEQUENCE_COUNTS = {1: 1, 2: 3, 3: 7, 4: 21, 5: 66, 6: 218, 7: 738}


def k_text(kinds):
    """The ``K`` block of the canonical encoding of a page with these kinds."""
    return ",".join(pages._KIND_TAG[kinds[r]] for r in range(1, len(kinds) + 1))


def connected_skeletons(s):
    return [sk for sk in all_skeletons(s) if skeleton_connected(*sk)]


def sequences(s):
    return [kinds for kinds, _ in _kind_sequences(s)]


def walked(s, kinds):
    """The census walk's skeletons of this kind sequence as (kinds, edges),
    with the vertices named as the oracles name them."""
    return [(kinds, named_edges(edges, ends)) for edges, ends, *_ in _skeletons(s, kinds)]


def generated_skeletons(s):
    return [sk for kinds in sequences(s) for sk in walked(s, kinds)]


@pytest.mark.parametrize("s", up_to_7(SKELETON_COUNTS))
def test_pruned_generator_yields_exactly_the_connected_shapes(s):
    # the closed sphere skeleton (min under max, no open end) is among them;
    # the stable sort keeps the unpruned generator's order within a sequence
    connected = connected_skeletons(s)
    assert len(connected) == SKELETON_COUNTS[s]
    assert generated_skeletons(s) == sorted(connected, key=lambda sk: k_text(sk[0]))


@pytest.mark.parametrize("s", up_to_7(SEQUENCE_COUNTS))
def test_kind_sequences_are_the_realized_ones_in_k_order(s):
    listed = sequences(s)
    texts = [k_text(kinds) for kinds in listed]
    assert len(listed) == SEQUENCE_COUNTS[s]
    # strictly increasing, so each sequence is listed once
    assert all(a < b for a, b in zip(texts, texts[1:]))
    assert set(texts) == {k_text(kinds) for kinds, _ in connected_skeletons(s)}
    # ranks from s down to 1, the order in which skeleton vertices are listed
    assert all(list(kinds) == list(range(s, 0, -1)) for kinds in listed)


@pytest.mark.parametrize("s", up_to_7(SKELETON_COUNTS))
def test_matrix_enumerator_finds_each_walked_skeleton_once(s):
    # the matrix enumerator shares no code with the census walk: per kind
    # sequence, the walk yields each of its edge-multiplicity matrices once
    by_walk = {
        tuple(kinds[r] for r in range(1, s + 1)): sorted(
            tuple(sorted([(low, high) for low, high, _ in edges] + [(0, h) for h in ends], key=lambda e: (e[1], e[0])))
            for edges, ends, *_ in _skeletons(s, kinds)
        )
        for kinds in sequences(s)
    }
    by_matrix: dict = {}
    for kinds, matrix in matrix_skeletons(s):
        by_matrix.setdefault(kinds, []).append(matrix)
    assert {kinds: sorted(matrices) for kinds, matrices in by_matrix.items()} == by_walk
    assert sum(map(len, by_walk.values())) == SKELETON_COUNTS[s]


@pytest.mark.parametrize("s", range(1, 7))
def test_generator_parts_partition_the_skeletons_in_order(s):
    # the parts are the kind sequences: each yields the connected skeletons
    # of its sequence in the unpruned generator's order, and together they
    # hold every connected skeleton exactly once; a sequence's walk size is
    # at least its number of skeletons
    connected = connected_skeletons(s)
    parts = [(walked(s, kinds), size) for kinds, size in _kind_sequences(s)]
    for kinds, (part, size) in zip(sequences(s), parts):
        assert part == [sk for sk in connected if sk[0] == kinds]
        assert len(part) <= size
    assert sum(len(part) for part, _ in parts) == len(connected)


@pytest.mark.parametrize("parts", [1, 3, 4, 16])
@pytest.mark.parametrize("n, s_max", [(5, 6), (4, 5)])
def test_census_parts_merge_to_the_single_part_table(n, s_max, parts):
    # in this process, with parts of this many adjacent sequences; 16 holds
    # whole strata up to s = 3; at n = 4 the sphere page's clutched rows are
    # one last part, in the order of their RF1;n=4;k=; prefixes
    rows = []
    for s in range(1, s_max + 1):
        listed = sequences(s)
        for i in range(0, len(listed), parts):
            part_rows = census._census_part(n, s, (0,), listed[i : i + parts])
            assert [row.canonical for row in part_rows] == sorted(row.canonical for row in part_rows)
            rows += part_rows
    if n == 4:
        rows += census._census_part(n, 2, [1, 2, 3], [census._SPHERE])
    # the parts' rows in order are sorted
    assert [row.canonical for row in rows] == sorted(row.canonical for row in rows)
    assert tuple(rows) == rf.census_table(n, s_max, k_max=3).rows


def test_census_rows_that_share_a_summary_share_its_object():
    # a part makes each row's fields once, so rows with the same summary
    # text hold one summary object
    rows = [row for s in range(1, 6) for part in census._parts(s) for row in census._census_part(5, s, (0,), part)]
    assert len({id(row.summary) for row in rows}) == len({row.summary for row in rows}) == 161


def test_census_yields_rows_before_starting_later_parts(monkeypatch):
    expected = rf.census_table(5, 6).rows
    walked = []
    skeletons = census._skeletons
    monkeypatch.setattr(census, "_skeletons", lambda s, kinds: walked.append(s) or skeletons(s, kinds))
    rows = census._run_census(5, 6, 3, 1)
    assert walked == []
    assert next(rows) == expected[0]
    assert 6 not in walked
    assert (expected[0], *rows) == expected
    assert walked.count(6) == SEQUENCE_COUNTS[6]


def test_clutched_rows_follow_every_unclutched_row():
    rows = rf.census_table(4, 5, k_max=3).rows
    clutchings = [row.clutching for row in rows]
    first = clutchings.index(1)
    assert set(clutchings[:first]) == {0} and 0 not in clutchings[first:]
    # the sphere page at s = 2 is the only one with clutched rows
    assert [(row.s, row.clutching) for row in rows[first:]] == [(2, k) for k in (1, 2, 3)]
    assert [row.canonical for row in rows] == sorted(row.canonical for row in rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_clutched_rows_keep_their_order_and_bytes(workers):
    # rows sort by their RF1;n=4;k=; prefix as bytes, so k = 10..12 come
    # before k = 1; the values were measured before the clutched rows became
    # one census part
    rows = rf.census_table(4, 3, k_max=12, workers=workers).rows
    assert [row.clutching for row in rows if row.clutching] == [10, 11, 12, *range(1, 10)]
    table = rf.census_table(4, 3, k_max=rf.MAX_CLUTCHING, workers=workers)
    assert len(table.rows) == 1013
    jsonl, text = rf.census_jsonl(table), rf.census_text(table)
    assert hashlib.sha256(jsonl.encode()).hexdigest() == "c011c19b439eaddce6abd1b9193fbc6c028ab66dfc786f51b68f8b294c8531d6"
    assert hashlib.sha256(text.encode()).hexdigest() == "aefc938e16d83227e291679db2eecd527a567d42cfe2b9d12a8be81f5af17c43"


def enumerated_pages_sha(s_max):
    """The number of pages that enumerate_pages(s_max) lists, and the
    sha256 of their page texts, which pins the twists each class keeps."""
    listed = list(rf.enumerate_pages(s_max))
    return len(listed), hashlib.sha256("".join(rf.serialize_page(g) for g in listed).encode()).hexdigest()


def test_enumerated_pages_keep_their_bytes():
    assert enumerated_pages_sha(6) == (2823, "c9b365215cd9a9c04f2c19c1df9a814058f738d979485a144ee5cf6ab14086e2")


@pytest.mark.slow
def test_enumerated_pages_keep_their_bytes_s7():
    # measured before the census walk tracked its vertices by rank
    assert enumerated_pages_sha(7) == (29787, "3fb7ccdaeadaf1329670220790716baf897f7d5832bf1b4c670aa665c3c4ebda")


@pytest.mark.parametrize("s", up_to_7(range(1, 8)))
def test_every_generated_skeleton_is_a_valid_page(s):
    assert all(rf.validate_page(graph_from_skeleton(kinds, edges, {})).ok for kinds, edges in generated_skeletons(s))


@pytest.mark.parametrize("s", up_to_7(range(1, 8)))
def test_skeleton_step_encodes_every_candidate_like_the_public_encoder(s):
    owner: dict[bytes, int] = {}
    records = ((kinds, record) for kinds in sequences(s) for record in census._skeletons(s, kinds))
    for i, (kinds, record) in enumerate(records):
        edges, ends, fibers, candidates = record
        skeleton = graph_from_skeleton(kinds, named_edges(edges, ends), {})
        # the census validates no skeleton, so check the page of each of its
        # records here, and that the page's own view has the ranks and
        # invariants the census took from the walk
        assert rf.validate_page(skeleton).ok
        own = skeleton._view
        rank_of = {v.id: v.rank for v in skeleton.vertices}
        rank_pairs = {e.id: (rank_of[e.low], rank_of[e.high]) for e in skeleton.edges}
        m = len(skeleton.edges)
        ids = [f"e{j}" for j in range(m)]
        assert [rank_pairs[eid] for eid in ids] == [(low, high) for low, high, _ in edges] + [(0, h) for h in ends]
        assert fibers == ",".join(map(str, own.fiber_counts))
        # the census reads b and the inward pattern from the fiber text
        c = [int(count) for count in fibers.split(",")]
        assert (len(ends), c[0], tuple([c[r - 1] > c[r] for r in range(1, s + 1)])) == (own.b, own.b, own.inward)
        # fiberwise Morse counting: each min and max adds 1, each saddle takes 1
        chi = sum(1 if kind in (rf.VertexKind.MIN, rf.VertexKind.MAX) else -1 for kind in kinds.values())
        assert (chi, rf.VertexKind.SADDLE_B in kinds.values()) == (own.chi, own.has_saddle_b)
        # an edge's bit is that of its place in the page's encoding order
        order = own.order
        assert [rank_pairs[order[m - 1 - bit]] for _, _, bit in edges] == [(low, high) for low, high, _ in edges]
        # the census and the view find H and its parallel pairs by one rule
        in_order = sorted(edges, key=lambda edge: edge[2], reverse=True)
        assert pages._h_edges(kinds, in_order) == (own.h_edges, own.pairs)
        # the candidates are the labelings of the free coordinates of the
        # oracle's gauge generators over e0..e{m-1}, in order, with their
        # twists as bits of the edges from critical vertices
        pivots = {b.bit_length() - 1 for b in xor_basis(page_gauge_vectors(skeleton, ids))}
        free = [eid for j, eid in enumerate(ids) if m - 1 - j not in pivots]
        expected = [
            {**dict.fromkeys(ids, 0), **dict(zip(free, picks))} for picks in itertools.product((0, 1), repeat=len(free))
        ]
        assert all(0 <= t < 1 << len(edges) for t, _ in candidates)
        labelings = [
            {**dict.fromkeys(ids, 0), **{f"e{k}": t >> bit & 1 for k, (_, _, bit) in enumerate(edges)}}
            for t, _ in candidates
        ]
        assert labelings == expected
        for (_, enc), labeling in zip(candidates, labelings):
            assert enc == rf.canonical_page_encoding(skeleton.with_twists(labeling))
            # no class is met in two skeletons
            assert owner.setdefault(enc, i) == i


# (skeletons, skeletons with a free twist, twist candidates) with s <= s_max
FREE_TWIST_TOTALS = {6: (2202, 544, 2834), 7: (21832, 6463, 29979)}


@pytest.mark.parametrize("s_max", up_to_7(FREE_TWIST_TOTALS))
def test_each_skeleton_has_one_candidate_per_gauge_coset(s_max):
    # the walk finds the free twists by union-find over the edges it places;
    # count the gauge cosets of each record's page by the per-vertex rule of
    # tests/oracles.py and an elimination that shares no code with it
    skeletons = free = candidates = 0
    for s in range(1, s_max + 1):
        for kinds in sequences(s):
            for edges, ends, *_, found in _skeletons(s, kinds):
                page = graph_from_skeleton(kinds, named_edges(edges, ends), {})
                order = [e.id for e in page.edges]
                assert len(found) == 2 ** (len(order) - gf2_rank(page_gauge_vectors(page, order)))
                skeletons += 1
                free += len(found) > 1
                candidates += len(found)
    assert (skeletons, free, candidates) == FREE_TWIST_TOTALS[s_max]


def test_only_the_candidates_of_skeletons_with_a_free_twist_are_encoded(monkeypatch):
    # a skeleton without a free twist has one candidate, untwisted, whose
    # twist block is all zeros with no encoder call
    blocks = []
    encode_bits = pages._encode_bits
    monkeypatch.setattr(pages, "_encode_bits", lambda *args: blocks.append(args) or encode_bits(*args))
    skeletons = candidates = 0
    for s in range(1, 6):
        for kinds in sequences(s):
            for *_, found in _skeletons(s, kinds):
                skeletons += 1
                candidates += len(found)
                if len(found) == 1:
                    [(t, enc)] = found
                    assert t == 0 and enc.endswith(b";T=" + b"0" * enc.count(b">"))
    assert (skeletons, candidates, len(blocks)) == (282, 344, 118)


@pytest.mark.parametrize(
    "n, s_max", [(5, 6), (4, 5), pytest.param(5, 7, marks=pytest.mark.slow)]
)
def test_census_rows_match_the_rows_of_the_public_functions(n, s_max):
    expected = sorted(
        (row for g in rf.enumerate_pages(s_max) for row in census_rows(n, g, k_max=3)),
        key=lambda row: row.canonical,
    )
    assert list(rf.census_table(n, s_max, k_max=3).rows) == expected


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
    assert sum(1 for g in filter(rf.page_orientable, rf.enumerate_pages(2)) if g.s == 2) == 2
    assert sum(1 for g in rf.enumerate_pages(2) if g.s == 2 and rf.surface_type(g).boundary_circles) == 2
    assert sum(1 for _ in rf.enumerate_pages(2)) == 4


def test_enumeration_s_max_bounds():
    with pytest.raises(rf.RoundFoldError):
        list(rf.enumerate_pages(0))
    with pytest.raises(rf.RoundFoldError):
        list(rf.enumerate_pages(rf.MAX_ENUMERATION_S + 1))
    # an int-valued float or a bool is not an int
    for s_max in (2.0, True):
        with pytest.raises(rf.RoundFoldError, match="s_max must be an int"):
            rf.enumerate_pages(s_max)


def test_census_table_argument_errors():
    with pytest.raises(rf.RoundFoldError):
        rf.census_table(3, 2)
    with pytest.raises(rf.RoundFoldError):
        rf.census_table(5, 2, k_max=-1)
    with pytest.raises(rf.RoundFoldError):
        rf.census_table(4, 2, k_max=rf.MAX_CLUTCHING + 1)
    for workers in (0, -7):
        with pytest.raises(rf.RoundFoldError, match="workers must be >= 1"):
            rf.census_table(5, 2, workers=workers)
    assert len(rf.census_table(4, 2, k_max=rf.MAX_CLUTCHING).rows) == 3 + rf.MAX_CLUTCHING + 1
    # a non-int argument, a bool included, is an error, not a TypeError or a
    # value read as an int
    for args, kwargs, name in [
        ((5, 2.5), {}, "s_max"),
        ((5, True), {}, "s_max"),
        ((4.0, 2), {}, "census dimension"),
        ((5, 3), {"k_max": 2.0}, "k_max"),
        ((5, 3), {"k_max": False}, "k_max"),
        ((5, 3), {"workers": 1.5}, "workers"),
        ((5, 3), {"workers": True}, "workers"),
    ]:
        with pytest.raises(rf.RoundFoldError, match=f"{name} must be an int, got"):
            rf.census_table(*args, **kwargs)


# per stratum s, the skeleton buckets of its pages and the pairs of pages
# that share a bucket; the buckets are the 1, 3, 8, 37, 233, 1920, 19630
# connected skeletons
SEPARATION = {1: (1, 0), 2: (3, 0), 3: (8, 1), 4: (37, 6), 5: (233, 61), 6: (1920, 663), 7: (19630, 9618)}


def assert_one_page_per_class(s_max: int, seconds: float) -> None:
    """No two pages of one stratum of ``enumerate_pages(s_max)`` are
    isomorphic by the test oracle, which compares only pages of one skeleton
    bucket (pages of two buckets are never isomorphic); within ``seconds``.
    With the Burnside class counts, this shows exactly one page per class."""
    started = time.perf_counter()
    pages = list(rf.enumerate_pages(s_max))
    encodings = {rf.canonical_page_encoding(g) for g in pages}
    assert len(encodings) == len(pages)
    buckets: dict[tuple, list[rf.LabeledReebGraph]] = {}
    for g in pages:
        buckets.setdefault(skeleton_bucket(g), []).append(g)
    found: dict[int, tuple[int, int]] = {}
    for (kinds, _), same in buckets.items():
        count, pairs = found.get(len(kinds), (0, 0))
        for g0, g1 in itertools.combinations(same, 2):
            assert not brute_force_isomorphic(g0, g1), (rf.serialize_page(g0), rf.serialize_page(g1))
            pairs += 1
        found[len(kinds)] = (count + 1, pairs)
    assert found == {s: SEPARATION[s] for s in range(1, s_max + 1)}
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"separation up to s = {s_max} took {elapsed:.1f} s"


def test_no_two_emitted_pages_isomorphic():
    # 0.5 s on a shared 2-core Xeon VM under Python 3.11
    assert_one_page_per_class(6, seconds=20.0)


@pytest.mark.slow
def test_no_two_emitted_pages_isomorphic_at_s7():
    # 5 to 9 s on a shared 2-core Xeon VM under Python 3.11, half of it in
    # enumerate_pages(7); 9,618 pairs share a bucket at s = 7
    assert_one_page_per_class(7, seconds=120.0)


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


# the manifolds of the n = 5 census rows with s <= s_max
CENSUS_MANIFOLDS = {6: 18, 7: 21}


@pytest.mark.parametrize("s_max", up_to_7(CENSUS_MANIFOLDS))
def test_admits_witness_has_the_fewest_fold_spheres_of_the_census(s_max):
    least: dict = {}
    for row in rf.census_table(5, s_max).rows:
        least[row.manifold] = min(row.s, least.get(row.manifold, row.s))
    assert len(least) == CENSUS_MANIFOLDS[s_max]
    assert {manifold: rf.admits_round_fold(manifold).page.s for manifold in least} == least


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
GOLDEN = [
    (4, 5, "979b4eacf318dabb467dd705ece1f19dfe4ba3449adcfc14796910f6ea943a9f",
     "8947072a7e9f6394508ae548a77a1f80eb5b54bc3b8cfede56284a05d9d1e83a", "n4-s5", []),
    (5, 6, "6c290a264d81c2e76c504199ba028a372848b5570869ef489902906a05376105",
     "e63ce3a244606207dcf4593ad6e09d5eae1cc558022368aee878c4227755fb63", "n5-s6", []),
    (5, 7, "75d8b75e2338e98fda792704160a7d2c1123acaba7afc5c82a7f24c66d5dd8f4",
     "81827d6691ee6301b7c8213cb060a3be368f221eff9c655608a00cb521b9e1fa", "n5-s7", [pytest.mark.slow]),
]
# the benchmark's own census command, n = 5 and s <= 7 in a pool, runs in tier-1
TIER_1 = {"n5-s7-workers2"}


# every case runs in this process (workers=1) and in a process pool
@pytest.mark.parametrize(
    "n, s_max, workers, jsonl_sha, text_sha",
    [
        pytest.param(n, s_max, workers, jsonl_sha, text_sha, id=case, marks=[] if case in TIER_1 else marks)
        for n, s_max, jsonl_sha, text_sha, name, marks in GOLDEN
        for workers in (1, 2)
        for case in [name if workers == 1 else f"{name}-workers{workers}"]
    ],
)
def test_census_golden_bytes(capsys, n, s_max, workers, jsonl_sha, text_sha):
    table = rf.census_table(n, s_max, k_max=3, workers=workers)
    assert hashlib.sha256(rf.census_jsonl(table).encode("utf-8")).hexdigest() == jsonl_sha
    assert hashlib.sha256(rf.census_text(table).encode("utf-8")).hexdigest() == text_sha
    # the command line has its census parts format the lines
    argv = ["census", "--n", str(n), "--s-max", str(s_max), "--k-max", "3", "--workers", str(workers)]
    for fmt, sha in (("jsonl", jsonl_sha), ("table", text_sha)):
        assert main([*argv, "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha


def test_census_pool_never_exceeds_the_usable_cpus(monkeypatch):
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cpus = census.usable_cpus()
    table = rf.census_table(5, 3, workers=10**6)
    assert pools == ([] if cpus == 1 else [cpus])
    assert table == rf.census_table(5, 3, workers=1)


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


def test_the_enumeration_ceiling_has_one_digit():
    ceiling = rf.MAX_ENUMERATION_S
    assert ceiling <= 9, (
        f"MAX_ENUMERATION_S = {ceiling}, but two places assume a one-digit s: the stratum order in "
        "census._run_census (strata in order of s are in order of their canonical forms) and the edge order "
        "in census._skeletons (ranks in order are the names v1..vs in order)"
    )
    # what the two places rely on, for every s up to the ceiling
    strata = range(1, ceiling + 1)
    assert sorted(strata, key=lambda s: f"RF1;n=5;k=0;P1;s={s};") == list(strata)
    assert sorted(strata, key=lambda r: f"v{r}") == list(strata)
