"""The closed-form twist block of the canonical encoding against the search
over parallel-edge orderings, plus the size gate it makes reachable."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from oracles import (
    burnside_stratum_count,
    graph_from_skeleton,
    matrix_class_count,
    min_over_orderings_twist_block,
    swap_sensitive,
    valid_skeletons,
)

import roundfold as rf
from roundfold import gf2


def twist_block(graph: rf.LabeledReebGraph) -> str:
    return rf.canonical_page_encoding(graph).decode("ascii").split(";T=")[1]


def twisted(graph: rf.LabeledReebGraph, rnd: random.Random) -> rf.LabeledReebGraph:
    return graph.with_twists({e.id: rnd.randint(0, 1) for e in graph.edges})


def assert_search_agrees(s: int, sensitive_only: bool) -> int:
    """Compare the encoder's T block with the search on every twist labeling
    of every valid skeleton with s critical vertices (or only of those where
    a pair swap can change the gauge class); return the labelings checked."""
    checked = 0
    for kinds, edges in valid_skeletons(s):
        if sensitive_only and not swap_sensitive(kinds, edges):
            continue
        for twists in itertools.product((0, 1), repeat=len(edges)):
            g = graph_from_skeleton(kinds, edges, dict(enumerate(twists)))
            assert twist_block(g) == min_over_orderings_twist_block(g), g
            checked += 1
    return checked


# at s <= 4 every pair vector lies in the gauge span, so the swaps act
# trivially there; the first skeleton where a swap matters has s = 5
@pytest.mark.parametrize(
    "s, sensitive_only, labelings",
    [(1, False, 2), (2, False, 14), (3, False, 108), (4, False, 1400), (5, True, 128)],
)
def test_closed_form_matches_search(s, sensitive_only, labelings):
    assert assert_search_agrees(s, sensitive_only) == labelings


@pytest.mark.slow
@pytest.mark.parametrize("s, sensitive_only, labelings", [(5, False, 24944), (6, True, 4224)])
def test_closed_form_matches_search_slow(s, sensitive_only, labelings):
    assert assert_search_agrees(s, sensitive_only) == labelings


def test_closed_form_matches_search_on_twisted_closed_pages():
    rnd = random.Random(2021)
    for genus in range(1, 9):
        page = rf.orientable_closed_page(genus)
        for _ in range(4):
            g = twisted(page, rnd)
            assert twist_block(g) == min_over_orderings_twist_block(g), g


def test_genus_60_encodes_within_bound():
    g = twisted(rf.orientable_closed_page(60), random.Random(60))
    t0 = time.perf_counter()
    block = twist_block(g)
    assert time.perf_counter() - t0 < 2.0
    # one bit per edge, and one surviving bit per handle with odd twist sum
    parallel: dict[tuple[str, str], list[int]] = {}
    for e in g.edges:
        parallel.setdefault((e.low, e.high), []).append(e.twist)
    odd_handles = sum(1 for t in parallel.values() if len(t) == 2 and sum(t) % 2)
    assert len(block) == len(g.edges) == 181
    assert block.count("1") == odd_handles > 0


def test_coset_representative_is_the_coset_minimum():
    rnd = random.Random(2111)
    for _ in range(500):
        width = rnd.randint(1, 8)
        gens = [rnd.getrandbits(width) for _ in range(rnd.randint(0, 6))]
        v = rnd.getrandbits(width)
        least = min(v ^ x for x in gf2.subspace_elements(gens))
        assert gf2.coset_representative(v, gf2.rref(gens)) == least, (gens, v)


@pytest.mark.parametrize("s, classes", [(1, 1), (2, 3), (3, 9), (4, 43), (5, 287), (6, 2480)])
def test_burnside_count_matches_published_classes(s, classes):
    assert burnside_stratum_count(s) == classes


@pytest.mark.slow
def test_burnside_count_s7():
    assert burnside_stratum_count(7) == 26964


@pytest.mark.parametrize(
    "s, classes",
    [(1, 1), (2, 3), (3, 9), (4, 43), (5, 287), (6, 2480), pytest.param(7, 26964, marks=pytest.mark.slow)],
)
def test_burnside_count_over_the_matrix_skeletons_matches_published_classes(s, classes):
    # the same counts from skeletons that the census walk did not generate
    assert matrix_class_count(s) == classes
