"""Page documents for the benchmark, built without roundfold.

Each generator returns a `Page`: the JSON document the program reads plus
the answers the benchmark expects, taken from the closed formulas of the
family.  The seed draws only twists, gauge flips, parallel-edge swaps, id
relabelings and the order of entries in the document; the family and its
size come from the caller's fixed histogram.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass
class Page:
    vertices: list  # [id, kind, rank]
    edges: list  # [id, low, high, twist]
    s: int
    orientable: bool
    boundary: int
    chi: int
    family: str

    @property
    def kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, kind, _ in self.vertices:
            out[kind] = out.get(kind, 0) + 1
        return out

    def fiber_counts(self) -> list[int]:
        rank = {vid: r for vid, _, r in self.vertices}
        counts = [0] * (self.s + 1)
        for _, low, high, _ in self.edges:
            for r in range(rank[low], rank[high]):
                counts[r] += 1
        return counts

    def surface_text(self) -> str:
        if self.orientable:
            shape = f"orientable g={(2 - self.boundary - self.chi) // 2}"
        else:
            shape = f"nonorientable k={2 - self.boundary - self.chi}"
        closed = " closed" if self.boundary == 0 else ""
        return f"{shape} b={self.boundary} chi={self.chi}{closed}"

    def manifold_text(self, n: int, clutching: int = 0) -> str:
        return manifold_of(n, self.orientable, self.boundary, self.chi, clutching)

    def document(self, rng: random.Random) -> str:
        vertices = [{"id": v, "kind": k, "rank": r} for v, k, r in self.vertices]
        edges = [{"id": e, "low": lo, "high": hi, "twist": t} for e, lo, hi, t in self.edges]
        rng.shuffle(vertices)
        rng.shuffle(edges)
        return json.dumps({"vertices": vertices, "edges": edges}, indent=1) + "\n"


def manifold_of(n: int, orientable: bool, boundary: int, chi: int, clutching: int = 0) -> str:
    """Total space of the open book over a page with these invariants."""
    if boundary == 0:
        if orientable:
            genus = (2 - chi) // 2
            if n == 4 and genus == 0 and clutching % 2:
                return "twisted_s2s2"
            return f"surface_product n={n} genus={genus}"
        return f"surface_product n={n} crosscaps={2 - chi}"
    if orientable and boundary == 1 and chi == 1:
        return f"sphere n={n}"
    twisted = 0 if orientable else 1
    return f"handle_sum n={n} a={1 - chi - twisted} b={twisted}"


def _relabel(rng: random.Random, vertices: list, edges: list) -> tuple[list, list]:
    """Give vertices and edges fresh random ids (edge order follows ids)."""
    vnames = rng.sample(range(10 * len(vertices) + 10), len(vertices))
    enames = rng.sample(range(10 * len(edges) + 10), len(edges))
    vmap = {v[0]: f"n{x}" for v, x in zip(vertices, vnames)}
    vs = [[vmap[v], k, r] for v, k, r in vertices]
    es = [[f"a{x}", vmap[lo], vmap[hi], t] for (_, lo, hi, t), x in zip(edges, enames)]
    return vs, es


def _gauge_flip(rng: random.Random, vertices: list, edges: list) -> None:
    """Flip the fiber orientation over random vertices: toggles every
    incident edge, which keeps the twist class."""
    for vid, _, _ in vertices:
        if rng.random() < 0.5:
            for e in edges:
                if vid in (e[1], e[2]):
                    e[3] ^= 1


def handle(rng: random.Random, a: int, b: int) -> Page:
    """Disk with a orientable and b non-orientable bands: a merges over
    a + 1 boundary circles, then b saddle_b pieces, then the max.  The graph
    is a tree, so every twist labeling is gauge-trivial; twists are random."""
    s = 1 + a + b
    vertices = [[f"b{i}", "boundary", 0] for i in range(a + 1)]
    edges = []
    below = "b0"
    for r in range(1, a + 1):
        vertices.append([f"v{r}", "saddle_p", r])
        edges += [[None, below, f"v{r}", 0], [None, f"b{r}", f"v{r}", 0]]
        below = f"v{r}"
    for r in range(a + 1, s):
        vertices.append([f"v{r}", "saddle_b", r])
        edges.append([None, below, f"v{r}", 0])
        below = f"v{r}"
    vertices.append([f"v{s}", "max", s])
    edges.append([None, below, f"v{s}", 0])
    for e in edges:
        e[3] = rng.randrange(2)
    vs, es = _relabel(rng, vertices, edges)
    return Page(vs, es, s, b == 0, a + 1, 1 - a - b, f"handle({a},{b})")


def closed_orientable_shape(
    rng: random.Random, genus: int, sums: list[int] | None = None
) -> Page:
    """min, a split/merge pair per handle, max.  ``sums`` gives the twist sum
    of each handle's parallel pair (drawn at random when None); the page is
    orientable iff every sum is 0, and two pages of this shape are isomorphic
    iff their sum vectors are equal."""
    if sums is None:
        sums = [rng.randrange(2) for _ in range(genus)]
    if genus == 0:
        vertices = [["v1", "min", 1], ["v2", "max", 2]]
        edges = [[None, "v1", "v2", 0]]
    else:
        s = 2 * genus + 2
        vertices = [["v1", "min", 1], [f"v{s}", "max", s]]
        edges = [[None, "v1", "v2", 0]]
        for i in range(genus):
            split, merge = 2 + 2 * i, 3 + 2 * i
            vertices += [[f"v{split}", "saddle_p", split], [f"v{merge}", "saddle_p", merge]]
            pair = [[None, f"v{split}", f"v{merge}", 0], [None, f"v{split}", f"v{merge}", sums[i]]]
            rng.shuffle(pair)  # parallel-edge swap
            edges += pair
            edges.append([None, f"v{merge}", f"v{merge + 1}", 0])
    _gauge_flip(rng, vertices, edges)
    vs, es = _relabel(rng, vertices, edges)
    s = 2 * genus + 2
    return Page(vs, es, s, not any(sums), 0, 2 - 2 * genus, f"closed_orientable({genus})")


def closed_nonorientable(rng: random.Random, crosscaps: int) -> Page:
    """min, a chain of saddle_b pieces, max; random twists (a tree)."""
    s = crosscaps + 2
    vertices = [["v1", "min", 1]]
    vertices += [[f"v{r}", "saddle_b", r] for r in range(2, s)]
    vertices.append([f"v{s}", "max", s])
    edges = [[None, f"v{r}", f"v{r + 1}", rng.randrange(2)] for r in range(1, s)]
    vs, es = _relabel(rng, vertices, edges)
    return Page(vs, es, s, False, 0, 2 - crosscaps, f"closed_nonorientable({crosscaps})")


# -- invalid documents ---------------------------------------------------------

# mutation -> (validate exit code, exit code of every other page command)
MUTATIONS = {
    "truncated": (2, 2),
    "bad_twist": (2, 2),
    "rank_gap": (1, 2),
    "unknown_endpoint": (1, 2),
}


def mutate(rng: random.Random, page: Page, mutation: str) -> str:
    """Document text of ``page`` broken in the named way."""
    if mutation == "truncated":
        text = page.document(rng)
        return text[: len(text) // 2]
    doc = json.loads(page.document(rng))
    if mutation == "bad_twist":
        rng.choice(doc["edges"])["twist"] = 2
    elif mutation == "rank_gap":
        max(doc["vertices"], key=lambda v: v["rank"])["rank"] += 1
    elif mutation == "unknown_endpoint":
        rng.choice(doc["edges"])["high"] = "missing"
    else:
        raise ValueError(mutation)
    return json.dumps(doc, indent=1) + "\n"
