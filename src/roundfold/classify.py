"""Equivalence of round fold maps up to diffeomorphisms of source and target.

For n >= 5 the map is classified by its page Morse function alone, and that
function by the rank-preserving isomorphism class of its labeled Reeb graph.
In dimension four the definite-only maps on sphere bundles additionally carry
the clutching integer, compared through its absolute value (the two fold
spheres carry opposite self-intersections, determined up to order).
"""

from __future__ import annotations

from .foldmaps import RoundFoldDescriptor
from .pages import canonical_page_encoding


def a_equivalent(rf0: RoundFoldDescriptor, rf1: RoundFoldDescriptor) -> bool:
    """Decide equivalence by diffeomorphisms of source and target: equal
    canonical forms.  Each descriptor is checked first, and an invalid one
    raises :class:`InvalidDescriptorError`."""
    return canonical_form(rf0) == canonical_form(rf1)


def canonical_form(rf: RoundFoldDescriptor) -> bytes:
    """Deterministic byte encoding of the A-equivalence class: equal for two
    descriptors iff they have the same n and |clutching| and isomorphic pages.

    Layout (ASCII): ``RF1;n=<n>;k=<|clutching|>;`` followed by the canonical
    page encoding (version tag, rank/kind table, boundary targets, edge table,
    canonical twist coset representative).  Stable across releases within a
    major version.
    """
    rf._view  # raises InvalidDescriptorError on an invalid descriptor
    return _form_prefix(rf.n, rf.clutching) + canonical_page_encoding(rf.page)


def _form_prefix(n: int, clutching: int) -> bytes:
    """The ``RF1;n=;k=;`` block that :func:`canonical_form` puts before the
    page encoding."""
    return f"RF1;n={n};k={abs(clutching)};".encode("ascii")
