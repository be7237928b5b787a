"""Equivalence of round fold maps up to diffeomorphisms of source and target.

For n >= 5 the map is classified by its page Morse function alone, and that
function by the rank-preserving isomorphism class of its labeled Reeb graph.
In dimension four the definite-only maps on sphere bundles additionally carry
the clutching integer, compared through its absolute value (the two fold
spheres carry opposite self-intersections, determined up to order).
"""

from __future__ import annotations

import warnings

from .foldmaps import RoundFoldDescriptor, require_valid_descriptor
from .pages import canonical_page_encoding, page_isomorphic


def a_equivalent(rf0: RoundFoldDescriptor, rf1: RoundFoldDescriptor) -> bool:
    """Decide equivalence by diffeomorphisms of source and target."""
    require_valid_descriptor(rf0)
    require_valid_descriptor(rf1)
    if rf0.n != rf1.n:
        return False
    if not page_isomorphic(rf0.page, rf1.page):
        return False
    if rf0.n == 4:
        return abs(rf0.clutching) == abs(rf1.clutching)
    return True


def r_equivalent_standard(rf0: RoundFoldDescriptor, rf1: RoundFoldDescriptor) -> bool:
    """Equivalence by a source diffeomorphism alone, for maps already in
    standard form; decided by the same page comparison.

    For n = 4 this delegates to :func:`a_equivalent` (the page-only statement
    is native to n >= 5) and says so with a warning.
    """
    require_valid_descriptor(rf0)
    require_valid_descriptor(rf1)
    if rf0.n == 4 or rf1.n == 4:
        warnings.warn(
            "standard-form comparison at n = 4 is delegated to the full equivalence test",
            stacklevel=2,
        )
    return a_equivalent(rf0, rf1)


def canonical_form(rf: RoundFoldDescriptor) -> bytes:
    """Deterministic byte encoding with equality iff :func:`a_equivalent`.

    Layout (ASCII): ``RF1;n=<n>;k=<|clutching|>;`` followed by the canonical
    page encoding (version tag, rank/kind table, boundary targets, edge table,
    canonical twist coset representative).  Stable across releases within a
    major version.
    """
    require_valid_descriptor(rf)
    return _form_prefix(rf.n, rf.clutching) + canonical_page_encoding(rf.page)


def _form_prefix(n: int, clutching: int) -> bytes:
    """The ``RF1;n=;k=;`` block that :func:`canonical_form` puts before the
    page encoding."""
    return f"RF1;n={n};k={abs(clutching)};".encode("ascii")
