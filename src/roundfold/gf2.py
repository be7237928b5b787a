"""Tiny GF(2) linear algebra on int bitmasks.

Vectors live in GF(2)^m encoded as Python ints; coordinate j of a vector of
width m sits at bit (m - 1 - j), so the integer order coincides with the
lexicographic order on coordinate strings (coordinate 0 is most significant).
The width m is a page's edge count (3g + 1 on the standard closed genus-g
page) and has no fixed bound; plain ints keep each row XOR one operation.
"""

from __future__ import annotations

from typing import Iterable


def rref(vectors: Iterable[int]) -> dict[int, int]:
    """Echelon form of the span of ``vectors``, one row per leading bit.

    Returns a map ``pivot_bit -> row`` where each row has leading bit
    ``pivot_bit``; the rows form a basis of the span.  Rows are not reduced
    against each other: readers need only the pivot set and a basis whose
    leading bits are distinct.
    """
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            if p in pivots:
                v ^= pivots[p]
            else:
                pivots[p] = v
                break
    return pivots


def coset_representative(v: int, pivots: dict[int, int]) -> int:
    """Unique element of v + span that vanishes on every pivot coordinate.

    ``pivots`` is an echelon form from :func:`rref`.  Clearing the pivot bits
    from the highest down touches only lower bits, so each cleared bit stays
    clear.  With the MSB-first coordinate convention the result is also the
    lexicographic minimum of the coset, so equality of representatives
    decides coset equality.
    """
    for p in sorted(pivots, reverse=True):
        if (v >> p) & 1:
            v ^= pivots[p]
    return v


def complement_bits(pivots: dict[int, int], width: int) -> list[int]:
    """Non-pivot bit positions, descending (i.e. in coordinate order)."""
    return [b for b in range(width - 1, -1, -1) if b not in pivots]


def subspace_elements(generators: Iterable[int]) -> frozenset[int]:
    """Every XOR combination of ``generators`` (exhaustive, for oracles)."""
    elems = {0}
    for g in generators:
        elems |= {x ^ g for x in elems}
    return frozenset(elems)
