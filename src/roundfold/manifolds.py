"""Normal forms and invariants for the closed manifolds realized by round
fold maps into codimension minus one.

The admissible total spaces fall into four families: the standard sphere,
connected sums of sphere bundles over the circle (orientable or twisted
copies), products of a sphere with a closed surface, and the twisted
S^2-bundle over S^2 in dimension four.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import RoundFoldError
from .pages import SurfaceType, orientable_surface


@dataclass(frozen=True)
class Sphere:
    """The standard n-sphere."""

    n: int

    def __post_init__(self) -> None:
        _check_dim(self.n)


@dataclass(frozen=True)
class HandleSum:
    """Connected sum of ``a`` copies of S^1 x S^(n-1) and ``b`` copies of the
    twisted bundle S^1 ~x S^(n-1).

    The normal form keeps b in {0, 1}: once one twisted summand is present,
    handle slides on the bounding 1-handlebody convert any further twisted
    summand into an untwisted one.
    """

    n: int
    a: int
    b: int

    def __post_init__(self) -> None:
        _check_dim(self.n)
        for name in ("a", "b"):
            count = getattr(self, name)
            if type(count) is not int:
                raise RoundFoldError(f"handle sum {name} must be an int, got {count!r}")
        if self.a < 0 or self.b < 0 or self.a + self.b < 1:
            raise RoundFoldError(f"handle sum needs a, b >= 0 and a + b >= 1, got a={self.a} b={self.b}")


@dataclass(frozen=True)
class SurfaceProduct:
    """Product of S^(n-2) with a closed connected surface."""

    n: int
    sigma: SurfaceType

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if not self.sigma.closed:
            raise RoundFoldError("surface product needs a closed surface")


@dataclass(frozen=True)
class TwistedS2S2:
    """Total space of the unique non-trivial S^2-bundle over S^2 (n = 4)."""

    @property
    def n(self) -> int:
        return 4


ManifoldDescriptor = Union[Sphere, HandleSum, SurfaceProduct, TwistedS2S2]


def _check_dim(n: int) -> None:
    if not isinstance(n, int) or n < 4:
        raise RoundFoldError(f"manifold dimension must be an integer >= 4, got {n!r}")


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class FreeGroup:
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise RoundFoldError(f"free group rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class SurfaceGroup:
    sigma: SurfaceType


GroupDescriptor = Union[Trivial, FreeGroup, SurfaceGroup]


def normalize(d: ManifoldDescriptor) -> ManifoldDescriptor:
    """Idempotent normal form; only handle sums with b >= 2 change."""
    if isinstance(d, HandleSum) and d.b >= 1:
        return HandleSum(d.n, d.a + d.b - 1, 1)
    return d


def equivalent(d0: ManifoldDescriptor, d1: ManifoldDescriptor) -> bool:
    """Field-wise equality after normalization."""
    return normalize(d0) == normalize(d1)


def euler_characteristic(d: ManifoldDescriptor) -> int:
    match d:
        case Sphere(n):
            return 1 + (-1) ** n
        case HandleSum(n, a, b):
            return 2 - 2 * (a + b) if n % 2 == 0 else 0
        case SurfaceProduct(n, sigma):
            return 2 * sigma.euler if n % 2 == 0 else 0
        case TwistedS2S2():
            return 4
    raise RoundFoldError(f"unknown descriptor {d!r}")


def fundamental_group(d: ManifoldDescriptor) -> GroupDescriptor:
    match d:
        case Sphere() | TwistedS2S2():
            return Trivial()
        case HandleSum(_, a, b):
            return FreeGroup(a + b)
        case SurfaceProduct(_, sigma):
            if sigma == orientable_surface(0):
                return Trivial()
            return SurfaceGroup(sigma)
    raise RoundFoldError(f"unknown descriptor {d!r}")


def is_orientable_manifold(d: ManifoldDescriptor) -> bool:
    match d:
        case HandleSum(_, _, b):
            return b == 0
        case SurfaceProduct(_, sigma):
            return sigma.orientable
        case _:
            return True


def describe(d: ManifoldDescriptor) -> str:
    """Textual form matching the manifold spec mini-grammar."""
    match d:
        case Sphere(n):
            return f"sphere n={n}"
        case HandleSum(n, a, b):
            return f"handle_sum n={n} a={a} b={b}"
        case SurfaceProduct(n, sigma):
            if sigma.orientable:
                return f"surface_product n={n} genus={sigma.genus}"
            return f"surface_product n={n} crosscaps={sigma.crosscaps}"
        case TwistedS2S2():
            return "twisted_s2s2"
    raise RoundFoldError(f"unknown descriptor {d!r}")
