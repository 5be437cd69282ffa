"""Bilinear suite abstraction.

Two interchangeable environments implement the same surface:

* ``Bn256Suite`` -- a type-3 pairing over a 256-bit BN curve.  Source
  group A is G1 (where keyword hashes and trapdoors live), source group
  B is G2 (user randomizers and public keys), T is the pairing target.
* ``MockSuite`` -- a transparent group of 61-bit prime order whose
  elements are their own discrete logarithms.  The pairing multiplies
  exponents, so every algebraic identity can be checked exactly.  Test
  infrastructure only; never use it to protect anything.

Elements are immutable; all operations are pure.  Randomness is always
caller-supplied (anything with a ``randrange`` method, e.g.
``secrets.SystemRandom`` in production or a seeded ``random.Random`` in
tests).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Any

from ..errors import DecodeError, GroupMismatchError
from . import bn256

H1_DST = b"PBCAP-H1-v1"
H2_DST = b"PBCAP-H2-v1"
H2_BYTES = 32


class Group(Enum):
    A = "A"
    B = "B"
    T = "T"


@dataclass(frozen=True)
class Scalar:
    """An exponent in Z_p^*; secret keys and blinding factors."""

    value: int

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("scalar must be positive")

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Scalar":
        return cls(int.from_bytes(data, "big"))


class GroupElement:
    """An element of one of the three pairing groups.

    Equality is canonical-bytes equality; the payload representation is
    suite-specific and opaque to callers.
    """

    __slots__ = ("suite", "group", "value", "_bytes")

    def __init__(self, suite: "PairingSuite", group: Group, value: Any):
        self.suite = suite
        self.group = group
        self.value = value
        self._bytes: bytes | None = None

    def to_bytes(self) -> bytes:
        if self._bytes is None:
            self._bytes = self.suite._encode(self)
        return self._bytes

    def hex(self) -> str:
        return self.to_bytes().hex()

    def is_identity(self) -> bool:
        return self.suite._is_identity(self)

    def __pow__(self, k: "Scalar | int") -> "GroupElement":
        if isinstance(k, Scalar):
            k = k.value
        return self.suite._pow(self, k)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.group is not self.group or other.suite is not self.suite:
            raise GroupMismatchError(
                f"cannot combine {self.group.value} and {other.group.value} elements"
            )
        return self.suite._mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (
            self.suite is other.suite
            and self.group is other.group
            and self.to_bytes() == other.to_bytes()
        )

    def __hash__(self):
        return hash((self.group, self.to_bytes()))

    def __repr__(self):
        return f"GroupElement({self.group.value}, {self.to_bytes()[:9].hex()}...)"


class PairingSuite(ABC):
    """Abstract bilinear environment: two source groups, a target, H1, H2."""

    name: str
    order: int
    gen_a: GroupElement
    gen_b: GroupElement

    @abstractmethod
    def identity(self, group: Group) -> GroupElement: ...

    @abstractmethod
    def pair(self, x: GroupElement, y: GroupElement) -> GroupElement: ...

    @abstractmethod
    def hash_to_group_a(self, message: bytes) -> GroupElement: ...

    @abstractmethod
    def element_from_bytes(self, group: Group, data: bytes) -> GroupElement: ...

    @abstractmethod
    def _encode(self, e: GroupElement) -> bytes: ...

    @abstractmethod
    def _pow(self, e: GroupElement, k: int) -> GroupElement: ...

    @abstractmethod
    def _mul(self, a: GroupElement, b: GroupElement) -> GroupElement: ...

    @abstractmethod
    def _is_identity(self, e: GroupElement) -> bool: ...

    def pairs_equal(self, a1: GroupElement, b1: GroupElement,
                    a2: GroupElement, b2: GroupElement) -> bool:
        """Whether e(a1, b1) == e(a2, b2)."""
        return self.pair(a1, b1) == self.pair(a2, b2)

    def hash_to_bits(self, t: GroupElement) -> bytes:
        """H2: digest a target-group element to a fixed 32 bytes."""
        self._require(t, Group.T)
        return hashlib.sha256(H2_DST + b"|T|" + t.to_bytes()).digest()

    def random_scalar(self, rng) -> Scalar:
        """Uniform draw from Z_p^* (zero excluded by the range itself)."""
        return Scalar(rng.randrange(1, self.order))

    def _require(self, e: GroupElement, group: Group) -> None:
        if not isinstance(e, GroupElement) or e.suite is not self:
            raise GroupMismatchError("element does not belong to this suite")
        if e.group is not group:
            raise GroupMismatchError(
                f"expected a group-{group.value} element, got {e.group.value}"
            )


class Bn256Suite(PairingSuite):
    """Production suite over the BN-256 curve (type-3 pairing)."""

    name = "production"

    def __init__(self):
        self.order = bn256.ORDER
        self.gen_a = GroupElement(self, Group.A, bn256.G1_GEN)
        self.gen_b = GroupElement(self, Group.B, bn256.G2_GEN)

    def identity(self, group: Group) -> GroupElement:
        if group is Group.A:
            return GroupElement(self, Group.A, bn256.G1_INF)
        if group is Group.B:
            return GroupElement(self, Group.B, bn256.G2_INF)
        return GroupElement(self, Group.T, bn256.FP12_ONE)

    def pair(self, x: GroupElement, y: GroupElement) -> GroupElement:
        self._require(x, Group.A)
        self._require(y, Group.B)
        return GroupElement(self, Group.T, bn256.pairing(x.value, y.value))

    def pairs_equal(self, a1: GroupElement, b1: GroupElement,
                    a2: GroupElement, b2: GroupElement) -> bool:
        """e(a1, b1) * e(a2, -b2) == 1, with one shared final exponentiation."""
        for a, b in ((a1, b1), (a2, b2)):
            self._require(a, Group.A)
            self._require(b, Group.B)
        return bn256.pairing_product_is_one([(a1.value, b1.value), (a2.value, b2.value.neg())])

    def hash_to_group_a(self, message: bytes) -> GroupElement:
        return GroupElement(self, Group.A, bn256.hash_to_g1(message, H1_DST))

    def element_from_bytes(self, group: Group, data: bytes) -> GroupElement:
        try:
            if group is Group.A:
                return GroupElement(self, Group.A, bn256.g1_from_bytes(data))
            if group is Group.B:
                return GroupElement(self, Group.B, bn256.g2_from_bytes(data))
            return GroupElement(self, Group.T, bn256.gt_from_bytes(data))
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc

    def _encode(self, e: GroupElement) -> bytes:
        if e.group is Group.A:
            return bn256.g1_to_bytes(e.value)
        if e.group is Group.B:
            return bn256.g2_to_bytes(e.value)
        return bn256.gt_to_bytes(e.value)

    def _pow(self, e: GroupElement, k: int) -> GroupElement:
        k %= self.order
        if e.group is Group.T:
            return GroupElement(self, Group.T, e.value.exp(k))
        return GroupElement(self, e.group, e.value.scalar_mul(k))

    def _mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        if a.group is Group.T:
            return GroupElement(self, Group.T, a.value * b.value)
        return GroupElement(self, a.group, a.value.add(b.value))

    def _is_identity(self, e: GroupElement) -> bool:
        if e.group is Group.T:
            return e.value.is_one()
        return e.value.is_infinity()


# 2^61 - 1, a Mersenne prime
MOCK_ORDER = 2305843009213693951


class MockSuite(PairingSuite):
    """Transparent suite: elements are known exponents mod a 61-bit prime.

    ``pair`` multiplies exponents, so the suite doubles as a brute-force
    oracle for every pairing identity.  ``discrete_log`` exposes the
    exponent of any element -- the whole point of the mock, and the
    reason it must never back a real deployment.
    """

    name = "mock"

    def __init__(self):
        self.order = MOCK_ORDER
        self.gen_a = GroupElement(self, Group.A, 1)
        self.gen_b = GroupElement(self, Group.B, 1)

    def identity(self, group: Group) -> GroupElement:
        return GroupElement(self, group, 0)

    def pair(self, x: GroupElement, y: GroupElement) -> GroupElement:
        self._require(x, Group.A)
        self._require(y, Group.B)
        return GroupElement(self, Group.T, x.value * y.value % self.order)

    def hash_to_group_a(self, message: bytes) -> GroupElement:
        digest = hashlib.sha256(H1_DST + b"|" + message).digest()
        return GroupElement(self, Group.A, int.from_bytes(digest, "big") % self.order)

    def element_from_bytes(self, group: Group, data: bytes) -> GroupElement:
        if len(data) != 8:
            raise DecodeError("bad mock element length")
        value = int.from_bytes(data, "big")
        if value >= self.order:
            raise DecodeError("mock exponent out of range")
        return GroupElement(self, group, value)

    def discrete_log(self, e: GroupElement) -> int:
        """Exponent of ``e`` relative to its group generator."""
        if e.suite is not self:
            raise GroupMismatchError("element does not belong to this suite")
        return e.value

    def _encode(self, e: GroupElement) -> bytes:
        return e.value.to_bytes(8, "big")

    def _pow(self, e: GroupElement, k: int) -> GroupElement:
        return GroupElement(self, e.group, e.value * k % self.order)

    def _mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return GroupElement(self, a.group, (a.value + b.value) % self.order)

    def _is_identity(self, e: GroupElement) -> bool:
        return e.value == 0


_SUITES = {"production": Bn256Suite, "mock": MockSuite}


def get_suite(name: str) -> PairingSuite:
    try:
        return _SUITES[name]()
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(_SUITES)}")
