"""The four-algorithm tag/trapdoor scheme.

An administrator holds alpha and publishes its public key in both source
groups; a user holds beta with a public key in group B.  A tag for a
keyword fragment is the triple [X, Y, Z]:

* ``X  = admin_pk_b ^ beta``        -- authenticity component, fixed per
  (admin, user) pair; it proves possession of beta, not anything about
  the payload.
* ``Y  = user_pk_b ^ r``            -- fresh blinding per tag.
* ``Z  = H2(e(H1(P)^beta, admin_pk_b^r))`` -- the searchable digest.

A trapdoor for fragment P is ``H1(P)^alpha``.  The decision point
accepts iff both

1. ``e(g_a, X) == e(admin_pk_a, user_pk_b)``   (authenticity), and
2. ``H2(e(trapdoor, Y)) == Z``                 (keyword match),

which follow from bilinearity exactly when the keys are genuine and the
fragments agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pairing import Group, GroupElement, H2_BYTES, PairingSuite, Scalar


@dataclass(frozen=True)
class AdminPublicKey:
    """Dual representation of g^alpha: one component per source group."""

    pk_a: GroupElement
    pk_b: GroupElement


@dataclass(frozen=True)
class AdminKeyPair:
    sk: Scalar
    pk_a: GroupElement
    pk_b: GroupElement

    @property
    def public(self) -> AdminPublicKey:
        return AdminPublicKey(self.pk_a, self.pk_b)


@dataclass(frozen=True)
class UserPublicKey:
    pk_b: GroupElement


@dataclass(frozen=True)
class UserKeyPair:
    sk: Scalar
    pk_b: GroupElement

    @property
    def public(self) -> UserPublicKey:
        return UserPublicKey(self.pk_b)


@dataclass(frozen=True)
class ClassificationTag:
    """The [X, Y, Z] triple attached to a submission, one per fragment."""

    x: GroupElement
    y: GroupElement
    z: bytes

    def __post_init__(self):
        if len(self.z) != H2_BYTES:
            raise ValueError(f"tag digest must be {H2_BYTES} bytes")


@dataclass(frozen=True)
class TrapdoorEntry:
    """H1(fragment)^alpha plus an opaque slot id; the fragment is absent."""

    token: GroupElement
    keyword_slot: str


def keygen_admin(suite: PairingSuite, rng) -> AdminKeyPair:
    alpha = suite.random_scalar(rng)
    return AdminKeyPair(sk=alpha, pk_a=suite.gen_a ** alpha, pk_b=suite.gen_b ** alpha)


def keygen_user(suite: PairingSuite, rng) -> UserKeyPair:
    beta = suite.random_scalar(rng)
    return UserKeyPair(sk=beta, pk_b=suite.gen_b ** beta)


def make_tag(
    suite: PairingSuite,
    admin_pub: AdminPublicKey,
    user_sk: Scalar,
    fragment: bytes,
    rng,
) -> ClassificationTag:
    """Build a tag for one canonical fragment.  The blinding r never leaves."""
    suite._require(admin_pub.pk_b, Group.B)
    r = suite.random_scalar(rng)
    x = admin_pub.pk_b ** user_sk
    y = (suite.gen_b ** user_sk) ** r
    t = suite.pair(suite.hash_to_group_a(fragment) ** user_sk, admin_pub.pk_b ** r)
    return ClassificationTag(x=x, y=y, z=suite.hash_to_bits(t))


def make_trapdoor(
    suite: PairingSuite,
    admin_sk: Scalar,
    fragment: bytes,
    keyword_slot: str = "",
) -> TrapdoorEntry:
    """Deterministic search token for one canonical fragment."""
    return TrapdoorEntry(
        token=suite.hash_to_group_a(fragment) ** admin_sk,
        keyword_slot=keyword_slot,
    )


def verify_authenticity(
    suite: PairingSuite,
    admin_pub: AdminPublicKey,
    user_pub: UserPublicKey,
    x: GroupElement,
) -> bool:
    """Equation (1): e(g_a, X) == e(admin_pk_a, user_pk_b)."""
    return suite.pairs_equal(suite.gen_a, x, admin_pub.pk_a, user_pub.pk_b)


def matches_trapdoor(
    suite: PairingSuite,
    trapdoor: TrapdoorEntry,
    tag: ClassificationTag,
) -> bool:
    """Equation (2): H2(e(token, Y)) == Z."""
    suite._require(trapdoor.token, Group.A)
    suite._require(tag.y, Group.B)
    return suite.hash_to_bits(suite.pair(trapdoor.token, tag.y)) == tag.z


def test(
    suite: PairingSuite,
    admin_pub: AdminPublicKey,
    user_pub: UserPublicKey,
    trapdoor: TrapdoorEntry,
    tag: ClassificationTag,
) -> bool:
    """Full test: authenticity gate first, then keyword match."""
    if not verify_authenticity(suite, admin_pub, user_pub, tag.x):
        return False
    return matches_trapdoor(suite, trapdoor, tag)
