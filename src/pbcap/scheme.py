"""The four-algorithm tag/trapdoor scheme.

An administrator holds alpha and publishes its public key in both source
groups; a user holds beta with a public key in group B.  A submission
carries one authenticity component and one tag per keyword fragment:

* ``X  = admin_pk_b ^ beta``        -- fixed per (admin, user) pair; it
  proves possession of beta, not anything about the payload, so it is
  computed once per submission (``make_x``).
* ``Y  = user_pk_b ^ r``            -- fresh blinding per tag.
* ``Z  = H2(e(H1(P)^beta, admin_pk_b^r))`` -- the searchable digest.

Both Y and Z depend on beta and r only through s = beta*r mod n, so
``make_tag`` computes ``Y = g_b^s`` and ``Z = H2(e(H1(P)^s, admin_pk_b))``,
which by bilinearity equal the paper's values, for one G2 and one G1
scalar multiplication per tag.

The paper's tag is the triple [X, Y, Z]; ``ClassificationTag`` holds
only (Y, Z), and X travels next to the tags.  A trapdoor for fragment P
is ``H1(P)^alpha``.  The decision point accepts iff both

1. ``e(g_a, X) == e(admin_pk_a, user_pk_b)``   (authenticity), and
2. ``H2(e(trapdoor, Y)) == Z``                 (keyword match),

which follow from bilinearity exactly when the keys are genuine and the
fragments agree.  The paper's Test algorithm is these two checks,
``verify_authenticity`` then ``matches_trapdoor``, as ``policy.classify``
runs them: authenticity once per submission, then each (tag, trapdoor)
pair until a policy matches.

Equation (1) binds X to admin_pk_a, but X is made from admin_pk_b, so
the admin key must also hold the same exponent in both groups:

0. ``e(admin_pk_a, g_b) == e(g_a, admin_pk_b)``  (``check_admin_key``).

``verify_authenticity`` checks (0) and (1) in one 2-pair product, the
small-exponent batch test (Bellare, Garay and Rabin, Eurocrypt 1998;
Ferrara et al., CT-RSA 2009), with a fresh delta per call:

    e(admin_pk_a, g_b^delta * user_pk_b) == e(g_a, admin_pk_b^delta * X).

With r0 and r1 the left side over the right side of (0) and (1), it
holds iff r0^delta == r1.  If (0) fails, r0 generates the prime-order
target group and one delta mod n at most passes; if only (1) fails, none
does.  The draw r is uniform in [1, min(2^128, n)), and the suite maps
it to delta one to one (``PairingSuite.batch_exponent``), so delta is
uniform over 2^128 - 1 non-zero residues on BN-256, and a bad key or a
forged X passes with probability at most 1/(2^128 - 1).  The bound needs
every element in its prime-order group, which decoding guarantees.  The
check needs no G2 negation.  BN-256 takes delta = sum d_j lambda^j mod n
over r's four 32-bit limbs d_j, with lambda the eigenvalue of psi, so
each of its two G2 multiplications is a 4-D ladder of 32 bits where a
random delta's takes about 65; the mock suite takes delta = r, so its
exponents stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pairing import GroupElement, H2_BYTES, PairingSuite


@dataclass(frozen=True)
class AdminPublicKey:
    """Dual representation of g^alpha: one component per source group."""

    pk_a: GroupElement
    pk_b: GroupElement


@dataclass(frozen=True)
class ClassificationTag:
    """The (Y, Z) pair attached to a submission, one per fragment."""

    y: GroupElement
    z: bytes

    def __post_init__(self):
        if len(self.z) != H2_BYTES:
            raise ValueError(f"tag digest must be {H2_BYTES} bytes")
        # e(token, 1) = 1 for every token, so z = H2(1) would match every trapdoor
        if self.y.is_identity():
            raise ValueError("tag y is the identity")


@dataclass(frozen=True)
class TrapdoorEntry:
    """H1(fragment)^alpha plus an opaque slot id; the fragment is absent."""

    token: GroupElement
    keyword_slot: str


def keygen_admin(suite: PairingSuite, rng) -> tuple[int, AdminPublicKey]:
    alpha = suite.random_scalar(rng)
    return alpha, AdminPublicKey(pk_a=suite.gen_a ** alpha, pk_b=suite.gen_b ** alpha)


def keygen_user(suite: PairingSuite, rng) -> tuple[int, GroupElement]:
    beta = suite.random_scalar(rng)
    return beta, suite.gen_b ** beta


def make_x(admin_pub: AdminPublicKey, user_sk: int) -> GroupElement:
    """The authenticity component X = admin_pk_b ^ beta, one per submission."""
    return admin_pub.pk_b ** user_sk


def make_tag(
    suite: PairingSuite,
    admin_pub: AdminPublicKey,
    user_sk: int,
    fragment: bytes,
    rng,
) -> ClassificationTag:
    """Build a tag for one canonical fragment.  The blinding r never leaves."""
    r = suite.random_scalar(rng)
    s = user_sk * r % suite.order
    t = suite.pair(suite.hash_to_group_a(fragment) ** s, admin_pub.pk_b)
    return ClassificationTag(y=suite.gen_b ** s, z=suite.hash_to_bits(t))


def make_trapdoor(
    suite: PairingSuite,
    admin_sk: int,
    fragment: bytes,
    keyword_slot: str = "",
) -> TrapdoorEntry:
    """Deterministic search token for one canonical fragment."""
    return TrapdoorEntry(
        token=suite.hash_to_group_a(fragment) ** admin_sk,
        keyword_slot=keyword_slot,
    )


def check_admin_key(suite: PairingSuite, admin_pub: AdminPublicKey) -> bool:
    """Equation (0): e(admin_pk_a, g_b) == e(g_a, admin_pk_b)."""
    return suite.pairs_equal(admin_pub.pk_a, suite.gen_b, suite.gen_a, admin_pub.pk_b)


def verify_authenticity(
    suite: PairingSuite,
    admin_pub: AdminPublicKey,
    user_pk: GroupElement,
    x: GroupElement,
    rng,
) -> bool:
    """Equations (0) and (1) batched into one product with a delta drawn
    from ``rng`` (see the module docstring)."""
    delta = suite.batch_exponent(rng.randrange(1, min(2 ** 128, suite.order)))
    return suite.pairs_equal(admin_pub.pk_a, suite.gen_b ** delta * user_pk,
                             suite.gen_a, admin_pub.pk_b ** delta * x)


def matches_trapdoor(
    suite: PairingSuite,
    trapdoor: TrapdoorEntry,
    tag: ClassificationTag,
) -> bool:
    """Equation (2): H2(e(token, Y)) == Z."""
    return suite.hash_to_bits(suite.pair(trapdoor.token, tag.y)) == tag.z

