"""Classification policies: compilation to trapdoors and decision making.

The PAP side turns each policy keyword into a trapdoor token (plaintext
keywords are dropped at compile time).  The PDP side tries the compiled
policies in priority order -- larger integer first, ties broken by
lexicographically smallest policy id -- and routes the submission to the
first one whose trapdoors one of its tags passes.  A submission that
matches nothing is routed to the "default" unit with category
"unclassified" -- a storage pipeline has to put every file somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .pairing import PairingSuite, Scalar
from .provenance import ProvenanceFragment
from .scheme import (
    AdminPublicKey,
    ClassificationTag,
    TrapdoorEntry,
    UserPublicKey,
    make_trapdoor,
    matches_trapdoor,
    verify_authenticity,
)

UNCLASSIFIED_CATEGORY = "unclassified"
DEFAULT_STORAGE_UNIT = "default"


@dataclass(frozen=True)
class Policy:
    id: str
    keywords: tuple[ProvenanceFragment, ...]
    priority: int
    category: str
    storage_unit: str

    def __post_init__(self):
        if not self.id:
            raise ValidationError("policy id must be non-empty")
        if not self.keywords:
            raise ValidationError(f"policy {self.id!r} has an empty keyword set")
        if not self.category or not self.storage_unit:
            raise ValidationError(f"policy {self.id!r} needs a category and a storage unit")


@dataclass(frozen=True)
class CompiledPolicy:
    id: str
    priority: int
    category: str
    storage_unit: str
    trapdoors: tuple[TrapdoorEntry, ...]


@dataclass(frozen=True)
class Decision:
    file_id: str
    matched_policy: str | None
    category: str
    storage_unit: str
    authenticated: bool

    @classmethod
    def unclassified(cls, file_id: str, authenticated: bool = True) -> "Decision":
        return cls(
            file_id=file_id,
            matched_policy=None,
            category=UNCLASSIFIED_CATEGORY,
            storage_unit=DEFAULT_STORAGE_UNIT,
            authenticated=authenticated,
        )


def compile_policies(
    policies: list[Policy],
    admin_sk: Scalar,
    suite: PairingSuite,
) -> list[CompiledPolicy]:
    """Replace every keyword with its trapdoor; order is preserved."""
    seen_ids: set[str] = set()
    compiled = []
    for policy in policies:
        if policy.id in seen_ids:
            raise ValidationError(f"duplicate policy id {policy.id!r}")
        seen_ids.add(policy.id)
        trapdoors = tuple(
            make_trapdoor(
                suite,
                admin_sk,
                keyword.canonical_bytes(),
                keyword_slot=f"{policy.id}/k{i}",
            )
            for i, keyword in enumerate(policy.keywords)
        )
        compiled.append(
            CompiledPolicy(
                id=policy.id,
                priority=policy.priority,
                category=policy.category,
                storage_unit=policy.storage_unit,
                trapdoors=trapdoors,
            )
        )
    return compiled


def classify(
    tags: list[ClassificationTag],
    user_pub: UserPublicKey,
    admin_pub: AdminPublicKey,
    compiled: list[CompiledPolicy],
    suite: PairingSuite,
    *,
    file_id: str = "",
    x=None,
) -> Decision:
    """Route one submission.

    Authenticity is checked once on the shared X component; a submission
    with no X to check, or whose X fails, is never keyword-tested.
    Policies are then tried from the highest priority down (ties by
    smallest id), and testing stops at the first policy for which any
    tag passes against any of its trapdoors: the winner is the same as
    when every policy is tested, and no lower-priority match is learned.
    """
    if x is None and tags:
        x = tags[0].x
    if x is None:
        return Decision.unclassified(file_id, authenticated=False)
    if any(tag.x != x for tag in tags):
        raise ValidationError("tags in one submission must share the X component")
    if not verify_authenticity(suite, admin_pub, user_pub, x):
        return Decision.unclassified(file_id, authenticated=False)

    for policy in sorted(compiled, key=lambda p: (-p.priority, p.id)):
        if any(
            matches_trapdoor(suite, trapdoor, tag)
            for trapdoor in policy.trapdoors
            for tag in tags
        ):
            return Decision(
                file_id=file_id,
                matched_policy=policy.id,
                category=policy.category,
                storage_unit=policy.storage_unit,
                authenticated=True,
            )
    return Decision.unclassified(file_id)
