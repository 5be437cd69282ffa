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
from typing import Iterable

from .errors import ValidationError
from .pairing import GroupElement, PairingSuite
from .scheme import (
    AdminPublicKey,
    ClassificationTag,
    TrapdoorEntry,
    make_trapdoor,
    matches_trapdoor,
    verify_authenticity,
)

UNCLASSIFIED_CATEGORY = "unclassified"
DEFAULT_STORAGE_UNIT = "default"


def _check_policy(policy, conditions: tuple, what: str) -> None:
    """The rules a policy and its compiled form share: a non-empty id,
    condition set (keywords or trapdoors), category and storage unit."""
    if not policy.id:
        raise ValidationError("policy id must be non-empty")
    if not conditions:
        raise ValidationError(f"policy {policy.id!r} has an empty {what} set")
    if not policy.category or not policy.storage_unit:
        raise ValidationError(f"policy {policy.id!r} needs a category and a storage unit")


def check_unique_ids(policies: list) -> list:
    """``policies``, plain or compiled, once no two share an id."""
    seen: set[str] = set()
    for policy in policies:
        if policy.id in seen:
            raise ValidationError(f"duplicate policy id {policy.id!r}")
        seen.add(policy.id)
    return policies


@dataclass(frozen=True)
class Policy:
    id: str
    keywords: tuple[bytes, ...]
    priority: int
    category: str
    storage_unit: str

    def __post_init__(self):
        _check_policy(self, self.keywords, "keyword")


@dataclass(frozen=True)
class CompiledPolicy:
    id: str
    priority: int
    category: str
    storage_unit: str
    trapdoors: tuple[TrapdoorEntry, ...]

    def __post_init__(self):
        _check_policy(self, self.trapdoors, "trapdoor")


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
    admin_sk: int,
    suite: PairingSuite,
) -> list[CompiledPolicy]:
    """Replace every keyword with its trapdoor; order is preserved."""
    return [
        CompiledPolicy(
            id=policy.id,
            priority=policy.priority,
            category=policy.category,
            storage_unit=policy.storage_unit,
            trapdoors=tuple(
                make_trapdoor(suite, admin_sk, keyword, keyword_slot=f"{policy.id}/k{i}")
                for i, keyword in enumerate(policy.keywords)
            ),
        )
        for policy in check_unique_ids(policies)
    ]


def classify(
    tags: Iterable[ClassificationTag],
    user_pk: GroupElement,
    admin_pub: AdminPublicKey,
    compiled: list[CompiledPolicy],
    suite: PairingSuite,
    *,
    x: GroupElement,
    rng,
    file_id: str = "",
) -> Decision:
    """Route one submission.

    Authenticity is checked once on the submission's X component, and
    ``tags`` is not iterated until X passes: a submission whose X fails has
    no tag keyword-tested, nor decoded by a lazy ``tags``.  Policies are then
    tried from the highest priority down (ties by smallest id), and
    testing stops at the first policy for which any tag passes against
    any of its trapdoors: the winner is the same as when every policy is
    tested, and no lower-priority match is learned.  ``rng`` draws the
    authentication's delta (``verify_authenticity``).
    """
    if not verify_authenticity(suite, admin_pub, user_pk, x, rng):
        return Decision.unclassified(file_id, authenticated=False)
    tags = tuple(tags)
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
