"""On-disk formats (version ``pbcap/1``).

Everything is JSON with hex-encoded group elements; payload bytes are
base64.  Byte-exact layouts are documented in docs/formats.md.  Loaders
raise DecodeError for anything malformed -- a bad file is an error, not
a "no match".
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DecodeError, ValidationError
from .pairing import Group, GroupElement, PairingSuite, Scalar
from .policy import CompiledPolicy, Decision, Policy
from .provenance import parse_fragment
from .scheme import (
    AdminKeyPair,
    AdminPublicKey,
    ClassificationTag,
    TrapdoorEntry,
    UserKeyPair,
    UserPublicKey,
)

FORMAT_VERSION = "pbcap/1"


@dataclass(frozen=True)
class Submission:
    """What a user hands to the PDP: opaque payload plus tags sharing one X."""

    file_id: str
    payload: bytes
    x: GroupElement
    tags: tuple[ClassificationTag, ...]


def _dump(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load(path: Path, expected_kind: str, suite: PairingSuite | None = None) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DecodeError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_VERSION:
        raise DecodeError(f"{path}: not a {FORMAT_VERSION} file")
    if doc.get("kind") != expected_kind:
        raise DecodeError(f"{path}: expected kind {expected_kind!r}, got {doc.get('kind')!r}")
    if suite is not None and doc.get("suite") != suite.name:
        raise DecodeError(
            f"{path}: file is for suite {doc.get('suite')!r}, not {suite.name!r}"
        )
    return doc


def _element(suite: PairingSuite, group: Group, doc: dict, key: str) -> GroupElement:
    try:
        raw = bytes.fromhex(doc[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"missing or malformed field {key!r}") from exc
    return suite.element_from_bytes(group, raw)


def _scalar(suite: PairingSuite, doc: dict, key: str) -> Scalar:
    try:
        scalar = Scalar.from_bytes(bytes.fromhex(doc[key]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"missing or malformed field {key!r}") from exc
    if scalar.value >= suite.order:
        raise DecodeError(f"field {key!r} is not below the group order")
    return scalar


# --- keys -----------------------------------------------------------------

def save_admin_keypair(pair: AdminKeyPair, suite: PairingSuite, sk_path: Path, pk_path: Path) -> None:
    _dump(sk_path, {
        "format": FORMAT_VERSION,
        "kind": "admin-secret-key",
        "suite": suite.name,
        "sk": pair.sk.to_bytes().hex(),
    })
    sk_path.chmod(0o600)
    _dump(pk_path, {
        "format": FORMAT_VERSION,
        "kind": "admin-public-key",
        "suite": suite.name,
        "pk_a": pair.pk_a.hex(),
        "pk_b": pair.pk_b.hex(),
    })


def load_admin_secret(path: Path, suite: PairingSuite) -> Scalar:
    return _scalar(suite, _load(path, "admin-secret-key", suite), "sk")


def load_admin_public(path: Path, suite: PairingSuite) -> AdminPublicKey:
    doc = _load(path, "admin-public-key", suite)
    pub = AdminPublicKey(
        pk_a=_element(suite, Group.A, doc, "pk_a"),
        pk_b=_element(suite, Group.B, doc, "pk_b"),
    )
    # dual-representation consistency: both components must share alpha
    if not suite.pairs_equal(pub.pk_a, suite.gen_b, suite.gen_a, pub.pk_b):
        raise DecodeError(f"{path}: pk_a and pk_b do not share an exponent")
    return pub


def save_user_keypair(pair: UserKeyPair, suite: PairingSuite, sk_path: Path, pk_path: Path) -> None:
    _dump(sk_path, {
        "format": FORMAT_VERSION,
        "kind": "user-secret-key",
        "suite": suite.name,
        "sk": pair.sk.to_bytes().hex(),
    })
    sk_path.chmod(0o600)
    _dump(pk_path, {
        "format": FORMAT_VERSION,
        "kind": "user-public-key",
        "suite": suite.name,
        "pk_b": pair.pk_b.hex(),
    })


def load_user_secret(path: Path, suite: PairingSuite) -> Scalar:
    return _scalar(suite, _load(path, "user-secret-key", suite), "sk")


def load_user_public(path: Path, suite: PairingSuite) -> UserPublicKey:
    doc = _load(path, "user-public-key", suite)
    pk_b = _element(suite, Group.B, doc, "pk_b")
    if pk_b.is_identity():
        raise DecodeError(f"{path}: user public key is the identity")
    return UserPublicKey(pk_b=pk_b)


# --- policies ---------------------------------------------------------------

def load_policies(path: Path) -> list[Policy]:
    doc = _load(path, "policy-set")
    policies = []
    seen: set[str] = set()
    for i, entry in enumerate(doc.get("policies", [])):
        where = f"{path}: policy #{i}"
        try:
            keywords = tuple(parse_fragment(k) for k in entry["keywords"])
            policy = Policy(
                id=str(entry["id"]),
                keywords=keywords,
                priority=int(entry["priority"]),
                category=str(entry["category"]),
                storage_unit=str(entry["storage_unit"]),
            )
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise DecodeError(f"{where}: {exc}") from exc
        if policy.id in seen:
            raise ValidationError(f"{where}: duplicate policy id {policy.id!r}")
        seen.add(policy.id)
        policies.append(policy)
    return policies


def save_compiled_policies(compiled: list[CompiledPolicy], suite: PairingSuite, path: Path) -> None:
    _dump(path, {
        "format": FORMAT_VERSION,
        "kind": "compiled-policy-set",
        "suite": suite.name,
        "policies": [
            {
                "id": p.id,
                "priority": p.priority,
                "category": p.category,
                "storage_unit": p.storage_unit,
                "trapdoors": [
                    {"slot": td.keyword_slot, "token": td.token.hex()}
                    for td in p.trapdoors
                ],
            }
            for p in compiled
        ],
    })


def load_compiled_policies(path: Path, suite: PairingSuite) -> list[CompiledPolicy]:
    doc = _load(path, "compiled-policy-set", suite)
    compiled = []
    for i, entry in enumerate(doc.get("policies", [])):
        try:
            trapdoors = tuple(
                TrapdoorEntry(
                    token=suite.element_from_bytes(Group.A, bytes.fromhex(td["token"])),
                    keyword_slot=str(td["slot"]),
                )
                for td in entry["trapdoors"]
            )
            compiled.append(CompiledPolicy(
                id=str(entry["id"]),
                priority=int(entry["priority"]),
                category=str(entry["category"]),
                storage_unit=str(entry["storage_unit"]),
                trapdoors=trapdoors,
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise DecodeError(f"{path}: policy #{i}: {exc}") from exc
    return compiled


# --- submissions --------------------------------------------------------------

def save_submission(sub: Submission, suite: PairingSuite, path: Path) -> None:
    _dump(path, {
        "format": FORMAT_VERSION,
        "kind": "submission",
        "suite": suite.name,
        "file_id": sub.file_id,
        "x": sub.x.hex(),
        "tags": [{"y": t.y.hex(), "z": t.z.hex()} for t in sub.tags],
        "payload": base64.b64encode(sub.payload).decode("ascii"),
    })


def load_submission(path: Path, suite: PairingSuite) -> Submission:
    doc = _load(path, "submission", suite)
    x = _element(suite, Group.B, doc, "x")
    try:
        tags = tuple(
            ClassificationTag(
                x=x,
                y=suite.element_from_bytes(Group.B, bytes.fromhex(t["y"])),
                z=bytes.fromhex(t["z"]),
            )
            for t in doc.get("tags", [])
        )
        payload = base64.b64decode(doc["payload"], validate=True)
        file_id = str(doc["file_id"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"{path}: {exc}") from exc
    if not file_id:
        raise DecodeError(f"{path}: empty file_id")
    return Submission(file_id=file_id, payload=payload, x=x, tags=tags)


# --- decision log ---------------------------------------------------------

def decision_to_json(decision: Decision) -> str:
    return json.dumps({
        "file_id": decision.file_id,
        "matched_policy": decision.matched_policy,
        "category": decision.category,
        "storage_unit": decision.storage_unit,
        "authenticated": decision.authenticated,
    }, sort_keys=True)

