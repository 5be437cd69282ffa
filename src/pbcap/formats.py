"""On-disk formats (version ``pbcap/1``).

Everything is JSON with hex-encoded group elements; payload bytes are
base64.  Byte-exact layouts are documented in docs/formats.md.  Loaders
raise DecodeError for anything malformed -- a bad file is an error, not
a "no match".
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import DecodeError, ValidationError
from .pairing import Group, GroupElement, PairingSuite, Scalar
from .policy import CompiledPolicy, Policy
from .provenance import parse_fragment
from .scheme import (
    AdminKeyPair,
    AdminPublicKey,
    ClassificationTag,
    TrapdoorEntry,
    UserKeyPair,
    UserPublicKey,
)
from .storage import check_file_id, check_storage_unit

FORMAT_VERSION = "pbcap/1"


@dataclass(frozen=True)
class Submission:
    """What a user hands to the PDP: opaque payload, its X and one tag per fragment."""

    file_id: str
    payload: bytes
    x: GroupElement
    tags: tuple[ClassificationTag, ...]


def _dump(path: Path, kind: str, suite: PairingSuite, **fields) -> None:
    """Write the envelope and ``fields`` to a new file at ``path``.

    Any old file is unlinked first, so a ``*-secret-key`` file has mode
    0600 from its first byte, also when it replaces a wider one.
    """
    doc = {"format": FORMAT_VERSION, "kind": kind, "suite": suite.name, **fields}
    path.unlink(missing_ok=True)
    mode = 0o600 if kind.endswith("-secret-key") else 0o666
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
    _dump(sk_path, "admin-secret-key", suite, sk=pair.sk.to_bytes().hex())
    _dump(pk_path, "admin-public-key", suite, pk_a=pair.pk_a.hex(), pk_b=pair.pk_b.hex())


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
    _dump(sk_path, "user-secret-key", suite, sk=pair.sk.to_bytes().hex())
    _dump(pk_path, "user-public-key", suite, pk_b=pair.pk_b.hex())


def load_user_secret(path: Path, suite: PairingSuite) -> Scalar:
    return _scalar(suite, _load(path, "user-secret-key", suite), "sk")


def load_user_public(path: Path, suite: PairingSuite) -> UserPublicKey:
    doc = _load(path, "user-public-key", suite)
    pk_b = _element(suite, Group.B, doc, "pk_b")
    if pk_b.is_identity():
        raise DecodeError(f"{path}: user public key is the identity")
    return UserPublicKey(pk_b=pk_b)


# --- policies ---------------------------------------------------------------

def _policy_fields(entry: dict) -> dict:
    """The fields a policy keeps when it is compiled, with its storage unit checked."""
    return {
        "id": str(entry["id"]),
        "priority": int(entry["priority"]),
        "category": str(entry["category"]),
        "storage_unit": check_storage_unit(str(entry["storage_unit"])),
    }


def _policy_entries(path: Path, doc: dict, build) -> list:
    """``build(entry)`` for each policy entry, in file order; an error names the entry."""
    entries = doc.get("policies", [])
    if not isinstance(entries, list):
        raise DecodeError(f"{path}: field 'policies' is not a list")
    built = []
    for i, entry in enumerate(entries):
        try:
            built.append(build(entry))
        except ValidationError as exc:
            raise ValidationError(f"{path}: policy #{i}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise DecodeError(f"{path}: policy #{i}: {exc}") from exc
    return built


def load_policies(path: Path) -> list[Policy]:
    return _policy_entries(path, _load(path, "policy-set"), lambda entry: Policy(
        keywords=tuple(parse_fragment(k) for k in entry["keywords"]),
        **_policy_fields(entry),
    ))


def save_compiled_policies(compiled: list[CompiledPolicy], suite: PairingSuite, path: Path) -> None:
    _dump(path, "compiled-policy-set", suite, policies=[
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
    ])


def load_compiled_policies(path: Path, suite: PairingSuite) -> list[CompiledPolicy]:
    return _policy_entries(path, _load(path, "compiled-policy-set", suite), lambda entry: CompiledPolicy(
        **_policy_fields(entry),
        trapdoors=tuple(
            TrapdoorEntry(
                token=suite.element_from_bytes(Group.A, bytes.fromhex(td["token"])),
                keyword_slot=str(td["slot"]),
            )
            for td in entry["trapdoors"]
        ),
    ))


# --- submissions --------------------------------------------------------------

def save_submission(sub: Submission, suite: PairingSuite, path: Path) -> None:
    _dump(
        path, "submission", suite,
        file_id=sub.file_id,
        x=sub.x.hex(),
        tags=[{"y": t.y.hex(), "z": t.z.hex()} for t in sub.tags],
        payload=base64.b64encode(sub.payload).decode("ascii"),
    )


def load_submission(path: Path, suite: PairingSuite) -> Submission:
    """Read a submission; a file id no store accepts is refused before any element is decoded."""
    doc = _load(path, "submission", suite)
    if not isinstance(doc.get("file_id"), str):
        raise DecodeError(f"{path}: missing or non-string field 'file_id'")
    try:
        file_id = check_file_id(doc["file_id"])
    except ValidationError as exc:
        raise DecodeError(f"{path}: {exc}") from exc
    x = _element(suite, Group.B, doc, "x")
    try:
        tags = tuple(
            ClassificationTag(
                y=suite.element_from_bytes(Group.B, bytes.fromhex(t["y"])),
                z=bytes.fromhex(t["z"]),
            )
            for t in doc.get("tags", [])
        )
        payload = base64.b64decode(doc["payload"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"{path}: {exc}") from exc
    return Submission(file_id=file_id, payload=payload, x=x, tags=tags)
