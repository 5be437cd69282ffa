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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import DecodeError, PbcapError
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
_JSON_TYPES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


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


@contextmanager
def _naming(where) -> Iterator[None]:
    """Prefix each refusal raised inside with ``where``; an unreadable file or a
    value of the right JSON type that does not decode is a DecodeError."""
    try:
        yield
    except PbcapError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise DecodeError(f"{where}: {exc}") from exc


@contextmanager
def _load(path: Path, expected_kind: str, suite: PairingSuite | None = None) -> Iterator[dict]:
    """Yield the document at ``path`` once its envelope is checked; every refusal names ``path``."""
    with _naming(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if type(doc) is not dict or doc.get("format") != FORMAT_VERSION:
            raise DecodeError(f"not a {FORMAT_VERSION} file")
        if doc.get("kind") != expected_kind:
            raise DecodeError(f"expected kind {expected_kind!r}, got {doc.get('kind')!r}")
        if suite is not None and doc.get("suite") != suite.name:
            raise DecodeError(f"file is for suite {doc.get('suite')!r}, not {suite.name!r}")
        yield doc


def _field(doc: dict, key: str, kind: type, of: type | None = None, decode=None):
    """``doc[key]`` if its JSON type is exactly ``kind`` (a bool is no integer), else a
    DecodeError.  With ``of``, a list whose every entry has the JSON type ``of``; with
    ``decode``, ``decode(doc[key])``, and a value that does not decode names the field."""
    if key not in doc:
        raise DecodeError(f"missing field {key!r}")
    if type(doc[key]) is not kind:
        raise DecodeError(f"field {key!r} is not {_JSON_TYPES[kind]}")
    if of and any(type(entry) is not of for entry in doc[key]):
        raise DecodeError(f"field {key!r} has an entry that is not {_JSON_TYPES[of]}")
    with _naming(f"field {key!r}"):
        return decode(doc[key]) if decode else doc[key]


def _hex(text: str) -> bytes:
    """The bytes of ``text`` if it is hex as the writers write it: lower case,
    no separators.  ``bytes.fromhex`` alone also reads upper case and spaces."""
    data = bytes.fromhex(text)
    if data.hex() != text:
        raise ValueError("not lower-case hex without separators")
    return data


def _element(suite: PairingSuite, group: Group, doc: dict, key: str) -> GroupElement:
    return _field(doc, key, str, decode=lambda text: suite.element_from_bytes(group, _hex(text)))


def _scalar(suite: PairingSuite, doc: dict, key: str) -> Scalar:
    scalar = _field(doc, key, str, decode=lambda text: Scalar.from_bytes(_hex(text)))
    if scalar.value >= suite.order:
        raise DecodeError(f"field {key!r} is not below the group order")
    return scalar


# --- keys -----------------------------------------------------------------

def save_admin_keypair(pair: AdminKeyPair, suite: PairingSuite, sk_path: Path, pk_path: Path) -> None:
    _dump(sk_path, "admin-secret-key", suite, sk=pair.sk.to_bytes().hex())
    _dump(pk_path, "admin-public-key", suite, pk_a=pair.pk_a.hex(), pk_b=pair.pk_b.hex())


def load_admin_secret(path: Path, suite: PairingSuite) -> Scalar:
    with _load(path, "admin-secret-key", suite) as doc:
        return _scalar(suite, doc, "sk")


def load_admin_public(path: Path, suite: PairingSuite) -> AdminPublicKey:
    with _load(path, "admin-public-key", suite) as doc:
        pk_a, pk_b = _element(suite, Group.A, doc, "pk_a"), _element(suite, Group.B, doc, "pk_b")
        # an identity key passes the dual-representation check below with both sides 1
        if pk_a.is_identity() or pk_b.is_identity():
            raise DecodeError("admin public key is the identity")
        if not suite.pairs_equal(pk_a, suite.gen_b, suite.gen_a, pk_b):
            raise DecodeError("pk_a and pk_b do not share an exponent")
    return AdminPublicKey(pk_a=pk_a, pk_b=pk_b)


def save_user_keypair(pair: UserKeyPair, suite: PairingSuite, sk_path: Path, pk_path: Path) -> None:
    _dump(sk_path, "user-secret-key", suite, sk=pair.sk.to_bytes().hex())
    _dump(pk_path, "user-public-key", suite, pk_b=pair.pk_b.hex())


def load_user_secret(path: Path, suite: PairingSuite) -> Scalar:
    with _load(path, "user-secret-key", suite) as doc:
        return _scalar(suite, doc, "sk")


def load_user_public(path: Path, suite: PairingSuite) -> UserPublicKey:
    with _load(path, "user-public-key", suite) as doc:
        pk_b = _element(suite, Group.B, doc, "pk_b")
        if pk_b.is_identity():
            raise DecodeError("user public key is the identity")
    return UserPublicKey(pk_b=pk_b)


# --- policies ---------------------------------------------------------------

def _policy_entries(doc: dict, build) -> list:
    """``build(entry, **fields)`` for each policy entry, in file order; ``fields`` are those
    a policy keeps when it is compiled, and a refusal names the entry."""
    built = []
    for i, entry in enumerate(_field(doc, "policies", list, of=dict)):
        with _naming(f"policy #{i}"):
            built.append(build(
                entry, id=_field(entry, "id", str), priority=_field(entry, "priority", int),
                category=_field(entry, "category", str),
                storage_unit=check_storage_unit(_field(entry, "storage_unit", str)),
            ))
    return built


def load_policies(path: Path) -> list[Policy]:
    with _load(path, "policy-set") as doc:
        return _policy_entries(doc, lambda entry, **fields: Policy(
            keywords=tuple(parse_fragment(k) for k in _field(entry, "keywords", list, of=str)), **fields,
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
    with _load(path, "compiled-policy-set", suite) as doc:
        return _policy_entries(doc, lambda entry, **fields: CompiledPolicy(
            **fields,
            trapdoors=tuple(
                TrapdoorEntry(token=_element(suite, Group.A, td, "token"),
                              keyword_slot=_field(td, "slot", str))
                for td in _field(entry, "trapdoors", list, of=dict)
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
    with _load(path, "submission", suite) as doc:
        return Submission(
            file_id=check_file_id(_field(doc, "file_id", str)),
            x=_element(suite, Group.B, doc, "x"),
            tags=tuple(
                ClassificationTag(y=_element(suite, Group.B, t, "y"),
                                  z=_field(t, "z", str, decode=_hex))
                for t in _field(doc, "tags", list, of=dict)
            ),
            payload=_field(doc, "payload", str, decode=lambda text: base64.b64decode(text, validate=True)),
        )
