"""Every field of every ``pbcap/1`` file kind, set to each JSON type or deleted,
and every hex field rewritten as hex no writer writes (mock suite).

A loader either refuses the file with a DecodeError or ValidationError
that names it, or -- only for a value of the writer's own type that is
otherwise valid -- loads it.  Through the CLI, a refused compiled set or
submission exits 3 and stores and logs nothing, and a refused policy set
makes ``pap compile`` exit 1 and write no compiled file.
"""

import copy
import json
import random

import pytest
from click.testing import CliRunner

from pbcap import formats
from pbcap.cli import cli
from pbcap.errors import DecodeError, ValidationError
from pbcap.pairing import get_suite
from pbcap.policy import compile_policies
from pbcap.scheme import keygen_admin, keygen_user, make_tag, make_x

SUITE = get_suite("mock")
DELETE = "<deleted>"
VALUES = [None, 7, 2.5, True, "x", [], ["x"], {"x": 1}]
# fields the writers write as lower-case hex with no separators
HEX_FIELDS = {"sk", "pk_a", "pk_b", "token", "x", "y", "z"}

POLICY_DOC = {
    "format": "pbcap/1",
    "kind": "policy-set",
    "policies": [{
        "id": "1",
        "keywords": ["RecordedBy(Test,Nurse)", "DiagnosedBy(Report,Doctor)"],
        "priority": 5,
        "category": "Medical Documents",
        "storage_unit": "Hospital",
    }],
}

LOADERS = {
    "admin.sk": lambda path: formats.load_admin_secret(path, SUITE),
    "admin.pk": lambda path: formats.load_admin_public(path, SUITE),
    "user.sk": lambda path: formats.load_user_secret(path, SUITE),
    "user.pk": lambda path: formats.load_user_public(path, SUITE),
    "policies.json": formats.load_policies,
    "compiled.json": lambda path: formats.load_compiled_policies(path, SUITE),
    "sub.json": lambda path: formats.load_submission(path, SUITE),
}

# (file, field path, value) for each writer-typed value that is otherwise valid
ACCEPTED = {
    ("policies.json", ("policies",), "[]"),
    ("compiled.json", ("policies",), "[]"),
    ("sub.json", ("tags",), "[]"),
    ("sub.json", ("file_id",), "'x'"),
    ("compiled.json", ("policies", 0, "trapdoors", 0, "slot"), "'x'"),
    ("compiled.json", ("policies", 0, "trapdoors", 1, "slot"), "'x'"),
} | {
    (name, ("policies", 0, key), value)
    for name in ("policies.json", "compiled.json")
    for key, value in (("id", "'x'"), ("priority", "7"), ("category", "'x'"), ("storage_unit", "'x'"))
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Seeded keys, a policy set, its compiled set and a one-tag submission, as written."""
    root = tmp_path_factory.mktemp("files")
    rng = random.Random(12)
    admin, user = keygen_admin(SUITE, rng), keygen_user(SUITE, rng)
    formats.save_admin_keypair(admin, SUITE, root / "admin.sk", root / "admin.pk")
    formats.save_user_keypair(user, SUITE, root / "user.sk", root / "user.pk")
    (root / "policies.json").write_text(json.dumps(POLICY_DOC))
    compiled = compile_policies(formats.load_policies(root / "policies.json"), admin.sk, SUITE)
    formats.save_compiled_policies(compiled, SUITE, root / "compiled.json")
    tag = make_tag(SUITE, admin.public, user.sk, b"RecordedBy(Test,Nurse)", rng)
    sub = formats.Submission(file_id="f.bin", payload=b"opaque", x=make_x(admin.public, user.sk), tags=(tag,))
    formats.save_submission(sub, SUITE, root / "sub.json")
    return root


def _paths(value, prefix=()):
    """The path of every value nested in ``value``, parents first."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _hex_variants(key, text):
    """Hex that ``bytes.fromhex`` reads as the same or a nearby value but no
    writer writes: upper case, space-separated pairs, both, and for a scalar
    anything but 32 bytes (a secret key of 1 as "01")."""
    pairs = " ".join(text[i:i + 2] for i in range(0, len(text), 2))
    variants = {pairs, pairs.upper(), text.upper()} - {text}
    if key == "sk":
        variants |= {"01", text[2:], "00" + text}
    return sorted(variants)


def _cases(doc):
    """(field path, replacement, mutated document) for every field and replacement."""
    for path in _paths(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        hex_variants = _hex_variants(path[-1], parent[path[-1]]) if path[-1] in HEX_FIELDS else []
        for value in VALUES + ([DELETE] if isinstance(path[-1], str) else []) + hex_variants:
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if value == DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, value, mutated


def _refusal(load, path):
    """The refusal's message, or None if ``path`` loads; any other exception propagates."""
    try:
        load(path)
    except (DecodeError, ValidationError) as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loader_refuses_every_field_not_as_written(files, tmp_path, name):
    doc = json.loads((files / name).read_text())
    target = tmp_path / name
    target.write_text(json.dumps(doc))
    assert _refusal(LOADERS[name], target) is None
    loaded, unnamed = set(), []
    for path, value, mutated in _cases(doc):
        target.write_text(json.dumps(mutated))
        message = _refusal(LOADERS[name], target)
        if message is None:
            loaded.add((name, path, repr(value)))
        elif not message.startswith(f"{target}: "):
            unnamed.append(message)
    assert loaded == {case for case in ACCEPTED if case[0] == name}
    assert unnamed == []


@pytest.mark.parametrize("name", ["policies.json", "compiled.json", "sub.json"])
def test_cli_refuses_every_field_not_as_written(files, tmp_path, name):
    """Exit 3 from ``pdp classify`` (1 from ``pap compile``), one line on stderr,
    no traceback, nothing stored or logged and no compiled file written."""
    for other in ("admin.sk", "admin.pk", "user.pk", "compiled.json", "sub.json"):
        (tmp_path / other).write_bytes((files / other).read_bytes())
    store = tmp_path / "store"
    store.mkdir()
    if name == "policies.json":
        args, expected = ["pap", "compile", "--policies", tmp_path / name, "--admin-sk", tmp_path / "admin.sk",
                          "--out", tmp_path / "out.json", "--suite", "mock"], 1
    else:
        args, expected = ["pdp", "classify", tmp_path / "sub.json", "--policies", tmp_path / "compiled.json",
                          "--admin-pk", tmp_path / "admin.pk", "--user-pk", tmp_path / "user.pk",
                          "--storage-root", store, "--suite", "mock"], 3
    doc = json.loads((files / name).read_text())
    runner = CliRunner()
    for path, value, mutated in _cases(doc):
        if (name, path, repr(value)) in ACCEPTED:
            continue
        (tmp_path / name).write_text(json.dumps(mutated))
        result = runner.invoke(cli, [str(a) for a in args], catch_exceptions=False)
        case = f"{name} {path} = {value!r}"
        assert result.exit_code == expected, case
        assert "Traceback" not in result.output, case
        assert len(result.stderr.splitlines()) == 1, case
        assert str(tmp_path / name) in result.stderr, case
        assert list(store.iterdir()) == [], case
        assert not (tmp_path / "out.json").exists(), case
