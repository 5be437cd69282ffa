"""Every malformed input file is refused on one stderr line, never with a
traceback: one input file of a seeded scenario is corrupted and the
command that reads it is run on it."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from pipeline import classify_args, compile_args, scenario, tag_args

from pbcap.cli import cli

POLICIES = [{"id": "1", "keywords": ["RecordedBy(Test,Nurse)"], "priority": 5,
             "category": "Medical Documents", "storage_unit": "Hospital"}]
GRAPH = "node t Artifact Test\nnode n Agent Nurse\nedge RecordedBy t n\n"

# each input file of a scenario and the commands that read it
READERS = {
    "sub.json": ("classify",),
    "compiled.json": ("classify",),
    "pap/admin.pk": ("tag", "classify"),
    "usr/user.pk": ("classify",),
    "pap/admin.sk": ("compile",),
    "usr/user.sk": ("tag",),
    "sub.graph": ("tag",),
    "policies.json": ("compile",),
}
DELETE = object()
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
                | st.text("0123456789abcdef", max_size=70))


def _command(root, suite, name):
    """A command that reads the scenario's files; outputs go to ``root/out.json``."""
    if name == "classify":
        return classify_args(root, suite, "sub.json")
    if name == "compile":
        return compile_args(root, suite, "out.json")
    return tag_args(root, suite, root / "sub.graph", 3, out="out.json")


def _leaves(doc, path=()):
    """The path of every scalar in a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _edited(doc, path, value):
    """The document encoded with the leaf at ``path`` replaced by ``value``,
    or deleted if ``value`` is DELETE."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).encode()


def _mutated(raw: bytes):
    """A strategy for ``raw`` with 1-4 bytes overwritten or, for a JSON
    document, with one leaf replaced or deleted."""
    overwritten = st.integers(0, len(raw) - 1).flatmap(lambda i: st.binary(
        min_size=1, max_size=min(4, len(raw) - i)).map(lambda b: raw[:i] + b + raw[i + len(b):]))
    try:
        doc = json.loads(raw)
    except ValueError:
        return overwritten
    leaf = st.tuples(st.sampled_from(list(_leaves(doc))), st.just(DELETE) | JSON_SCALARS)
    return overwritten | leaf.map(lambda edit: _edited(doc, *edit))


def _assert_refused_cleanly(result):
    """No exception but ``SystemExit`` escaped, the exit code is 0-3, and a
    refusal wrote exactly one stderr line."""
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    assert 0 <= result.exit_code <= 3, result.output
    if result.exit_code:
        assert result.stderr.endswith("\n") and result.stderr.count("\n") == 1, result.stderr


@pytest.fixture(scope="module")
def mock_scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("mock")
    scenario(root, "mock", POLICIES, GRAPH)
    return root


@pytest.fixture(scope="module")
def production_scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("production")
    scenario(root, "production", POLICIES, GRAPH)
    return root


def _run_on_copy(base, suite, command, name, data: bytes):
    """Run ``command`` in a fresh copy of the scenario ``base`` whose file
    ``name`` holds ``data``; returns the click result and the names of
    the payloads stored."""
    with tempfile.TemporaryDirectory(dir=base.parent) as tmp:
        root = Path(tmp) / "root"
        shutil.copytree(base, root)
        (root / name).write_bytes(data)
        result = CliRunner().invoke(cli, [str(a) for a in _command(root, suite, command)])
        return result, [p.name for p in (root / "store").glob("*/*")]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=st.data())
def test_mutated_input_file_is_refused_cleanly(mock_scenario, case):
    name = case.draw(st.sampled_from(sorted(READERS)), label="file")
    command = case.draw(st.sampled_from(READERS[name]), label="command")
    data = case.draw(_mutated((mock_scenario / name).read_bytes()), label="data")
    _assert_refused_cleanly(_run_on_copy(mock_scenario, "mock", command, name, data)[0])


def _flip_middle(value: str) -> str:
    i = len(value) // 2
    return value[:i] + format(int(value[i], 16) ^ 1, "x") + value[i + 1:]


@pytest.mark.parametrize("corrupt", [_flip_middle, lambda v: v[:-2], lambda v: "0" * len(v)],
                         ids=["flip", "truncate", "zero"])
@pytest.mark.parametrize("name, path", [
    ("sub.json", ("x",)),
    ("sub.json", ("tags", 0, "y")),
    ("pap/admin.pk", ("pk_a",)),
    ("pap/admin.pk", ("pk_b",)),
    ("usr/user.pk", ("pk_b",)),
], ids=["sub-x", "sub-y", "admin-pk_a", "admin-pk_b", "user-pk_b"])
def test_corrupt_production_encoding_is_refused(production_scenario, name, path, corrupt):
    """A G1 or G2 encoding flipped in one hex digit, cut by one byte or
    zeroed (the identity) inside a submission or a public key: ``pdp
    classify`` refuses it on one stderr line and stores nothing."""
    doc = json.loads((production_scenario / name).read_bytes())
    leaf = doc
    for key in path:
        leaf = leaf[key]
    result, stored = _run_on_copy(production_scenario, "production", "classify", name,
                                  _edited(doc, path, corrupt(leaf)))
    _assert_refused_cleanly(result)
    assert result.exit_code in (2, 3)
    assert stored == []
