"""Exact Miller-loop and final-exponentiation counts per operation.

The counts come from wrappers monkeypatched over ``bn256.miller_loop``
and ``bn256.final_exponentiation``; the program itself keeps no counter.
"""

import json
import random
from collections import Counter

import pytest
from click.testing import CliRunner

from pbcap import formats
from pbcap.cli import cli
from pbcap.pairing import bn256
from pbcap.scheme import (
    keygen_admin,
    keygen_user,
    make_tag,
    make_trapdoor,
    matches_trapdoor,
    verify_authenticity,
)


@pytest.fixture
def counts(monkeypatch):
    seen = Counter()
    for name in ("miller_loop", "final_exponentiation"):
        inner = getattr(bn256, name)

        def counted(*args, _inner=inner, _name=name):
            seen[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(bn256, name, counted)
    return seen


def _expect(counts, miller_loops, final_exponentiations):
    assert counts == Counter(miller_loop=miller_loops, final_exponentiation=final_exponentiations)


@pytest.fixture
def keys(prod_suite):
    rng = random.Random(31)
    return keygen_admin(prod_suite, rng), keygen_user(prod_suite, rng), rng


def test_load_admin_public(prod_suite, keys, tmp_path, counts):
    admin, _, _ = keys
    formats.save_admin_keypair(admin, prod_suite, tmp_path / "a.sk", tmp_path / "a.pk")
    formats.load_admin_public(tmp_path / "a.pk", prod_suite)
    _expect(counts, 2, 1)


def test_verify_authenticity(prod_suite, keys, counts):
    admin, user, _ = keys
    x = admin.pk_b ** user.sk
    assert verify_authenticity(prod_suite, admin.public, user.public, x)
    _expect(counts, 2, 1)


def test_matches_trapdoor(prod_suite, keys, counts):
    admin, user, rng = keys
    tag = make_tag(prod_suite, admin.public, user.sk, b"RecordedBy(Test,Nurse)", rng)
    trapdoor = make_trapdoor(prod_suite, admin.sk, b"RecordedBy(Test,Nurse)")
    counts.clear()
    assert matches_trapdoor(prod_suite, trapdoor, tag)
    _expect(counts, 1, 1)


def test_no_match_pdp_classify(tmp_path, counts):
    """T tags x K trapdoors, nothing matches: every tag/trapdoor pairing runs."""
    policies = {
        "format": "pbcap/1",
        "kind": "policy-set",
        "policies": [
            {"id": "1", "keywords": ["ReviewedBy(Draft,Editor)", "SignedBy(Form,Clerk)"],
             "priority": 5, "category": "Editorial", "storage_unit": "Press"},
            {"id": "2", "keywords": ["ApprovedBy(Plan,Board)"],
             "priority": 9, "category": "Board", "storage_unit": "Archive"},
        ],
    }
    graph = "node t Artifact Test\nnode n Agent Nurse\nnode r Artifact Report\n" \
            "edge RecordedBy t n\nedge ProducedFrom r t\n"
    tags, trapdoors = 2, 3
    (tmp_path / "policies.json").write_text(json.dumps(policies))
    (tmp_path / "graph.txt").write_text(graph)
    (tmp_path / "payload.bin").write_bytes(b"opaque ciphertext")
    (tmp_path / "store").mkdir()
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(cli, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result

    run("pap", "keygen", "--out-dir", tmp_path / "pap", "--seed", 1)
    run("user", "keygen", "--out-dir", tmp_path / "usr", "--seed", 2)
    run("pap", "compile", "--policies", tmp_path / "policies.json",
        "--admin-sk", tmp_path / "pap/admin.sk", "--out", tmp_path / "compiled.json")
    run("user", "tag", "--graph", tmp_path / "graph.txt", "--admin-pk", tmp_path / "pap/admin.pk",
        "--user-sk", tmp_path / "usr/user.sk", "--payload", tmp_path / "payload.bin",
        "--out", tmp_path / "sub.json", "--seed", 3)
    counts.clear()
    result = run("pdp", "classify", tmp_path / "sub.json", "--policies", tmp_path / "compiled.json",
                 "--admin-pk", tmp_path / "pap/admin.pk", "--user-pk", tmp_path / "usr/user.pk",
                 "--storage-root", tmp_path / "store")
    assert json.loads(result.output)["matched_policy"] is None
    _expect(counts, 2 + 2 + tags * trapdoors, 2 + tags * trapdoors)
