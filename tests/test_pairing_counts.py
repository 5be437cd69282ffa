"""Exact Miller-loop and final-exponentiation counts per operation.

The counts come from wrappers monkeypatched over ``bn256.miller_loop``
and ``bn256.final_exponentiation``; the program itself keeps no counter.
"""

import json
import random
from collections import Counter

import pytest
from click.testing import CliRunner

from pbcap import formats, policy
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
    _expect(counts, 1, 1)


def test_verify_authenticity(prod_suite, keys, counts):
    admin, user, _ = keys
    x = admin.pk_b ** user.sk
    assert verify_authenticity(prod_suite, admin.public, user.public, x)
    _expect(counts, 1, 1)


def test_matches_trapdoor(prod_suite, keys, counts):
    admin, user, rng = keys
    tag = make_tag(prod_suite, admin.public, user.sk, b"RecordedBy(Test,Nurse)", rng)
    trapdoor = make_trapdoor(prod_suite, admin.sk, b"RecordedBy(Test,Nurse)")
    counts.clear()
    assert matches_trapdoor(prod_suite, trapdoor, tag)
    _expect(counts, 1, 1)


GRAPH = "node t Artifact Test\nnode n Agent Nurse\nnode r Artifact Report\n" \
        "edge RecordedBy t n\nedge ProducedFrom r t\n"


def _pdp_classify(tmp_path, counts, policies):
    """Seeded keygen, compile and a 2-tag ``user tag`` of GRAPH; the counts
    cover only the ``pdp classify`` run, whose decision is returned.

    The tags are sorted by canonical form: ProducedFrom(Report,Test),
    then RecordedBy(Test,Nurse).
    """
    doc = {"format": "pbcap/1", "kind": "policy-set", "policies": policies}
    (tmp_path / "policies.json").write_text(json.dumps(doc))
    (tmp_path / "graph.txt").write_text(GRAPH)
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
    return json.loads(result.output)


def _policy(pid, keywords, priority):
    return {"id": pid, "keywords": keywords, "priority": priority,
            "category": f"cat-{pid}", "storage_unit": f"unit-{pid}"}


def test_no_match_pdp_classify(tmp_path, counts):
    """T tags x K trapdoors, nothing matches: every tag/trapdoor pairing runs."""
    policies = [
        _policy("1", ["ReviewedBy(Draft,Editor)", "SignedBy(Form,Clerk)"], 5),
        _policy("2", ["ApprovedBy(Plan,Board)"], 9),
    ]
    tags, trapdoors = 2, 3
    assert _pdp_classify(tmp_path, counts, policies)["matched_policy"] is None
    # admin dual-key check and authenticity: one shared Miller loop and one FE each
    _expect(counts, 1 + 1 + tags * trapdoors, 2 + tags * trapdoors)


def test_top_policy_hit_stops_pdp_classify(tmp_path, counts, monkeypatch):
    """The top policy, last in the file, matches the first tag and a lower
    policy matches the second: only the top policy's trapdoor is tested."""
    tested = []

    def recorded(suite, trapdoor, tag, _inner=policy.matches_trapdoor):
        tested.append(trapdoor.keyword_slot)
        return _inner(suite, trapdoor, tag)

    monkeypatch.setattr(policy, "matches_trapdoor", recorded)
    policies = [
        _policy("low", ["RecordedBy(Test,Nurse)"], 5),
        _policy("mid", ["SignedBy(Form,Clerk)"], 7),
        _policy("top", ["ProducedFrom(Report,Test)", "ApprovedBy(Plan,Board)"], 9),
    ]
    assert _pdp_classify(tmp_path, counts, policies)["matched_policy"] == "top"
    assert tested == ["top/k0"]
    _expect(counts, 3, 3)
