"""Exact Miller-loop, final-exponentiation, G2 line-table and G2
scalar-multiplication counts per operation.

The counts come from wrappers monkeypatched over ``bn256.miller_loop``,
``bn256.final_exponentiation``, ``bn256.g2_lines`` and
``curve.PointG2.scalar_mul``; the program itself keeps no counter.
``make_tag`` pays one G2 scalar multiplication per tag, because Y and Z
depend on beta and r only through s = beta*r.  A group-B element keeps
its line table once ``pair`` has built it, so a command builds one table
per distinct tag Y or admin key it pairs.
"""

import json
import random
from collections import Counter

import pytest
from click.testing import CliRunner

from pbcap import formats, policy
from pbcap.cli import cli
from pbcap.pairing import bn256, curve
from pbcap.scheme import (
    keygen_admin,
    keygen_user,
    make_tag,
    make_trapdoor,
    make_x,
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


@pytest.fixture
def tables(monkeypatch):
    """Line tables built, keyed by the hex encoding of their Q."""
    built = Counter()

    def counted(q, _inner=bn256.g2_lines):
        built[bn256.g2_to_bytes(q).hex()] += 1
        return _inner(q)

    monkeypatch.setattr(bn256, "g2_lines", counted)
    return built


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
    x = make_x(admin.public, user.sk)
    assert verify_authenticity(prod_suite, admin.public, user.public, x)
    _expect(counts, 1, 1)


def test_matches_trapdoor(prod_suite, keys, counts):
    admin, user, rng = keys
    tag = make_tag(prod_suite, admin.public, user.sk, b"RecordedBy(Test,Nurse)", rng)
    trapdoor = make_trapdoor(prod_suite, admin.sk, b"RecordedBy(Test,Nurse)")
    counts.clear()
    assert matches_trapdoor(prod_suite, trapdoor, tag)
    _expect(counts, 1, 1)


def test_make_tag_g2_scalar_multiplications(prod_suite, keys, monkeypatch):
    """Y = g_b^s and Z = H2(e(H1(P)^s, admin_pk_b)) with s = beta*r: one
    G2 and one G1 multiplication per tag.  X is made once per submission
    by ``make_x``."""
    admin, user, rng = keys
    seen = Counter()
    for cls in (curve.PointG1, curve.PointG2):
        def counted(point, k, _inner=cls.scalar_mul, _name=cls.__name__):
            seen[_name] += 1
            return _inner(point, k)

        monkeypatch.setattr(cls, "scalar_mul", counted)
    for fragment in (b"RecordedBy(Test,Nurse)", b"ProducedFrom(Report,Test)"):
        seen.clear()
        make_tag(prod_suite, admin.public, user.sk, fragment, rng)
        assert seen == Counter(PointG1=1, PointG2=1)


GRAPH = "node t Artifact Test\nnode n Agent Nurse\nnode r Artifact Report\n" \
        "edge RecordedBy t n\nedge ProducedFrom r t\n"
# GRAPH plus one fragment, SignedBy(Report,Nurse)
GRAPH3 = GRAPH + "edge SignedBy r n\n"


def _prepare_pdp_classify(tmp_path, policies):
    """Seeded keygen, compile and a 2-tag ``user tag`` of GRAPH; returns
    the ``pdp classify`` arguments.

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

    run("pap", "keygen", "--out-dir", tmp_path / "pap", "--seed", 1)
    run("user", "keygen", "--out-dir", tmp_path / "usr", "--seed", 2)
    run("pap", "compile", "--policies", tmp_path / "policies.json",
        "--admin-sk", tmp_path / "pap/admin.sk", "--out", tmp_path / "compiled.json")
    run("user", "tag", "--graph", tmp_path / "graph.txt", "--admin-pk", tmp_path / "pap/admin.pk",
        "--user-sk", tmp_path / "usr/user.sk", "--payload", tmp_path / "payload.bin",
        "--out", tmp_path / "sub.json", "--seed", 3)
    return [str(a) for a in (
        "pdp", "classify", tmp_path / "sub.json", "--policies", tmp_path / "compiled.json",
        "--admin-pk", tmp_path / "pap/admin.pk", "--user-pk", tmp_path / "usr/user.pk",
        "--storage-root", tmp_path / "store")]


def _pdp_classify(tmp_path, policies, *counters):
    """The counters cover only the ``pdp classify`` run, whose decision is returned."""
    args = _prepare_pdp_classify(tmp_path, policies)
    for counter in counters:
        counter.clear()
    result = CliRunner().invoke(cli, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def _policy(pid, keywords, priority):
    return {"id": pid, "keywords": keywords, "priority": priority,
            "category": f"cat-{pid}", "storage_unit": f"unit-{pid}"}


def test_no_match_pdp_classify(tmp_path, counts, tables):
    """T tags x K trapdoors, nothing matches: every tag/trapdoor pairing
    runs, and each tag's Y builds one line table for all K trapdoors."""
    policies = [
        _policy("1", ["ReviewedBy(Draft,Editor)", "SignedBy(Form,Clerk)"], 5),
        _policy("2", ["ApprovedBy(Plan,Board)"], 9),
    ]
    tags, trapdoors = 2, 3
    assert _pdp_classify(tmp_path, policies, counts, tables)["matched_policy"] is None
    # admin dual-key check and authenticity: one shared Miller loop and one FE each
    _expect(counts, 1 + 1 + tags * trapdoors, 2 + tags * trapdoors)
    ys = [t["y"] for t in json.loads((tmp_path / "sub.json").read_text())["tags"]]
    assert len(set(ys)) == tags
    assert [tables[y] for y in ys] == [1] * tags
    # the two checks build throwaway tables, two each
    assert sum(tables.values()) == tags + 2 + 2


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
    assert _pdp_classify(tmp_path, policies, counts)["matched_policy"] == "top"
    assert tested == ["top/k0"]
    _expect(counts, 3, 3)


def test_log_name_storage_unit_refused_by_pdp_classify(tmp_path, counts):
    """``pdp classify`` checks each storage unit when it reads the compiled
    set, so a hand-built set that routes to the decision log costs no
    pairing and stores nothing."""
    args = _prepare_pdp_classify(tmp_path, [_policy("1", ["RecordedBy(Test,Nurse)"], 5)])
    doc = json.loads((tmp_path / "compiled.json").read_text())
    doc["policies"][0]["storage_unit"] = "decisions.log"
    (tmp_path / "compiled.json").write_text(json.dumps(doc))
    counts.clear()
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 3, result.output
    assert "policy #0: storage unit 'decisions.log'" in result.stderr
    assert list((tmp_path / "store").iterdir()) == []
    assert not counts


@pytest.mark.parametrize("file_id, payload_name", [
    ("../evil", "payload.bin"),
    (".hidden", "payload.bin"),
    (None, ".hidden"),
])
def test_unstorable_file_id_refused_by_user_tag(tmp_path, counts, file_id, payload_name):
    """``user tag`` checks the file id before it loads a key, so a file id
    no store accepts costs no pairing and writes no submission."""
    (tmp_path / "graph.txt").write_text(GRAPH)
    (tmp_path / payload_name).write_bytes(b"opaque ciphertext")
    runner = CliRunner()
    for role in ("pap", "user"):
        result = runner.invoke(cli, [role, "keygen", "--out-dir", str(tmp_path), "--seed", "1"])
        assert result.exit_code == 0, result.output
    args = ["user", "tag", "--graph", tmp_path / "graph.txt", "--admin-pk", tmp_path / "admin.pk",
            "--user-sk", tmp_path / "user.sk", "--payload", tmp_path / payload_name,
            "--out", tmp_path / "sub.json", "--seed", 3]
    if file_id is not None:
        args += ["--file-id", file_id]
    counts.clear()
    result = runner.invoke(cli, [str(a) for a in args])
    assert result.exit_code != 0
    assert "file id" in result.output
    assert not (tmp_path / "sub.json").exists()
    assert not counts


def test_unsafe_file_id_refused_by_pdp_classify(tmp_path, counts, tables):
    """A hand-built submission whose file id no store accepts is refused
    when it is read: no pairing runs beyond the command's admin key check."""
    args = _prepare_pdp_classify(tmp_path, [_policy("1", ["RecordedBy(Test,Nurse)"], 5)])
    doc = json.loads((tmp_path / "sub.json").read_text())
    (tmp_path / "sub.json").write_text(json.dumps(dict(doc, file_id="../evil")))
    counts.clear()
    tables.clear()
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 3, result.output
    assert "file id '../evil' is not a safe file name" in result.stderr
    assert list((tmp_path / "store").iterdir()) == []
    _expect(counts, 1, 1)
    assert sum(tables.values()) == 2


@pytest.mark.parametrize("graph, fragments", [(GRAPH, 2), (GRAPH3, 3)])
def test_user_tag_builds_one_admin_key_table(tmp_path, counts, tables, graph, fragments):
    """Every tag pairs with ``admin_pk_b``, which builds its table once
    per ``user tag`` command, whatever the number of fragments."""
    (tmp_path / "graph.txt").write_text(graph)
    (tmp_path / "payload.bin").write_bytes(b"opaque ciphertext")
    runner = CliRunner()
    for role in ("pap", "user"):
        result = runner.invoke(cli, [role, "keygen", "--out-dir", str(tmp_path), "--seed", "1"])
        assert result.exit_code == 0, result.output
    counts.clear()
    tables.clear()
    result = runner.invoke(cli, [str(a) for a in (
        "user", "tag", "--graph", tmp_path / "graph.txt", "--admin-pk", tmp_path / "admin.pk",
        "--user-sk", tmp_path / "user.sk", "--payload", tmp_path / "payload.bin",
        "--out", tmp_path / "sub.json", "--seed", 3)])
    assert result.exit_code == 0, result.output
    assert len(json.loads((tmp_path / "sub.json").read_text())["tags"]) == fragments
    # the admin key check: one Miller loop and FE; then one of each per tag
    _expect(counts, 1 + fragments, 1 + fragments)
    admin_pk_b = json.loads((tmp_path / "admin.pk").read_text())["pk_b"]
    assert tables[admin_pk_b] == 1
    # the admin key check's two throwaway tables
    assert sum(tables.values()) == 1 + 2
