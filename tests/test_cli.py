"""End-to-end pipeline through the command-line interface."""

import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from pbcap.cli import cli

POLICY_DOC = {
    "format": "pbcap/1",
    "kind": "policy-set",
    "policies": [
        {
            "id": "1",
            "keywords": ["RecordedBy(Test,Nurse)", "DiagnosedBy(Report,Doctor)"],
            "priority": 5,
            "category": "Medical Documents",
            "storage_unit": "Hospital",
        },
        {
            "id": "2",
            "keywords": ["ReviewedBy(Draft,Editor)"],
            "priority": 9,
            "category": "Editorial",
            "storage_unit": "Press",
        },
    ],
}

GRAPH = """\
node t Artifact Test
node n Agent Nurse
node r Artifact Report
edge RecordedBy t n
edge ProducedFrom r t
"""

KEYWORD_TOKENS = [b"RecordedBy", b"DiagnosedBy", b"Test,Nurse", b"Report,Doctor", b"ReviewedBy"]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def pipeline(tmp_path, runner):
    """Keys, compiled policies, one tagged submission, a storage root."""
    (tmp_path / "policies.json").write_text(json.dumps(POLICY_DOC))
    (tmp_path / "graph.txt").write_text(GRAPH)
    (tmp_path / "payload.bin").write_bytes(b"opaque ciphertext")
    (tmp_path / "store").mkdir()

    def run(*args, ok=True):
        result = runner.invoke(cli, [str(a) for a in args], catch_exceptions=False)
        if ok:
            assert result.exit_code == 0, result.output
        return result

    run("pap", "keygen", "--out-dir", tmp_path / "pap", "--suite", "mock", "--seed", 1)
    run("user", "keygen", "--out-dir", tmp_path / "usr", "--suite", "mock", "--seed", 2)
    run("pap", "compile", "--policies", tmp_path / "policies.json",
        "--admin-sk", tmp_path / "pap/admin.sk",
        "--out", tmp_path / "compiled.json", "--suite", "mock")
    run("user", "tag", "--graph", tmp_path / "graph.txt",
        "--admin-pk", tmp_path / "pap/admin.pk",
        "--user-sk", tmp_path / "usr/user.sk",
        "--payload", tmp_path / "payload.bin",
        "--out", tmp_path / "sub.json", "--suite", "mock", "--seed", 3)
    return tmp_path, run


def _classify_args(root, sub="sub.json"):
    return [str(a) for a in (
        "pdp", "classify", root / sub,
        "--policies", root / "compiled.json",
        "--admin-pk", root / "pap/admin.pk",
        "--user-pk", root / "usr/user.pk",
        "--storage-root", root / "store",
        "--suite", "mock",
    )]


class TestKeygen:
    def test_overwrite_guard(self, tmp_path, runner):
        args = ["pap", "keygen", "--out-dir", str(tmp_path), "--suite", "mock", "--seed", "1"]
        assert runner.invoke(cli, args).exit_code == 0
        second = runner.invoke(cli, args)
        assert second.exit_code != 0
        assert "exists" in second.output
        assert runner.invoke(cli, args + ["--force"]).exit_code == 0

    def test_secret_key_permissions(self, tmp_path, runner, monkeypatch):
        """Secret keys are created 0600, with no chmod after the write, also
        when --force replaces a 0644 file."""
        old = tmp_path / "old"
        old.mkdir()
        for name in ("admin.sk", "user.sk"):
            (old / name).write_text("wider key file\n")
            (old / name).chmod(0o644)
        monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
        monkeypatch.setattr(Path, "chmod", lambda *args, **kwargs: None)
        umask = os.umask(0o022)
        try:
            for role, name in (("pap", "admin.sk"), ("user", "user.sk")):
                for out_dir, extra in ((tmp_path / "new", []), (old, ["--force"])):
                    result = runner.invoke(cli, [role, "keygen", "--out-dir", str(out_dir),
                                                 "--suite", "mock", "--seed", "1", *extra])
                    assert result.exit_code == 0, result.output
                    assert (out_dir / name).stat().st_mode & 0o777 == 0o600
        finally:
            os.umask(umask)

    def test_public_key_round_trip_and_dual_representation(self, tmp_path, runner):
        from pbcap.formats import load_admin_public
        from pbcap.pairing import get_suite
        runner.invoke(cli, ["pap", "keygen", "--out-dir", str(tmp_path),
                            "--suite", "mock", "--seed", "1"])
        suite = get_suite("mock")
        pub = load_admin_public(tmp_path / "admin.pk", suite)
        assert suite.pair(pub.pk_a, suite.gen_b) == suite.pair(suite.gen_a, pub.pk_b)

    def test_user_pk_matches_secret_in_mock(self, tmp_path, runner):
        from pbcap.formats import load_user_public, load_user_secret
        from pbcap.pairing import get_suite
        runner.invoke(cli, ["user", "keygen", "--out-dir", str(tmp_path),
                            "--suite", "mock", "--seed", "1"])
        suite = get_suite("mock")
        sk = load_user_secret(tmp_path / "user.sk", suite)
        pub = load_user_public(tmp_path / "user.pk", suite)
        assert suite.gen_b ** sk == pub.pk_b


class TestCompile:
    def test_compiled_file_is_keyword_clean(self, pipeline):
        root, _ = pipeline
        blob = (root / "compiled.json").read_bytes()
        for tok in KEYWORD_TOKENS:
            assert tok not in blob

    def test_malformed_keyword_reports_location(self, tmp_path, runner):
        doc = dict(POLICY_DOC)
        doc["policies"] = [dict(doc["policies"][0], keywords=["RecordedBy(Test"])]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        runner.invoke(cli, ["pap", "keygen", "--out-dir", str(tmp_path),
                            "--suite", "mock", "--seed", "1"])
        result = runner.invoke(cli, [
            "pap", "compile", "--policies", str(tmp_path / "bad.json"),
            "--admin-sk", str(tmp_path / "admin.sk"),
            "--out", str(tmp_path / "out.json"), "--suite", "mock",
        ])
        assert result.exit_code != 0
        assert "policy #0" in result.output
        assert "malformed fragment" in result.output

    @pytest.mark.parametrize("unit", ["decisions.log", "../up"])
    def test_unstorable_storage_unit_refused(self, tmp_path, runner, unit):
        doc = dict(POLICY_DOC)
        doc["policies"] = [doc["policies"][0], dict(doc["policies"][1], storage_unit=unit)]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        runner.invoke(cli, ["pap", "keygen", "--out-dir", str(tmp_path),
                            "--suite", "mock", "--seed", "1"])
        result = runner.invoke(cli, [
            "pap", "compile", "--policies", str(tmp_path / "bad.json"),
            "--admin-sk", str(tmp_path / "admin.sk"),
            "--out", str(tmp_path / "out.json"), "--suite", "mock",
        ])
        assert result.exit_code == 1
        assert f"storage unit {unit!r}" in result.output
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("policies", [5, None, True, 3.9])
    def test_non_list_policies_refused(self, tmp_path, runner, policies):
        """A decode error with exit 1, not a TypeError traceback."""
        (tmp_path / "bad.json").write_text(json.dumps(dict(POLICY_DOC, policies=policies)))
        runner.invoke(cli, ["pap", "keygen", "--out-dir", str(tmp_path),
                            "--suite", "mock", "--seed", "1"])
        result = runner.invoke(cli, [
            "pap", "compile", "--policies", str(tmp_path / "bad.json"),
            "--admin-sk", str(tmp_path / "admin.sk"),
            "--out", str(tmp_path / "out.json"), "--suite", "mock",
        ], catch_exceptions=False)
        assert result.exit_code == 1
        assert "field 'policies' is not a list" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out.json").exists()

    def test_trapdoor_count_matches_keywords(self, pipeline):
        root, _ = pipeline
        doc = json.loads((root / "compiled.json").read_text())
        assert [len(p["trapdoors"]) for p in doc["policies"]] == [2, 1]


class TestTag:
    def test_one_tag_per_distinct_edge(self, pipeline):
        root, _ = pipeline
        doc = json.loads((root / "sub.json").read_text())
        assert len(doc["tags"]) == 2  # two distinct typed edges

    def test_submission_is_fragment_clean(self, pipeline):
        root, _ = pipeline
        blob = (root / "sub.json").read_bytes()
        for tok in [b"RecordedBy", b"ProducedFrom", b"Test", b"Nurse"]:
            assert tok not in blob

    def test_retag_differs_in_y_and_z(self, pipeline, runner):
        root, run = pipeline
        run("user", "tag", "--graph", root / "graph.txt",
            "--admin-pk", root / "pap/admin.pk",
            "--user-sk", root / "usr/user.sk",
            "--payload", root / "payload.bin",
            "--out", root / "sub2.json", "--suite", "mock", "--seed", 4)
        a = json.loads((root / "sub.json").read_text())
        b = json.loads((root / "sub2.json").read_text())
        assert a["x"] == b["x"]
        for t1, t2 in zip(a["tags"], b["tags"]):
            assert t1["y"] != t2["y"] and t1["z"] != t2["z"]

    def test_cyclic_graph_rejected(self, pipeline, runner):
        root, _ = pipeline
        (root / "cyclic.txt").write_text(
            "node a Artifact A\nnode b Agent B\nedge R a b\nedge S b a\n"
        )
        result = runner.invoke(cli, [
            "user", "tag", "--graph", str(root / "cyclic.txt"),
            "--admin-pk", str(root / "pap/admin.pk"),
            "--user-sk", str(root / "usr/user.sk"),
            "--payload", str(root / "payload.bin"),
            "--out", str(root / "bad.json"), "--suite", "mock", "--seed", 5,
        ])
        assert result.exit_code != 0
        assert "cycle" in result.output

    @pytest.mark.parametrize("graph", [
        "node t Artifact Te,st\nnode n Agent Nurse\nedge RecordedBy t n\n",
        json.dumps({"nodes": [{"id": "t", "kind": "Artifact", "label": 5},
                              {"id": "n", "kind": "Agent", "label": "Nurse"}],
                    "edges": [{"relation": "RecordedBy", "source": "t", "target": "n"}]}),
        json.dumps({"nodes": [{"id": "t", "kind": "Artifact", "label": "Test"},
                              {"id": "n", "kind": "Agent", "label": "Nurse"}],
                    "edges": [{"relation": "Recorded(By", "source": "t", "target": "n"}]}),
        json.dumps({"nodes": [{"id": "t", "kind": "Artifact", "label": "Test"}],
                    "edges": [{"relation": "RecordedBy", "source": "t", "target": 5}]}),
        json.dumps({"nodes": [{"id": "t", "kind": "Artifact", "label": "Test"}]}),
        json.dumps({"nodes": ["t"], "edges": []}),
    ], ids=["comma-in-label", "int-label", "paren-in-relation", "int-edge-target", "no-edges", "string-node"])
    def test_malformed_graph_rejected(self, pipeline, runner, graph):
        """Refused while the graph is parsed: exit 1 with one line, no traceback."""
        root, _ = pipeline
        (root / "bad_graph").write_text(graph)
        result = runner.invoke(cli, [
            "user", "tag", "--graph", str(root / "bad_graph"),
            "--admin-pk", str(root / "pap/admin.pk"),
            "--user-sk", str(root / "usr/user.sk"),
            "--payload", str(root / "payload.bin"),
            "--out", str(root / "bad.json"), "--suite", "mock", "--seed", "5",
        ], catch_exceptions=False)
        assert result.exit_code == 1
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: ")
        assert "Traceback" not in result.output
        assert not (root / "bad.json").exists()


class TestClassify:
    def test_medical_payload_lands_in_hospital(self, pipeline, runner):
        root, _ = pipeline
        result = runner.invoke(cli, _classify_args(root))
        assert result.exit_code == 0, result.output
        stored = root / "store/Hospital/payload.bin"
        assert stored.read_bytes() == b"opaque ciphertext"
        log = (root / "store/decisions.log").read_text().splitlines()
        assert len(log) == 1
        assert json.loads(log[0])["category"] == "Medical Documents"

    def test_no_match_goes_to_default_unit(self, pipeline, runner):
        root, run = pipeline
        (root / "other.txt").write_text(
            "node a Artifact Draft\nnode b Agent Intern\nedge ScannedBy a b\n"
        )
        run("user", "tag", "--graph", root / "other.txt",
            "--admin-pk", root / "pap/admin.pk",
            "--user-sk", root / "usr/user.sk",
            "--payload", root / "payload.bin",
            "--out", root / "sub3.json", "--suite", "mock", "--seed", 6,
            "--file-id", "other.bin")
        result = runner.invoke(cli, _classify_args(root, "sub3.json"))
        assert result.exit_code == 0
        assert (root / "store/default/other.bin").exists()
        log = (root / "store/decisions.log").read_text().splitlines()
        assert json.loads(log[-1])["category"] == "unclassified"

    def test_unregistered_user_exits_2_and_stores_nothing(self, pipeline, runner):
        root, run = pipeline
        run("user", "keygen", "--out-dir", root / "usr2", "--suite", "mock", "--seed", 77)
        run("user", "tag", "--graph", root / "graph.txt",
            "--admin-pk", root / "pap/admin.pk",
            "--user-sk", root / "usr2/user.sk",
            "--payload", root / "payload.bin",
            "--out", root / "forged.json", "--suite", "mock", "--seed", 7)
        result = runner.invoke(cli, _classify_args(root, "forged.json"))
        assert result.exit_code == 2
        assert not list((root / "store").glob("*/*"))

    def test_corrupt_submission_exits_3(self, pipeline, runner):
        root, _ = pipeline
        (root / "junk.json").write_text('{"format": "pbcap/1", "kind": "submission"}')
        result = runner.invoke(cli, _classify_args(root, "junk.json"))
        assert result.exit_code == 3
        assert not list((root / "store").glob("*/*"))

    def test_parallel_flag_conserves_files_and_log_lines(self, pipeline, runner):
        """One call with four submissions stores four files and logs four lines."""
        root, run = pipeline
        subs = []
        for i in range(4):
            out = root / f"par{i}.json"
            run("user", "tag", "--graph", root / "graph.txt",
                "--admin-pk", root / "pap/admin.pk",
                "--user-sk", root / "usr/user.sk",
                "--payload", root / "payload.bin",
                "--out", out, "--suite", "mock", "--seed", 100 + i,
                "--file-id", f"file{i}.bin")
            subs.append(out)
        base = _classify_args(root)
        args = base[:2] + subs + base[3:]
        result = runner.invoke(cli, [str(a) for a in args])
        assert result.exit_code == 0, result.output
        stored = list((root / "store").glob("*/*"))
        assert len(stored) == 4
        assert len((root / "store/decisions.log").read_text().splitlines()) == 4

    def test_unstorable_file_ids_skipped_with_exit_3(self, pipeline, runner):
        """An unsafe and a repeated file id are reported; the batch goes on.

        ``user tag`` refuses ``../evil``, so that submission is a good one
        with its ``file_id`` rewritten, as a hand-built file would be.
        Reading the submission refuses it, and so it refuses a file id
        that is not a string (``null`` would otherwise be stored as
        ``None``); a repeated id is refused only by the store."""
        root, run = pipeline
        subs = []
        for i, file_id in enumerate(["good.bin", "evil", "good.bin", "good2.bin", "null", "five"]):
            out = root / f"batch{i}.json"
            run("user", "tag", "--graph", root / "graph.txt",
                "--admin-pk", root / "pap/admin.pk",
                "--user-sk", root / "usr/user.sk",
                "--payload", root / "payload.bin",
                "--out", out, "--suite", "mock", "--seed", 200 + i,
                "--file-id", file_id)
            subs.append(out)
        for i, file_id in ((1, "../evil"), (4, None), (5, 5)):
            doc = json.loads(subs[i].read_text())
            subs[i].write_text(json.dumps(dict(doc, file_id=file_id)))
        base = _classify_args(root)
        result = runner.invoke(cli, base[:2] + [str(s) for s in subs] + base[3:])
        assert result.exit_code == 3, result.output
        assert sorted(p.name for p in (root / "store").glob("*/*")) == ["good.bin", "good2.bin"]
        assert len((root / "store/decisions.log").read_text().splitlines()) == 2
        assert "batch1.json: decode error:" in result.stderr
        assert "file id '../evil' is not a safe file name" in result.stderr
        assert "batch2.json: payload not stored" in result.stderr
        for i in (4, 5):
            assert f"batch{i}.json: decode error: " in result.stderr
        assert result.stderr.count("field 'file_id' is not a string") == 2

    @pytest.mark.parametrize("unit", ["decisions.log", "../up"])
    def test_unstorable_compiled_storage_unit_exits_3(self, pipeline, runner, unit):
        """A hand-built compiled set that routes to a unit no store accepts
        is refused when it is read: nothing is stored and nothing logged."""
        root, _ = pipeline
        doc = json.loads((root / "compiled.json").read_text())
        doc["policies"][1]["storage_unit"] = unit
        (root / "compiled.json").write_text(json.dumps(doc))
        result = runner.invoke(cli, _classify_args(root))
        assert result.exit_code == 3, result.output
        assert f"policy #1: storage unit {unit!r}" in result.stderr
        assert list((root / "store").iterdir()) == []

    @pytest.mark.parametrize("policies", [5, None, True, 3.9])
    def test_non_list_compiled_policies_exits_3(self, pipeline, runner, policies):
        """Refused when the compiled set is read, before any pairing:
        no traceback, nothing stored and nothing logged."""
        root, _ = pipeline
        doc = json.loads((root / "compiled.json").read_text())
        (root / "compiled.json").write_text(json.dumps(dict(doc, policies=policies)))
        result = runner.invoke(cli, _classify_args(root), catch_exceptions=False)
        assert result.exit_code == 3, result.output
        assert "field 'policies' is not a list" in result.stderr
        assert "Traceback" not in result.output
        assert list((root / "store").iterdir()) == []

    def test_storage_root_env_var(self, pipeline, runner, monkeypatch):
        root, _ = pipeline
        monkeypatch.setenv("PBCAP_STORAGE_ROOT", str(root / "store"))
        args = [a for a in _classify_args(root)]
        i = args.index("--storage-root")
        del args[i:i + 2]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output


class TestDeterminism:
    def test_seeded_pipeline_produces_identical_decision_logs(self, tmp_path, runner):
        logs = []
        for run_dir in ("a", "b"):
            base = tmp_path / run_dir
            base.mkdir()
            (base / "policies.json").write_text(json.dumps(POLICY_DOC))
            (base / "graph.txt").write_text(GRAPH)
            (base / "payload.bin").write_bytes(b"same bytes")
            (base / "store").mkdir()
            for args in [
                ["pap", "keygen", "--out-dir", base / "pap", "--suite", "mock", "--seed", 42],
                ["user", "keygen", "--out-dir", base / "usr", "--suite", "mock", "--seed", 42],
                ["pap", "compile", "--policies", base / "policies.json",
                 "--admin-sk", base / "pap/admin.sk", "--out", base / "compiled.json",
                 "--suite", "mock"],
                ["user", "tag", "--graph", base / "graph.txt",
                 "--admin-pk", base / "pap/admin.pk", "--user-sk", base / "usr/user.sk",
                 "--payload", base / "payload.bin", "--out", base / "sub.json",
                 "--suite", "mock", "--seed", 42],
                _classify_args(base),
            ]:
                result = runner.invoke(cli, [str(a) for a in args])
                assert result.exit_code == 0, result.output
            logs.append((base / "store/decisions.log").read_bytes())
        assert logs[0] == logs[1]
