"""End-to-end pipeline through the command-line interface."""

import builtins
import errno
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from pipeline import classify_args, keygen, run, scenario, tag, tag_args

from pbcap import formats, scheme, storage
from pbcap.cli import main
from pbcap.pairing import MockSuite

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
OTHER_GRAPH = "node a Artifact Draft\nnode b Agent Intern\nedge ScannedBy a b\n"

KEYWORD_TOKENS = [b"RecordedBy", b"DiagnosedBy", b"Test,Nurse", b"Report,Doctor", b"ReviewedBy"]


@pytest.fixture
def pipeline(tmp_path):
    """Keys, compiled policies, one tagged submission, a storage root."""
    scenario(tmp_path, "mock", POLICY_DOC["policies"], GRAPH)
    return tmp_path


def _mix_admin_key(root):
    """Give ``pap/admin.pk`` the pk_b of another admin key pair; returns the refusal."""
    keygen(root / "pap2", "pap", "mock", 9)
    doc = json.loads((root / "pap/admin.pk").read_text())
    doc["pk_b"] = json.loads((root / "pap2/admin.pk").read_text())["pk_b"]
    (root / "pap/admin.pk").write_text(json.dumps(doc))
    return f"{root / 'pap/admin.pk'}: pk_a and pk_b do not share an exponent"


def _forge(root):
    """Write ``forged.json``, tagged with the key of a user the PDP does not know."""
    keygen(root / "usr2", "user", "mock", 77)
    tag(root, "mock", GRAPH, 7, out="forged.json", user="usr2")


class BrokenFile:
    """An open file whose write fails."""

    def __init__(self, *args, **kwargs):
        self._fh = builtins.open(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestKeygen:
    def test_overwrite_guard(self, tmp_path):
        args = ["pap", "keygen", "--out-dir", tmp_path, "--suite", "mock", "--seed", "1"]
        run(*args)
        second = run(*args, code=1)
        assert "exists" in second.output
        run(*args, "--force")

    def test_secret_key_permissions(self, tmp_path, monkeypatch):
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
                    run(role, "keygen", "--out-dir", out_dir, "--suite", "mock", "--seed", "1", *extra)
                    assert (out_dir / name).stat().st_mode & 0o777 == 0o600
        finally:
            os.umask(umask)

    def test_public_key_round_trip_and_dual_representation(self, tmp_path):
        from pbcap.formats import load_admin_public
        from pbcap.pairing import get_suite
        keygen(tmp_path, "pap", "mock", 1)
        suite = get_suite("mock")
        pub = load_admin_public(tmp_path / "admin.pk", suite)
        assert suite.pair(pub.pk_a, suite.gen_b) == suite.pair(suite.gen_a, pub.pk_b)

    def test_user_pk_matches_secret_in_mock(self, tmp_path):
        from pbcap.formats import load_user_public, load_user_secret
        from pbcap.pairing import get_suite
        keygen(tmp_path, "user", "mock", 1)
        suite = get_suite("mock")
        sk = load_user_secret(tmp_path / "user.sk", suite)
        pub = load_user_public(tmp_path / "user.pk", suite)
        assert suite.gen_b ** sk == pub


class TestCompile:
    def test_compiled_file_is_keyword_clean(self, pipeline):
        blob = (pipeline / "compiled.json").read_bytes()
        for tok in KEYWORD_TOKENS:
            assert tok not in blob

    def test_malformed_keyword_reports_location(self, tmp_path):
        doc = dict(POLICY_DOC)
        doc["policies"] = [dict(doc["policies"][0], keywords=["RecordedBy(Test"])]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        keygen(tmp_path, "pap", "mock", 1)
        result = run("pap", "compile", "--policies", tmp_path / "bad.json", "--admin-sk", tmp_path / "admin.sk",
                     "--out", tmp_path / "out.json", "--suite", "mock", code=1)
        assert "policy #0" in result.output
        assert "malformed fragment" in result.output

    def test_keyword_utf8_cannot_encode_refused(self, tmp_path):
        """A keyword holding a lone surrogate (a JSON \\ud800 escape) is refused
        while the policy file is read: one line naming the file, no traceback."""
        doc = dict(POLICY_DOC)
        doc["policies"] = [dict(doc["policies"][0], keywords=["R(Te\ud800st,Nurse)"])]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        keygen(tmp_path, "pap", "mock", 1)
        result = run("pap", "compile", "--policies", tmp_path / "bad.json", "--admin-sk", tmp_path / "admin.sk",
                     "--out", tmp_path / "out.json", "--suite", "mock", code=1)
        assert result.stderr == (f"Error: {tmp_path / 'bad.json'}: policy #0: "
                                 "argument 'Te\\ud800st' is not encodable in UTF-8\n")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("unit", ["decisions.log", "../up", pytest.param("\u00e9" * 128, id="utf8-256")])
    def test_unstorable_storage_unit_refused(self, tmp_path, unit):
        doc = dict(POLICY_DOC)
        doc["policies"] = [doc["policies"][0], dict(doc["policies"][1], storage_unit=unit)]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        keygen(tmp_path, "pap", "mock", 1)
        result = run("pap", "compile", "--policies", tmp_path / "bad.json", "--admin-sk", tmp_path / "admin.sk",
                     "--out", tmp_path / "out.json", "--suite", "mock", code=1)
        assert f"storage unit {unit!r}" in result.output
        assert not (tmp_path / "out.json").exists()

    def test_duplicate_policy_id_refused_naming_the_file(self, tmp_path):
        doc = dict(POLICY_DOC, policies=[dict(p, id="p") for p in POLICY_DOC["policies"]])
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        keygen(tmp_path, "pap", "mock", 1)
        result = run("pap", "compile", "--policies", tmp_path / "bad.json", "--admin-sk", tmp_path / "admin.sk",
                     "--out", tmp_path / "out.json", "--suite", "mock", code=1)
        assert result.stderr == f"Error: {tmp_path / 'bad.json'}: duplicate policy id 'p'\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("policies", [5, None, True, 3.9])
    def test_non_list_policies_refused(self, tmp_path, policies):
        """A decode error with exit 1, not a TypeError traceback."""
        (tmp_path / "bad.json").write_text(json.dumps(dict(POLICY_DOC, policies=policies)))
        keygen(tmp_path, "pap", "mock", 1)
        result = run("pap", "compile", "--policies", tmp_path / "bad.json", "--admin-sk", tmp_path / "admin.sk",
                     "--out", tmp_path / "out.json", "--suite", "mock", code=1)
        assert "field 'policies' is not a list" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("field", ["id", "category"])
    def test_empty_policy_field_refused(self, tmp_path, field):
        doc = dict(POLICY_DOC, policies=[dict(POLICY_DOC["policies"][0], **{field: ""})])
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        keygen(tmp_path, "pap", "mock", 1)
        result = run("pap", "compile", "--policies", tmp_path / "bad.json", "--admin-sk", tmp_path / "admin.sk",
                     "--out", tmp_path / "out.json", "--suite", "mock", code=1)
        assert result.stderr.startswith(f"Error: {tmp_path / 'bad.json'}: policy #0: ")
        assert ("policy id must be non-empty" if field == "id" else "needs a category") in result.stderr
        assert not (tmp_path / "out.json").exists()

    def test_trapdoor_count_matches_keywords(self, pipeline):
        doc = json.loads((pipeline / "compiled.json").read_text())
        assert [len(p["trapdoors"]) for p in doc["policies"]] == [2, 1]


class TestTag:
    def test_one_tag_per_distinct_edge(self, pipeline):
        doc = json.loads((pipeline / "sub.json").read_text())
        assert len(doc["tags"]) == 2  # two distinct typed edges

    def test_submission_is_fragment_clean(self, pipeline):
        blob = (pipeline / "sub.json").read_bytes()
        for tok in [b"RecordedBy", b"ProducedFrom", b"Test", b"Nurse"]:
            assert tok not in blob

    def test_retag_differs_in_y_and_z(self, pipeline):
        tag(pipeline, "mock", GRAPH, 4, out="sub2.json")
        a = json.loads((pipeline / "sub.json").read_text())
        b = json.loads((pipeline / "sub2.json").read_text())
        assert a["x"] == b["x"]
        for t1, t2 in zip(a["tags"], b["tags"]):
            assert t1["y"] != t2["y"] and t1["z"] != t2["z"]

    def test_json_graph_mirror_tags_byte_identically(self, pipeline):
        """The JSON mirror of GRAPH, tagged with the same keys and seed,
        gives the line-format graph's submission byte for byte."""
        mirror = {
            "nodes": [{"id": "t", "kind": "Artifact", "label": "Test"},
                      {"id": "n", "kind": "Agent", "label": "Nurse"},
                      {"id": "r", "kind": "Artifact", "label": "Report"}],
            "edges": [{"relation": "RecordedBy", "source": "t", "target": "n"},
                      {"relation": "ProducedFrom", "source": "r", "target": "t"}],
        }
        tag(pipeline, "mock", json.dumps(mirror), 3, out="mirror.json")
        assert (pipeline / "mirror.json").read_bytes() == (pipeline / "sub.json").read_bytes()

    def test_cyclic_graph_rejected(self, pipeline):
        root = pipeline
        (root / "cyclic.txt").write_text(
            "node a Artifact A\nnode b Agent B\nedge R a b\nedge S b a\n"
        )
        result = run("user", "tag", "--graph", root / "cyclic.txt",
                     "--admin-pk", root / "pap/admin.pk",
                     "--user-sk", root / "usr/user.sk",
                     "--payload", root / "payload.bin",
                     "--out", root / "bad.json", "--suite", "mock", "--seed", 5, code=1)
        assert "cycle" in result.output

    def test_mixed_exponent_admin_key_refused(self, pipeline):
        """Checked when the key is loaded: exit 1, no submission written."""
        root = pipeline
        refusal = _mix_admin_key(root)
        result = run("user", "tag", "--graph", root / "sub.graph",
                     "--admin-pk", root / "pap/admin.pk",
                     "--user-sk", root / "usr/user.sk",
                     "--payload", root / "payload.bin",
                     "--out", root / "bad.json", "--suite", "mock", "--seed", 5, code=1)
        assert result.stderr == f"Error: {refusal}\n"
        assert not (root / "bad.json").exists()

    @pytest.mark.parametrize("file_id, code", [("a" * 255, 0), ("a" * 256, 1),
                                               ("\u00e9" * 127 + "a", 0), ("\u00e9" * 128, 1)],
                             ids=["ascii-255", "ascii-256", "utf8-255", "utf8-256"])
    def test_file_id_longer_than_name_max_refused(self, pipeline, monkeypatch, file_id, code):
        """A file id over 255 bytes in UTF-8 is refused with exit 1 before
        any pairing; one of 255 bytes is tagged."""
        root = pipeline
        key_checks = []

        def check(*args, _inner=scheme.check_admin_key):
            key_checks.append(args)
            return _inner(*args)

        monkeypatch.setattr(scheme, "check_admin_key", check)
        result = run("user", "tag", "--graph", root / "sub.graph",
                     "--admin-pk", root / "pap/admin.pk",
                     "--user-sk", root / "usr/user.sk",
                     "--payload", root / "payload.bin",
                     "--out", root / "long.json", "--suite", "mock", "--seed", 5, "--file-id", file_id,
                     code=code)
        assert (root / "long.json").exists() is (code == 0)
        # the admin key check is the first pairing ``user tag`` runs
        assert len(key_checks) == (0 if code else 1)
        if code:
            size = len(file_id.encode("utf-8"))
            assert result.stderr == f"Error: file id {file_id!r} is {size} bytes long; a file name takes at most 255\n"

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
        b"node t Artifact Te\xffst\n",
        json.dumps({"nodes": [{"id": "t", "kind": "Artifact", "label": "Te\ud800st"},
                              {"id": "n", "kind": "Agent", "label": "Nurse"}],
                    "edges": [{"relation": "RecordedBy", "source": "t", "target": "n"}]}),
    ], ids=["comma-in-label", "int-label", "paren-in-relation", "int-edge-target", "no-edges", "string-node",
            "not-utf8", "surrogate-label"])
    def test_malformed_graph_rejected(self, pipeline, graph):
        """Refused while the graph is read: exit 1 with one line naming the
        file, no traceback."""
        root = pipeline
        (root / "bad_graph").write_bytes(graph if isinstance(graph, bytes) else graph.encode())
        result = run("user", "tag", "--graph", root / "bad_graph",
                     "--admin-pk", root / "pap/admin.pk",
                     "--user-sk", root / "usr/user.sk",
                     "--payload", root / "payload.bin",
                     "--out", root / "bad.json", "--suite", "mock", "--seed", "5", code=1)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"Error: {root / 'bad_graph'}: ")
        assert "Traceback" not in result.output
        assert not (root / "bad.json").exists()

    @pytest.mark.parametrize("line, message", [
        ("edge RecordedBy t", "expected: edge <relation> <source> <target>"),
        ("vertex v Agent Nurse", "unknown declaration 'vertex'"),
    ])
    def test_bad_graph_line_named(self, pipeline, line, message):
        root = pipeline
        (root / "bad_graph").write_text(f"node t Artifact Test\nnode n Agent Nurse\n{line}\n")
        result = run("user", "tag", "--graph", root / "bad_graph",
                     "--admin-pk", root / "pap/admin.pk",
                     "--user-sk", root / "usr/user.sk",
                     "--payload", root / "payload.bin",
                     "--out", root / "bad.json", "--suite", "mock", "--seed", "5", code=1)
        assert result.stderr == f"Error: {root / 'bad_graph'}: line 3: {message}\n"
        assert not (root / "bad.json").exists()


def _tree(root):
    """Every path under ``root``, with a file's bytes, to show nothing was written."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def _inputs(root, command):
    """The input options of a writing ``command`` in the ``pipeline`` scenario."""
    return {
        "user tag": ["--graph", root / "sub.graph", "--admin-pk", root / "pap/admin.pk",
                     "--user-sk", root / "usr/user.sk", "--payload", root / "payload.bin"],
        "pap compile": ["--policies", root / "policies.json", "--admin-sk", root / "pap/admin.sk"],
        "pap keygen": [],
        "user keygen": [],
    }[command]


class TestOutputPaths:
    """An output path that cannot be written is refused before any key is
    read: a missing parent directory exits 1, a directory given as ``--out``
    or a file given as ``--out-dir`` is a usage error (exit 2)."""

    @pytest.mark.parametrize("command, option, target, code, message", [
        ("user tag", "--out", "nodir/sub.json", 1, "nodir is not a directory"),
        ("pap compile", "--out", "nodir/c.json", 1, "nodir is not a directory"),
        ("user tag", "--out", "d", 2, "Invalid value for '--out'"),
        ("pap compile", "--out", "d", 2, "Invalid value for '--out'"),
        ("pap keygen", "--out-dir", "afile", 2, "Invalid value for '--out-dir'"),
        ("user keygen", "--out-dir", "afile", 2, "Invalid value for '--out-dir'"),
    ], ids=["tag-missing-parent", "compile-missing-parent", "tag-out-is-dir", "compile-out-is-dir",
            "pap-keygen-out-dir-is-file", "user-keygen-out-dir-is-file"])
    def test_unwritable_output_path_refused(self, pipeline, command, option, target, code, message):
        root = pipeline
        (root / "d").mkdir()
        (root / "afile").write_bytes(b"a file")
        before = _tree(root)
        result = run(*command.split(), *_inputs(root, command), option, root / target, "--suite", "mock",
                     "--force", code=code)
        assert message in result.stderr
        assert "Traceback" not in result.output
        assert _tree(root) == before

    @pytest.mark.parametrize("point", ["open", "write"])
    @pytest.mark.parametrize("command, option, target", [
        ("pap keygen", "--out-dir", "out/admin.sk"), ("user keygen", "--out-dir", "out/user.sk"),
        ("pap compile", "--out", "out/c.json"), ("user tag", "--out", "out/sub.json"),
    ], ids=["pap-keygen", "user-keygen", "compile", "tag"])
    def test_failed_write_exits_1_and_leaves_no_file(self, pipeline, monkeypatch, command, option, target,
                                                     point):
        """An output file that cannot be created, or is created and then cannot
        be written (a full disk): exit 1 with one stderr line naming it, and no
        file left behind.  ``target`` is the first file the command stages in
        ``out``, so the first ``os.open`` or ``open`` there is its own."""
        root = pipeline
        (root / "out").mkdir()
        target = root / target

        def refuse_target(path, *args, _real=os.open):
            if Path(path).parent == target.parent:
                raise OSError(errno.EACCES, "Permission denied", str(path))
            return _real(path, *args)

        if point == "open":
            monkeypatch.setattr(storage.os, "open", refuse_target)
        else:
            monkeypatch.setattr(storage, "open", BrokenFile, raising=False)
        before = _tree(root)
        out = root / "out" if option == "--out-dir" else target
        result = run(*command.split(), *_inputs(root, command), option, out, "--suite", "mock", code=1)
        reason = "Permission denied" if point == "open" else "No space left on device"
        assert result.stderr == f"Error: cannot write {target}: {reason}\n"
        assert _tree(root) == before

    @pytest.mark.parametrize("command, option, outputs, nth, point", [
        pytest.param(command, option, outputs, nth, point,
                     id=f"{command.replace(' ', '-')}-{outputs[nth]}-{point}")
        for command, option, outputs in [
            ("pap keygen", "--out-dir", ("out/admin.sk", "out/admin.pk")),
            ("pap keygen", "--out-dir", ("pap/admin.sk", "pap/admin.pk")),
            ("user keygen", "--out-dir", ("out/user.sk", "out/user.pk")),
            ("user keygen", "--out-dir", ("usr/user.sk", "usr/user.pk")),
            ("pap compile", "--out", ("out/c.json",)),
            ("pap compile", "--out", ("compiled.json",)),
            ("user tag", "--out", ("out/sub.json",)),
            ("user tag", "--out", ("sub.json",)),
        ]
        for nth in range(len(outputs))
        for point in ("open", "write", "keep", "commit")
    ])
    def test_fault_at_any_write_step_keeps_every_output_old(self, pipeline, monkeypatch, command, option,
                                                             outputs, nth, point):
        """One fault while the ``nth`` output file is staged (its temporary
        file opened or written) or committed (its old file kept, or the new
        one moved into place): exit 1 with one stderr line naming that file,
        and every output path keeps its old bytes and mode or stays absent,
        so a key pair is old or new as a whole, and no dot file is left.
        An output under ``out`` is new; any other is overwritten (--force)."""
        root = pipeline
        (root / "out").mkdir()
        outputs = [root / name for name in outputs]
        failing = outputs[nth]

        def refuse(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        # the files are staged in order, and each commit names its path
        owner, name, broken, hits, skip = {
            "open": (storage.os, "open", refuse, lambda path, *args: Path(path).parent == failing.parent, nth),
            "write": (storage, "open", BrokenFile, lambda *args: True, nth),
            "keep": (storage.os, "link", refuse, lambda src, dst: Path(src) == failing, 0),
            "commit": (storage.os, "replace", refuse, lambda src, dst: Path(dst) == failing, 0),
        }[point]
        real, calls = getattr(owner, name, builtins.open), []

        def faulty(*args, **kwargs):
            if hits(*args):
                calls.append(args)
                if len(calls) == skip + 1:
                    return broken(*args, **kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, faulty, raising=False)
        before = _tree(root)
        modes = {path: path.stat().st_mode for path in outputs if path.exists()}
        out = failing.parent if option == "--out-dir" else failing
        force = ["--force"] if failing.parent != root / "out" else []
        result = run(*command.split(), *_inputs(root, command), option, out, "--suite", "mock", *force, code=1)
        assert len(calls) > skip
        assert result.stderr == f"Error: cannot write {failing}: No space left on device\n"
        assert _tree(root) == before
        assert {path: path.stat().st_mode for path in outputs if path.exists()} == modes


    @pytest.mark.parametrize("command", ["pap keygen", "user keygen"])
    def test_out_dir_below_a_file_refused(self, tmp_path, command):
        """``--out-dir afile/sub`` with ``afile`` a file: exit 1, the path named."""
        (tmp_path / "afile").write_bytes(b"a file")
        out_dir = tmp_path / "afile/sub"
        before = _tree(tmp_path)
        result = run(*command.split(), "--out-dir", out_dir, "--suite", "mock", code=1)
        assert f"Error: cannot create {out_dir}" in result.stderr
        assert "Traceback" not in result.output
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
    @pytest.mark.parametrize("command, key", [
        ("pap keygen", "admin.sk"), ("pap keygen", "admin.pk"),
        ("user keygen", "user.sk"), ("user keygen", "user.pk"),
    ])
    def test_key_path_that_is_a_directory_refused(self, tmp_path, command, key, force):
        """A key path that is a directory: exit 1, the path named, before any
        key is generated.  With --force, the other key file of an existing
        pair is not replaced."""
        args = [*command.split(), "--out-dir", tmp_path, "--suite", "mock"]
        if force:
            run(*args)
            (tmp_path / key).unlink()
        (tmp_path / key).mkdir()
        before = _tree(tmp_path)
        result = run(*args, *["--force"] * force, code=1)
        assert result.stderr == f"Error: {tmp_path / key} is a directory\n"
        assert _tree(tmp_path) == before


class TestInputPaths:
    """A directory given as an input file is a usage error (exit 2), refused
    before the command body runs: no key is read and no pairing runs."""

    @pytest.mark.parametrize("command, option", [
        ("pap compile", "--policies"), ("pap compile", "--admin-sk"),
        ("user tag", "--graph"), ("user tag", "--admin-pk"),
        ("user tag", "--user-sk"), ("user tag", "--payload"),
        ("pdp classify", "SUBMISSIONS"), ("pdp classify", "--policies"),
        ("pdp classify", "--admin-pk"), ("pdp classify", "--user-pk"),
    ])
    def test_directory_refused(self, pipeline, monkeypatch, command, option):
        root = pipeline
        (root / "d").mkdir()
        args = {
            "pap compile": ["pap", "compile", "--policies", root / "policies.json",
                            "--admin-sk", root / "pap/admin.sk", "--out", root / "c.json", "--suite", "mock"],
            "user tag": ["user", "tag", "--graph", root / "sub.graph", "--admin-pk", root / "pap/admin.pk",
                         "--user-sk", root / "usr/user.sk", "--payload", root / "payload.bin",
                         "--out", root / "out.json", "--suite", "mock"],
            "pdp classify": classify_args(root, "mock", "sub.json"),
        }[command]
        args[2 if option == "SUBMISSIONS" else args.index(option) + 1] = root / "d"

        def body_ran(name):
            raise AssertionError("the command body ran")
        monkeypatch.setattr("pbcap.cli.get_suite", body_ran)
        before = _tree(root)
        result = run(*args, code=2)
        assert "Invalid value for" in result.stderr and "is a directory" in result.stderr
        assert "Traceback" not in result.output
        assert _tree(root) == before


class TestClassify:
    def test_medical_payload_lands_in_hospital(self, pipeline):
        root = pipeline
        run(*classify_args(root, "mock", "sub.json"))
        stored = root / "store/Hospital/payload.bin"
        assert stored.read_bytes() == b"opaque ciphertext"
        log = (root / "store/decisions.log").read_text().splitlines()
        assert len(log) == 1
        assert json.loads(log[0])["category"] == "Medical Documents"

    def test_no_match_goes_to_default_unit(self, pipeline):
        root = pipeline
        tag(root, "mock", OTHER_GRAPH, 6, out="sub3.json", file_id="other.bin")
        run(*classify_args(root, "mock", "sub3.json"))
        assert (root / "store/default/other.bin").exists()
        log = (root / "store/decisions.log").read_text().splitlines()
        assert json.loads(log[-1])["category"] == "unclassified"

    def test_unregistered_user_exits_2_and_stores_nothing(self, pipeline):
        root = pipeline
        _forge(root)
        run(*classify_args(root, "mock", "forged.json"), code=2)
        assert not list((root / "store").glob("*/*"))

    @pytest.mark.parametrize("first", ["sub.json", "forged.json"])
    def test_mixed_exponent_admin_key_exits_3(self, pipeline, first):
        """Found by the first authentication, genuine or forged: exit 3 at
        once, the rest of the batch unread, nothing stored and nothing logged."""
        root = pipeline
        _forge(root)
        refusal = _mix_admin_key(root)
        result = run(*classify_args(root, "mock", first, "sub.json"), code=3)
        assert result.stderr == f"decode error: {refusal}\n"
        assert list((root / "store").iterdir()) == []

    def test_identity_user_key_exits_3_before_reading_submissions(self, pipeline, monkeypatch):
        root = pipeline
        doc = json.loads((root / "usr/user.pk").read_text())
        (root / "usr/user.pk").write_text(json.dumps(dict(doc, pk_b=bytes(8).hex())))

        def unread(*args):
            raise AssertionError("a submission was read")

        monkeypatch.setattr(formats, "load_submission", unread)
        result = run(*classify_args(root, "mock", "sub.json"), code=3)
        assert result.stderr == f"decode error: {root / 'usr/user.pk'}: user public key is the identity\n"
        assert list((root / "store").iterdir()) == []

    def test_genuine_forged_genuine_checks_admin_key_once(self, pipeline, monkeypatch):
        """Each authentication draws one delta from one system rng.  The
        forged submission fails, so the admin key is checked alone and
        passes: that submission exits 2 and is logged, and the genuine ones
        around it are stored."""
        root = pipeline
        _forge(root)
        tag(root, "mock", GRAPH, 4, out="sub2.json", file_id="second.bin")
        rngs, draws, key_checks = [], [], []

        class Recorded(random.SystemRandom):
            def __init__(self):
                super().__init__()
                rngs.append(self)

            def randrange(self, *args):
                draws.append(args)
                return super().randrange(*args)

        def check(suite, admin_pub, _inner=scheme.check_admin_key):
            key_checks.append(admin_pub)
            return _inner(suite, admin_pub)

        monkeypatch.setattr(random, "SystemRandom", Recorded)
        monkeypatch.setattr(scheme, "check_admin_key", check)
        result = run(*classify_args(root, "mock", "sub.json", "forged.json", "sub2.json"), code=2)
        assert result.stderr == f"{root / 'forged.json'}: authentication failure; payload not stored\n"
        stored = [json.loads(line) for line in result.stdout.splitlines()]
        assert [(d["file_id"], d["storage_unit"]) for d in stored] == [
            ("payload.bin", "Hospital"), ("second.bin", "Hospital")]
        log = [json.loads(line) for line in (root / "store/decisions.log").read_text().splitlines()]
        assert [entry["authenticated"] for entry in log] == [True, False, True]
        assert len(rngs) == 1
        assert draws == [(1, min(2 ** 128, MockSuite().order))] * 3
        assert len(key_checks) == 1

    def test_corrupt_submission_exits_3(self, pipeline):
        root = pipeline
        (root / "junk.json").write_text('{"format": "pbcap/1", "kind": "submission"}')
        result = run(*classify_args(root, "mock", "junk.json"), code=3)
        assert result.stderr == f"decode error: {root / 'junk.json'}: missing field 'suite'\n"
        assert not list((root / "store").glob("*/*"))

    def test_batch_with_every_outcome(self, pipeline):
        """Matched, forged, corrupt, unclassified and a repeated file id in
        one call: the batch exits 3, the highest code; each stored
        submission prints one stdout line and each refusal one stderr line,
        in batch order; only the stored and the forged ones are logged.
        The forged one's tag does not decode, but it is refused by its
        authentication before its tags are decoded."""
        root = pipeline
        _forge(root)
        doc = json.loads((root / "forged.json").read_text())
        doc["tags"][0]["y"] = "00"
        (root / "forged.json").write_text(json.dumps(doc))
        (root / "junk.json").write_text('{"format": "pbcap/1", "kind": "submission"}')
        tag(root, "mock", OTHER_GRAPH, 6, out="other.json", file_id="other.bin")
        tag(root, "mock", GRAPH, 8, out="repeat.json")
        subs = ["sub.json", "forged.json", "junk.json", "other.json", "repeat.json"]
        result = run(*classify_args(root, "mock", *subs), code=3)
        stored = [json.loads(line) for line in result.stdout.splitlines()]
        assert [(d["file_id"], d["storage_unit"]) for d in stored] == [
            ("payload.bin", "Hospital"), ("other.bin", "default")]
        assert result.stderr.splitlines() == [
            f"{root / 'forged.json'}: authentication failure; payload not stored",
            f"decode error: {root / 'junk.json'}: missing field 'suite'",
            f"{root / 'repeat.json'}: payload not stored: file id 'payload.bin' is already stored in 'Hospital'",
        ]
        log = [json.loads(line) for line in (root / "store/decisions.log").read_text().splitlines()]
        assert [(entry["file_id"], entry["authenticated"]) for entry in log] == [
            ("payload.bin", True), ("payload.bin", False), ("other.bin", True)]

    def test_batch_of_four_stores_four_files_and_logs_four_lines(self, pipeline):
        """One call with four submissions stores four files and logs four lines."""
        root = pipeline
        subs = [f"par{i}.json" for i in range(4)]
        for i, sub in enumerate(subs):
            tag(root, "mock", GRAPH, 100 + i, out=sub, file_id=f"file{i}.bin")
        run(*classify_args(root, "mock", *subs))
        stored = list((root / "store").glob("*/*"))
        assert len(stored) == 4
        assert len((root / "store/decisions.log").read_text().splitlines()) == 4

    def test_unstorable_file_ids_skipped_with_exit_3(self, pipeline):
        """An unsafe and a repeated file id are reported; the batch goes on.

        ``user tag`` refuses ``../evil``, so that submission is a good one
        with its ``file_id`` rewritten, as a hand-built file would be.
        Reading the submission refuses it, and so it refuses a file id
        that is not a string (``null`` would otherwise be stored as
        ``None``) or longer than 255 bytes in UTF-8 (``os.link`` would
        fail only after the payload is written); a repeated id is refused
        only by the store."""
        root = pipeline
        names = ["good.bin", "evil", "good.bin", "good2.bin", "null", "five", "ascii", "utf8", "utf8-255"]
        subs = [f"batch{i}.json" for i in range(len(names))]
        for i, file_id in enumerate(names):
            tag(root, "mock", GRAPH, 200 + i, out=subs[i], file_id=file_id)
        longest = "\u00e9" * 127 + "a"
        for i, file_id in ((1, "../evil"), (4, None), (5, 5), (6, "a" * 256), (7, "\u00e9" * 128), (8, longest)):
            doc = json.loads((root / subs[i]).read_text())
            (root / subs[i]).write_text(json.dumps(dict(doc, file_id=file_id)))
        result = run(*classify_args(root, "mock", *subs), code=3)
        assert sorted(p.name for p in (root / "store").glob("*/*")) == ["good.bin", "good2.bin", longest]
        assert len((root / "store/decisions.log").read_text().splitlines()) == 3
        for i in (6, 7):
            assert f"decode error: {root / subs[i]}: " in result.stderr
        assert result.stderr.count("bytes long; a file name takes at most 255") == 2
        assert f"decode error: {root / 'batch1.json'}: " in result.stderr
        assert "file id '../evil' is not a safe file name" in result.stderr
        assert "batch2.json: payload not stored" in result.stderr
        for i in (4, 5):
            assert f"decode error: {root / subs[i]}: " in result.stderr
        assert result.stderr.count("field 'file_id' is not a string") == 2

    def test_storage_unit_that_is_not_a_directory_skipped_with_exit_3(self, pipeline):
        """A file where the Hospital unit's directory belongs: that payload is
        reported and neither stored nor logged, and the batch goes on."""
        root = pipeline
        tag(root, "mock", OTHER_GRAPH, 6, out="other.json", file_id="other.bin")
        (root / "store/Hospital").write_bytes(b"not a unit")
        result = run(*classify_args(root, "mock", "sub.json", "other.json"), code=3)
        assert result.stderr == (f"{root / 'sub.json'}: payload not stored: "
                                 "storage unit 'Hospital' is not a directory\n")
        assert (root / "store/Hospital").read_bytes() == b"not a unit"
        assert [p.name for p in (root / "store").glob("*/*")] == ["other.bin"]
        log = [json.loads(line) for line in (root / "store/decisions.log").read_text().splitlines()]
        assert [entry["file_id"] for entry in log] == ["other.bin"]

    @pytest.mark.parametrize("point", ["mkdir", "open", "write", "link", "log"])
    def test_store_os_error_skipped_with_exit_3(self, pipeline, monkeypatch, point):
        """An OSError at any step of storing a payload is one stderr line
        naming the unit and the file id, with exit 3 and no traceback: that
        payload is neither stored nor logged, no temporary file is left,
        and a genuine submission later in the batch is still routed."""
        root = pipeline
        tag(root, "mock", GRAPH, 6, out="second.json", file_id="second.bin")

        def refuse(*args, **kwargs):
            raise OSError(errno.EIO, "Input/output error")

        owner, name, real, failing = {
            "mkdir": (Path, "mkdir", Path.mkdir, refuse),
            "open": (storage, "open", builtins.open, refuse),
            "write": (storage, "open", builtins.open, BrokenFile),
            "link": (os, "link", os.link, refuse),
            "log": (storage.StorageLayout, "log", storage.StorageLayout.log, refuse),
        }[point]
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(1)
            return (failing if len(calls) == 1 else real)(*args, **kwargs)

        monkeypatch.setattr(owner, name, first_fails, raising=False)
        result = run(*classify_args(root, "mock", "sub.json", "second.json"), code=3)
        assert result.stderr.startswith(f"{root / 'sub.json'}: payload not stored: cannot store file id "
                                        "'payload.bin' in storage unit 'Hospital': ")
        assert len(result.stderr.splitlines()) == 1
        assert sorted(p.name for p in (root / "store").rglob("*") if p.is_file()) == ["decisions.log", "second.bin"]
        log = [json.loads(line) for line in (root / "store/decisions.log").read_text().splitlines()]
        assert [entry["file_id"] for entry in log] == ["second.bin"]

    def test_unlogged_authentication_failure_skipped_with_exit_3(self, pipeline, monkeypatch):
        """An OSError while the decision on a forged submission is logged
        is one stderr line naming that submission, with exit 3 and no
        traceback; the genuine submission after it is still routed."""
        root = pipeline
        _forge(root)
        calls = []

        def first_fails(layout, decision, _real=storage.StorageLayout.log):
            calls.append(decision.file_id)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return _real(layout, decision)

        monkeypatch.setattr(storage.StorageLayout, "log", first_fails)
        result = run(*classify_args(root, "mock", "forged.json", "sub.json"), code=3)
        assert result.stderr == (f"{root / 'forged.json'}: authentication failure; payload not stored; "
                                 "decision not logged: No space left on device\n")
        assert [json.loads(line)["file_id"] for line in result.stdout.splitlines()] == ["payload.bin"]
        assert [p.relative_to(root / "store").as_posix() for p in (root / "store").glob("*/*")] == [
            "Hospital/payload.bin"]
        log = [json.loads(line) for line in (root / "store/decisions.log").read_text().splitlines()]
        assert [entry["authenticated"] for entry in log] == [True]
        assert len(calls) == 2

    @pytest.mark.parametrize("unit", ["decisions.log", "../up", pytest.param("a" * 256, id="ascii-256")])
    def test_unstorable_compiled_storage_unit_exits_3(self, pipeline, unit):
        """A hand-built compiled set that routes to a unit no store accepts
        is refused when it is read: nothing is stored and nothing logged."""
        root = pipeline
        doc = json.loads((root / "compiled.json").read_text())
        doc["policies"][1]["storage_unit"] = unit
        (root / "compiled.json").write_text(json.dumps(doc))
        result = run(*classify_args(root, "mock", "sub.json"), code=3)
        assert f"policy #1: storage unit {unit!r}" in result.stderr
        assert list((root / "store").iterdir()) == []

    @pytest.mark.parametrize("policies", [5, None, True, 3.9])
    def test_non_list_compiled_policies_exits_3(self, pipeline, policies):
        """Refused when the compiled set is read, before any pairing:
        no traceback, nothing stored and nothing logged."""
        root = pipeline
        doc = json.loads((root / "compiled.json").read_text())
        (root / "compiled.json").write_text(json.dumps(dict(doc, policies=policies)))
        result = run(*classify_args(root, "mock", "sub.json"), code=3)
        assert "field 'policies' is not a list" in result.stderr
        assert "Traceback" not in result.output
        assert list((root / "store").iterdir()) == []

    def test_duplicate_compiled_policy_id_exits_3(self, pipeline):
        """A hand-built compiled set with two policies of one id is refused
        when it is read, before any submission: nothing stored or logged."""
        root = pipeline
        doc = json.loads((root / "compiled.json").read_text())
        for entry in doc["policies"]:
            entry["id"] = "p"
        (root / "compiled.json").write_text(json.dumps(doc))
        (root / "junk.json").write_text("not a submission")
        result = run(*classify_args(root, "mock", "junk.json", "sub.json"), code=3)
        assert result.stderr == f"decode error: {root / 'compiled.json'}: duplicate policy id 'p'\n"
        assert list((root / "store").iterdir()) == []

    def test_decision_log_that_is_not_a_file_exits_3(self, pipeline):
        """Refused with the storage root, before any submission is read:
        nothing is stored."""
        root = pipeline
        (root / "store/decisions.log").mkdir()
        result = run(*classify_args(root, "mock", "sub.json"), code=3)
        assert result.stderr == (f"decode error: decision log {root / 'store/decisions.log'} "
                                 "is not a regular file\n")
        assert list((root / "store").rglob("*")) == [root / "store/decisions.log"]

    def test_storage_root_env_var(self, pipeline, monkeypatch):
        root = pipeline
        monkeypatch.setenv("PBCAP_STORAGE_ROOT", str(root / "store"))
        args = classify_args(root, "mock", "sub.json")
        i = args.index("--storage-root")
        del args[i:i + 2]
        run(*args)


@pytest.mark.parametrize("command", ["pap keygen", "user keygen", "user tag", "pdp classify"])
def test_unseeded_command_draws_only_from_one_system_rng(pipeline, monkeypatch, command):
    """Without ``--seed`` a command builds one ``random.SystemRandom`` and
    takes every secret exponent, randomizer or delta from it."""
    root = pipeline
    rngs, draws = [], []

    class Recorded(random.SystemRandom):
        def __init__(self):
            super().__init__()
            rngs.append(self)

        def randrange(self, *args):
            value = super().randrange(*args)
            draws.append((args, value))
            return value

    monkeypatch.setattr(random, "SystemRandom", Recorded)
    order = MockSuite().order
    if command.endswith("keygen"):
        role = command.split()[0]
        run(role, "keygen", "--out-dir", root / "new", "--suite", "mock")
        (sk_path,) = (root / "new").glob("*.sk")
        assert draws == [((1, order), int(json.loads(sk_path.read_text())["sk"], 16))]
    elif command == "user tag":
        run(*tag_args(root, "mock", root / "sub.graph", None, out="new.json"))
        n_tags = len(json.loads((root / "new.json").read_text())["tags"])
        assert [args for args, _ in draws] == [(1, order)] * n_tags
    else:
        run(*classify_args(root, "mock", "sub.json"))
        assert [args for args, _ in draws] == [(1, min(2 ** 128, order))]
    assert len(rngs) == 1


class TestNestedJson:
    """A JSON file nested deeper than the parser's recursion limit is
    refused as malformed, with no traceback."""

    @pytest.mark.parametrize("target", ["submission", "pap/admin.pk", "usr/user.pk", "compiled.json", "graph"])
    def test_deep_json_refused(self, pipeline, target):
        root = pipeline
        deep = "[" * 200000
        if target == "submission":
            # exit 3 for that submission; the genuine one after it is still routed
            (root / "deep.json").write_text(deep)
            result = run(*classify_args(root, "mock", "deep.json", "sub.json"), code=3)
            assert result.stderr.startswith(f"decode error: {root / 'deep.json'}: ")
            assert (root / "store/Hospital/payload.bin").exists()
        elif target == "graph":
            (root / "deep_graph").write_text('{"nodes": ' + deep)
            result = run("user", "tag", "--graph", root / "deep_graph",
                         "--admin-pk", root / "pap/admin.pk",
                         "--user-sk", root / "usr/user.sk",
                         "--payload", root / "payload.bin",
                         "--out", root / "bad.json", "--suite", "mock", "--seed", 5, code=1)
            assert result.stderr.startswith(f"Error: {root / 'deep_graph'}: invalid JSON graph: ")
            assert not (root / "bad.json").exists()
        else:
            # exit 3 before any submission is read: nothing stored or logged
            (root / target).write_text(deep)
            result = run(*classify_args(root, "mock", "sub.json"), code=3)
            assert result.stderr.startswith(f"decode error: {root / target}: ")
            assert list((root / "store").iterdir()) == []
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.output


class TestHarness:
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_is_usage_error(self, trials):
        result = run("harness", "run", "--suite", "mock", "--seed", "1", "--trials", trials, code=2)
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--trials'" in result.output

    @pytest.mark.parametrize("suite, warnings", [("production", 1), ("mock", 0)], ids=["production", "mock"])
    def test_seed_warns_only_on_the_production_suite(self, suite, warnings):
        """``--seed`` takes the keygens' seed policy: one stderr warning on
        the production suite, none on the mock suite, and the transcript on
        stdout either way."""
        result = run("harness", "run", "--suite", suite, "--trials", 1, "--seed", 1)
        assert result.stderr == "warning: --seed with the production suite is for tests only\n" * warnings
        assert json.loads(result.stdout)["trials"] == 1


def test_console_script_entry_point(monkeypatch, capsys):
    """``main``, the function the ``pbcap`` console script calls."""
    monkeypatch.setattr(sys, "argv", ["pbcap", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 0
    assert "Policy decision + enforcement point." in capsys.readouterr().out


def _fresh_python(*args):
    """``python *args`` in a new interpreter that imports pbcap from this
    checkout's ``src``; it must exit 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)


def test_module_entry_point():
    """``python -m pbcap.cli --help`` runs the module's ``__main__`` guard
    and prints the group help."""
    result = _fresh_python("-m", "pbcap.cli", "--help")
    assert "Classify encrypted files by searching their encrypted provenance." in result.stdout
    assert "Policy decision + enforcement point." in result.stdout
    assert result.stderr == ""


def test_round_trip_loads_no_openssl_fractions_or_decimal(tmp_path):
    """A fresh interpreter that imports ``pbcap.cli`` and runs a seeded mock
    round trip loads none of these modules.  ``fractions`` loads
    ``_decimal``: importing it for the curve's integer constants raised the
    benchmark's peak RSS by 0.4 MB.  ``hashlib``, ``hmac`` and ``secrets``
    load OpenSSL's ``_hashlib``, 3.7 MB; pbcap takes SHA-256 from the
    interpreter's own module and the system rng from ``random``."""
    code = (
        "import sys, pbcap.cli\n"
        "from pathlib import Path\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from pipeline import run, scenario\n"
        "root = Path(sys.argv[1])\n"
        f"run(*scenario(root, 'mock', {POLICY_DOC['policies']!r}, {GRAPH!r}))\n"
        "assert [p.name for p in root.glob('store/*/*')] == ['payload.bin']\n"
        "print(sorted({'fractions', 'decimal', '_decimal', '_pydecimal',\n"
        "              'hashlib', '_hashlib', 'hmac', 'secrets', '_ssl'} & set(sys.modules)))\n"
    )
    tests = Path(__file__).resolve().parent
    assert _fresh_python("-c", code, tmp_path, tests).stdout == "[]\n"
