"""Storage layout and the on-disk decode path."""

import errno
import json

import pytest

from pbcap import storage
from pbcap.errors import DecodeError, ValidationError
from pbcap.pairing import get_suite
from pbcap.policy import Decision
from pbcap.storage import StorageLayout


@pytest.fixture
def layout(tmp_path):
    return StorageLayout(tmp_path)


def _decision(file_id="f.bin", unit="Hospital"):
    return Decision(file_id=file_id, matched_policy="1",
                    category="Medical Documents", storage_unit=unit,
                    authenticated=True)


class TestLayout:
    def test_store_places_payload_under_unit(self, layout, tmp_path):
        layout.store(_decision(), b"payload")
        assert (tmp_path / "Hospital/f.bin").read_bytes() == b"payload"
        lines = (tmp_path / "decisions.log").read_text().splitlines()
        assert json.loads(lines[0])["file_id"] == "f.bin"

    def test_longest_file_name_stored(self, layout, tmp_path):
        name = "f" * 255  # NAME_MAX on common file systems
        layout.store(_decision(file_id=name), b"payload")
        assert (tmp_path / "Hospital" / name).read_bytes() == b"payload"

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            StorageLayout(tmp_path / "nope")

    @pytest.mark.parametrize("bad", ["../up", "a/b", "a\\b", "..", "x\x00y"])
    def test_traversal_names_rejected(self, layout, bad):
        with pytest.raises(ValidationError):
            layout.store(_decision(file_id=bad), b"p")
        with pytest.raises(ValidationError):
            layout.store(_decision(unit=bad), b"p")

    def test_log_name_storage_unit_rejected(self, layout, tmp_path):
        layout.store(_decision("a.bin"), b"1")
        with pytest.raises(ValidationError, match="decision log"):
            layout.store(_decision("b.bin", unit=storage.LOG_NAME), b"2")
        assert (tmp_path / storage.LOG_NAME).is_file()
        assert len((tmp_path / storage.LOG_NAME).read_text().splitlines()) == 1
        assert [p.name for p in layout.stored_files()] == ["a.bin"]

    def test_stored_files_listing(self, layout):
        layout.store(_decision("a.bin"), b"1")
        layout.store(_decision("b.bin", unit="default"), b"2")
        units = {p.parent.name for p in layout.stored_files()}
        assert units == {"Hospital", "default"}

    def test_temporary_files_are_not_stored_files(self, layout, tmp_path):
        """A killed process can leave a ``.<hex>.tmp``; dot names are never payloads."""
        layout.store(_decision("a.bin"), b"1")
        (tmp_path / "Hospital/.deadbeef.tmp").write_bytes(b"partial")
        assert layout.stored_files() == [tmp_path / "Hospital/a.bin"]
        with pytest.raises(ValidationError, match="temporary"):
            layout.store(_decision(".deadbeef.tmp"), b"2")
        assert (tmp_path / "Hospital/.deadbeef.tmp").read_bytes() == b"partial"

    def test_repeated_file_id_refused_and_first_payload_kept(self, layout, tmp_path):
        layout.store(_decision("a.bin"), b"first")
        with pytest.raises(ValidationError, match="already stored"):
            layout.store(_decision("a.bin"), b"second")
        assert (tmp_path / "Hospital/a.bin").read_bytes() == b"first"
        assert list((tmp_path / "Hospital").iterdir()) == [tmp_path / "Hospital/a.bin"]
        assert len((tmp_path / "decisions.log").read_text().splitlines()) == 1

    @pytest.mark.parametrize("failing_step", ["write", "link"])
    def test_failed_write_leaves_no_file_and_no_log_line(self, layout, tmp_path, monkeypatch,
                                                         failing_step):
        if failing_step == "write":
            class FullDisk:
                """Writes three bytes, then runs out of space."""

                def __init__(self, path, mode, _open=open):
                    self._fh = _open(path, mode)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self._fh.close()

                def write(self, data):
                    self._fh.write(data[:3])
                    raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr(storage, "open", FullDisk, raising=False)
        else:
            def refuse(src, dst):
                raise OSError("link refused")
            monkeypatch.setattr(storage.os, "link", refuse)
        with pytest.raises(OSError):
            layout.store(_decision(), b"payload")
        assert list((tmp_path / "Hospital").iterdir()) == []
        assert not (tmp_path / "decisions.log").exists()

    def test_log_only_for_unauthenticated(self, layout, tmp_path):
        d = Decision(file_id="bad.bin", matched_policy=None,
                     category="unclassified", storage_unit="default",
                     authenticated=False)
        layout.log(d)
        assert not (tmp_path / "default/bad.bin").exists()
        assert json.loads((tmp_path / "decisions.log").read_text())["authenticated"] is False


class TestDecodePath:
    def test_suite_mismatch_is_decode_error(self, tmp_path):
        from pbcap.formats import load_admin_public, save_admin_keypair
        from pbcap.scheme import keygen_admin
        import random

        mock = get_suite("mock")
        pair = keygen_admin(mock, random.Random(1))
        save_admin_keypair(pair, mock, tmp_path / "a.sk", tmp_path / "a.pk")
        with pytest.raises(DecodeError, match="suite"):
            load_admin_public(tmp_path / "a.pk", get_suite("production"))

    def test_tampered_public_key_rejected(self, tmp_path):
        from pbcap.formats import load_admin_public, save_admin_keypair
        from pbcap.scheme import keygen_admin
        import random

        mock = get_suite("mock")
        a = keygen_admin(mock, random.Random(1))
        b = keygen_admin(mock, random.Random(2))
        save_admin_keypair(a, mock, tmp_path / "a.sk", tmp_path / "a.pk")
        doc = json.loads((tmp_path / "a.pk").read_text())
        doc["pk_b"] = b.pk_b.hex()  # mix exponents across key pairs
        (tmp_path / "a.pk").write_text(json.dumps(doc))
        with pytest.raises(DecodeError, match="exponent"):
            load_admin_public(tmp_path / "a.pk", mock)

    @pytest.mark.parametrize("identity", [("pk_a",), ("pk_b",), ("pk_a", "pk_b")])
    def test_identity_admin_public_key_rejected(self, tmp_path, any_suite, identity):
        """Both sides of the dual-representation check are 1 for an identity key."""
        from pbcap.formats import load_admin_public, save_admin_keypair
        from pbcap.pairing import Group
        from pbcap.scheme import keygen_admin
        import random

        save_admin_keypair(keygen_admin(any_suite, random.Random(1)), any_suite,
                           tmp_path / "a.sk", tmp_path / "a.pk")
        doc = json.loads((tmp_path / "a.pk").read_text())
        for key in identity:
            doc[key] = any_suite.identity(Group.A if key == "pk_a" else Group.B).hex()
        (tmp_path / "a.pk").write_text(json.dumps(doc))
        with pytest.raises(DecodeError, match="admin public key is the identity"):
            load_admin_public(tmp_path / "a.pk", any_suite)

    @pytest.mark.parametrize("role", ["admin", "user"])
    def test_secret_key_must_be_below_group_order(self, tmp_path, any_suite, role):
        from pbcap import formats
        from pbcap.scheme import keygen_admin, keygen_user
        import random

        keygen = keygen_admin if role == "admin" else keygen_user
        save = getattr(formats, f"save_{role}_keypair")
        load = getattr(formats, f"load_{role}_secret")
        save(keygen(any_suite, random.Random(1)), any_suite, tmp_path / "k.sk", tmp_path / "k.pk")
        doc = json.loads((tmp_path / "k.sk").read_text())
        for value, ok in ((any_suite.order - 1, True), (any_suite.order, False),
                          (any_suite.order + 1, False), (2 ** 256 - 1, False)):
            doc["sk"] = value.to_bytes(32, "big").hex()
            (tmp_path / "k.sk").write_text(json.dumps(doc))
            if ok:
                assert load(tmp_path / "k.sk", any_suite).value == value
            else:
                with pytest.raises(DecodeError, match="order"):
                    load(tmp_path / "k.sk", any_suite)

    def test_truncated_json_is_decode_error(self, tmp_path):
        from pbcap.formats import load_submission

        (tmp_path / "s.json").write_text('{"format": "pbcap/1", "kind": "subm')
        with pytest.raises(DecodeError):
            load_submission(tmp_path / "s.json", get_suite("mock"))
