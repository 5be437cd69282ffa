"""Storage layout and the on-disk decode path."""

import errno
import json
import re
from pathlib import Path

import pytest

from pbcap import storage
from pbcap.errors import DecodeError, ValidationError
from pbcap.pairing import get_suite
from pbcap.policy import Decision
from pbcap.storage import StorageLayout


@pytest.fixture
def layout(tmp_path):
    return StorageLayout(tmp_path)


def _stored_files(root):
    """The payloads under a storage root: unit/file, no dot names."""
    return sorted(p for p in root.glob("*/*") if p.is_file() and not p.name.startswith("."))


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
        """255 bytes in UTF-8, NAME_MAX on common file systems, in ASCII and
        in two-byte characters, as a file id and as a storage unit."""
        for name in ("f" * 255, "\u00e9" * 127 + "f"):
            layout.store(_decision(file_id=name, unit=name), b"payload")
            assert (tmp_path / name / name).read_bytes() == b"payload"

    @pytest.mark.parametrize("name", ["f" * 256, "\u00e9" * 128, "\u00e9" * 127 + "ff"],
                             ids=["ascii-256", "utf8-256", "utf8-257"])
    def test_name_longer_than_name_max_rejected(self, layout, tmp_path, name):
        """Refused by the checks the loaders call, before any write: os.link
        would refuse it only once the payload is written."""
        size = len(name.encode("utf-8"))
        for check, what in ((storage.check_file_id, "file id"), (storage.check_storage_unit, "storage unit")):
            with pytest.raises(ValidationError, match=f"{what} '{name}' is {size} bytes long"):
                check(name)
        for decision in (_decision(file_id=name), _decision(unit=name)):
            with pytest.raises(ValidationError, match="bytes long"):
                layout.store(decision, b"p")
        assert list(tmp_path.iterdir()) == []

    def test_name_the_file_system_cannot_encode_rejected(self, layout, tmp_path):
        """A lone surrogate, as a JSON file id can carry, fails os.fsencode."""
        for check in (storage.check_file_id, storage.check_storage_unit):
            with pytest.raises(ValidationError, match="cannot be encoded as a file name"):
                check("x\ud800y")
        with pytest.raises(ValidationError, match="cannot be encoded"):
            layout.store(_decision(file_id="x\ud800y"), b"p")
        assert list(tmp_path.iterdir()) == []

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            StorageLayout(tmp_path / "nope")

    def test_decision_log_that_is_not_a_file_rejected(self, tmp_path):
        """Refused when the layout is made, before any payload is stored."""
        (tmp_path / storage.LOG_NAME).mkdir()
        with pytest.raises(ValidationError, match="decision log .* is not a regular file"):
            StorageLayout(tmp_path)

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
        assert [p.name for p in _stored_files(tmp_path)] == ["a.bin"]

    def test_storage_unit_that_is_not_a_directory_refused(self, layout, tmp_path):
        (tmp_path / "Hospital").write_bytes(b"not a unit")
        with pytest.raises(ValidationError, match="not a directory"):
            layout.store(_decision(), b"payload")
        assert (tmp_path / "Hospital").read_bytes() == b"not a unit"
        assert not (tmp_path / storage.LOG_NAME).exists()

    def test_stored_files_listing(self, layout, tmp_path):
        layout.store(_decision("a.bin"), b"1")
        layout.store(_decision("b.bin", unit="default"), b"2")
        units = {p.parent.name for p in _stored_files(tmp_path)}
        assert units == {"Hospital", "default"}

    def test_temporary_files_are_not_stored_files(self, layout, tmp_path):
        """A killed process can leave a ``.<hex>.tmp``; dot names are never payloads."""
        layout.store(_decision("a.bin"), b"1")
        (tmp_path / "Hospital/.deadbeef.tmp").write_bytes(b"partial")
        assert _stored_files(tmp_path) == [tmp_path / "Hospital/a.bin"]
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
        with pytest.raises(ValidationError, match="cannot store file id 'f.bin' in storage unit 'Hospital'"):
            layout.store(_decision(), b"payload")
        assert list((tmp_path / "Hospital").iterdir()) == []
        assert not (tmp_path / "decisions.log").exists()

    @pytest.mark.parametrize("authenticated", [True, False], ids=["store", "log"])
    def test_failed_log_append_leaves_no_partial_line(self, layout, tmp_path, monkeypatch, authenticated):
        """A log append that writes half its line and then runs out of space:
        the half line is cut off again, for a stored payload's line (the
        payload is refused) and for an authentication failure's, so the next
        line starts on a line of its own and the log stays JSON Lines."""
        layout.store(_decision("a.bin"), b"1")
        before = layout.log_path.read_bytes()

        class HalfWrite:
            """The log file, but a write writes half its data and then fails."""

            def __init__(self, fh):
                self._fh = fh

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, data):
                self._fh.write(data[:len(data) // 2])
                self._fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def half_write_on_log(path, *args, _real=Path.open, **kwargs):
            fh = _real(path, *args, **kwargs)
            return HalfWrite(fh) if path == layout.log_path else fh

        with monkeypatch.context() as patch:
            patch.setattr(Path, "open", half_write_on_log)
            if authenticated:
                with pytest.raises(ValidationError, match="No space left on device"):
                    layout.store(_decision("b.bin"), b"2")
            else:
                with pytest.raises(OSError, match="No space left on device"):
                    layout.log(Decision.unclassified("b.bin", authenticated=False))
        assert layout.log_path.read_bytes() == before
        assert _stored_files(tmp_path) == [tmp_path / "Hospital/a.bin"]
        layout.store(_decision("c.bin"), b"3")
        lines = layout.log_path.read_text().splitlines()
        assert [json.loads(line)["file_id"] for line in lines] == ["a.bin", "c.bin"]

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
        save_admin_keypair(*keygen_admin(mock, random.Random(1)), mock, tmp_path / "a.sk", tmp_path / "a.pk")
        with pytest.raises(DecodeError, match="suite"):
            load_admin_public(tmp_path / "a.pk", get_suite("production"))

    @pytest.mark.parametrize("identity", [("pk_a",), ("pk_b",), ("pk_a", "pk_b")])
    def test_identity_admin_public_key_rejected(self, tmp_path, any_suite, identity):
        """Both sides of the dual-representation check are 1 for an identity key."""
        from pbcap.formats import load_admin_public, save_admin_keypair
        from pbcap.pairing import Group
        from pbcap.scheme import keygen_admin
        import random

        save_admin_keypair(*keygen_admin(any_suite, random.Random(1)), any_suite,
                           tmp_path / "a.sk", tmp_path / "a.pk")
        doc = json.loads((tmp_path / "a.pk").read_text())
        for key in identity:
            doc[key] = any_suite.identity(Group.A if key == "pk_a" else Group.B).hex()
        (tmp_path / "a.pk").write_text(json.dumps(doc))
        with pytest.raises(DecodeError, match="admin public key is the identity"):
            load_admin_public(tmp_path / "a.pk", any_suite)

    @pytest.mark.parametrize("role", ["admin", "user"])
    def test_secret_key_must_be_below_group_order(self, tmp_path, any_suite, role):
        """A stored secret key loads only in [1, n): zero and anything >= n are refused."""
        from pbcap import formats
        from pbcap.scheme import keygen_admin, keygen_user
        import random

        keygen = keygen_admin if role == "admin" else keygen_user
        save = getattr(formats, f"save_{role}_keypair")
        load = getattr(formats, f"load_{role}_secret")
        save(*keygen(any_suite, random.Random(1)), any_suite, tmp_path / "k.sk", tmp_path / "k.pk")
        doc = json.loads((tmp_path / "k.sk").read_text())
        for value, refusal in ((any_suite.order - 1, None), (1, None),
                               (0, "field 'sk': scalar must be positive"),
                               (any_suite.order, "field 'sk' is not below the group order"),
                               (any_suite.order + 1, "order"), (2 ** 256 - 1, "order")):
            doc["sk"] = value.to_bytes(32, "big").hex()
            (tmp_path / "k.sk").write_text(json.dumps(doc))
            if refusal is None:
                assert load(tmp_path / "k.sk", any_suite) == value
            else:
                with pytest.raises(DecodeError, match=re.escape(refusal)):
                    load(tmp_path / "k.sk", any_suite)

    def test_truncated_json_is_decode_error(self, tmp_path):
        from pbcap.formats import load_submission

        (tmp_path / "s.json").write_text('{"format": "pbcap/1", "kind": "subm')
        with pytest.raises(DecodeError):
            load_submission(tmp_path / "s.json", get_suite("mock"))
