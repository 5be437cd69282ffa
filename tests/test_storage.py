"""Storage layout and the on-disk decode path."""

import json

import pytest

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

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            StorageLayout(tmp_path / "nope")

    @pytest.mark.parametrize("bad", ["../up", "a/b", "a\\b", "..", "x\x00y"])
    def test_traversal_names_rejected(self, layout, bad):
        with pytest.raises(ValidationError):
            layout.store(_decision(file_id=bad), b"p")
        with pytest.raises(ValidationError):
            layout.store(_decision(unit=bad), b"p")

    def test_stored_files_listing(self, layout):
        layout.store(_decision("a.bin"), b"1")
        layout.store(_decision("b.bin", unit="default"), b"2")
        units = {p.parent.name for p in layout.stored_files()}
        assert units == {"Hospital", "default"}

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
