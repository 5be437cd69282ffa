"""Known-answer vectors for the BN-256 arithmetic and the seeded CLI.

``tests/vectors/kat.json`` and ``tests/vectors/user_tag_submission.json``
were written by the functions below before the final exponentiation was
rewritten (cyclotomic squaring, signed exp(u), Karatsuba Fp12).  Every
later change to the arithmetic must reproduce them byte for byte; a
mismatch is a bug in the change, never a reason to rewrite the files.
"""

import hashlib
import json
from pathlib import Path

from click.testing import CliRunner

from pbcap.cli import cli
from pbcap.pairing import H1_DST, bn256

VECTORS = Path(__file__).parent / "vectors"

PAIRING_SCALARS = [
    (1, 1),
    (6, 35),
    tuple(
        int.from_bytes(hashlib.sha256(b"pbcap-kat-" + side).digest(), "big") % bn256.ORDER
        for side in (b"a", b"b")
    ),
]
FE_SCALARS = (5, 7)
H1_MESSAGES = [b"RecordedBy(Test,Nurse)", b""]

TAG_GRAPH = """\
node t Artifact Test
node n Agent Nurse
node r Artifact Report
edge RecordedBy t n
edge ProducedFrom r t
"""
TAG_PAYLOAD = b"opaque ciphertext"


def _fp12_from_bytes(data: bytes) -> bn256.Fp12:
    """Raw F_p12 decode with no subgroup check (Miller-loop outputs are not in GT)."""
    c = [int.from_bytes(data[i * 32:(i + 1) * 32], "big") for i in range(12)]
    return bn256.Fp12(
        bn256.Fp6(bn256.Fp2(c[0], c[1]), bn256.Fp2(c[2], c[3]), bn256.Fp2(c[4], c[5])),
        bn256.Fp6(bn256.Fp2(c[6], c[7]), bn256.Fp2(c[8], c[9]), bn256.Fp2(c[10], c[11])),
    )


def compute_kat() -> dict:
    pairings = [
        {"a": a, "b": b, "gt": bn256.gt_to_bytes(bn256.pairing(
            bn256.G1_GEN.scalar_mul(a), bn256.G2_GEN.scalar_mul(b))).hex()}
        for a, b in PAIRING_SCALARS
    ]
    a, b = FE_SCALARS
    f = bn256.miller_loop([(bn256.G1_GEN.scalar_mul(a), bn256.G2_GEN.scalar_mul(b))])
    fe = {
        "a": a, "b": b,
        "miller_loop": bn256.gt_to_bytes(f).hex(),
        "final_exponentiation": bn256.gt_to_bytes(bn256.final_exponentiation(f)).hex(),
    }
    h1 = [{"msg": m.hex(), "g1": bn256.g1_to_bytes(bn256.hash_to_g1(m, H1_DST)).hex()}
          for m in H1_MESSAGES]
    return {"pairing": pairings, "final_exponentiation": fe, "hash_to_g1": h1}


def compute_user_tag_submission(root: Path) -> bytes:
    """Seeded production ``pap keygen``, ``user keygen`` and ``user tag``."""
    runner = CliRunner()
    (root / "graph.txt").write_text(TAG_GRAPH)
    (root / "payload.bin").write_bytes(TAG_PAYLOAD)
    for args in (
        ["pap", "keygen", "--out-dir", root / "pap", "--seed", 1],
        ["user", "keygen", "--out-dir", root / "usr", "--seed", 2],
        ["user", "tag", "--graph", root / "graph.txt", "--admin-pk", root / "pap/admin.pk",
         "--user-sk", root / "usr/user.sk", "--payload", root / "payload.bin",
         "--out", root / "sub.json", "--seed", 3],
    ):
        result = runner.invoke(cli, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output
    return (root / "sub.json").read_bytes()


def _kat() -> dict:
    return json.loads((VECTORS / "kat.json").read_text(encoding="utf-8"))


def test_pairing_vectors():
    for vec in _kat()["pairing"]:
        p = bn256.G1_GEN.scalar_mul(vec["a"])
        q = bn256.G2_GEN.scalar_mul(vec["b"])
        assert bn256.gt_to_bytes(bn256.pairing(p, q)).hex() == vec["gt"]


def test_final_exponentiation_vector():
    vec = _kat()["final_exponentiation"]
    f = bn256.miller_loop([(bn256.G1_GEN.scalar_mul(vec["a"]), bn256.G2_GEN.scalar_mul(vec["b"]))])
    assert bn256.gt_to_bytes(f).hex() == vec["miller_loop"]
    f = _fp12_from_bytes(bytes.fromhex(vec["miller_loop"]))
    assert bn256.gt_to_bytes(bn256.final_exponentiation(f)).hex() == vec["final_exponentiation"]


def test_hash_to_g1_vectors():
    for vec in _kat()["hash_to_g1"]:
        g1 = bn256.hash_to_g1(bytes.fromhex(vec["msg"]), H1_DST)
        assert bn256.g1_to_bytes(g1).hex() == vec["g1"]


def test_seeded_user_tag_submission_bytes(tmp_path):
    expected = (VECTORS / "user_tag_submission.json").read_bytes()
    assert compute_user_tag_submission(tmp_path) == expected
