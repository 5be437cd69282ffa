"""Known-answer vectors for the BN-256 arithmetic and the seeded CLI.

``tests/vectors/kat.json`` and ``tests/vectors/user_tag_submission.json``
were written by the functions below before the final exponentiation was
rewritten (cyclotomic squaring, signed exp(u), Karatsuba Fp12).  The
``harness_*.json`` transcripts and the ``mock_classify_*`` outputs were
written before the X component left ``ClassificationTag``.  The key files
and compiled policy sets under ``key_files/`` were written before the
file writers in ``pbcap.formats`` shared one envelope.  The two-pair
raw Miller loop in ``miller_loop_pairs.json`` was written before the loop
took its lines from ``PointG2.double``/``add``.  The point decodings and
F_p2 square roots in ``decode.json`` were written while the decoders still
ran a Legendre test before each root.  The G2 scalar multiples, line
table digests and subgroup decisions in ``g2.json`` were written while
``PointG2.double``/``add`` and the line formulas still built an ``Fp2``
object per step.  Every later
change must reproduce them byte for byte; a mismatch is a bug in the
change, never a reason to rewrite the files.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from pbcap.cli import cli
from pbcap.pairing import H1_DST, bn256, curve, tower

VECTORS = Path(__file__).parent / "vectors"

PAIRING_SCALARS = [
    (1, 1),
    (6, 35),
    tuple(
        int.from_bytes(hashlib.sha256(b"pbcap-kat-" + side).digest(), "big") % curve.ORDER
        for side in (b"a", b"b")
    ),
]
FE_SCALARS = (5, 7)
# the admin key check's loop: e(g1^alpha, g2) * e(g1, -(g2^alpha))
DUAL_KEY_ALPHA = int.from_bytes(hashlib.sha256(b"pbcap-kat-alpha").digest(), "big") % curve.ORDER
H1_MESSAGES = [b"RecordedBy(Test,Nurse)", b""]

TAG_GRAPH = """\
node t Artifact Test
node n Agent Nurse
node r Artifact Report
edge RecordedBy t n
edge ProducedFrom r t
"""
TAG_PAYLOAD = b"opaque ciphertext"

HARNESS_ATTACKERS = ["random-guess", "cheating", "rule-breaker"]
KEY_FILES = ["admin.sk", "admin.pk", "user.sk", "user.pk", "compiled.json"]

CLASSIFY_POLICIES = {
    "format": "pbcap/1",
    "kind": "policy-set",
    "policies": [
        {"id": "med", "keywords": ["RecordedBy(Test,Nurse)", "DiagnosedBy(Report,Doctor)"],
         "priority": 5, "category": "Medical Documents", "storage_unit": "Hospital"},
        {"id": "edit", "keywords": ["ReviewedBy(Draft,Editor)"],
         "priority": 9, "category": "Editorial", "storage_unit": "Press"},
    ],
}
# file id -> (graph, tagged by the registered user); the imposter's submission fails authentication
CLASSIFY_SUBMISSIONS = {
    "both.bin": (TAG_GRAPH + "node d Artifact Draft\nnode e Agent Editor\nedge ReviewedBy d e\n", True),
    "medical.bin": (TAG_GRAPH, True),
    "none.bin": ("node a Artifact Memo\nnode b Agent Clerk\nedge SignedBy a b\n", True),
    "forged.bin": (TAG_GRAPH, False),
}


DECODE_SEED = 9


def _fp2_hex(a: tower.Fp2) -> str:
    return a.x.to_bytes(32, "big").hex() + a.y.to_bytes(32, "big").hex()


def _decoded(decode, encode, blob: bytes) -> dict:
    try:
        return {"blob": blob.hex(), "point": encode(decode(blob)).hex()}
    except ValueError as exc:
        return {"blob": blob.hex(), "error": str(exc)}


def _flip(blob: bytes) -> bytes:
    return bytes([blob[0] ^ 1]) + blob[1:]


def compute_decode() -> dict:
    """Seeded G1 and G2 blobs with their re-encoded point or decode error,
    and F_p2 square roots (null for a non-square)."""
    rng = random.Random(DECODE_SEED)

    def fp() -> int:
        return rng.getrandbits(256) % tower.P

    def fp2() -> tower.Fp2:
        return tower.Fp2(fp(), fp())

    def prefix() -> bytes:
        return bytes([2 + rng.getrandbits(1)])

    g1 = [bn256.g1_to_bytes(curve.G1_GEN.scalar_mul(rng.getrandbits(256))) for _ in range(4)]
    g1 += [_flip(b) for b in g1]
    g1 += [prefix() + fp().to_bytes(32, "big") for _ in range(16)]
    # raw 256-bit x, so some are not below P
    g1 += [prefix() + rng.getrandbits(256).to_bytes(32, "big") for _ in range(4)]
    g1 += [bytes(33), b"\x02" + bytes(32), b"\x03" + bytes(32)]

    g2 = [bn256.g2_to_bytes(curve.G2_GEN.scalar_mul(rng.getrandbits(256))) for _ in range(3)]
    g2 += [_flip(b) for b in g2]
    g2 += [prefix() + fp().to_bytes(32, "big") + fp().to_bytes(32, "big") for _ in range(10)]
    g2 += [prefix() + rng.getrandbits(256).to_bytes(32, "big") + rng.getrandbits(256).to_bytes(32, "big")
           for _ in range(2)]
    g2 += [bytes(65), b"\x02" + bytes(64), b"\x03" + bytes(64)]
    g2 += [prefix() + bytes(32) + fp().to_bytes(32, "big") for _ in range(2)]
    g2 += [prefix() + fp().to_bytes(32, "big") + bytes(32) for _ in range(2)]

    elements = [tower.Fp2(0, 0), tower.Fp2(0, 1), tower.Fp2(0, tower.P - 1), tower.Fp2(1, 0)]
    elements += [tower.Fp2(0, fp()) for _ in range(6)]
    elements += [tower.Fp2(fp(), 0) for _ in range(6)]
    elements += [fp2().square() for _ in range(16)]
    elements += [fp2() for _ in range(32)]
    sqrt = []
    for a in elements:
        root = a.sqrt()
        sqrt.append({"a": _fp2_hex(a), "root": None if root is None else _fp2_hex(root)})
    return {
        "seed": DECODE_SEED,
        "g1": [_decoded(bn256.g1_from_bytes, bn256.g1_to_bytes, b) for b in g1],
        "g2": [_decoded(bn256.g2_from_bytes, bn256.g2_to_bytes, b) for b in g2],
        "fp2_sqrt": sqrt,
    }


G2_SEED = 13


def _jacobian_hex(pt: curve.PointG2) -> list[str]:
    return [_fp2_hex(pt.x), _fp2_hex(pt.y), _fp2_hex(pt.z)]


def _lines_digest(lines) -> str:
    """SHA-256 over every coefficient of a line table, each Fp2 as its i
    then real part, 32 bytes big-endian each, in table order."""
    h = hashlib.sha256()
    for group in lines:
        for line in group:
            h.update(b"".join(c.to_bytes(32, "big") for c in line))
    return h.hexdigest()


def compute_g2() -> dict:
    """Seeded G2 scalar multiples (Jacobian coordinates), line table
    digests, and ``in_g2`` on twist points inside and outside G2."""
    rng = random.Random(G2_SEED)
    cofactor = 2 * tower.P - curve.ORDER  # the twist has n * (2p - n) points

    def twist_point() -> curve.PointG2:
        while True:
            x = tower.Fp2(rng.getrandbits(256) % tower.P, rng.getrandbits(256) % tower.P)
            y = (x.square() * x + curve.TWIST_B).sqrt()
            if y is not None:
                return curve.PointG2(x, y)

    def mul_plain(pt: curve.PointG2, k: int) -> curve.PointG2:
        r = curve.G2_INF
        for bit in bin(k)[2:]:
            r = r.double()
            if bit == "1":
                r = r.add(pt)
        return r

    lam = curve.PSI_EIGENVALUE
    q = curve.G2_GEN.scalar_mul(rng.getrandbits(256))
    scalars = [0, 1, 2, 3, tower.U, lam - 1, lam, lam + 1, curve.ORDER - 1]
    scalars += [rng.getrandbits(256) for _ in range(6)]
    scalar_mul = [{"q": name, "k": k, "kq": _jacobian_hex(pt.scalar_mul(k))}
                  for name, pt in (("gen", curve.G2_GEN), ("seeded", q)) for k in scalars]
    outside = [twist_point() for _ in range(4)]
    # unchecked points only meet scalars below 6u^2, where psi is never added
    scalar_mul += [{"q": "twist", "k": k, "kq": _jacobian_hex(pt.scalar_mul(k)), "x": _fp2_hex(pt.x)}
                   for pt in outside[:2] for k in (tower.U, 2 * tower.U, lam - 1)]
    inside = [mul_plain(pt, cofactor) for pt in outside[2:]] + [q, curve.G2_GEN.scalar_mul(rng.getrandbits(256))]
    membership = [{"q": _jacobian_hex(pt), "in_g2": curve.in_g2(pt)} for pt in outside + inside]
    return {
        "seed": G2_SEED,
        "scalar_mul": scalar_mul,
        "lines": {"gen": _lines_digest(bn256.g2_lines(curve.G2_GEN)), "seeded": _lines_digest(bn256.g2_lines(q))},
        "in_g2": membership,
    }


def _json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def _fp12_from_bytes(data: bytes) -> tower.Fp12:
    """Raw F_p12 decode with no subgroup check (Miller-loop outputs are not in GT)."""
    c = [int.from_bytes(data[i * 32:(i + 1) * 32], "big") for i in range(12)]
    return tower.Fp12(
        tower.Fp6(tower.Fp2(c[0], c[1]), tower.Fp2(c[2], c[3]), tower.Fp2(c[4], c[5])),
        tower.Fp6(tower.Fp2(c[6], c[7]), tower.Fp2(c[8], c[9]), tower.Fp2(c[10], c[11])),
    )


def _pairing(p: curve.PointG1, q: curve.PointG2) -> tower.Fp12:
    """e(P, Q) for P, Q not at infinity: one Miller loop on Q's table, one final exponentiation."""
    return bn256.final_exponentiation(bn256.miller_loop([(p, bn256.g2_lines(q))]))


def compute_kat() -> dict:
    pairings = [
        {"a": a, "b": b, "gt": bn256.gt_to_bytes(_pairing(
            curve.G1_GEN.scalar_mul(a), curve.G2_GEN.scalar_mul(b))).hex()}
        for a, b in PAIRING_SCALARS
    ]
    a, b = FE_SCALARS
    f = bn256.miller_loop([(curve.G1_GEN.scalar_mul(a), bn256.g2_lines(curve.G2_GEN.scalar_mul(b)))])
    fe = {
        "a": a, "b": b,
        "miller_loop": bn256.gt_to_bytes(f).hex(),
        "final_exponentiation": bn256.gt_to_bytes(bn256.final_exponentiation(f)).hex(),
    }
    h1 = [{"msg": m.hex(), "g1": bn256.g1_to_bytes(bn256.hash_to_g1(m, H1_DST)).hex()}
          for m in H1_MESSAGES]
    return {"pairing": pairings, "final_exponentiation": fe, "hash_to_g1": h1}


def compute_miller_loop_pairs() -> dict:
    """Raw two-pair Miller loop shaped like the admin key check, second Q negated."""
    alpha = DUAL_KEY_ALPHA
    f = bn256.miller_loop([
        (curve.G1_GEN.scalar_mul(alpha), bn256.g2_lines(curve.G2_GEN)),
        (curve.G1_GEN, bn256.g2_lines(curve.G2_GEN.scalar_mul(alpha).neg())),
    ])
    return {"alpha": alpha, "miller_loop": bn256.gt_to_bytes(f).hex()}


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


def compute_key_files(root: Path, suite: str) -> dict[str, bytes]:
    """Seeded ``pap keygen``, ``user keygen`` and ``pap compile`` of CLASSIFY_POLICIES."""
    runner = CliRunner()
    (root / "policies.json").write_text(json.dumps(CLASSIFY_POLICIES))
    for args in (
        ["pap", "keygen", "--out-dir", root, "--seed", 1],
        ["user", "keygen", "--out-dir", root, "--seed", 2],
        ["pap", "compile", "--policies", root / "policies.json", "--admin-sk", root / "admin.sk",
         "--out", root / "compiled.json"],
    ):
        result = runner.invoke(cli, [str(a) for a in args] + ["--suite", suite], catch_exceptions=False)
        assert result.exit_code == 0, result.output
    return {name: (root / name).read_bytes() for name in KEY_FILES}


def compute_harness_transcript(attacker: str) -> bytes:
    """Seeded mock ``harness run`` with 200 trials: the printed JSON."""
    args = ["harness", "run", "--suite", "mock", "--seed", "7", "--trials", "200", "--attacker", attacker]
    result = CliRunner().invoke(cli, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.stdout.encode()


def compute_mock_classify(root: Path) -> tuple[bytes, bytes]:
    """One seeded mock ``pdp classify`` over four submissions: a top-policy
    hit, a lower-policy hit, no match and an imposter.  Returns its stdout
    and the decision log."""
    runner = CliRunner()

    def run(args, exit_code=0):
        result = runner.invoke(cli, [str(a) for a in args] + ["--suite", "mock"], catch_exceptions=False)
        assert result.exit_code == exit_code, result.output
        return result

    (root / "policies.json").write_text(json.dumps(CLASSIFY_POLICIES))
    (root / "payload.bin").write_bytes(TAG_PAYLOAD)
    (root / "store").mkdir()
    run(["pap", "keygen", "--out-dir", root / "pap", "--seed", 1])
    run(["user", "keygen", "--out-dir", root / "usr", "--seed", 2])
    run(["user", "keygen", "--out-dir", root / "imp", "--seed", 3])
    run(["pap", "compile", "--policies", root / "policies.json",
         "--admin-sk", root / "pap/admin.sk", "--out", root / "compiled.json"])
    subs = []
    for seed, (file_id, (graph, registered)) in enumerate(CLASSIFY_SUBMISSIONS.items(), start=10):
        (root / f"{file_id}.graph").write_text(graph)
        subs.append(root / f"{file_id}.json")
        run(["user", "tag", "--graph", root / f"{file_id}.graph", "--admin-pk", root / "pap/admin.pk",
             "--user-sk", root / ("usr" if registered else "imp") / "user.sk",
             "--payload", root / "payload.bin", "--out", subs[-1], "--file-id", file_id, "--seed", seed])
    result = run(["pdp", "classify", *subs, "--policies", root / "compiled.json",
                  "--admin-pk", root / "pap/admin.pk", "--user-pk", root / "usr/user.pk",
                  "--storage-root", root / "store"], exit_code=2)
    return result.stdout.encode(), (root / "store/decisions.log").read_bytes()


def _kat() -> dict:
    return json.loads((VECTORS / "kat.json").read_text(encoding="utf-8"))


def test_pairing_vectors():
    for vec in _kat()["pairing"]:
        p = curve.G1_GEN.scalar_mul(vec["a"])
        q = curve.G2_GEN.scalar_mul(vec["b"])
        assert bn256.gt_to_bytes(_pairing(p, q)).hex() == vec["gt"]


def test_final_exponentiation_vector():
    vec = _kat()["final_exponentiation"]
    f = bn256.miller_loop([(curve.G1_GEN.scalar_mul(vec["a"]),
                            bn256.g2_lines(curve.G2_GEN.scalar_mul(vec["b"])))])
    assert bn256.gt_to_bytes(f).hex() == vec["miller_loop"]
    f = _fp12_from_bytes(bytes.fromhex(vec["miller_loop"]))
    assert bn256.gt_to_bytes(bn256.final_exponentiation(f)).hex() == vec["final_exponentiation"]


def test_two_pair_miller_loop_vector():
    expected = json.loads((VECTORS / "miller_loop_pairs.json").read_text(encoding="utf-8"))
    assert expected["alpha"] == DUAL_KEY_ALPHA
    assert compute_miller_loop_pairs() == expected
    f = _fp12_from_bytes(bytes.fromhex(expected["miller_loop"]))
    assert bn256.final_exponentiation(f).is_one()


def test_decode_vectors():
    assert _json_bytes(compute_decode()) == (VECTORS / "decode.json").read_bytes()


def test_g2_vectors():
    assert _json_bytes(compute_g2()) == (VECTORS / "g2.json").read_bytes()


def test_hash_to_g1_vectors():
    for vec in _kat()["hash_to_g1"]:
        g1 = bn256.hash_to_g1(bytes.fromhex(vec["msg"]), H1_DST)
        assert bn256.g1_to_bytes(g1).hex() == vec["g1"]


def test_seeded_user_tag_submission_bytes(tmp_path):
    expected = (VECTORS / "user_tag_submission.json").read_bytes()
    assert compute_user_tag_submission(tmp_path) == expected


@pytest.mark.parametrize("suite", ["mock", "production"])
def test_seeded_key_and_policy_files(tmp_path, suite):
    expected = {name: (VECTORS / "key_files" / suite / name).read_bytes() for name in KEY_FILES}
    assert compute_key_files(tmp_path, suite) == expected


@pytest.mark.parametrize("attacker", HARNESS_ATTACKERS)
def test_seeded_harness_transcripts(attacker):
    expected = (VECTORS / f"harness_{attacker}.json").read_bytes()
    assert compute_harness_transcript(attacker) == expected


def test_seeded_mock_classify_outputs(tmp_path):
    stdout, log = compute_mock_classify(tmp_path)
    assert stdout == (VECTORS / "mock_classify_stdout.txt").read_bytes()
    assert log == (VECTORS / "mock_classify_decisions.log").read_bytes()
