"""Seeded input generation and ground truth for the three workloads.

Everything here runs before timing.  The program under test only ever
sees the files written here, in the formats of docs/formats.md; the
expected outcome of every request goes into ``plan.json`` for the
oracle.

The generator knows every secret, so it builds pdp tags by algebra
instead of by ``user tag``.  For each fragment P it fixes a random
start ``Y0 = g_b^s`` and a shared random step ``D = g_b^d``; tag j of P
gets ``Y = Y0·D^j`` and ``Z = H2(e(T_P, Y0)·e(T_P, D)^j)`` with
``T_P = H1(P)^alpha``.  That is exactly the tag ``make_tag`` would give
for the blinding ``r = (s + j·d)/beta``, every Y is distinct, and it
costs two pairings per fragment instead of one per tag.  Registered
users advance the same way: ``beta_i = beta_0 + i·e``, so each user
costs two G2 additions.
"""

from __future__ import annotations

import base64
import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("tag", "pdp-mix", "pdp-miss")

# Requests generated per run.  A run stops early if it uses them all, so
# no key, tag or file id is ever repeated inside a run.
POOL = 300
WARMUPS = 5  # one per set-up

# (policy id, priority, storage unit) in file order: the top-priority
# policy comes last, so any priority-ordered early exit has to reorder.
POLICIES = (("p-mid", 20, "unit-mid"), ("p-low", 10, "unit-low"), ("p-top", 30, "unit-top"))
KEYWORDS_PER_POLICY = 2
MISS_FRAGMENTS = 6

# One pdp-mix block: each entry lists the submission's two tags in file
# order, as (policy id, keyword index) or None for a fragment no policy
# holds.  Blocks are shuffled per seed but always hold exactly these
# shapes, so per-request layer counts over whole blocks do not depend on
# the seed.  6 hit the top policy (3 of them with a second, lower match),
# 2 hit only a lower policy, 1 matches nothing and 1 is forged.  At the
# seed the shapes cost 4 to 16 pairings, and the middle two of the ten
# cost the same, so the median does not sit on a gap between costs.
MIX_BLOCK = (
    (("p-top", 0), None, False),
    (None, ("p-top", 1), False),
    (("p-top", 1), None, False),
    (("p-mid", 0), ("p-top", 0), False),
    (("p-top", 0), ("p-low", 1), False),
    (("p-top", 0), ("p-mid", 1), False),
    (("p-low", 0), None, False),
    (None, ("p-mid", 1), False),
    (None, None, False),
    (("p-top", 0), None, True),
)
MISS_BLOCK = ((None, None, False),)
# One tag block: graphs with 2, 3 and 4 fragments.
TAG_BLOCK = (2, 3, 4)
# Every set-up's warm-up request has the same shape, so set-ups do equal work.
WARMUP_SHAPE = {"tag": 3, "pdp-mix": MIX_BLOCK[3], "pdp-miss": MISS_BLOCK[0]}

PAYLOAD_BYTES = (1024, 64 * 1024)
FORMAT = "pbcap/1"


def block_size(workload: str) -> int:
    return {"tag": len(TAG_BLOCK), "pdp-mix": len(MIX_BLOCK), "pdp-miss": len(MISS_BLOCK)}[workload]


def _dump(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _token(rng: random.Random, prefix: str) -> str:
    return f"{prefix}{rng.getrandbits(32):08x}"


def _fragment(rng: random.Random) -> tuple[str, str, str]:
    """(relation, source label, target label) of one provenance edge."""
    return _token(rng, "Rel"), _token(rng, "Src"), _token(rng, "Dst")


def _text(frag: tuple[str, str, str]) -> str:
    return f"{frag[0]}({frag[1]},{frag[2]})"


def _blocks(rng: random.Random, block: tuple, count: int) -> list:
    shapes = []
    while len(shapes) < count:
        order = list(block)
        rng.shuffle(order)
        shapes += order
    return shapes[:count]


class _Keys:
    """The administrator's key pair, written in the documented formats."""

    def __init__(self, suite, rng: random.Random, inputs: Path):
        self.suite = suite
        self.alpha = rng.randrange(1, suite.order)
        self.pk_b = suite.gen_b ** self.alpha
        _dump(inputs / "admin.sk", {"format": FORMAT, "kind": "admin-secret-key", "suite": suite.name,
                                    "sk": self.alpha.to_bytes(32, "big").hex()})
        _dump(inputs / "admin.pk", {"format": FORMAT, "kind": "admin-public-key", "suite": suite.name,
                                    "pk_a": (suite.gen_a ** self.alpha).hex(), "pk_b": self.pk_b.hex()})

    def user_pk(self, pk_b, path: Path) -> None:
        _dump(path, {"format": FORMAT, "kind": "user-public-key", "suite": self.suite.name, "pk_b": pk_b.hex()})


class _TagSource:
    """Fresh valid tags for one fragment: Y0·D^j and the matching pairing value."""

    def __init__(self, suite, keys: _Keys, text: str, step, rng: random.Random):
        self.suite = suite
        trapdoor = suite.hash_to_group_a(text.encode("utf-8")) ** keys.alpha
        self.y = suite.gen_b ** rng.randrange(1, suite.order)
        self.t = suite.pair(trapdoor, self.y)
        self.step_y = step
        self.step_t = suite.pair(trapdoor, step)

    def next(self) -> dict:
        tag = {"y": self.y.hex(), "z": self.suite.hash_to_bits(self.t).hex()}
        self.y = self.y * self.step_y
        self.t = self.t * self.step_t
        return tag


def _policy_set(rng: random.Random, inputs: Path) -> dict:
    """Writes the policy file; returns {(policy id, keyword index): fragment text}."""
    keywords, entries = {}, []
    for pid, priority, unit in POLICIES:
        texts = [_text(_fragment(rng)) for _ in range(KEYWORDS_PER_POLICY)]
        keywords.update({(pid, i): t for i, t in enumerate(texts)})
        entries.append({"id": pid, "keywords": texts, "priority": priority,
                        "category": f"category-{pid}", "storage_unit": unit})
    _dump(inputs / "policies.json", {"format": FORMAT, "kind": "policy-set", "policies": entries})
    return keywords


def _expected_decision(shape, file_id: str) -> tuple[int, dict | None, dict]:
    """(exit code, stdout decision, decision-log fields) for one pdp shape."""
    first, second, forged = shape
    if forged:
        return 2, None, {"authenticated": False, "category": "unclassified", "file_id": file_id,
                         "matched_policy": None, "storage_unit": "default"}
    hits = [p for p in POLICIES if any(t and t[0] == p[0] for t in (first, second))]
    if hits:
        pid, _, unit = max(hits, key=lambda p: p[1])
        decision = {"category": f"category-{pid}", "file_id": file_id,
                    "matched_policy": pid, "storage_unit": unit}
    else:
        decision = {"category": "unclassified", "file_id": file_id,
                    "matched_policy": None, "storage_unit": "default"}
    return 0, decision, dict(decision, authenticated=True)


def _generate_pdp(workload, suite, rng, inputs: Path, plan: dict) -> None:
    keys = _Keys(suite, rng, inputs)
    keywords = _policy_set(rng, inputs)
    misses = [_text(_fragment(rng)) for _ in range(MISS_FRAGMENTS)]
    if len(set(keywords.values()) | set(misses)) != len(keywords) + len(misses):
        raise RuntimeError("fragment collision; pick another seed")
    step = suite.gen_b ** rng.randrange(1, suite.order)
    sources = {t: _TagSource(suite, keys, t, step, rng) for t in list(keywords.values()) + misses}

    beta = rng.randrange(1, suite.order)
    user_pk, x = suite.gen_b ** beta, keys.pk_b ** beta
    user_step = rng.randrange(1, suite.order)
    pk_step, x_step = suite.gen_b ** user_step, keys.pk_b ** user_step
    if workload == "pdp-miss":
        keys.user_pk(user_pk, inputs / "user.pk")

    block = MIX_BLOCK if workload == "pdp-mix" else MISS_BLOCK
    shapes = [WARMUP_SHAPE[workload]] * WARMUPS + _blocks(rng, block, POOL)
    requests = []
    for k, shape in enumerate(shapes):
        name = f"{k:04d}"
        file_id = f"{workload}-{plan['seed']}-{name}.bin"
        spare = rng.sample(misses, 2)
        tags = [sources[keywords[spec]] if spec else sources[spare[i]] for i, spec in enumerate(shape[:2])]
        payload = rng.randbytes(rng.randint(*PAYLOAD_BYTES))
        _dump(inputs / "subs" / f"{name}.json", {
            "format": FORMAT, "kind": "submission", "suite": suite.name, "file_id": file_id,
            # a forged submission carries the key binding of beta + 1, which is not registered
            "x": (x * keys.pk_b if shape[2] else x).hex(), "tags": [t.next() for t in tags],
            "payload": base64.b64encode(payload).decode("ascii"),
        })
        request = {"submission": f"inputs/subs/{name}.json", "user_pk": "inputs/user.pk", "file_id": file_id,
                   "payload_sha256": hashlib.sha256(payload).hexdigest()}
        if workload == "pdp-mix":
            request["user_pk"] = f"inputs/users/{name}.pk"
            keys.user_pk(user_pk, inputs / "users" / f"{name}.pk")
            user_pk, x = user_pk * pk_step, x * x_step
        request["exit"], request["decision"], request["log"] = _expected_decision(shape, file_id)
        requests.append(request)
    plan["warmup"], plan["requests"] = requests[:WARMUPS], requests[WARMUPS:]


def _generate_tag(suite, rng, inputs: Path, plan: dict) -> None:
    keys = _Keys(suite, rng, inputs)
    beta = rng.randrange(1, suite.order)
    _dump(inputs / "user.sk", {"format": FORMAT, "kind": "user-secret-key", "suite": suite.name,
                               "sk": beta.to_bytes(32, "big").hex()})
    plan["alpha"], plan["x"] = keys.alpha, (keys.pk_b ** beta).hex()
    requests = []
    for k, n_fragments in enumerate([WARMUP_SHAPE["tag"]] * WARMUPS + _blocks(rng, TAG_BLOCK, POOL)):
        name = f"{k:04d}"
        lines, texts = [], set()
        while len(texts) < n_fragments:
            frag = _fragment(rng)
            if _text(frag) in texts:
                continue
            i = len(texts)
            texts.add(_text(frag))
            lines += [f"node s{i} Artifact {frag[1]}", f"node t{i} Agent {frag[2]}",
                      f"edge {frag[0]} s{i} t{i}"]
        graph = inputs / "graphs" / f"{name}.txt"
        graph.parent.mkdir(parents=True, exist_ok=True)
        graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
        payload = rng.randbytes(rng.randint(*PAYLOAD_BYTES))
        (inputs / "payloads").mkdir(exist_ok=True)
        (inputs / "payloads" / f"{name}.bin").write_bytes(payload)
        requests.append({"graph": f"inputs/graphs/{name}.txt", "payload": f"inputs/payloads/{name}.bin",
                         "out": f"{name}.json", "file_id": f"tag-{plan['seed']}-{name}.bin",
                         "fragments": sorted(texts), "payload_sha256": hashlib.sha256(payload).hexdigest()})
    plan["warmup"], plan["requests"] = requests[:WARMUPS], requests[WARMUPS:]


def generate(workload: str, seed: int, suite_name: str, work: Path) -> dict:
    """Write every input under ``work/inputs`` and return the plan (also saved as ``work/plan.json``)."""
    from pbcap.pairing import get_suite

    suite = get_suite(suite_name)
    rng = random.Random(f"{workload}/{seed}")
    inputs = work / "inputs"
    plan = {"workload": workload, "seed": seed, "suite": suite_name, "block": block_size(workload),
            "admin_sk": "inputs/admin.sk", "admin_pk": "inputs/admin.pk"}
    if workload == "tag":
        plan["user_sk"] = "inputs/user.sk"
        _generate_tag(suite, rng, inputs, plan)
    else:
        plan["policies"] = "inputs/policies.json"
        _generate_pdp(workload, suite, rng, inputs, plan)
    _dump(work / "plan.json", plan)
    return plan
