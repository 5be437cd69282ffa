"""Correctness oracle: every request's outcome against the generator's ground truth.

``check`` returns one list of reasons per request; a request fails when
its list is not empty.  A pdp request must exit with the expected code,
print the expected decision (nothing for a forged submission), add
exactly one decision-log line with the expected fields, and leave its
payload byte-identical at ``<unit>/<file_id>``, or nowhere when forged.
A tag request must exit 0 and write a submission with the expected
file id, payload and X and one tag per fragment, each matching its own
fragment's trapdoor.  A tag that matches its own trapdoor matches no
other: ``e(T_i, Y) = e(T_j, Y)`` with Y not the identity forces
``H1(P_i) = H1(P_j)``, and the fragments of one graph are distinct.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from pathlib import Path


def _json_line(text: str):
    lines = text.splitlines()
    if len(lines) != 1:
        return None
    try:
        return json.loads(lines[0])
    except json.JSONDecodeError:
        return None


def _check_pdp(req: dict, rec: dict, store: Path) -> list[str]:
    reasons = []
    if rec["exit"] != req["exit"]:
        reasons.append(f"exit {rec['exit']} != {req['exit']} ({rec['error'] or rec['stderr'].strip()})")
    if req["decision"] is None:
        if rec["stdout"].strip():
            reasons.append("forged submission printed a decision")
    elif _json_line(rec["stdout"]) != req["decision"]:
        reasons.append(f"decision {rec['stdout'].strip()!r} != {req['decision']}")
    log = [_json_line(line) for line in rec["log"]]
    if len(log) != 1 or not isinstance(log[0], dict) or any(log[0].get(k) != v for k, v in req["log"].items()):
        reasons.append(f"decision log lines {rec['log']} do not hold exactly {req['log']}")
    stored = sorted(store.glob(f"*/{req['file_id']}"))
    if req["decision"] is None:
        if stored:
            reasons.append("forged payload was stored")
    else:
        target = store / req["decision"]["storage_unit"] / req["file_id"]
        if stored != [target] or hashlib.sha256(target.read_bytes()).hexdigest() != req["payload_sha256"]:
            reasons.append(f"payload not stored byte-identical at {target} alone")
    return reasons


class _TagChecker:
    def __init__(self, plan: dict):
        from pbcap.pairing import Group, get_suite

        self.suite = get_suite(plan["suite"])
        self.group_b = Group.B
        self.alpha = plan["alpha"]
        self.x = plan["x"]

    def __call__(self, req: dict, rec: dict, out: Path) -> list[str]:
        if rec["exit"] != 0:
            return [f"exit {rec['exit']} != 0 ({rec['error'] or rec['stderr'].strip()})"]
        try:
            doc = json.loads((out / req["out"]).read_text(encoding="utf-8"))
            payload = base64.b64decode(doc["payload"], validate=True)
            tags = [(bytes.fromhex(t["y"]), bytes.fromhex(t["z"])) for t in doc["tags"]]
            header = (doc["format"], doc["kind"], doc["suite"], doc["file_id"], doc["x"])
        except (OSError, ValueError, KeyError, TypeError, binascii.Error) as exc:
            return [f"output does not decode: {exc!r}"]
        reasons = []
        if header != ("pbcap/1", "submission", self.suite.name, req["file_id"], self.x):
            reasons.append(f"header {header} is wrong")
        if hashlib.sha256(payload).hexdigest() != req["payload_sha256"]:
            reasons.append("payload differs from the input")
        if len(tags) != len(req["fragments"]):
            return reasons + [f"{len(tags)} tags for {len(req['fragments'])} fragments"]
        for fragment, (y_bytes, z) in zip(req["fragments"], tags):
            try:
                y = self.suite.element_from_bytes(self.group_b, y_bytes)
            except Exception as exc:  # any decode failure is a wrong output, reported as such
                reasons.append(f"tag for {fragment} does not decode: {exc!r}")
                continue
            trapdoor = self.suite.hash_to_group_a(fragment.encode("utf-8")) ** self.alpha
            if y.is_identity() or self.suite.hash_to_bits(self.suite.pair(trapdoor, y)) != z:
                reasons.append(f"tag for {fragment} does not match its trapdoor")
        return reasons


def check(plan: dict, pairs: list[tuple[dict, dict]], proc_dir: Path) -> list[list[str]]:
    """Why each (request, record) pair of one runner process is wrong; ``[]`` when right."""
    if plan["workload"] == "tag":
        checker = _TagChecker(plan)
        return [checker(req, rec, proc_dir / "out") for req, rec in pairs]
    store = proc_dir / "store"
    verdicts = [_check_pdp(req, rec, store) for req, rec in pairs]
    expected = {store / req["decision"]["storage_unit"] / req["file_id"]
                for req, _ in pairs if req["decision"] is not None}
    extra = [p for p in store.glob("*/*") if p.is_file() and p not in expected]
    if extra and verdicts:
        verdicts[-1].append(f"unexpected stored files {sorted(map(str, extra))}")
    return verdicts
