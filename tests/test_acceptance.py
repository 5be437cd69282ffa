"""Acceptance suite: ten go/no-go criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Bulk loops run on the mock suite (exact exponent arithmetic,
same algebra); production-suite coverage of the same laws lives in
test_pairing.py / test_scheme.py.
"""

import itertools
import json
import random

import pytest
from click.testing import CliRunner

from pbcap.cli import cli
from pbcap.game import (
    RandomGuessAttacker,
    RuleBreakingAttacker,
    TrapdoorEquippedAttacker,
    oracle_check_identities,
    run_game,
)
from pbcap.pairing import get_suite
from pbcap.policy import Policy, classify, compile_policies
from pbcap.provenance import parse_fragment
from pbcap.scheme import (
    keygen_admin,
    keygen_user,
    make_tag,
    make_trapdoor,
    make_x,
    matches_trapdoor,
    verify_authenticity,
)

SUITE = get_suite("mock")


def _verdict(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _fragment(rng, i):
    return f"Rel{rng.getrandbits(32):x}(Src{i},Dst{rng.getrandbits(32):x})".encode()


def test_criterion_1_completeness():
    """1000 random fragments, fresh keys every 100: matching trapdoor
    always accepted."""
    rng = random.Random(101)
    failures = 0
    for batch in range(10):
        admin = keygen_admin(SUITE, rng)
        user = keygen_user(SUITE, rng)
        x = make_x(admin.public, user.sk)
        for i in range(100):
            frag = _fragment(rng, i)
            tag = make_tag(SUITE, admin.public, user.sk, frag, rng)
            trap = make_trapdoor(SUITE, admin.sk, frag)
            if (verify_authenticity(SUITE, admin.public, user.public, x)
                and matches_trapdoor(SUITE, trap, tag)) is not True:
                failures += 1
    _verdict(1, failures == 0,
             f"completeness over 1000 fragments, failures={failures}")


def test_criterion_2_soundness():
    """10^4 mismatched fragment pairs: never accepted."""
    rng = random.Random(102)
    admin = keygen_admin(SUITE, rng)
    user = keygen_user(SUITE, rng)
    x = make_x(admin.public, user.sk)
    accepted = 0
    for i in range(10_000):
        frag = _fragment(rng, i)
        other = _fragment(rng, i) + b"'"
        tag = make_tag(SUITE, admin.public, user.sk, frag, rng)
        trap = make_trapdoor(SUITE, admin.sk, other)
        if (verify_authenticity(SUITE, admin.public, user.public, x)
            and matches_trapdoor(SUITE, trap, tag)):
            accepted += 1
    _verdict(2, accepted == 0,
             f"soundness over 10000 mismatched pairs, false accepts={accepted}")


def test_criterion_3_authenticity_gate():
    """1000 submissions keyed with an unregistered exponent: the
    key-binding equation fails and classify never routes them."""
    rng = random.Random(103)
    admin = keygen_admin(SUITE, rng)
    registered = keygen_user(SUITE, rng)
    policy = Policy(id="p", keywords=(parse_fragment("K(a,b)"),),
                    priority=1, category="c", storage_unit="u")
    compiled = compile_policies([policy], admin.sk, SUITE)
    leaks = 0
    for _ in range(1000):
        imposter = keygen_user(SUITE, rng)
        if imposter.sk.value == registered.sk.value:
            continue
        tag = make_tag(SUITE, admin.public, imposter.sk, b"K(a,b)", rng)
        x = make_x(admin.public, imposter.sk)
        if verify_authenticity(SUITE, admin.public, registered.public, x):
            leaks += 1
        decision = classify([tag], registered.public, admin.public, compiled, SUITE, x=x)
        if decision.authenticated or decision.matched_policy is not None:
            leaks += 1
    _verdict(3, leaks == 0,
             f"1000 forged-key submissions all rejected, leaks={leaks}")


def test_criterion_4_mock_oracle_equivalence():
    """100 exponent draws: both test equations agree with direct modular
    arithmetic; the swapped-randomizer mutation is caught."""
    report = oracle_check_identities(SUITE, 100, random.Random(104))

    rng = random.Random(1040)
    admin = keygen_admin(SUITE, rng)
    user = keygen_user(SUITE, rng)
    frag = b"RecordedBy(Test,Nurse)"
    trap = make_trapdoor(SUITE, admin.sk, frag)
    good = make_tag(SUITE, admin.public, user.sk, frag, rng)
    mutated = type(good)(y=admin.pk_b ** rng.randrange(1, SUITE.order), z=good.z)
    mutation_caught = matches_trapdoor(SUITE, trap, good) and not matches_trapdoor(
        SUITE, trap, mutated
    )
    ok = report.ok and mutation_caught
    _verdict(4, ok,
             f"100 oracle draws, failures={len(report.failures)}, "
             f"mutation caught={mutation_caught}")


def test_criterion_5_randomization():
    """1000 tag pairs for the same fragment, fresh-seeded rng: every
    pair differs in (Y, Z)."""
    rng = random.Random(105)
    admin = keygen_admin(SUITE, rng)
    user = keygen_user(SUITE, rng)
    frag = b"RecordedBy(Test,Nurse)"
    collisions = 0
    for _ in range(1000):
        t1 = make_tag(SUITE, admin.public, user.sk, frag, rng)
        t2 = make_tag(SUITE, admin.public, user.sk, frag, rng)
        if t1.y == t2.y or t1.z == t2.z:
            collisions += 1
    _verdict(5, collisions == 0,
             f"1000 same-fragment tag pairs, (Y,Z) collisions={collisions}")


def test_criterion_6_security_game():
    """Random-guess attacker at 0.5 +/- 0.05 over 2000 trials; trapdoor-
    equipped attacker at 1.0; challenge-fragment queries voided."""
    guess = run_game(SUITE, RandomGuessAttacker(), 2000, random.Random(106))
    cheat = run_game(SUITE, TrapdoorEquippedAttacker(), 200, random.Random(107))
    breaker = run_game(SUITE, RuleBreakingAttacker(), 50, random.Random(108))
    ok = (
        guess.trials == 2000
        and abs(guess.win_rate - 0.5) <= 0.05
        and cheat.win_rate == 1.0
        and breaker.voided == 50
        and breaker.trials == 0
    )
    _verdict(6, ok,
             f"random-guess win_rate={guess.win_rate:.4f} (2000 trials), "
             f"cheating win_rate={cheat.win_rate:.2f}, "
             f"rule-breaker voided={breaker.voided}/50")


# ---------------------------------------------------------------------------
# Criteria 7-10 exercise the full CLI pipeline.

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
    ],
}

GRAPH = """\
node t Artifact Test
node n Agent Nurse
edge RecordedBy t n
"""


def _run_pipeline(base, seed=42, policy_doc=POLICY_DOC, graph=GRAPH):
    runner = CliRunner()
    base.mkdir(exist_ok=True)
    (base / "policies.json").write_text(json.dumps(policy_doc))
    (base / "graph.txt").write_text(graph)
    (base / "payload.bin").write_bytes(b"opaque encrypted payload")
    (base / "store").mkdir()
    steps = [
        ["pap", "keygen", "--out-dir", base / "pap", "--suite", "mock", "--seed", seed],
        ["user", "keygen", "--out-dir", base / "usr", "--suite", "mock", "--seed", seed],
        ["pap", "compile", "--policies", base / "policies.json",
         "--admin-sk", base / "pap/admin.sk", "--out", base / "compiled.json",
         "--suite", "mock"],
        ["user", "tag", "--graph", base / "graph.txt",
         "--admin-pk", base / "pap/admin.pk", "--user-sk", base / "usr/user.sk",
         "--payload", base / "payload.bin", "--out", base / "sub.json",
         "--suite", "mock", "--seed", seed],
        ["pdp", "classify", base / "sub.json",
         "--policies", base / "compiled.json", "--admin-pk", base / "pap/admin.pk",
         "--user-pk", base / "usr/user.pk", "--storage-root", base / "store",
         "--suite", "mock"],
    ]
    for args in steps:
        result = runner.invoke(cli, [str(a) for a in args])
        assert result.exit_code == 0, result.output
    return base


def test_criterion_7_policy_reproduction(tmp_path):
    """The worked example: RecordedBy(Test,Nurse) provenance classifies
    as "Medical Documents" and routes to unit "Hospital"."""
    base = _run_pipeline(tmp_path / "pipe")
    stored = base / "store/Hospital/payload.bin"
    log = [json.loads(line) for line in
           (base / "store/decisions.log").read_text().splitlines()]
    ok = (
        stored.exists()
        and stored.read_bytes() == b"opaque encrypted payload"
        and log[-1]["category"] == "Medical Documents"
        and log[-1]["storage_unit"] == "Hospital"
    )
    _verdict(7, ok,
             f'category={log[-1]["category"]!r}, unit={log[-1]["storage_unit"]!r}')


def test_criterion_8_priority_conflict():
    """Priorities {5, 9}: the 9 wins; brute force over every match
    subset of a 3-policy set confirms the argmax and tie-break rule."""
    rng = random.Random(108)
    admin = keygen_admin(SUITE, rng)
    user = keygen_user(SUITE, rng)
    x = make_x(admin.public, user.sk)

    def p(pid, kw, prio):
        return Policy(id=pid, keywords=(parse_fragment(kw),), priority=prio,
                      category=f"cat-{pid}", storage_unit=f"unit-{pid}")

    five_nine = compile_policies([p("low", "A(x,y)", 5), p("high", "B(x,y)", 9)],
                                 admin.sk, SUITE)
    tags = [make_tag(SUITE, admin.public, user.sk, f, rng)
            for f in (b"A(x,y)", b"B(x,y)")]
    nine_wins = classify(tags, user.public, admin.public, five_nine,
                         SUITE, x=x).matched_policy == "high"

    trio = [p("p1", "K1(a,b)", 3), p("p2", "K2(a,b)", 9), p("p3", "K3(a,b)", 9)]
    compiled = compile_policies(trio, admin.sk, SUITE)
    keyword_of = {"p1": b"K1(a,b)", "p2": b"K2(a,b)", "p3": b"K3(a,b)"}
    mismatches = 0
    for size in range(4):
        for subset in itertools.combinations(trio, size):
            tags = [make_tag(SUITE, admin.public, user.sk, keyword_of[q.id], rng)
                    for q in subset]
            got = classify(tags, user.public, admin.public, compiled,
                           SUITE, x=x).matched_policy
            want = (min(subset, key=lambda q: (-q.priority, q.id)).id
                    if subset else None)
            if got != want:
                mismatches += 1
    ok = nine_wins and mismatches == 0
    _verdict(8, ok,
             f"priority-9 wins={nine_wins}, subset mismatches={mismatches}/8")


def test_criterion_9_confidentiality_scan(tmp_path):
    """No PDP-visible pipeline output contains a plaintext fragment."""
    doc = json.loads(json.dumps(POLICY_DOC))
    doc["policies"].append({
        "id": "2", "keywords": ["ReviewedBy(Draft,Editor)"], "priority": 2,
        "category": "Editorial", "storage_unit": "Press",
    })
    base = _run_pipeline(tmp_path / "pipe", policy_doc=doc)
    secrets = [b"RecordedBy", b"DiagnosedBy", b"ReviewedBy",
               b"Test,Nurse", b"Report,Doctor", b"Draft,Editor"]
    visible = [base / "compiled.json", base / "sub.json",
               base / "store/decisions.log",
               base / "store/Hospital/payload.bin"]
    hits = [(path.name, tok.decode())
            for path in visible
            for tok in secrets
            if tok in path.read_bytes()]
    _verdict(9, not hits,
             f"scanned {len(visible)} PDP-visible files for {len(secrets)} "
             f"fragment substrings, leaks={hits or 0}")


def test_criterion_10_determinism(tmp_path):
    """The whole pipeline, seeded twice, writes byte-identical decision
    logs."""
    log_a = (_run_pipeline(tmp_path / "a") / "store/decisions.log").read_bytes()
    log_b = (_run_pipeline(tmp_path / "b") / "store/decisions.log").read_bytes()
    ok = log_a == log_b and len(log_a) > 0
    _verdict(10, ok,
             f"two seed-42 runs, decision logs identical={log_a == log_b}")
