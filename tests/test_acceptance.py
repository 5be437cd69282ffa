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
from exact_oracle import oracle_check_identities
from pipeline import PAYLOAD, run, scenario

from pbcap.game import (
    RandomGuessAttacker,
    RuleBreakingAttacker,
    TrapdoorEquippedAttacker,
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
    rng, deltas = random.Random(101), random.Random(201)
    failures = 0
    for batch in range(10):
        admin_sk, admin_pub = keygen_admin(SUITE, rng)
        user_sk, user_pk = keygen_user(SUITE, rng)
        x = make_x(admin_pub, user_sk)
        for i in range(100):
            frag = _fragment(rng, i)
            tag = make_tag(SUITE, admin_pub, user_sk, frag, rng)
            trap = make_trapdoor(SUITE, admin_sk, frag)
            if (verify_authenticity(SUITE, admin_pub, user_pk, x, deltas)
                and matches_trapdoor(SUITE, trap, tag)) is not True:
                failures += 1
    _verdict(1, failures == 0,
             f"completeness over 1000 fragments, failures={failures}")


def test_criterion_2_soundness():
    """10^4 mismatched fragment pairs: never accepted."""
    rng, deltas = random.Random(102), random.Random(202)
    admin_sk, admin_pub = keygen_admin(SUITE, rng)
    user_sk, user_pk = keygen_user(SUITE, rng)
    x = make_x(admin_pub, user_sk)
    accepted = 0
    for i in range(10_000):
        frag = _fragment(rng, i)
        other = _fragment(rng, i) + b"'"
        tag = make_tag(SUITE, admin_pub, user_sk, frag, rng)
        trap = make_trapdoor(SUITE, admin_sk, other)
        if (verify_authenticity(SUITE, admin_pub, user_pk, x, deltas)
            and matches_trapdoor(SUITE, trap, tag)):
            accepted += 1
    _verdict(2, accepted == 0,
             f"soundness over 10000 mismatched pairs, false accepts={accepted}")


def test_criterion_3_authenticity_gate():
    """1000 submissions keyed with an unregistered exponent: the
    key-binding equation fails and classify never routes them."""
    rng, deltas = random.Random(103), random.Random(203)
    admin_sk, admin_pub = keygen_admin(SUITE, rng)
    registered_sk, registered_pk = keygen_user(SUITE, rng)
    policy = Policy(id="p", keywords=(parse_fragment("K(a,b)"),),
                    priority=1, category="c", storage_unit="u")
    compiled = compile_policies([policy], admin_sk, SUITE)
    leaks = 0
    for _ in range(1000):
        imposter_sk, imposter_pk = keygen_user(SUITE, rng)
        if imposter_sk == registered_sk:
            continue
        tag = make_tag(SUITE, admin_pub, imposter_sk, b"K(a,b)", rng)
        x = make_x(admin_pub, imposter_sk)
        if verify_authenticity(SUITE, admin_pub, registered_pk, x, deltas):
            leaks += 1
        decision = classify([tag], registered_pk, admin_pub, compiled, SUITE, x=x, rng=deltas)
        if decision.authenticated or decision.matched_policy is not None:
            leaks += 1
    _verdict(3, leaks == 0,
             f"1000 forged-key submissions all rejected, leaks={leaks}")


def test_criterion_4_mock_oracle_equivalence():
    """100 exponent draws: both test equations agree with direct modular
    arithmetic; the swapped-randomizer mutation is caught."""
    report = oracle_check_identities(SUITE, 100, random.Random(104))

    rng = random.Random(1040)
    admin_sk, admin_pub = keygen_admin(SUITE, rng)
    user_sk, user_pk = keygen_user(SUITE, rng)
    frag = b"RecordedBy(Test,Nurse)"
    trap = make_trapdoor(SUITE, admin_sk, frag)
    good = make_tag(SUITE, admin_pub, user_sk, frag, rng)
    mutated = type(good)(y=admin_pub.pk_b ** rng.randrange(1, SUITE.order), z=good.z)
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
    admin_sk, admin_pub = keygen_admin(SUITE, rng)
    user_sk, user_pk = keygen_user(SUITE, rng)
    frag = b"RecordedBy(Test,Nurse)"
    collisions = 0
    for _ in range(1000):
        t1 = make_tag(SUITE, admin_pub, user_sk, frag, rng)
        t2 = make_tag(SUITE, admin_pub, user_sk, frag, rng)
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

POLICIES = [
    {
        "id": "1",
        "keywords": ["RecordedBy(Test,Nurse)", "DiagnosedBy(Report,Doctor)"],
        "priority": 5,
        "category": "Medical Documents",
        "storage_unit": "Hospital",
    },
]

GRAPH = """\
node t Artifact Test
node n Agent Nurse
edge RecordedBy t n
"""


def test_criterion_7_policy_reproduction(tmp_path):
    """The worked example: RecordedBy(Test,Nurse) provenance classifies
    as "Medical Documents" and routes to unit "Hospital"."""
    run(*scenario(tmp_path, "mock", POLICIES, GRAPH))
    stored = tmp_path / "store/Hospital/payload.bin"
    log = [json.loads(line) for line in
           (tmp_path / "store/decisions.log").read_text().splitlines()]
    ok = (
        stored.exists()
        and stored.read_bytes() == PAYLOAD
        and log[-1]["category"] == "Medical Documents"
        and log[-1]["storage_unit"] == "Hospital"
    )
    _verdict(7, ok,
             f'category={log[-1]["category"]!r}, unit={log[-1]["storage_unit"]!r}')


def test_criterion_8_priority_conflict():
    """Priorities {5, 9}: the 9 wins; brute force over every match
    subset of a 3-policy set confirms the argmax and tie-break rule."""
    rng, deltas = random.Random(108), random.Random(208)
    admin_sk, admin_pub = keygen_admin(SUITE, rng)
    user_sk, user_pk = keygen_user(SUITE, rng)
    x = make_x(admin_pub, user_sk)

    def p(pid, kw, prio):
        return Policy(id=pid, keywords=(parse_fragment(kw),), priority=prio,
                      category=f"cat-{pid}", storage_unit=f"unit-{pid}")

    five_nine = compile_policies([p("low", "A(x,y)", 5), p("high", "B(x,y)", 9)],
                                 admin_sk, SUITE)
    tags = [make_tag(SUITE, admin_pub, user_sk, f, rng)
            for f in (b"A(x,y)", b"B(x,y)")]
    nine_wins = classify(tags, user_pk, admin_pub, five_nine,
                         SUITE, x=x, rng=deltas).matched_policy == "high"

    trio = [p("p1", "K1(a,b)", 3), p("p2", "K2(a,b)", 9), p("p3", "K3(a,b)", 9)]
    compiled = compile_policies(trio, admin_sk, SUITE)
    keyword_of = {"p1": b"K1(a,b)", "p2": b"K2(a,b)", "p3": b"K3(a,b)"}
    mismatches = 0
    for size in range(4):
        for subset in itertools.combinations(trio, size):
            tags = [make_tag(SUITE, admin_pub, user_sk, keyword_of[q.id], rng)
                    for q in subset]
            got = classify(tags, user_pk, admin_pub, compiled,
                           SUITE, x=x, rng=deltas).matched_policy
            want = (min(subset, key=lambda q: (-q.priority, q.id)).id
                    if subset else None)
            if got != want:
                mismatches += 1
    ok = nine_wins and mismatches == 0
    _verdict(8, ok,
             f"priority-9 wins={nine_wins}, subset mismatches={mismatches}/8")


def test_criterion_9_confidentiality_scan(tmp_path):
    """No PDP-visible pipeline output contains a plaintext fragment."""
    policies = POLICIES + [{
        "id": "2", "keywords": ["ReviewedBy(Draft,Editor)"], "priority": 2,
        "category": "Editorial", "storage_unit": "Press",
    }]
    run(*scenario(tmp_path, "mock", policies, GRAPH))
    secrets = [b"RecordedBy", b"DiagnosedBy", b"ReviewedBy",
               b"Test,Nurse", b"Report,Doctor", b"Draft,Editor"]
    visible = [tmp_path / "compiled.json", tmp_path / "sub.json",
               tmp_path / "store/decisions.log",
               tmp_path / "store/Hospital/payload.bin"]
    hits = [(path.name, tok.decode())
            for path in visible
            for tok in secrets
            if tok in path.read_bytes()]
    _verdict(9, not hits,
             f"scanned {len(visible)} PDP-visible files for {len(secrets)} "
             f"fragment substrings, leaks={hits or 0}")


CLI_POLICIES = POLICIES + [{
    "id": "2", "keywords": ["ReviewedBy(Draft,Editor)"], "priority": 9,
    "category": "Editorial", "storage_unit": "Press",
}]
CLI_GRAPH = """\
node t Artifact Test
node n Agent Nurse
node r Artifact Report
edge RecordedBy t n
edge ProducedFrom r t
"""


@pytest.mark.parametrize("policies, graph", [(POLICIES, GRAPH), (CLI_POLICIES, CLI_GRAPH)],
                         ids=["worked-example", "two-policies"])
def test_criterion_10_determinism(tmp_path, policies, graph):
    """The whole pipeline, seeded twice, writes byte-identical decision
    logs: on the worked example, and on the two-policy set and
    two-fragment graph of the CLI tests."""
    logs = []
    for base in (tmp_path / "a", tmp_path / "b"):
        run(*scenario(base, "mock", policies, graph))
        logs.append((base / "store/decisions.log").read_bytes())
    log_a, log_b = logs
    ok = log_a == log_b and len(log_a) > 0
    _verdict(10, ok,
             f"two seeded runs, {len(policies)}-policy set, decision logs identical={log_a == log_b}")
