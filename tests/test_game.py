"""Distinguishing-game harness: bounds, rule enforcement, exact oracle."""

import random

import pytest
from exact_oracle import _FixedScalarRng, oracle_check_identities

from pbcap.game import (
    ATTACKERS,
    ChallengeQueryError,
    RandomGuessAttacker,
    RuleBreakingAttacker,
    TrapdoorEquippedAttacker,
    TrapdoorOracle,
    run_game,
)
from pbcap.scheme import (
    keygen_admin,
    keygen_user,
    make_tag,
    make_trapdoor,
    matches_trapdoor,
    verify_authenticity,
)


class TestAttackerBounds:
    def test_random_guess_near_chance(self, mock_suite):
        t = run_game(mock_suite, RandomGuessAttacker(), 1000, random.Random(11))
        assert t.trials == 1000
        assert t.voided == 0
        assert 0.45 <= t.win_rate <= 0.55

    def test_cheating_attacker_always_wins(self, mock_suite):
        t = run_game(mock_suite, TrapdoorEquippedAttacker(), 200, random.Random(12))
        assert t.trials == 200
        assert t.win_rate == 1.0

    def test_rule_breaker_voids_every_trial(self, mock_suite):
        t = run_game(mock_suite, RuleBreakingAttacker(), 50, random.Random(13))
        assert t.voided == 50
        assert t.trials == 0
        assert t.win_rate == 0.0

    def test_cheating_attacker_on_production_suite(self, prod_suite):
        t = run_game(prod_suite, TrapdoorEquippedAttacker(), 3, random.Random(14))
        assert t.win_rate == 1.0

    def test_non_positive_trials_refused(self, mock_suite):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_game(mock_suite, RandomGuessAttacker(), 0, random.Random(15))


class TestRuleEnforcement:
    def test_oracle_refuses_forbidden_fragments(self, mock_suite, rng):
        admin_sk, admin_pub = keygen_admin(mock_suite, rng)
        oracle = TrapdoorOracle(mock_suite, admin_sk)
        oracle.forbidden = {b"P0(a,b)", b"P1(a,b)"}
        with pytest.raises(ChallengeQueryError):
            oracle.query(b"P0(a,b)")
        assert oracle.query(b"Other(a,b)").token is not None

    def test_transcript_queries_never_include_challenge_pair(self, mock_suite):
        class Chatty(RandomGuessAttacker):
            """Queries heavily, including after seeing the challenge."""

            def guess(self, ctx):
                for i in range(5):
                    ctx.oracle.query(f"Post{i}(a,b)".encode())
                return ctx.rng.getrandbits(1)

        t = run_game(mock_suite, Chatty(), 100, random.Random(17))
        assert t.trials == 100
        # the attacker made queries, but none of them were challenge fragments
        assert t.queried_fragments
        assert not any(q.startswith(b"FragA(") or q.startswith(b"FragB(")
                       for q in t.queried_fragments)

    def test_equal_challenge_fragments_voided(self, mock_suite):
        class Degenerate(RandomGuessAttacker):
            def select_pair(self, rng, oracle):
                return b"Same(a,b)", b"Same(a,b)"

        t = run_game(mock_suite, Degenerate(), 20, random.Random(18))
        assert t.voided == 20 and t.trials == 0

    def test_previously_queried_fragment_voided(self, mock_suite):
        class Sneaky(RandomGuessAttacker):
            def select_pair(self, rng, oracle):
                frag = b"Seen(a,b)"
                oracle.query(frag)
                return frag, b"Fresh(a,b)"

        t = run_game(mock_suite, Sneaky(), 20, random.Random(19))
        assert t.voided == 20 and t.trials == 0


class TestChallengeConstruction:
    def test_challenge_is_a_real_tag(self, mock_suite):
        """The challenge tag the attacker sees tests true against the
        matching trapdoor and false against the other fragment's, and
        the X next to it authenticates the user."""
        seen = []

        class Probe(RandomGuessAttacker):
            def guess(self, ctx):
                seen.append(ctx)
                return 0

        run_game(mock_suite, Probe(), 5, random.Random(21))
        for ctx in seen:
            hits = [
                matches_trapdoor(
                    ctx.suite,
                    make_trapdoor(ctx.suite, ctx.oracle._admin_sk, frag),
                    ctx.challenge,
                )
                for frag in ctx.pair
            ]
            assert sorted(hits) == [False, True]
            assert verify_authenticity(ctx.suite, ctx.admin_pub, ctx.user_pk, ctx.x, random.Random(22))

    def test_fresh_keys_each_trial(self, mock_suite):
        admins = []

        class Probe(RandomGuessAttacker):
            def guess(self, ctx):
                admins.append(ctx.admin_pub.pk_a.to_bytes())
                return 0

        run_game(mock_suite, Probe(), 30, random.Random(22))
        assert len(set(admins)) == 30


class TestDeterminism:
    def test_seeded_transcripts_identical(self, mock_suite):
        t1 = run_game(mock_suite, RandomGuessAttacker(), 300, random.Random(42))
        t2 = run_game(mock_suite, RandomGuessAttacker(), 300, random.Random(42))
        assert t1.as_dict() == t2.as_dict()

    def test_different_seeds_differ(self, mock_suite):
        t1 = run_game(mock_suite, RandomGuessAttacker(), 300, random.Random(1))
        t2 = run_game(mock_suite, RandomGuessAttacker(), 300, random.Random(2))
        assert t1.wins != t2.wins

    def test_attacker_registry(self):
        assert set(ATTACKERS) == {"random-guess", "cheating", "rule-breaker"}


class TestExactOracle:
    def test_identities_hold_over_100_draws(self, mock_suite):
        report = oracle_check_identities(mock_suite, 100, random.Random(31))
        assert report.ok, report.failures

    def test_oracle_requires_mock(self, prod_suite):
        with pytest.raises(TypeError):
            oracle_check_identities(prod_suite, 1, random.Random(0))

    def test_oracle_detects_broken_randomizer(self, mock_suite):
        """Mutation: a tag whose Y uses the admin key instead of the user
        key must fail the keyword equation; the exact-exponent check and
        the implementation must agree on that."""
        s = mock_suite
        rng = random.Random(33)
        admin_sk, admin_pub = keygen_admin(s, rng)
        user_sk, user_pk = keygen_user(s, rng)
        frag = b"RecordedBy(Test,Nurse)"
        good = make_tag(s, admin_pub, user_sk, frag, rng)
        trap = make_trapdoor(s, admin_sk, frag)
        assert matches_trapdoor(s, trap, good)

        r = rng.randrange(1, s.order)
        bad_y = admin_pub.pk_b ** r  # should have been user_pk_b ** r
        mutated = type(good)(y=bad_y, z=good.z)
        # exponent arithmetic predicts rejection whenever alpha != beta
        assert admin_sk != user_sk
        assert not matches_trapdoor(s, trap, mutated)

    def test_degenerate_unit_randomizer_still_correct(self, mock_suite):
        s = mock_suite
        rng = random.Random(34)
        admin_sk, admin_pub = keygen_admin(s, rng)
        user_sk, user_pk = keygen_user(s, rng)
        frag = b"EditedBy(Doc,Agent)"
        tag = make_tag(s, admin_pub, user_sk, frag, _FixedScalarRng(1))
        trap = make_trapdoor(s, admin_sk, frag)
        assert matches_trapdoor(s, trap, tag)
