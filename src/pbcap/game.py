"""Executable distinguishing game: challenger vs pluggable attackers.

Per trial: fresh admin and user keys; the attacker may query trapdoors
for fragments of its choice; it then names two challenge fragments it
has never queried; the challenger flips a bit b and hands back the
user's X and the real tag for fragment b (built with the production
``make_x`` and ``make_tag``, not a reimplementation); the attacker may
keep querying anything except the two challenge fragments, then
guesses b.

The harness is bounded from both sides: an attacker with no trapdoor
for either challenge fragment should win at chance rate, and an
attacker holding a matching trapdoor wins every time.  Queries against
a challenge fragment void the trial; voided trials are reported, never
silently dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Protocol

from .pairing import GroupElement, PairingSuite
from .scheme import (
    AdminPublicKey,
    ClassificationTag,
    TrapdoorEntry,
    keygen_admin,
    keygen_user,
    make_tag,
    make_trapdoor,
    make_x,
    matches_trapdoor,
)


class ChallengeQueryError(Exception):
    """Raised by the challenger when rule 5 is violated."""


class TrapdoorOracle:
    """Challenger-side trapdoor oracle with rule-5 enforcement."""

    def __init__(self, suite: PairingSuite, admin_sk):
        self._suite = suite
        self._admin_sk = admin_sk
        self.queried: set[bytes] = set()
        self.forbidden: set[bytes] = set()

    def query(self, fragment: bytes) -> TrapdoorEntry:
        if fragment in self.forbidden:
            raise ChallengeQueryError("trapdoor query for a challenge fragment")
        self.queried.add(fragment)
        return make_trapdoor(self._suite, self._admin_sk, fragment)


@dataclass
class ChallengeContext:
    """Everything an attacker legitimately sees in one trial."""

    suite: PairingSuite
    admin_pub: AdminPublicKey
    user_pk: GroupElement
    oracle: TrapdoorOracle
    pair: tuple[bytes, bytes]
    x: GroupElement
    challenge: ClassificationTag
    rng: random.Random


class AttackerStrategy(Protocol):
    name: str

    def select_pair(self, rng: random.Random, oracle: TrapdoorOracle) -> tuple[bytes, bytes]:
        """Steps 2-3: optional oracle queries, then the two challenge fragments."""

    def guess(self, ctx: ChallengeContext) -> int:
        """Step 6: output a bit."""


def _random_fragment(rng: random.Random, salt: str) -> bytes:
    return f"Frag{salt}(N{rng.getrandbits(64):x},M{rng.getrandbits(64):x})".encode()


class RandomGuessAttacker:
    """No-information baseline; should win at rate 1/2."""

    name = "random-guess"

    def select_pair(self, rng, oracle):
        # a few legitimate warm-up queries, none related to the challenge
        for i in range(2):
            oracle.query(_random_fragment(rng, f"Warmup{i}"))
        return _random_fragment(rng, "A"), _random_fragment(rng, "B")

    def guess(self, ctx):
        return ctx.rng.getrandbits(1)


class TrapdoorEquippedAttacker:
    """Test-only bypass: reads the admin secret out of the challenger's
    oracle and builds the trapdoor for fragment 0 itself.  Wins every
    trial; proves the harness can detect a perfect distinguisher."""

    name = "cheating"

    def select_pair(self, rng, oracle):
        return _random_fragment(rng, "A"), _random_fragment(rng, "B")

    def guess(self, ctx):
        trapdoor = make_trapdoor(ctx.suite, ctx.oracle._admin_sk, ctx.pair[0])
        return 0 if matches_trapdoor(ctx.suite, trapdoor, ctx.challenge) else 1


class RuleBreakingAttacker:
    """Queries the oracle for a challenge fragment; every trial is voided."""

    name = "rule-breaker"

    def select_pair(self, rng, oracle):
        return _random_fragment(rng, "A"), _random_fragment(rng, "B")

    def guess(self, ctx):
        ctx.oracle.query(ctx.pair[0])  # forbidden; challenger voids the trial
        return 0


ATTACKERS: dict[str, Callable[[], object]] = {
    RandomGuessAttacker.name: RandomGuessAttacker,
    TrapdoorEquippedAttacker.name: TrapdoorEquippedAttacker,
    RuleBreakingAttacker.name: RuleBreakingAttacker,
}


@dataclass
class GameTranscript:
    attacker_id: str
    trials: int = 0
    wins: int = 0
    voided: int = 0
    queried_fragments: set[bytes] = field(default_factory=set)

    @property
    def win_rate(self) -> float:
        return self.wins / self.trials if self.trials else 0.0

    @property
    def advantage(self) -> float:
        return abs(self.win_rate - 0.5)

    def as_dict(self) -> dict:
        return {
            "attacker": self.attacker_id,
            "trials": self.trials,
            "wins": self.wins,
            "voided": self.voided,
            "win_rate": self.win_rate,
            "advantage": self.advantage,
            "distinct_oracle_queries": len(self.queried_fragments),
        }


def run_game(
    suite: PairingSuite,
    attacker: AttackerStrategy,
    trials: int,
    rng: random.Random,
) -> GameTranscript:
    """Run the distinguishing game for the given number of trials.

    Each trial owns its own rng stream split from the root rng, so a
    fixed seed reproduces the transcript regardless of scheduling.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    transcript = GameTranscript(attacker_id=attacker.name)
    for _ in range(trials):
        trial_rng = random.Random(rng.getrandbits(128))
        admin_sk, admin_pub = keygen_admin(suite, trial_rng)
        user_sk, user_pk = keygen_user(suite, trial_rng)
        oracle = TrapdoorOracle(suite, admin_sk)

        try:
            p0, p1 = attacker.select_pair(trial_rng, oracle)
            if p0 in oracle.queried or p1 in oracle.queried or p0 == p1:
                transcript.voided += 1
                continue
            oracle.forbidden = {p0, p1}
            b = trial_rng.getrandbits(1)
            challenge = make_tag(suite, admin_pub, user_sk, (p0, p1)[b], trial_rng)
            ctx = ChallengeContext(
                suite=suite,
                admin_pub=admin_pub,
                user_pk=user_pk,
                oracle=oracle,
                pair=(p0, p1),
                x=make_x(admin_pub, user_sk),
                challenge=challenge,
                rng=trial_rng,
            )
            b_guess = attacker.guess(ctx)
        except ChallengeQueryError:
            transcript.voided += 1
            continue
        finally:
            transcript.queried_fragments |= oracle.queried - oracle.forbidden

        transcript.trials += 1
        if b_guess == b:
            transcript.wins += 1
    return transcript

