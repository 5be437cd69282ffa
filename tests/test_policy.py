"""Policy compilation and priority-based decision making."""

import itertools
import random

import pytest

from pbcap.errors import ValidationError
from pbcap.policy import (
    DEFAULT_STORAGE_UNIT,
    Decision,
    Policy,
    UNCLASSIFIED_CATEGORY,
    classify,
    compile_policies,
)
from pbcap.provenance import ProvenanceFragment, parse_fragment
from pbcap.scheme import keygen_admin, keygen_user, make_tag

MEDICAL = Policy(
    id="1",
    keywords=(
        parse_fragment("RecordedBy(Test,Nurse)"),
        parse_fragment("DiagnosedBy(Report,Doctor)"),
    ),
    priority=5,
    category="Medical Documents",
    storage_unit="Hospital",
)


@pytest.fixture
def mock_env(mock_suite):
    rng = random.Random(0xBEEF)
    admin = keygen_admin(mock_suite, rng)
    user = keygen_user(mock_suite, rng)
    return mock_suite, rng, admin, user


def _tags(env, *fragment_texts):
    suite, rng, admin, user = env
    return [
        make_tag(suite, admin.public, user.sk, parse_fragment(t).canonical_bytes(), rng)
        for t in fragment_texts
    ]


class TestCompile:
    def test_medical_policy_compiles_to_two_trapdoors(self, mock_env):
        suite, _, admin, _ = mock_env
        [compiled] = compile_policies([MEDICAL], admin.sk, suite)
        assert len(compiled.trapdoors) == 2
        assert compiled.category == "Medical Documents"
        assert compiled.storage_unit == "Hospital"

    def test_empty_policy_list(self, mock_env):
        suite, _, admin, _ = mock_env
        assert compile_policies([], admin.sk, suite) == []

    def test_compile_is_deterministic(self, mock_env):
        suite, _, admin, _ = mock_env
        a = compile_policies([MEDICAL], admin.sk, suite)
        b = compile_policies([MEDICAL], admin.sk, suite)
        assert [t.token.to_bytes() for t in a[0].trapdoors] == [
            t.token.to_bytes() for t in b[0].trapdoors
        ]

    def test_duplicate_policy_id_rejected(self, mock_env):
        suite, _, admin, _ = mock_env
        with pytest.raises(ValidationError, match="duplicate"):
            compile_policies([MEDICAL, MEDICAL], admin.sk, suite)

    def test_empty_keyword_set_rejected(self):
        with pytest.raises(ValidationError):
            Policy(id="x", keywords=(), priority=1, category="c", storage_unit="u")

    def test_no_plaintext_keywords_retained(self, mock_env):
        suite, _, admin, _ = mock_env
        [compiled] = compile_policies([MEDICAL], admin.sk, suite)
        blob = repr(compiled).encode() + b"".join(t.token.to_bytes() for t in compiled.trapdoors)
        for kw in MEDICAL.keywords:
            assert kw.canonical_bytes() not in blob


def _policy(pid, keyword, priority, category=None, unit=None):
    return Policy(
        id=pid,
        keywords=(parse_fragment(keyword),),
        priority=priority,
        category=category or f"cat-{pid}",
        storage_unit=unit or f"unit-{pid}",
    )


class TestClassify:
    def test_medical_fixture_routes_to_hospital(self, mock_env):
        suite, _, admin, user = mock_env
        compiled = compile_policies([MEDICAL], admin.sk, suite)
        tags = _tags(mock_env, "RecordedBy(Test,Nurse)")
        decision = classify(tags, user.public, admin.public, compiled, suite, file_id="f1")
        assert decision.category == "Medical Documents"
        assert decision.storage_unit == "Hospital"
        assert decision.matched_policy == "1"
        assert decision.authenticated

    def test_empty_tags_unclassified(self, mock_env):
        suite, _, admin, user = mock_env
        compiled = compile_policies([MEDICAL], admin.sk, suite)
        decision = classify([], user.public, admin.public, compiled, suite, file_id="f")
        assert decision.category == UNCLASSIFIED_CATEGORY
        assert decision.storage_unit == DEFAULT_STORAGE_UNIT
        assert decision.matched_policy is None

    def test_authenticated_only_with_a_checked_x(self, mock_env):
        suite, rng, admin, user = mock_env
        stranger = keygen_user(suite, rng)
        compiled = compile_policies([MEDICAL], admin.sk, suite)
        genuine = admin.pk_b ** user.sk
        forged = admin.pk_b ** stranger.sk
        for user_pub, x, authenticated in (
            (stranger.public, None, False),
            (user.public, genuine, True),
            (user.public, forged, False),
        ):
            decision = classify([], user_pub, admin.public, compiled, suite, file_id="f", x=x)
            assert decision == Decision.unclassified("f", authenticated=authenticated)

    def test_no_match_unclassified(self, mock_env):
        suite, _, admin, user = mock_env
        compiled = compile_policies([MEDICAL], admin.sk, suite)
        tags = _tags(mock_env, "ReviewedBy(Draft,Editor)")
        decision = classify(tags, user.public, admin.public, compiled, suite)
        assert decision.matched_policy is None
        assert decision.storage_unit == DEFAULT_STORAGE_UNIT

    def test_higher_priority_wins(self, mock_env):
        suite, _, admin, user = mock_env
        policies = [
            _policy("low", "A(x,y)", 5),
            _policy("high", "B(x,y)", 9),
        ]
        compiled = compile_policies(policies, admin.sk, suite)
        tags = _tags(mock_env, "A(x,y)", "B(x,y)")
        decision = classify(tags, user.public, admin.public, compiled, suite)
        assert decision.matched_policy == "high"
        assert decision.category == "cat-high"

    def test_tie_broken_by_smallest_id(self, mock_env):
        suite, _, admin, user = mock_env
        policies = [
            _policy("zeta", "A(x,y)", 7),
            _policy("alpha", "B(x,y)", 7),
            _policy("a", "C(x,y)", 7),
        ]
        compiled = compile_policies(policies, admin.sk, suite)
        tags = _tags(mock_env, "A(x,y)", "B(x,y)", "C(x,y)")
        decision = classify(tags, user.public, admin.public, compiled, suite)
        assert decision.matched_policy == "a"

    def test_argmax_rule_over_all_match_subsets(self, mock_env):
        """Brute-force every subset of a 3-policy set against the argmax rule."""
        suite, _, admin, user = mock_env
        policies = [
            _policy("p1", "K1(a,b)", 3),
            _policy("p2", "K2(a,b)", 9),
            _policy("p3", "K3(a,b)", 9),
        ]
        compiled = compile_policies(policies, admin.sk, suite)
        keyword_of = {"p1": "K1(a,b)", "p2": "K2(a,b)", "p3": "K3(a,b)"}
        for size in range(0, 4):
            for subset in itertools.combinations(policies, size):
                tags = _tags(mock_env, *(keyword_of[p.id] for p in subset))
                decision = classify(tags, user.public, admin.public, compiled, suite)
                if not subset:
                    assert decision.matched_policy is None
                else:
                    expected = min(subset, key=lambda p: (-p.priority, p.id))
                    assert decision.matched_policy == expected.id

    @pytest.mark.parametrize("transform", [lambda p: p * 3, lambda p: p + 100])
    def test_priority_argmax_invariance(self, mock_env, transform):
        suite, _, admin, user = mock_env
        base = [_policy("p1", "K1(a,b)", 2), _policy("p2", "K2(a,b)", 8)]
        shifted = [
            Policy(p.id, p.keywords, transform(p.priority), p.category, p.storage_unit)
            for p in base
        ]
        tags = _tags(mock_env, "K1(a,b)", "K2(a,b)")
        d1 = classify(tags, user.public, admin.public,
                      compile_policies(base, admin.sk, suite), suite)
        d2 = classify(tags, user.public, admin.public,
                      compile_policies(shifted, admin.sk, suite), suite)
        assert d1.matched_policy == d2.matched_policy

    def test_adding_tags_is_monotone(self, mock_env):
        suite, _, admin, user = mock_env
        policies = [_policy("p1", "K1(a,b)", 3), _policy("p2", "K2(a,b)", 5)]
        compiled = compile_policies(policies, admin.sk, suite)

        def match_set(tags):
            return {
                p.id for p in compiled
                if classify(tags, user.public, admin.public, [p], suite).matched_policy
            }

        tags = _tags(mock_env, "K1(a,b)")
        more = tags + _tags(mock_env, "K2(a,b)")
        assert match_set(tags) <= match_set(more)

    def test_classify_is_deterministic(self, mock_env):
        suite, _, admin, user = mock_env
        compiled = compile_policies([MEDICAL], admin.sk, suite)
        tags = _tags(mock_env, "RecordedBy(Test,Nurse)")
        d1 = classify(tags, user.public, admin.public, compiled, suite, file_id="f")
        d2 = classify(tags, user.public, admin.public, compiled, suite, file_id="f")
        assert d1 == d2

    def test_unauthenticated_never_classified(self, mock_suite):
        rng = random.Random(3)
        admin = keygen_admin(mock_suite, rng)
        registered = keygen_user(mock_suite, rng)
        imposter = keygen_user(mock_suite, rng)
        compiled = compile_policies([MEDICAL], admin.sk, mock_suite)
        tags = [
            make_tag(mock_suite, admin.public, imposter.sk,
                     b"RecordedBy(Test,Nurse)", rng)
        ]
        decision = classify(tags, registered.public, admin.public, compiled, mock_suite)
        assert decision.authenticated is False
        assert decision.matched_policy is None

    def test_mixed_x_components_rejected(self, mock_env):
        suite, rng, admin, user = mock_env
        other = keygen_user(suite, rng)
        t1 = make_tag(suite, admin.public, user.sk, b"A(x,y)", rng)
        t2 = make_tag(suite, admin.public, other.sk, b"B(x,y)", rng)
        with pytest.raises(ValidationError, match="share"):
            classify([t1, t2], user.public, admin.public, [], suite)


class TestDecision:
    def test_unclassified_constructor(self):
        d = Decision.unclassified("f9")
        assert d.category == UNCLASSIFIED_CATEGORY
        assert d.storage_unit == DEFAULT_STORAGE_UNIT
        assert d.matched_policy is None
        assert d.authenticated
