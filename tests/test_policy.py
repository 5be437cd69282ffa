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
from pbcap.provenance import parse_fragment
from pbcap.scheme import keygen_admin, keygen_user, make_tag, make_x

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
    return mock_suite, rng, keygen_admin(mock_suite, rng), keygen_user(mock_suite, rng)


def _tags(env, *fragment_texts):
    suite, rng, (_, admin_pub), (user_sk, _) = env
    return [
        make_tag(suite, admin_pub, user_sk, parse_fragment(t), rng)
        for t in fragment_texts
    ]


def _classify(env, tags, compiled, **kwargs):
    """Classify tags from the env's user, who sends their own X."""
    suite, _, (_, admin_pub), (user_sk, user_pk) = env
    return classify(tags, user_pk, admin_pub, compiled, suite,
                    x=make_x(admin_pub, user_sk), rng=random.Random(0), **kwargs)


class TestCompile:
    def test_medical_policy_compiles_to_two_trapdoors(self, mock_env):
        suite, _, (admin_sk, _), _ = mock_env
        [compiled] = compile_policies([MEDICAL], admin_sk, suite)
        assert len(compiled.trapdoors) == 2
        assert compiled.category == "Medical Documents"
        assert compiled.storage_unit == "Hospital"

    def test_empty_policy_list(self, mock_env):
        suite, _, (admin_sk, _), _ = mock_env
        assert compile_policies([], admin_sk, suite) == []

    def test_compile_is_deterministic(self, mock_env):
        suite, _, (admin_sk, _), _ = mock_env
        a = compile_policies([MEDICAL], admin_sk, suite)
        b = compile_policies([MEDICAL], admin_sk, suite)
        assert [t.token.to_bytes() for t in a[0].trapdoors] == [
            t.token.to_bytes() for t in b[0].trapdoors
        ]

    def test_duplicate_policy_id_rejected(self, mock_env):
        suite, _, (admin_sk, _), _ = mock_env
        with pytest.raises(ValidationError, match="duplicate"):
            compile_policies([MEDICAL, MEDICAL], admin_sk, suite)

    def test_empty_keyword_set_rejected(self):
        with pytest.raises(ValidationError):
            Policy(id="x", keywords=(), priority=1, category="c", storage_unit="u")

    def test_no_plaintext_keywords_retained(self, mock_env):
        suite, _, (admin_sk, _), _ = mock_env
        [compiled] = compile_policies([MEDICAL], admin_sk, suite)
        blob = repr(compiled).encode() + b"".join(t.token.to_bytes() for t in compiled.trapdoors)
        for kw in MEDICAL.keywords:
            assert kw not in blob


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
        suite, _, (admin_sk, _), _ = mock_env
        compiled = compile_policies([MEDICAL], admin_sk, suite)
        tags = _tags(mock_env, "RecordedBy(Test,Nurse)")
        decision = _classify(mock_env, tags, compiled, file_id="f1")
        assert decision.category == "Medical Documents"
        assert decision.storage_unit == "Hospital"
        assert decision.matched_policy == "1"
        assert decision.authenticated

    def test_empty_tags_unclassified(self, mock_env):
        suite, _, (admin_sk, _), _ = mock_env
        compiled = compile_policies([MEDICAL], admin_sk, suite)
        decision = _classify(mock_env, [], compiled, file_id="f")
        assert decision.category == UNCLASSIFIED_CATEGORY
        assert decision.storage_unit == DEFAULT_STORAGE_UNIT
        assert decision.matched_policy is None

    def test_authenticated_only_with_a_checked_x(self, mock_env):
        suite, rng, (admin_sk, admin_pub), (user_sk, user_pk) = mock_env
        stranger_sk, stranger_pk = keygen_user(suite, rng)
        compiled = compile_policies([MEDICAL], admin_sk, suite)
        with pytest.raises(TypeError):
            classify([], stranger_pk, admin_pub, compiled, suite, file_id="f", rng=rng)
        for x, authenticated in (
            (make_x(admin_pub, user_sk), True),
            (make_x(admin_pub, stranger_sk), False),
        ):
            decision = classify([], user_pk, admin_pub, compiled, suite, file_id="f", x=x, rng=rng)
            assert decision == Decision.unclassified("f", authenticated=authenticated)

    def test_no_match_unclassified(self, mock_env):
        suite, _, (admin_sk, _), _ = mock_env
        compiled = compile_policies([MEDICAL], admin_sk, suite)
        tags = _tags(mock_env, "ReviewedBy(Draft,Editor)")
        decision = _classify(mock_env, tags, compiled)
        assert decision.matched_policy is None
        assert decision.storage_unit == DEFAULT_STORAGE_UNIT

    def test_higher_priority_wins(self, mock_env):
        suite, _, (admin_sk, _), _ = mock_env
        policies = [
            _policy("low", "A(x,y)", 5),
            _policy("high", "B(x,y)", 9),
        ]
        compiled = compile_policies(policies, admin_sk, suite)
        tags = _tags(mock_env, "A(x,y)", "B(x,y)")
        decision = _classify(mock_env, tags, compiled)
        assert decision.matched_policy == "high"
        assert decision.category == "cat-high"

    def test_tie_broken_by_smallest_id(self, mock_env):
        suite, _, (admin_sk, _), _ = mock_env
        policies = [
            _policy("zeta", "A(x,y)", 7),
            _policy("alpha", "B(x,y)", 7),
            _policy("a", "C(x,y)", 7),
        ]
        compiled = compile_policies(policies, admin_sk, suite)
        tags = _tags(mock_env, "A(x,y)", "B(x,y)", "C(x,y)")
        decision = _classify(mock_env, tags, compiled)
        assert decision.matched_policy == "a"

    def test_argmax_rule_over_all_match_subsets(self, mock_env):
        """Brute-force every subset of a 3-policy set against the argmax rule."""
        suite, _, (admin_sk, _), _ = mock_env
        policies = [
            _policy("p1", "K1(a,b)", 3),
            _policy("p2", "K2(a,b)", 9),
            _policy("p3", "K3(a,b)", 9),
        ]
        compiled = compile_policies(policies, admin_sk, suite)
        keyword_of = {"p1": "K1(a,b)", "p2": "K2(a,b)", "p3": "K3(a,b)"}
        for size in range(0, 4):
            for subset in itertools.combinations(policies, size):
                tags = _tags(mock_env, *(keyword_of[p.id] for p in subset))
                decision = _classify(mock_env, tags, compiled)
                if not subset:
                    assert decision.matched_policy is None
                else:
                    expected = min(subset, key=lambda p: (-p.priority, p.id))
                    assert decision.matched_policy == expected.id

    @pytest.mark.parametrize("transform", [lambda p: p * 3, lambda p: p + 100])
    def test_priority_argmax_invariance(self, mock_env, transform):
        suite, _, (admin_sk, _), _ = mock_env
        base = [_policy("p1", "K1(a,b)", 2), _policy("p2", "K2(a,b)", 8)]
        shifted = [
            Policy(p.id, p.keywords, transform(p.priority), p.category, p.storage_unit)
            for p in base
        ]
        tags = _tags(mock_env, "K1(a,b)", "K2(a,b)")
        d1 = _classify(mock_env, tags, compile_policies(base, admin_sk, suite))
        d2 = _classify(mock_env, tags, compile_policies(shifted, admin_sk, suite))
        assert d1.matched_policy == d2.matched_policy

    def test_adding_tags_is_monotone(self, mock_env):
        suite, _, (admin_sk, _), _ = mock_env
        policies = [_policy("p1", "K1(a,b)", 3), _policy("p2", "K2(a,b)", 5)]
        compiled = compile_policies(policies, admin_sk, suite)

        def match_set(tags):
            return {
                p.id for p in compiled
                if _classify(mock_env, tags, [p]).matched_policy
            }

        tags = _tags(mock_env, "K1(a,b)")
        more = tags + _tags(mock_env, "K2(a,b)")
        assert match_set(tags) <= match_set(more)

    def test_classify_is_deterministic(self, mock_env):
        suite, _, (admin_sk, _), _ = mock_env
        compiled = compile_policies([MEDICAL], admin_sk, suite)
        tags = _tags(mock_env, "RecordedBy(Test,Nurse)")
        d1 = _classify(mock_env, tags, compiled, file_id="f")
        d2 = _classify(mock_env, tags, compiled, file_id="f")
        assert d1 == d2

    def test_unauthenticated_never_classified(self, mock_suite):
        rng = random.Random(3)
        admin_sk, admin_pub = keygen_admin(mock_suite, rng)
        registered_sk, registered_pk = keygen_user(mock_suite, rng)
        imposter_sk, imposter_pk = keygen_user(mock_suite, rng)
        compiled = compile_policies([MEDICAL], admin_sk, mock_suite)
        tags = [
            make_tag(mock_suite, admin_pub, imposter_sk,
                     b"RecordedBy(Test,Nurse)", rng)
        ]
        decision = classify(tags, registered_pk, admin_pub, compiled, mock_suite,
                            x=make_x(admin_pub, imposter_sk), rng=rng)
        assert decision.authenticated is False
        assert decision.matched_policy is None


class TestDecision:
    def test_unclassified_constructor(self):
        d = Decision.unclassified("f9")
        assert d.category == UNCLASSIFIED_CATEGORY
        assert d.storage_unit == DEFAULT_STORAGE_UNIT
        assert d.matched_policy is None
        assert d.authenticated
