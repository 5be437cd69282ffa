"""Key generation, tagging, trapdoors, and the two-equation test."""

import random

import pytest

from pbcap.errors import GroupMismatchError
from pbcap.pairing import Group, Scalar
from pbcap.scheme import (
    ClassificationTag,
    keygen_admin,
    keygen_user,
    make_tag,
    make_trapdoor,
    make_x,
    matches_trapdoor,
    verify_authenticity,
)

FRAGMENT = b"RecordedBy(Test,Nurse)"
OTHER = b"DiagnosedBy(Report,Doctor)"


class TestKeygen:
    def test_admin_dual_representation(self, any_suite, rng):
        s = any_suite
        admin = keygen_admin(s, rng)
        assert s.pair(admin.pk_a, s.gen_b) == s.pair(s.gen_a, admin.pk_b)

    def test_admin_keys_distinct_across_runs(self, mock_suite, rng):
        keys = {keygen_admin(mock_suite, rng).sk.value for _ in range(100)}
        assert len(keys) == 100

    def test_mock_recovers_admin_exponent(self, mock_suite, rng):
        admin = keygen_admin(mock_suite, rng)
        assert mock_suite.discrete_log(admin.pk_a) == admin.sk.value
        assert mock_suite.discrete_log(admin.pk_b) == admin.sk.value

    def test_user_pk_matches_secret(self, mock_suite, rng):
        user = keygen_user(mock_suite, rng)
        assert mock_suite.discrete_log(user.pk_b) == user.sk.value
        assert mock_suite.gen_b ** user.sk == user.pk_b

    def test_user_pk_not_identity(self, any_suite, rng):
        assert not keygen_user(any_suite, rng).pk_b.is_identity()

    def test_user_pk_serialization_round_trip(self, any_suite, rng):
        user = keygen_user(any_suite, rng)
        raw = user.pk_b.to_bytes()
        assert any_suite.element_from_bytes(Group.B, raw) == user.pk_b


class TestTagAndTrapdoor:
    def test_matching_fragment_accepts(self, any_suite, rng):
        s = any_suite
        admin = keygen_admin(s, rng)
        user = keygen_user(s, rng)
        tag = make_tag(s, admin.public, user.sk, FRAGMENT, rng)
        trap = make_trapdoor(s, admin.sk, FRAGMENT)
        x = make_x(admin.public, user.sk)
        assert (verify_authenticity(s, admin.public, user.public, x)
                and matches_trapdoor(s, trap, tag)) is True

    def test_mismatched_fragment_rejects(self, any_suite, rng):
        s = any_suite
        admin = keygen_admin(s, rng)
        user = keygen_user(s, rng)
        tag = make_tag(s, admin.public, user.sk, FRAGMENT, rng)
        trap = make_trapdoor(s, admin.sk, OTHER)
        x = make_x(admin.public, user.sk)
        assert (verify_authenticity(s, admin.public, user.public, x)
                and matches_trapdoor(s, trap, tag)) is False

    def test_wrong_user_key_fails_authenticity(self, any_suite, rng):
        s = any_suite
        admin = keygen_admin(s, rng)
        registered = keygen_user(s, rng)
        imposter = keygen_user(s, rng)
        tag = make_tag(s, admin.public, imposter.sk, FRAGMENT, rng)
        x = make_x(admin.public, imposter.sk)
        assert not verify_authenticity(s, admin.public, registered.public, x)
        trap = make_trapdoor(s, admin.sk, FRAGMENT)
        assert (verify_authenticity(s, admin.public, registered.public, x)
                and matches_trapdoor(s, trap, tag)) is False

    def test_trapdoor_deterministic(self, any_suite, rng):
        s = any_suite
        admin = keygen_admin(s, rng)
        t1 = make_trapdoor(s, admin.sk, FRAGMENT)
        t2 = make_trapdoor(s, admin.sk, FRAGMENT)
        assert t1.token == t2.token

    def test_trapdoors_distinct_for_distinct_fragments(self, any_suite, rng):
        s = any_suite
        admin = keygen_admin(s, rng)
        assert make_trapdoor(s, admin.sk, FRAGMENT).token != make_trapdoor(s, admin.sk, OTHER).token

    def test_same_fragment_tags_differ_in_y_and_z(self, mock_suite):
        s = mock_suite
        rng = random.Random(99)
        admin = keygen_admin(s, rng)
        user = keygen_user(s, rng)
        for _ in range(1000):
            t1 = make_tag(s, admin.public, user.sk, FRAGMENT, rng)
            t2 = make_tag(s, admin.public, user.sk, FRAGMENT, rng)
            assert t1.y != t2.y and t1.z != t2.z

    def test_tag_digest_length_enforced(self, mock_suite, rng):
        admin = keygen_admin(mock_suite, rng)
        user = keygen_user(mock_suite, rng)
        tag = make_tag(mock_suite, admin.public, user.sk, FRAGMENT, rng)
        with pytest.raises(ValueError):
            ClassificationTag(y=tag.y, z=b"short")

    def test_mock_tag_target_exponent(self, mock_suite, rng):
        """Y carries beta*r and t carries alpha*beta*r*dlog(H1(P)) exactly."""
        s = mock_suite
        admin = keygen_admin(s, rng)
        user = keygen_user(s, rng)

        class _OneShot:
            def __init__(self, v):
                self.v = v

            def randrange(self, lo, hi):
                return self.v

        r = 123456789
        tag = make_tag(s, admin.public, user.sk, FRAGMENT, _OneShot(r))
        d = s.discrete_log(s.hash_to_group_a(FRAGMENT))
        expected = admin.sk.value * user.sk.value * r * d % s.order
        t = s.pair(s.hash_to_group_a(FRAGMENT) ** user.sk, admin.pk_b ** r)
        assert s.discrete_log(t) == expected
        assert tag.z == s.hash_to_bits(t)
        assert s.discrete_log(tag.y) == user.sk.value * r % s.order

    def test_mock_trapdoor_exponent(self, mock_suite, rng):
        s = mock_suite
        admin = keygen_admin(s, rng)
        trap = make_trapdoor(s, admin.sk, FRAGMENT)
        d = s.discrete_log(s.hash_to_group_a(FRAGMENT))
        assert s.discrete_log(trap.token) == admin.sk.value * d % s.order

    def test_trapdoor_carries_no_keyword_text(self, any_suite, rng):
        admin = keygen_admin(any_suite, rng)
        trap = make_trapdoor(any_suite, admin.sk, FRAGMENT, keyword_slot="p/k0")
        assert FRAGMENT not in trap.token.to_bytes()
        assert trap.keyword_slot == "p/k0"

    def test_group_mismatch_is_error_not_false(self, any_suite, rng):
        s = any_suite
        admin = keygen_admin(s, rng)
        user = keygen_user(s, rng)
        tag = make_tag(s, admin.public, user.sk, FRAGMENT, rng)
        bad_trap = make_trapdoor(s, admin.sk, FRAGMENT)
        bad_trap = type(bad_trap)(token=tag.y, keyword_slot="")  # B element where A belongs
        with pytest.raises(GroupMismatchError):
            matches_trapdoor(s, bad_trap, tag)


class TestBulkProperties:
    def test_completeness_production_sample(self, prod_suite):
        rng = random.Random(5)
        admin = keygen_admin(prod_suite, rng)
        user = keygen_user(prod_suite, rng)
        x = make_x(admin.public, user.sk)
        for i in range(10):
            frag = f"EditedBy(Doc{i},Agent{i})".encode()
            tag = make_tag(prod_suite, admin.public, user.sk, frag, rng)
            trap = make_trapdoor(prod_suite, admin.sk, frag)
            assert (verify_authenticity(prod_suite, admin.public, user.public, x)
                    and matches_trapdoor(prod_suite, trap, tag))

    def test_soundness_production_sample(self, prod_suite):
        rng = random.Random(6)
        admin = keygen_admin(prod_suite, rng)
        user = keygen_user(prod_suite, rng)
        tag = make_tag(prod_suite, admin.public, user.sk, FRAGMENT, rng)
        for i in range(10):
            trap = make_trapdoor(prod_suite, admin.sk, f"Reviewed(D{i},A{i})".encode())
            assert not matches_trapdoor(prod_suite, trap, tag)

    def test_authenticity_replacing_x_fails(self, mock_suite):
        rng = random.Random(8)
        s = mock_suite
        admin = keygen_admin(s, rng)
        user = keygen_user(s, rng)
        for _ in range(1000):
            beta_prime = s.random_scalar(rng)
            if beta_prime.value == user.sk.value:
                continue
            forged_x = admin.pk_b ** beta_prime
            assert not verify_authenticity(s, admin.public, user.public, forged_x)
