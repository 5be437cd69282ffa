"""Key generation, tagging, trapdoors, and the two-equation test."""

import random

import pytest

from pbcap.errors import GroupMismatchError
from pbcap.pairing import Group
from pbcap.scheme import (
    AdminPublicKey,
    ClassificationTag,
    check_admin_key,
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
        admin_sk, admin_pub = keygen_admin(s, rng)
        assert s.pair(admin_pub.pk_a, s.gen_b) == s.pair(s.gen_a, admin_pub.pk_b)

    def test_admin_keys_distinct_across_runs(self, mock_suite, rng):
        keys = {keygen_admin(mock_suite, rng)[0] for _ in range(100)}
        assert len(keys) == 100

    def test_mock_recovers_admin_exponent(self, mock_suite, rng):
        admin_sk, admin_pub = keygen_admin(mock_suite, rng)
        assert mock_suite.discrete_log(admin_pub.pk_a) == admin_sk
        assert mock_suite.discrete_log(admin_pub.pk_b) == admin_sk

    def test_user_pk_matches_secret(self, mock_suite, rng):
        user_sk, user_pk = keygen_user(mock_suite, rng)
        assert mock_suite.discrete_log(user_pk) == user_sk
        assert mock_suite.gen_b ** user_sk == user_pk

    def test_tampered_public_key_rejected(self, mock_suite):
        """An admin public key whose pk_b comes from another key pair."""
        _, a = keygen_admin(mock_suite, random.Random(1))
        _, b = keygen_admin(mock_suite, random.Random(2))
        assert check_admin_key(mock_suite, a)
        assert not check_admin_key(mock_suite, AdminPublicKey(pk_a=a.pk_a, pk_b=b.pk_b))

    def test_user_pk_not_identity(self, any_suite, rng):
        assert not keygen_user(any_suite, rng)[1].is_identity()

    def test_user_pk_serialization_round_trip(self, any_suite, rng):
        user_sk, user_pk = keygen_user(any_suite, rng)
        raw = user_pk.to_bytes()
        assert any_suite.element_from_bytes(Group.B, raw) == user_pk


class TestTagAndTrapdoor:
    def test_matching_fragment_accepts(self, any_suite, rng):
        s = any_suite
        admin_sk, admin_pub = keygen_admin(s, rng)
        user_sk, user_pk = keygen_user(s, rng)
        tag = make_tag(s, admin_pub, user_sk, FRAGMENT, rng)
        trap = make_trapdoor(s, admin_sk, FRAGMENT)
        x = make_x(admin_pub, user_sk)
        assert (verify_authenticity(s, admin_pub, user_pk, x, rng)
                and matches_trapdoor(s, trap, tag)) is True

    def test_mismatched_fragment_rejects(self, any_suite, rng):
        s = any_suite
        admin_sk, admin_pub = keygen_admin(s, rng)
        user_sk, user_pk = keygen_user(s, rng)
        tag = make_tag(s, admin_pub, user_sk, FRAGMENT, rng)
        trap = make_trapdoor(s, admin_sk, OTHER)
        x = make_x(admin_pub, user_sk)
        assert (verify_authenticity(s, admin_pub, user_pk, x, rng)
                and matches_trapdoor(s, trap, tag)) is False

    def test_wrong_user_key_fails_authenticity(self, any_suite, rng):
        s = any_suite
        admin_sk, admin_pub = keygen_admin(s, rng)
        registered_sk, registered_pk = keygen_user(s, rng)
        imposter_sk, imposter_pk = keygen_user(s, rng)
        tag = make_tag(s, admin_pub, imposter_sk, FRAGMENT, rng)
        x = make_x(admin_pub, imposter_sk)
        assert not verify_authenticity(s, admin_pub, registered_pk, x, rng)
        trap = make_trapdoor(s, admin_sk, FRAGMENT)
        assert (verify_authenticity(s, admin_pub, registered_pk, x, rng)
                and matches_trapdoor(s, trap, tag)) is False

    def test_trapdoor_deterministic(self, any_suite, rng):
        s = any_suite
        admin_sk, admin_pub = keygen_admin(s, rng)
        t1 = make_trapdoor(s, admin_sk, FRAGMENT)
        t2 = make_trapdoor(s, admin_sk, FRAGMENT)
        assert t1.token == t2.token

    def test_trapdoors_distinct_for_distinct_fragments(self, any_suite, rng):
        s = any_suite
        admin_sk, admin_pub = keygen_admin(s, rng)
        assert make_trapdoor(s, admin_sk, FRAGMENT).token != make_trapdoor(s, admin_sk, OTHER).token

    def test_same_fragment_tags_differ_in_y_and_z(self, mock_suite):
        s = mock_suite
        rng = random.Random(99)
        admin_sk, admin_pub = keygen_admin(s, rng)
        user_sk, user_pk = keygen_user(s, rng)
        for _ in range(1000):
            t1 = make_tag(s, admin_pub, user_sk, FRAGMENT, rng)
            t2 = make_tag(s, admin_pub, user_sk, FRAGMENT, rng)
            assert t1.y != t2.y and t1.z != t2.z

    def test_tag_digest_length_enforced(self, mock_suite, rng):
        admin_sk, admin_pub = keygen_admin(mock_suite, rng)
        user_sk, user_pk = keygen_user(mock_suite, rng)
        tag = make_tag(mock_suite, admin_pub, user_sk, FRAGMENT, rng)
        with pytest.raises(ValueError):
            ClassificationTag(y=tag.y, z=b"short")

    def test_identity_tag_y_refused(self, any_suite):
        """e(token, 1) = 1 for every token, so an identity Y with z = H2(1)
        would match every trapdoor."""
        s = any_suite
        with pytest.raises(ValueError, match="identity"):
            ClassificationTag(y=s.identity(Group.B), z=s.hash_to_bits(s.identity(Group.T)))

    def test_mock_tag_target_exponent(self, mock_suite, rng):
        """Y carries beta*r and t carries alpha*beta*r*dlog(H1(P)) exactly."""
        s = mock_suite
        admin_sk, admin_pub = keygen_admin(s, rng)
        user_sk, user_pk = keygen_user(s, rng)

        class _OneShot:
            def __init__(self, v):
                self.v = v

            def randrange(self, lo, hi):
                return self.v

        r = 123456789
        tag = make_tag(s, admin_pub, user_sk, FRAGMENT, _OneShot(r))
        d = s.discrete_log(s.hash_to_group_a(FRAGMENT))
        expected = admin_sk * user_sk * r * d % s.order
        t = s.pair(s.hash_to_group_a(FRAGMENT) ** user_sk, admin_pub.pk_b ** r)
        assert s.discrete_log(t) == expected
        assert tag.z == s.hash_to_bits(t)
        assert s.discrete_log(tag.y) == user_sk * r % s.order

    def test_mock_trapdoor_exponent(self, mock_suite, rng):
        s = mock_suite
        admin_sk, admin_pub = keygen_admin(s, rng)
        trap = make_trapdoor(s, admin_sk, FRAGMENT)
        d = s.discrete_log(s.hash_to_group_a(FRAGMENT))
        assert s.discrete_log(trap.token) == admin_sk * d % s.order

    def test_trapdoor_carries_no_keyword_text(self, any_suite, rng):
        admin_sk, admin_pub = keygen_admin(any_suite, rng)
        trap = make_trapdoor(any_suite, admin_sk, FRAGMENT, keyword_slot="p/k0")
        assert FRAGMENT not in trap.token.to_bytes()
        assert trap.keyword_slot == "p/k0"

    def test_group_mismatch_is_error_not_false(self, any_suite, rng):
        s = any_suite
        admin_sk, admin_pub = keygen_admin(s, rng)
        user_sk, user_pk = keygen_user(s, rng)
        tag = make_tag(s, admin_pub, user_sk, FRAGMENT, rng)
        bad_trap = make_trapdoor(s, admin_sk, FRAGMENT)
        bad_trap = type(bad_trap)(token=tag.y, keyword_slot="")  # B element where A belongs
        with pytest.raises(GroupMismatchError):
            matches_trapdoor(s, bad_trap, tag)


class TestBulkProperties:
    def test_completeness_production_sample(self, prod_suite):
        rng = random.Random(5)
        admin_sk, admin_pub = keygen_admin(prod_suite, rng)
        user_sk, user_pk = keygen_user(prod_suite, rng)
        x = make_x(admin_pub, user_sk)
        for i in range(10):
            frag = f"EditedBy(Doc{i},Agent{i})".encode()
            tag = make_tag(prod_suite, admin_pub, user_sk, frag, rng)
            trap = make_trapdoor(prod_suite, admin_sk, frag)
            assert (verify_authenticity(prod_suite, admin_pub, user_pk, x, rng)
                    and matches_trapdoor(prod_suite, trap, tag))

    def test_soundness_production_sample(self, prod_suite):
        rng = random.Random(6)
        admin_sk, admin_pub = keygen_admin(prod_suite, rng)
        user_sk, user_pk = keygen_user(prod_suite, rng)
        tag = make_tag(prod_suite, admin_pub, user_sk, FRAGMENT, rng)
        for i in range(10):
            trap = make_trapdoor(prod_suite, admin_sk, f"Reviewed(D{i},A{i})".encode())
            assert not matches_trapdoor(prod_suite, trap, tag)

    def test_authenticity_replacing_x_fails(self, mock_suite):
        rng = random.Random(8)
        s = mock_suite
        admin_sk, admin_pub = keygen_admin(s, rng)
        user_sk, user_pk = keygen_user(s, rng)
        for _ in range(1000):
            beta_prime = s.random_scalar(rng)
            if beta_prime == user_sk:
                continue
            forged_x = admin_pub.pk_b ** beta_prime
            assert not verify_authenticity(s, admin_pub, user_pk, forged_x, rng)


class FixedRng:
    """An rng whose ``randrange`` returns ``value``, which must lie in the range asked for."""

    def __init__(self, value):
        self.value = value

    def randrange(self, start, stop):
        assert start <= self.value < stop, (start, self.value, stop)
        return self.value


class RecordingRng:
    """Forwards ``randrange`` to ``inner`` and records the arguments of each call."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def randrange(self, *args):
        self.calls.append(args)
        return self.inner.randrange(*args)


class TestMergedAuthenticity:
    """``verify_authenticity``: e(pk_a, g_b^delta * user_pk_b) == e(g_a, pk_b^delta * X).
    In the mock its two sides differ by the exponent
    delta*(alpha - alpha') + (alpha*beta - x), for pk_a = alpha, pk_b = alpha',
    user_pk_b = beta and X = x: it passes iff that is 0 mod n."""

    @pytest.fixture
    def keys(self, mock_suite):
        rng = random.Random(15)
        (_, admin_pub), (_, other_pub) = keygen_admin(mock_suite, rng), keygen_admin(mock_suite, rng)
        user_sk, user_pk = keygen_user(mock_suite, rng)
        return admin_pub, AdminPublicKey(pk_a=admin_pub.pk_a, pk_b=other_pub.pk_b), user_sk, user_pk, rng

    @staticmethod
    def _deltas(suite, rng):
        return [1, 2, 2 ** 60, suite.order - 1] + [rng.randrange(1, suite.order) for _ in range(20)]

    def test_one_delta_drawn_per_check(self, any_suite):
        """Each check draws one delta, uniform in [1, min(2^128, n))."""
        s = any_suite
        rng = random.Random(17)
        (admin_sk, admin_pub), (user_sk, user_pk) = keygen_admin(s, rng), keygen_user(s, rng)
        x = make_x(admin_pub, user_sk)
        recording = RecordingRng(rng)
        assert verify_authenticity(s, admin_pub, user_pk, x, recording)
        assert not verify_authenticity(s, admin_pub, user_pk, make_x(admin_pub, admin_sk), recording)
        assert recording.calls == [(1, min(2 ** 128, s.order))] * 2

    def test_bad_key_passes_at_one_delta(self, mock_suite, keys):
        """With X = pk_b^beta the exponent is (alpha - alpha')*(delta + beta):
        only delta = -beta mod n passes.  An X of the genuine alpha satisfies
        equation (1) alone, which is why the key needs checking, and fails
        every delta."""
        s = mock_suite
        _, bad, user_sk, user_pk, rng = keys
        beta = user_sk
        x = make_x(bad, user_sk)
        assert s.pair(s.gen_a, x) != s.pair(bad.pk_a, user_pk)
        assert verify_authenticity(s, bad, user_pk, x, FixedRng(s.order - beta))
        for delta in [s.order - beta - 1, s.order - beta + 1] + self._deltas(s, rng):
            assert not verify_authenticity(s, bad, user_pk, x, FixedRng(delta)), delta
        x_alpha = user_pk ** s.discrete_log(bad.pk_a)
        assert s.pair(s.gen_a, x_alpha) == s.pair(bad.pk_a, user_pk)
        for delta in self._deltas(s, rng):
            assert not verify_authenticity(s, bad, user_pk, x_alpha, FixedRng(delta)), delta

    def test_forged_x_fails_every_delta(self, mock_suite, keys):
        s = mock_suite
        admin_pub, _, user_sk, user_pk, rng = keys
        forged = make_x(admin_pub, user_sk + 1)
        for delta in self._deltas(s, rng):
            assert not verify_authenticity(s, admin_pub, user_pk, forged, FixedRng(delta)), delta

    def test_genuine_passes_every_delta(self, mock_suite, keys):
        s = mock_suite
        admin_pub, _, user_sk, user_pk, rng = keys
        x = make_x(admin_pub, user_sk)
        for delta in self._deltas(s, rng):
            assert verify_authenticity(s, admin_pub, user_pk, x, FixedRng(delta)), delta

    def test_production_random_delta(self, prod_suite):
        """A 128-bit delta on BN-256: the genuine pair passes, a mixed-exponent
        key and a forged X fail."""
        s = prod_suite
        rng = random.Random(16)
        (_, admin_pub), (_, other_pub) = keygen_admin(s, rng), keygen_admin(s, rng)
        user_sk, user_pk = keygen_user(s, rng)
        bad = AdminPublicKey(pk_a=admin_pub.pk_a, pk_b=other_pub.pk_b)
        delta = FixedRng(rng.randrange(1, 2 ** 128))
        assert verify_authenticity(s, admin_pub, user_pk, make_x(admin_pub, user_sk), delta)
        assert not verify_authenticity(s, bad, user_pk, make_x(bad, user_sk), delta)
        forged = make_x(admin_pub, user_sk + 1)
        assert not verify_authenticity(s, admin_pub, user_pk, forged, delta)
