"""Algebraic laws and serialization of the two bilinear suites."""

import os
import random

import pytest

from pbcap.errors import DecodeError, GroupMismatchError
from pbcap.pairing import Group, H2_BYTES, Scalar, bn256

BILINEARITY_DRAWS = {"mock": 100, "production": 100}


def _draws(suite):
    return BILINEARITY_DRAWS[suite.name]


def _mul_unreduced(pt, k):
    """[k]pt by double-and-add; unlike scalar_mul, k is not reduced mod the order."""
    r = bn256.G1_INF if isinstance(pt, bn256.PointG1) else bn256.G2_INF
    for bit in bin(k)[2:]:
        r = r.double()
        if bit == "1":
            r = r.add(pt)
    return r


def _unreduced_multiple_is_identity(e, k):
    if e.group is Group.T:
        return e.value.exp(k).is_one()
    return _mul_unreduced(e.value, k).is_infinity()


def _twist_point(rng):
    """A point on the twist with a random x; almost surely outside G2."""
    while True:
        x = bn256.Fp2(rng.randrange(bn256.P), rng.randrange(bn256.P))
        y = (x.square() * x + bn256.TWIST_B).sqrt()
        if y is not None:
            return bn256.PointG2(x, y)


def _random_pair(rng):
    """A (G1, G2) pair of random non-identity points; the G2 scalar is drawn first."""
    q = bn256.G2_GEN.scalar_mul(rng.randrange(1, bn256.ORDER))
    return bn256.G1_GEN.scalar_mul(rng.randrange(1, bn256.ORDER)), q


def _cyclotomic_elements(rng, n):
    """Miller-loop outputs raised to (p^6 - 1)(p^2 + 1): the easy part."""
    out = []
    for _ in range(n):
        f = bn256.miller_loop([_random_pair(rng)])
        t = f.conjugate() * f.inverse()
        out.append(t * t.frobenius_p2())
    return out


def _random_fp12(rng):
    def fp2():
        return bn256.Fp2(rng.randrange(bn256.P), rng.randrange(bn256.P))

    def fp6():
        return bn256.Fp6(fp2(), fp2(), fp2())

    return bn256.Fp12(fp6(), fp6())


def _schoolbook_fp12_mul(a, b):
    """Four Fp6 products: (ax*w + ay)(bx*w + by) with w^2 = tau."""
    return bn256.Fp12(a.x * b.y + a.y * b.x, a.y * b.y + (a.x * b.x).mul_tau())


class TestBilinearity:
    def test_non_degeneracy(self, any_suite):
        assert not any_suite.pair(any_suite.gen_a, any_suite.gen_b).is_identity()

    def test_bilinearity_random_exponents(self, any_suite, rng):
        s = any_suite
        base = s.pair(s.gen_a, s.gen_b)
        for _ in range(_draws(s)):
            a = rng.randrange(1, s.order)
            b = rng.randrange(1, s.order)
            assert s.pair(s.gen_a ** a, s.gen_b ** b) == base ** (a * b % s.order)

    def test_small_exponent_identity(self, any_suite):
        s = any_suite
        lhs = s.pair(s.gen_a ** 2, s.gen_b ** 3)
        assert lhs == s.pair(s.gen_a, s.gen_b) ** 6

    def test_identity_pairs_to_identity(self, any_suite, rng):
        s = any_suite
        y = s.gen_b ** rng.randrange(1, s.order)
        assert s.pair(s.identity(Group.A), y).is_identity()

    def test_group_mismatch_rejected(self, any_suite):
        s = any_suite
        with pytest.raises(GroupMismatchError):
            s.pair(s.gen_b, s.gen_b)
        with pytest.raises(GroupMismatchError):
            s.pair(s.gen_a, s.gen_a)


class TestPairsEqual:
    def test_agrees_with_two_pairings(self, any_suite, rng):
        s = any_suite
        a, b = rng.randrange(2, s.order), rng.randrange(2, s.order)
        inf_a, inf_b = s.identity(Group.A), s.identity(Group.B)
        cases = [
            (s.gen_a ** a, s.gen_b ** b, s.gen_a ** b, s.gen_b ** a),      # equal
            (s.gen_a ** a, s.gen_b ** b, s.gen_a ** b, s.gen_b ** (a + 1)),  # unequal
            (inf_a, s.gen_b ** b, s.gen_a ** a, inf_b),                     # both sides 1
            (inf_a, s.gen_b ** b, s.gen_a ** a, s.gen_b),                   # 1 vs not 1
            (s.gen_a ** a, s.gen_b, inf_a, inf_b),                          # not 1 vs 1
        ]
        for a1, b1, a2, b2 in cases:
            expected = s.pair(a1, b1) == s.pair(a2, b2)
            assert s.pairs_equal(a1, b1, a2, b2) is expected
        assert [s.pairs_equal(*c) for c in cases] == [True, False, True, False, False]

    def test_group_mismatch_rejected(self, any_suite):
        s = any_suite
        with pytest.raises(GroupMismatchError):
            s.pairs_equal(s.gen_a, s.gen_b, s.gen_b, s.gen_b)
        with pytest.raises(GroupMismatchError):
            s.pairs_equal(s.gen_a, s.gen_a, s.gen_a, s.gen_b)


class TestBn256Kernels:
    """Each fast kernel against the generic arithmetic it replaces."""

    def test_cyclotomic_square_matches_square(self):
        for t in _cyclotomic_elements(random.Random(21), 20):
            assert t.cyclotomic_square() == t.square()

    def test_karatsuba_mul_matches_schoolbook(self):
        rng = random.Random(22)
        for _ in range(50):
            a, b = _random_fp12(rng), _random_fp12(rng)
            assert a * b == _schoolbook_fp12_mul(a, b)

    def test_exp_u_matches_exp(self):
        for t in _cyclotomic_elements(random.Random(23), 3):
            assert t.exp_u() == t.exp(bn256.U)

    def test_shared_miller_loop_is_product_of_single_loops(self):
        rng = random.Random(24)
        for _ in range(3):
            a, b = _random_pair(rng), _random_pair(rng)
            assert bn256.miller_loop([a, b]) == bn256.miller_loop([a]) * bn256.miller_loop([b])

    def test_pairing_product_skips_infinity_pairs(self):
        p, q = _random_pair(random.Random(25))
        inverse = (p, q.neg())
        for pairs in ([(bn256.G1_INF, q), (p, q), inverse],
                      [(p, bn256.G2_INF), (p, q), inverse],
                      [(bn256.G1_INF, bn256.G2_INF)]):
            assert bn256.pairing_product_is_one(pairs)
        assert not bn256.pairing_product_is_one([(bn256.G1_INF, q), (p, q)])


class TestHashToGroupA:
    def test_deterministic(self, any_suite):
        a = any_suite.hash_to_group_a(b"RecordedBy(Test,Nurse)")
        b = any_suite.hash_to_group_a(b"RecordedBy(Test,Nurse)")
        assert a == b
        assert a.to_bytes() == b.to_bytes()

    def test_distinct_messages_distinct_points(self, any_suite):
        a = any_suite.hash_to_group_a(b"RecordedBy(Test,Nurse)")
        b = any_suite.hash_to_group_a(b"DiagnosedBy(Report,Doctor)")
        assert a.to_bytes() != b.to_bytes()

    def test_output_in_group_a(self, any_suite):
        e = any_suite.hash_to_group_a(b"anything")
        assert e.group is Group.A
        # must survive a strict decode (on curve, right subgroup)
        assert any_suite.element_from_bytes(Group.A, e.to_bytes()) == e

    def test_mock_hash_exposes_discrete_log(self, mock_suite):
        e = mock_suite.hash_to_group_a(b"RecordedBy(Test,Nurse)")
        d = mock_suite.discrete_log(e)
        assert mock_suite.gen_a ** d == e


class TestHashToBits:
    def test_deterministic_and_32_bytes(self, any_suite, rng):
        t = any_suite.pair(any_suite.gen_a, any_suite.gen_b) ** rng.randrange(1, any_suite.order)
        assert any_suite.hash_to_bits(t) == any_suite.hash_to_bits(t)
        assert len(any_suite.hash_to_bits(t)) == H2_BYTES

    def test_identity_digest_is_reproducible_constant(self, any_suite):
        t = any_suite.identity(Group.T)
        assert any_suite.hash_to_bits(t) == any_suite.hash_to_bits(any_suite.identity(Group.T))

    def test_no_collisions_over_many_draws(self, mock_suite, rng):
        base = mock_suite.pair(mock_suite.gen_a, mock_suite.gen_b)
        seen = set()
        for _ in range(10_000):
            t = base ** rng.randrange(1, mock_suite.order)
            seen.add(mock_suite.hash_to_bits(t))
        assert len(seen) == 10_000

    def test_rejects_source_group_elements(self, any_suite):
        with pytest.raises(GroupMismatchError):
            any_suite.hash_to_bits(any_suite.gen_a)


class TestRandomScalar:
    def test_never_zero(self, mock_suite):
        rng = random.Random(1)
        assert all(mock_suite.random_scalar(rng).value != 0 for _ in range(100_000))

    def test_in_range(self, any_suite, rng):
        for _ in range(1000):
            s = any_suite.random_scalar(rng)
            assert 1 <= s.value <= any_suite.order - 1

    def test_no_repeats_over_1000_draws(self, any_suite, rng):
        values = {any_suite.random_scalar(rng).value for _ in range(1000)}
        assert len(values) == 1000

    def test_seeded_sequence_reproducible(self, any_suite):
        seq1 = [any_suite.random_scalar(random.Random(42)).value for _ in range(1)]
        seq2 = [any_suite.random_scalar(random.Random(42)).value for _ in range(1)]
        a = random.Random(7)
        b = random.Random(7)
        assert [any_suite.random_scalar(a).value for _ in range(50)] == [
            any_suite.random_scalar(b).value for _ in range(50)
        ]
        assert seq1 == seq2

    def test_scalar_rejects_zero(self):
        with pytest.raises(ValueError):
            Scalar(0)


class TestSerialization:
    @pytest.mark.parametrize("group", [Group.A, Group.B, Group.T])
    def test_round_trip_random_elements(self, any_suite, rng, group):
        s = any_suite
        n = 100 if s.name == "mock" else 25
        if group is Group.T:
            gen = s.pair(s.gen_a, s.gen_b)
        else:
            gen = s.gen_a if group is Group.A else s.gen_b
        for _ in range(n):
            e = gen ** rng.randrange(1, s.order)
            assert s.element_from_bytes(group, e.to_bytes()) == e

    def test_equality_is_canonical_bytes_equality(self, any_suite, rng):
        k = rng.randrange(1, any_suite.order)
        a = any_suite.gen_a ** k
        b = any_suite.gen_a ** k
        assert a == b and a.to_bytes() == b.to_bytes()
        c = any_suite.gen_a ** (k + 1)
        assert a != c and a.to_bytes() != c.to_bytes()

    def test_random_bytes_rejected_or_in_subgroup(self, prod_suite):
        rng = random.Random(13)
        sizes = {Group.A: 33, Group.B: 65, Group.T: 384}
        for group, size in sizes.items():
            for _ in range(30):
                blob = bytes(rng.getrandbits(8) for _ in range(size))
                if group is not Group.T:  # a valid prefix, so decoding reaches the curve checks
                    blob = bytes([2 + (blob[0] & 1)]) + blob[1:]
                try:
                    e = prod_suite.element_from_bytes(group, blob)
                except DecodeError:
                    continue
                assert _unreduced_multiple_is_identity(e, prod_suite.order)

    def test_twist_point_outside_g2_rejected(self, prod_suite):
        pt = _twist_point(random.Random(14))
        assert pt.is_on_curve()
        with pytest.raises(DecodeError, match="subgroup"):
            prod_suite.element_from_bytes(Group.B, bn256.g2_to_bytes(pt))

    def test_g2_membership_agrees_with_unreduced_multiple(self):
        rng = random.Random(15)
        cofactor = 2 * bn256.P - bn256.ORDER  # the twist has n * (2p - n) points
        inside = [bn256.G2_GEN.scalar_mul(rng.randrange(1, bn256.ORDER)) for _ in range(2)]
        inside.append(_mul_unreduced(_twist_point(rng), cofactor))
        outside = [_twist_point(rng) for _ in range(2)]
        # a G2 point plus a point of order 13, a small factor of the cofactor
        small = bn256.G2_INF
        while small.is_infinity():
            small = _mul_unreduced(_twist_point(rng), bn256.ORDER * cofactor // 13)
        outside.append(inside[0].add(small))
        for pt in inside + outside:
            assert bn256.in_g2(pt) is _mul_unreduced(pt, bn256.ORDER).is_infinity()
        assert all(bn256.in_g2(pt) for pt in inside)
        assert not any(bn256.in_g2(pt) for pt in outside)

    def test_wrong_length_rejected(self, any_suite):
        with pytest.raises(DecodeError):
            any_suite.element_from_bytes(Group.A, b"\x01\x02\x03")


class TestMockVsProductionAgreement:
    """Every law checked on the mock holds on the production suite too."""

    def test_shared_identities(self, mock_suite, prod_suite, rng):
        for s in (mock_suite, prod_suite):
            e = s.pair(s.gen_a, s.gen_b)
            a, b = rng.randrange(2, 1000), rng.randrange(2, 1000)
            assert s.pair(s.gen_a ** a, s.gen_b ** b) == e ** (a * b)
            assert s.pair(s.gen_a ** a, s.gen_b) == s.pair(s.gen_a, s.gen_b ** a)
            assert (e ** s.order).is_identity()

    def test_only_mock_exposes_exponents(self, mock_suite, prod_suite):
        assert hasattr(mock_suite, "discrete_log")
        assert not hasattr(prod_suite, "discrete_log")
