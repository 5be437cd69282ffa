"""Algebraic laws and serialization of the two bilinear suites."""

import os
import random

import pytest

from pbcap.errors import DecodeError, GroupMismatchError
from pbcap.pairing import Group, H2_BYTES, Scalar, bn256, curve, tower

BILINEARITY_DRAWS = {"mock": 100, "production": 100}


def _draws(suite):
    return BILINEARITY_DRAWS[suite.name]


def _mul_unreduced(pt, k):
    """[k]pt by double-and-add; unlike scalar_mul, k is not reduced mod the order."""
    r = curve.G1_INF if isinstance(pt, curve.PointG1) else curve.G2_INF
    for bit in bin(k)[2:]:
        r = r.double()
        if bit == "1":
            r = r.add(pt)
    return r


TWIST_COFACTOR = 2 * tower.P - curve.ORDER  # the twist has n * (2p - n) points


def _twist_point(rng):
    """A point on the twist with a random x; almost surely outside G2."""
    while True:
        x = tower.Fp2(rng.randrange(tower.P), rng.randrange(tower.P))
        y = (x.square() * x + curve.TWIST_B).sqrt()
        if y is not None:
            return curve.PointG2(x, y)


def _order_13_point(rng):
    """A twist point of order 13, a small factor of the cofactor."""
    small = curve.G2_INF
    while small.is_infinity():
        small = _mul_unreduced(_twist_point(rng), curve.ORDER * TWIST_COFACTOR // 13)
    return small


def _random_pair(rng):
    """A (G1, G2) pair of random non-identity points; the G2 scalar is drawn first."""
    q = curve.G2_GEN.scalar_mul(rng.randrange(1, curve.ORDER))
    return curve.G1_GEN.scalar_mul(rng.randrange(1, curve.ORDER)), q


def _prepared(pair):
    """A (P, Q) pair as the (P, lines) pair ``bn256.miller_loop`` evaluates."""
    p, q = pair
    return p, bn256.g2_lines(q)


def _cyclotomic_elements(rng, n):
    """Miller-loop outputs raised to (p^6 - 1)(p^2 + 1): the easy part."""
    out = []
    for _ in range(n):
        f = bn256.miller_loop([_prepared(_random_pair(rng))])
        t = f.conjugate() * f.inverse()
        out.append(t * t.frobenius_p2())
    return out


def _fp12_from_ints(c):
    """The element with coefficients c, in ``gt_to_bytes`` order."""
    fp2s = [tower.Fp2(c[i], c[i + 1]) for i in range(0, 12, 2)]
    return tower.Fp12(tower.Fp6(*fp2s[:3]), tower.Fp6(*fp2s[3:]))


def _random_fp12(rng):
    return _fp12_from_ints([rng.randrange(tower.P) for _ in range(12)])


def _edge_fp12s():
    """Every coefficient 0, every one p - 1, and mixes of 0, 1 and p - 1:
    where an unreduced sum is largest, or cancels to exactly 0 or P."""
    top = tower.P - 1
    patterns = [[0] * 12, [top] * 12, [0, top] * 6, [top, 0] * 6, [top, 1] * 6,
                [top] * 6 + [0] * 6, [0] * 6 + [top] * 6, [1] + [0] * 11]
    return [_fp12_from_ints(c) for c in patterns]


def _edge_fp2s():
    top = tower.P - 1
    return [tower.Fp2(x, y) for x in (0, 1, top) for y in (0, 1, top)]


def _schoolbook_fp12_mul(a, b):
    """Four Fp6 products: (ax*w + ay)(bx*w + by) with w^2 = tau."""
    return tower.Fp12(a.x * b.y + a.y * b.x, a.y * b.y + (a.x * b.x).mul_tau())


# The class formulas the fused kernels of ``tower`` replaced, kept as their
# references: same algorithms, an Fp2/Fp6 object and a reduction per step.

def _reference_fp12_mul(a, b):
    """Karatsuba over w: three Fp6 products."""
    axbx = a.x * b.x
    ayby = a.y * b.y
    tx = (a.x + a.y) * (b.x + b.y) - axbx - ayby
    return tower.Fp12(tx, ayby + axbx.mul_tau())


def _reference_square(a):
    v0 = a.x * a.y
    t = a.x.mul_tau() + a.y
    ty = (a.x + a.y) * t - v0 - v0.mul_tau()
    return tower.Fp12(v0 + v0, ty)


def _fp4_square(a, b):
    """(a + b*s)^2 in F_p2[s]/(s^2 - xi), as its two coefficients."""
    a2 = a.square()
    b2 = b.square()
    return b2.mul_xi() + a2, (a + b).square() - a2 - b2


def _reference_cyclotomic_square(f):
    """Granger-Scott: (3a^2 - 2a', 3s*c^2 + 2b', 3b^2 - 2c') over F_p4."""
    a2, a3 = _fp4_square(f.y.z, f.x.y)
    b2, b3 = _fp4_square(f.x.z, f.y.x)
    c2, c3 = _fp4_square(f.y.y, f.x.x)
    c3 = c3.mul_xi()
    # coefficients of w^0 .. w^5: y.z, x.z, y.y, x.y, y.x, x.x
    y_z = a2.double() + a2 - f.y.z.double()
    x_y = a3.double() + a3 + f.x.y.double()
    x_z = c3.double() + c3 + f.x.z.double()
    y_x = c2.double() + c2 - f.y.x.double()
    y_y = b2.double() + b2 - f.y.y.double()
    x_x = b3.double() + b3 + f.x.x.double()
    return tower.Fp12(tower.Fp6(x_x, x_y, x_z), tower.Fp6(y_x, y_y, y_z))


def _mul_linear(g, a, b):
    """g * (a*tau + b) in five Fp2 products, where a full Fp6 product takes six."""
    ya = g.y * a
    zb = g.z * b
    return tower.Fp6(g.x * b + ya, (g.y + g.z) * (a + b) - ya - zb, (g.x * a).mul_xi() + zb)


def _reference_mul_line(f, a, b, c):
    """f * ((a*tau + b)*w + c): Karatsuba over w with both Fp6 products sparse."""
    t1 = _mul_linear(f.x, a, b)
    t3 = tower.Fp6(f.y.x * c, f.y.y * c, f.y.z * c)
    fx = _mul_linear(f.x + f.y, a, b + c) - t1 - t3
    return tower.Fp12(fx, t3 + t1.mul_tau())


# The Fp2-object point and line formulas the int formulas of ``bn256``
# replaced, kept as their references: same algorithms, an Fp2 object and a
# reduction per step.

def _reference_double(t):
    """dbl-2009-l."""
    a = t.x.square()
    b = t.y.square()
    c = b.square()
    d = ((t.x + b).square() - a - c).double()
    e = a.double() + a
    f = e.square()
    c8 = c.double().double().double()
    x3 = f - d.double()
    y3 = e * (d - x3) - c8
    z3 = (t.y * t.z).double()
    return curve.PointG2(x3, y3, z3)


def _reference_add(t, q):
    """add-2007-bl; P + P takes the doubling."""
    if t.is_infinity():
        return q
    if q.is_infinity():
        return t
    z1z1 = t.z.square()
    z2z2 = q.z.square()
    u1 = t.x * z2z2
    u2 = q.x * z1z1
    s1 = t.y * q.z * z2z2
    s2 = q.y * t.z * z1z1
    h = u2 - u1
    r = s2 - s1
    if h.is_zero() and r.is_zero():
        return _reference_double(t)
    r = r.double()
    i = h.square().double().double()
    j = h * i
    v = u1 * i
    x3 = r.square() - j - v.double()
    y3 = r * (v - x3) - (s1 * j).double()
    z3 = ((t.z + q.z).square() - z1z1 - z2z2) * h
    return curve.PointG2(x3, y3, z3)


def _reference_psi(q):
    return curve.PointG2(q.x.conjugate() * tower.XI1[1], q.y.conjugate() * tower.XI1[2], q.z.conjugate())


def _reference_tangent(t):
    zz = t.z.square()
    xx = t.x.square()
    t2 = _reference_double(t)
    return t2, ((xx * t.x).mul_int(6) - t.y.square().double().double(),
                (xx * zz).mul_int(6).neg(), (t2.z * zz).double())


def _reference_chord(t, q):
    r = (q.y * t.z * t.z.square() - t.y).double()
    t = _reference_add(t, q)
    return t, ((r * q.x - q.y * t.z).double(), r.double().neg(), t.z.double())


def _line_ints(a, b, c):
    """A line of Fp2 coefficients as the six ints of a ``g2_lines`` entry."""
    return a.x, a.y, b.x, b.y, c.x, c.y


def _jacobian(pt):
    """The raw coordinates: equal only if every int is equal, so a
    coordinate outside [0, p) also fails."""
    return pt.x.x, pt.x.y, pt.y.x, pt.y.y, pt.z.x, pt.z.y


def _rescaled(pt, lam):
    """The same point in other Jacobian coordinates: (lam^2 x, lam^3 y, lam z)."""
    lam2 = lam.square()
    return curve.PointG2(pt.x * lam2, pt.y * lam2 * lam, pt.z * lam)


def _lockstep_ladder(q, k):
    """[k]q by double-and-add, each step checked against the references."""
    r = curve.G2_INF
    for bit in bin(k)[2:]:
        d = r.double()
        assert _jacobian(d) == _jacobian(_reference_double(r))
        r = d
        if bit == "1":
            s = r.add(q)
            assert _jacobian(s) == _jacobian(_reference_add(r, q))
            r = s
    return r


def _on_twist(pt):
    """Whether a point satisfies the twist equation y^2 = x^3 + b'."""
    if pt.is_infinity():
        return True
    x, y = pt.affine()
    return y.square() == x.square() * x + curve.TWIST_B


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

    def test_kept_table_pairs_like_a_fresh_copy(self, prod_suite, rng):
        """A group-B element keeps its line table after its first pairing;
        later pairings through that table equal those of a freshly decoded
        copy, which builds its own."""
        s = prod_suite
        y = s.gen_b ** rng.randrange(1, s.order)
        for _ in range(2):
            x = s.gen_a ** rng.randrange(1, s.order)
            copy = s.element_from_bytes(Group.B, y.to_bytes())
            assert s.pair(x, y).to_bytes() == s.pair(x, copy).to_bytes()
            assert y.lines is not None and copy.lines is not y.lines


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

    def test_sparse_line_product_matches_full_product(self):
        """``_mul_line`` against the full Fp12 product with the line
        ((a*tau + b*px)*w + c*py), on real table entries and a real P."""
        rng = random.Random(27)
        p, q = _random_pair(rng)
        px, py = p.affine()
        zero = tower.FP2_ZERO
        for group in bn256.g2_lines(q)[::8]:
            for line in group:
                ai, ar, bi, br, ci, cr = line
                a, b, c = tower.Fp2(ai, ar), tower.Fp2(bi, br).mul_int(px), tower.Fp2(ci, cr).mul_int(py)
                f = _random_fp12(rng)
                full = tower.Fp12(tower.Fp6(zero, a, b), tower.Fp6(zero, zero, c))
                assert tower._mul_line(f, line, px, py) == f * full

    # Each fused kernel against its class reference.  Equality reads raw
    # ints, so it also checks that every output coefficient is in [0, p).

    def test_fused_mul_matches_reference(self):
        rng = random.Random(28)
        elements = _edge_fp12s() + [_random_fp12(rng) for _ in range(12)]
        for a in elements:
            for b in elements:
                assert a * b == _reference_fp12_mul(a, b)

    def test_fused_square_matches_reference_and_product(self):
        rng = random.Random(29)
        for a in _edge_fp12s() + [_random_fp12(rng) for _ in range(30)]:
            assert a.square() == _reference_square(a)
            assert a.square() == a * a

    def test_fused_cyclotomic_square_matches_reference(self):
        """On post-easy-part elements, where the kernel squares, and on the
        edge elements, where it is only a formula but must still agree."""
        for t in _cyclotomic_elements(random.Random(30), 5) + _edge_fp12s():
            assert t.cyclotomic_square() == _reference_cyclotomic_square(t)

    def test_fused_mul_line_matches_reference(self):
        """Real table entries evaluated at a real P, and edge coefficients
        evaluated at edge and random coordinates."""
        rng = random.Random(31)
        p, q = _random_pair(rng)
        cases = [(line, *p.affine()) for group in bn256.g2_lines(q)[::16] for line in group]
        edges = _edge_fp2s()
        lines = list(zip(edges, edges[::-1], edges[3:] + edges[:3])) + [(e, e, e) for e in edges]
        coords = [(0, 0), (1, tower.P - 1), (tower.P - 1, 1), (rng.randrange(tower.P), rng.randrange(tower.P))]
        cases += [(_line_ints(*line), px, py) for line in lines for px, py in coords]
        for f in _edge_fp12s() + [_random_fp12(rng) for _ in range(4)]:
            for line, px, py in cases:
                ai, ar, bi, br, ci, cr = line
                expected = _reference_mul_line(f, tower.Fp2(ai, ar), tower.Fp2(bi, br).mul_int(px),
                                               tower.Fp2(ci, cr).mul_int(py))
                assert tower._mul_line(f, line, px, py) == expected

    def test_exp_u_matches_exp(self):
        for t in _cyclotomic_elements(random.Random(23), 3):
            assert t.exp_u() == t.exp(tower.U)

    def test_shared_miller_loop_is_product_of_single_loops(self):
        rng = random.Random(24)
        for _ in range(3):
            a, b = _random_pair(rng), _random_pair(rng)
            a, b = _prepared(a), _prepared(b)
            assert bn256.miller_loop([a, b]) == bn256.miller_loop([a]) * bn256.miller_loop([b])

    def test_pairing_product_skips_infinity_pairs(self):
        p, q = _random_pair(random.Random(25))
        inverse = (p, q.neg())
        for pairs in ([(curve.G1_INF, q), (p, q), inverse],
                      [(p, curve.G2_INF), (p, q), inverse],
                      [(curve.G1_INF, curve.G2_INF)]):
            assert bn256.pairing_product_is_one(pairs)
        assert not bn256.pairing_product_is_one([(curve.G1_INF, q), (p, q)])

    def test_gls_scalar_mul_matches_plain_ladder(self):
        """G2 points, with the split k = a*6u^2 + b at its edges and random k."""
        rng = random.Random(26)
        lam = curve.PSI_EIGENVALUE
        edges = [0, 1, 2, curve.ORDER - 1, lam - 1, lam, lam + 1, tower.U]
        points = [curve.G2_GEN] + [_mul_unreduced(_twist_point(rng), TWIST_COFACTOR)
                                   for _ in range(2)]
        for q in points:
            for k in edges + [rng.randrange(curve.ORDER) for _ in range(7)]:
                assert q.scalar_mul(k) == _mul_unreduced(q, k)

    def test_gls_scalar_mul_outside_g2_below_psi_eigenvalue(self):
        """in_g2 multiplies unchecked twist points by u < 6u^2, where psi is
        never added.  On an order-13 point the ladder's accumulator meets
        -Q (k = 13) and +Q (k = 15) before the add."""
        rng = random.Random(27)
        small = _order_13_point(rng)
        for q in (_twist_point(rng), _twist_point(rng), small):
            for k in (tower.U, 2 * tower.U, curve.PSI_EIGENVALUE - 1):
                assert q.scalar_mul(k) == _mul_unreduced(q, k)
        assert small.scalar_mul(13).is_infinity()
        assert small.scalar_mul(15) == small.double()


class TestG2Formulas:
    """The int point and line formulas against their Fp2-object references.
    ``_jacobian`` compares raw coordinates, so each case also checks that
    every output int lies in [0, p)."""

    def _points(self, rng):
        """G2 points with z != 1, unchecked twist points, and coordinate
        triples off the curve with every int 0, 1 or p - 1: the formulas
        are polynomials and must agree on any input."""
        g2 = [curve.G2_GEN.scalar_mul(rng.randrange(1, curve.ORDER)) for _ in range(4)]
        assert all(not pt.z.is_one() for pt in g2)
        twist = [_twist_point(rng) for _ in range(2)]
        twist += [pt.double() for pt in twist]
        edges = _edge_fp2s()
        off_curve = [curve.PointG2(a, b, c) for a, b, c in zip(edges, edges[::-1], edges[2:] + edges[:2])]
        return [curve.G2_GEN] + g2 + twist + off_curve

    def test_double_matches_reference(self):
        for pt in self._points(random.Random(41)) + [curve.G2_INF]:
            assert _jacobian(pt.double()) == _jacobian(_reference_double(pt))

    def test_add_matches_reference(self):
        rng = random.Random(42)
        points = self._points(rng)
        for a in points:
            for b in points:
                assert _jacobian(a.add(b)) == _jacobian(_reference_add(a, b))

    def test_add_edge_cases_match_reference(self):
        """P + P (the doubling branch, also across two Jacobian forms of P),
        P + (-P) (infinity), and either operand at infinity."""
        rng = random.Random(43)
        inf = curve.G2_INF
        for pt in self._points(rng)[:8]:
            lam = tower.Fp2(rng.randrange(1, tower.P), rng.randrange(tower.P))
            other = _rescaled(pt, lam)
            assert _jacobian(other) != _jacobian(pt)
            for a, b in ((pt, pt), (pt, other), (pt, pt.neg()), (pt, other.neg()), (pt, inf), (inf, pt)):
                assert _jacobian(a.add(b)) == _jacobian(_reference_add(a, b))
            assert _jacobian(pt.add(pt)) == _jacobian(pt.double())
            assert pt.add(other.neg()).is_infinity()
        assert _jacobian(inf.add(inf)) == _jacobian(_reference_add(inf, inf))

    def test_ladder_on_points_outside_g2_matches_reference(self):
        """``in_g2`` runs [u]Q on unchecked points.  On an order-13 point the
        accumulator meets -Q (k = 13) and +Q (k = 15) before the add."""
        rng = random.Random(44)
        for q in (_twist_point(rng), _twist_point(rng)):
            assert not curve.in_g2(q)
            _lockstep_ladder(q, tower.U)
        small = _order_13_point(rng)
        assert _lockstep_ladder(small, 13).is_infinity()
        assert _lockstep_ladder(small, 15) == small.double()

    def test_psi_matches_reference(self):
        for pt in self._points(random.Random(45)) + [curve.G2_INF]:
            assert _jacobian(curve.psi(pt)) == _jacobian(_reference_psi(pt))

    def test_tangent_and_chord_match_reference(self):
        """On arbitrary points T and affine Q, the next T and the line."""
        rng = random.Random(46)
        points = self._points(rng)
        for t in points:
            t2, line = bn256._tangent(t)
            r2, ref = _reference_tangent(t)
            assert _jacobian(t2) == _jacobian(r2) and line == _line_ints(*ref)
            for q in points:
                q = curve.PointG2(q.x, q.y)
                t2, line = bn256._chord(t, q)
                r2, ref = _reference_chord(t, q)
                assert _jacobian(t2) == _jacobian(r2) and line == _line_ints(*ref)


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
    @pytest.mark.parametrize("group", [Group.A, Group.B])
    def test_round_trip_random_elements(self, any_suite, rng, group):
        s = any_suite
        n = 100 if s.name == "mock" else 25
        gen = s.gen_a if group is Group.A else s.gen_b
        for _ in range(n):
            e = gen ** rng.randrange(1, s.order)
            assert s.element_from_bytes(group, e.to_bytes()) == e

    def test_target_group_is_never_decoded(self, any_suite):
        """GT is encoded only as the H2 input; no file carries it."""
        t = any_suite.pair(any_suite.gen_a, any_suite.gen_b)
        with pytest.raises(DecodeError, match="never decoded"):
            any_suite.element_from_bytes(Group.T, t.to_bytes())

    def test_equality_is_canonical_bytes_equality(self, any_suite, rng):
        k = rng.randrange(1, any_suite.order)
        a = any_suite.gen_a ** k
        b = any_suite.gen_a ** k
        assert a == b and a.to_bytes() == b.to_bytes()
        c = any_suite.gen_a ** (k + 1)
        assert a != c and a.to_bytes() != c.to_bytes()

    def test_random_bytes_rejected_or_in_subgroup(self, prod_suite):
        rng = random.Random(13)
        sizes = {Group.A: 33, Group.B: 65}
        for group, size in sizes.items():
            for _ in range(30):
                blob = bytes(rng.getrandbits(8) for _ in range(size))
                # a valid prefix, so decoding reaches the curve checks
                blob = bytes([2 + (blob[0] & 1)]) + blob[1:]
                try:
                    e = prod_suite.element_from_bytes(group, blob)
                except DecodeError:
                    continue
                assert _mul_unreduced(e.value, prod_suite.order).is_infinity()

    def test_twist_point_outside_g2_rejected(self, prod_suite):
        pt = _twist_point(random.Random(14))
        assert _on_twist(pt)
        with pytest.raises(DecodeError, match="subgroup"):
            prod_suite.element_from_bytes(Group.B, bn256.g2_to_bytes(pt))

    def test_g2_membership_agrees_with_unreduced_multiple(self):
        rng = random.Random(15)
        inside = [curve.G2_GEN.scalar_mul(rng.randrange(1, curve.ORDER)) for _ in range(2)]
        inside.append(_mul_unreduced(_twist_point(rng), TWIST_COFACTOR))
        outside = [_twist_point(rng) for _ in range(2)]
        outside.append(inside[0].add(_order_13_point(rng)))
        for pt in inside + outside:
            assert curve.in_g2(pt) is _mul_unreduced(pt, curve.ORDER).is_infinity()
        assert all(curve.in_g2(pt) for pt in inside)
        assert not any(curve.in_g2(pt) for pt in outside)

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
