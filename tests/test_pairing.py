"""Algebraic laws and serialization of the two bilinear suites."""

import hashlib
import os
import platform
import random

import pytest

from pbcap.errors import DecodeError, GroupMismatchError
from pbcap.pairing import Bn256Suite, Group, H2_BYTES, MockSuite, bn256, curve, get_suite, tower
from pbcap.scheme import check_admin_key, keygen_admin, keygen_user, make_x, verify_authenticity

P = tower.P
BILINEARITY_DRAWS = {"mock": 100, "production": 100}


# F_p2 and F_p6 as the classes the int helpers and kernels of ``tower``
# replaced, kept as the references the tests compare them with: one object
# and one reduction per step.

class Fp2:
    """F_p[i] / (i^2 + 1), represented as x*i + y."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    def __eq__(self, other):
        return self.x == other.x and self.y == other.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def conjugate(self) -> "Fp2":
        return Fp2(-self.x % P, self.y)

    def neg(self) -> "Fp2":
        return Fp2(-self.x % P, -self.y % P)

    def __add__(self, other):
        return Fp2((self.x + other.x) % P, (self.y + other.y) % P)

    def __sub__(self, other):
        return Fp2((self.x - other.x) % P, (self.y - other.y) % P)

    def double(self) -> "Fp2":
        return Fp2(self.x * 2 % P, self.y * 2 % P)

    def __mul__(self, other):
        # Karatsuba
        vy = self.y * other.y
        vx = self.x * other.x
        c0 = (vy - vx) % P
        c1 = ((self.x + self.y) * (other.x + other.y) - vy - vx) % P
        return Fp2(c1, c0)

    def mul_int(self, k: int) -> "Fp2":
        return Fp2(self.x * k % P, self.y * k % P)

    def mul_xi(self) -> "Fp2":
        # multiply by xi = i + 3
        return Fp2((self.x * 3 + self.y) % P, (self.y * 3 - self.x) % P)

    def square(self) -> "Fp2":
        ty = (self.y - self.x) * (self.y + self.x) % P
        tx = 2 * self.x * self.y % P
        return Fp2(tx, ty)

    def inverse(self) -> "Fp2":
        t = tower.fp_inv((self.x * self.x + self.y * self.y) % P)
        return Fp2(-self.x * t % P, self.y * t % P)


class Fp6:
    """Cubic extension of Fp2: x*tau^2 + y*tau + z with tau^3 = xi."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: Fp2, y: Fp2, z: Fp2):
        self.x = x
        self.y = y
        self.z = z

    def __add__(self, other):
        return Fp6(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Fp6(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, other):
        # Algorithm 13, eprint 2010/354
        t0 = self.z * other.z
        t1 = self.y * other.y
        t2 = self.x * other.x

        tz = (self.x + self.y) * (other.x + other.y)
        tz = (tz - t1 - t2).mul_xi() + t0

        ty = (self.y + self.z) * (other.y + other.z)
        ty = ty - t0 - t1 + t2.mul_xi()

        tx = (self.x + self.z) * (other.x + other.z)
        tx = tx - t0 + t1 - t2

        return Fp6(tx, ty, tz)

    def mul_tau(self) -> "Fp6":
        return Fp6(self.y, self.z, self.x.mul_xi())

    def inverse(self) -> "Fp6":
        # Algorithm 17, eprint 2010/354 (with the sign fix on C)
        xx = self.x.square()
        yy = self.y.square()
        zz = self.z.square()
        xy = self.x * self.y
        xz = self.x * self.z
        yz = self.y * self.z

        a = zz - xy.mul_xi()
        b = xx.mul_xi() - yz
        c = yy - xz

        f = (c * self.y).mul_xi() + (a * self.z) + (b * self.x).mul_xi()
        f = f.inverse()
        return Fp6(c * f, b * f, a * f)


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


def _affine(pt):
    """A point's ``affine()``, or None at infinity: how the tests compare
    G1 points, which define no equality."""
    return None if pt.is_infinity() else pt.affine()


TWIST_COFACTOR = 2 * tower.P - curve.ORDER  # the twist has n * (2p - n) points


def _twist_point(rng):
    """A point on the twist with a random x; almost surely outside G2."""
    while True:
        x = Fp2(rng.randrange(tower.P), rng.randrange(tower.P))
        yy = x.square() * x + Fp2(*curve.TWIST_B)
        y = tower.fp2_sqrt((yy.x, yy.y))
        if y is not None:
            return _point(x, Fp2(*y), Fp2(0, 1))


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


def _random_fp12(rng):
    return tower.Fp12(tuple(rng.randrange(tower.P) for _ in range(12)))


def _edge_fp12s():
    """Every coefficient 0, every one p - 1, and mixes of 0, 1 and p - 1:
    where an unreduced sum is largest, or cancels to exactly 0 or P."""
    top = tower.P - 1
    patterns = [[0] * 12, [top] * 12, [0, top] * 6, [top, 0] * 6, [top, 1] * 6,
                [top] * 6 + [0] * 6, [0] * 6 + [top] * 6, [1] + [0] * 11]
    return [tower.Fp12(tuple(c)) for c in patterns]


def _edge_fp2s():
    top = tower.P - 1
    return [Fp2(x, y) for x in (0, 1, top) for y in (0, 1, top)]


def _halves(f):
    """f = x*w + y as its two ``Fp6`` halves (x, y), for the class references."""
    fp2s = [Fp2(f.c[i], f.c[i + 1]) for i in range(0, 12, 2)]
    return Fp6(*fp2s[:3]), Fp6(*fp2s[3:])


def _join(x, y):
    """The element x*w + y of two ``Fp6`` halves: ``_halves`` inverted."""
    return tower.Fp12(tuple(n for h in (x, y) for e in (h.x, h.y, h.z) for n in (e.x, e.y)))


def _fp6_neg(x):
    """-x, one Fp2 coefficient at a time."""
    return Fp6(x.x.neg(), x.y.neg(), x.z.neg())


def _schoolbook_fp12_mul(a, b):
    """Four Fp6 products: (ax*w + ay)(bx*w + by) with w^2 = tau."""
    (ax, ay), (bx, by) = _halves(a), _halves(b)
    return _join(ax * by + ay * bx, ay * by + (ax * bx).mul_tau())


# The class formulas the fused kernels and the flat methods of ``tower``
# replaced, kept as their references: same algorithms, an Fp2/Fp6 object
# and a reduction per step.

def _reference_fp12_mul(a, b):
    """Karatsuba over w: three Fp6 products."""
    (ax, ay), (bx, by) = _halves(a), _halves(b)
    axbx = ax * bx
    ayby = ay * by
    tx = (ax + ay) * (bx + by) - axbx - ayby
    return _join(tx, ayby + axbx.mul_tau())


def _reference_square(a):
    ax, ay = _halves(a)
    v0 = ax * ay
    t = ax.mul_tau() + ay
    ty = (ax + ay) * t - v0 - v0.mul_tau()
    return _join(v0 + v0, ty)


def _reference_conjugate(f):
    x, y = _halves(f)
    return _join(_fp6_neg(x), y)


def _reference_frobenius(f):
    x, y = _halves(f)
    xi1 = [Fp2(*q) for q in tower.XI1]
    e1 = Fp6(x.x.conjugate() * xi1[4], x.y.conjugate() * xi1[2], x.z.conjugate() * xi1[0])
    e2 = Fp6(y.x.conjugate() * xi1[3], y.y.conjugate() * xi1[1], y.z.conjugate())
    return _join(e1, e2)


def _reference_frobenius_p2(f):
    x, y = _halves(f)
    xi2 = [Fp2(*q) * Fp2(*q).conjugate() for q in tower.XI1]
    return _join(Fp6(x.x * xi2[4], x.y * xi2[2], x.z * xi2[0]), Fp6(y.x * xi2[3], y.y * xi2[1], y.z))


def _reference_inverse(f):
    x, y = _halves(f)
    t1 = y * y - (x * x).mul_tau()
    t2 = t1.inverse()
    return _join(_fp6_neg(x) * t2, y * t2)


def _mul_linear(g, a, b):
    """g * (a*tau + b) in five Fp2 products, where a full Fp6 product takes six."""
    ya = g.y * a
    zb = g.z * b
    return Fp6(g.x * b + ya, (g.y + g.z) * (a + b) - ya - zb, (g.x * a).mul_xi() + zb)


def _reference_mul_line(f, a, b, c):
    """f * ((a*tau + b)*w + c): Karatsuba over w with both Fp6 products sparse."""
    x, y = _halves(f)
    t1 = _mul_linear(x, a, b)
    t3 = Fp6(y.x * c, y.y * c, y.z * c)
    fx = _mul_linear(x + y, a, b + c) - t1 - t3
    return _join(fx, t3 + t1.mul_tau())


# The Fp2-object point and line formulas the int formulas of ``bn256``
# replaced, kept as their references: same algorithms, an Fp2 object and a
# reduction per step.  They read a point through ``_fp2s`` and build one
# with ``_point``.

def _fp2s(pt):
    """A point's Jacobian x, y and z as ``Fp2`` objects."""
    xi, xr, yi, yr, zi, zr = pt.c
    return Fp2(xi, xr), Fp2(yi, yr), Fp2(zi, zr)


def _point(x, y, z):
    """The point with Jacobian ``Fp2`` coordinates x, y and z: ``_fp2s`` inverted."""
    return curve.PointG2((x.x, x.y, y.x, y.y, z.x, z.y))


def _reference_double(t):
    """dbl-2009-l."""
    tx, ty, tz = _fp2s(t)
    a = tx.square()
    b = ty.square()
    c = b.square()
    d = ((tx + b).square() - a - c).double()
    e = a.double() + a
    f = e.square()
    c8 = c.double().double().double()
    x3 = f - d.double()
    y3 = e * (d - x3) - c8
    z3 = (ty * tz).double()
    return _point(x3, y3, z3)


def _reference_add(t, q):
    """add-2007-bl; P + P takes the doubling."""
    if t.is_infinity():
        return q
    if q.is_infinity():
        return t
    (tx, ty, tz), (qx, qy, qz) = _fp2s(t), _fp2s(q)
    z1z1 = tz.square()
    z2z2 = qz.square()
    u1 = tx * z2z2
    u2 = qx * z1z1
    s1 = ty * qz * z2z2
    s2 = qy * tz * z1z1
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
    z3 = ((tz + qz).square() - z1z1 - z2z2) * h
    return _point(x3, y3, z3)


def _reference_psi(q):
    qx, qy, qz = _fp2s(q)
    return _point(qx.conjugate() * Fp2(*tower.XI1[1]), qy.conjugate() * Fp2(*tower.XI1[2]), qz.conjugate())


def _reference_tangent(t):
    tx, ty, tz = _fp2s(t)
    zz = tz.square()
    xx = tx.square()
    t2 = _reference_double(t)
    return t2, ((xx * tx).mul_int(6) - ty.square().double().double(),
                (xx * zz).mul_int(6).neg(), (_fp2s(t2)[2] * zz).double())


def _reference_chord(t, q):
    (_, ty, tz), (qx, qy, _) = _fp2s(t), _fp2s(q)
    r = (qy * tz * tz.square() - ty).double()
    t = _reference_add(t, q)
    tz = _fp2s(t)[2]
    return t, ((r * qx - qy * tz).double(), r.double().neg(), tz.double())


def _six_ints(a, b, c):
    """Three Fp2s as six ints: a line as a ``g2_lines`` entry, or the Fp6
    a*tau^2 + b*tau + c in ``_fp6_mul``'s order."""
    return a.x, a.y, b.x, b.y, c.x, c.y


def _jacobian(pt):
    """The raw coordinates: equal only if every int is equal, so a
    coordinate outside [0, p) also fails."""
    return pt.c


def _rescaled(pt, lam):
    """The same point in other Jacobian coordinates: (lam^2 x, lam^3 y, lam z)."""
    x, y, z = _fp2s(pt)
    lam2 = lam.square()
    return _point(x * lam2, y * lam2 * lam, z * lam)


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
    xi, xr, yi, yr = pt.affine()
    x, y = Fp2(xi, xr), Fp2(yi, yr)
    return y.square() == x.square() * x + Fp2(*curve.TWIST_B)


# (basis, rounding constants, eigenvalue, most bits of a part) of the
# GLV split in G1 and the 4-D GLS split in G2
SPLITS = [(curve.G1_BASIS, curve.G1_ROUNDING, curve.PHI_EIGENVALUE, 128),
          (curve.G2_BASIS, curve.G2_ROUNDING, curve.PSI_EIGENVALUE, 65)]


def _split_edges(basis, lam, rng):
    """k = 0, 1, n - 1 and n, the powers of lambda and their negatives
    (parts that are mostly zero, or -1), and three random k."""
    n = curve.ORDER
    powers = [pow(lam, j, n) for j in range(len(basis))]
    return [0, 1, n - 1, n] + powers + [n - x for x in powers] + [rng.randrange(n) for _ in range(3)]


def _limbs(r):
    """r's four 32-bit limbs, lowest first."""
    return [r >> 32 * j & 0xFFFFFFFF for j in range(4)]


# every r whose four 32-bit limbs are each 0 or 2^32 - 1
LIMB_PATTERNS = [sum(0xFFFFFFFF << 32 * j for j in range(4) if m >> j & 1) for m in range(16)]


def _negative_bound_parts(basis):
    """For each column j, the parts d of a k whose part j sits just inside
    its negative bound: d = sum t_i row_i, t_i = -sign(row_i[j]) (1/2 -
    2^-41), rounded down.  d's coordinates in the basis stay inside
    (-1/2, 1/2), so ``_split`` returns d itself."""
    out = []
    for j in range(len(basis)):
        signs = [-1 if row[j] > 0 else 1 for row in basis]
        out.append([sum(t * row[m] for t, row in zip(signs, basis)) * (2 ** 40 - 1) // 2 ** 41
                    for m in range(len(basis))])
    return out


def _from_parts(parts, lam):
    """sum d_j lambda^j mod n."""
    return sum(d * pow(lam, j, curve.ORDER) for j, d in enumerate(parts)) % curve.ORDER


def _reference_fp2_sqrt(a):
    """``tower.fp2_sqrt`` before ``fp_legendre`` picked alpha: each root is
    taken, then squared back, and a second root of alpha follows a miss."""
    x, y = a
    if x == 0:
        v = tower.fp_sqrt(y)
        if v * v % P == y:
            return 0, v
        return tower.fp_sqrt(-y % P), 0
    n = (x * x + y * y) % P
    lam = tower.fp_sqrt(n)
    if lam * lam % P != n:
        return None
    alpha = (y + lam) * tower.INV_2 % P
    v = tower.fp_sqrt(alpha)
    if v * v % P != alpha:
        v = tower.fp_sqrt((y - lam) * tower.INV_2 % P)
    return x * tower.fp_inv(2 * v % P) % P, v


# ``tower.fp_legendre`` and ``bn256._map_to_g1`` before the Jacobi symbol
# replaced Euler's criterion, kept as their references.

def _reference_legendre(a):
    x = pow(a, (P - 1) // 2, P)
    return -1 if x == P - 1 else x


def _reference_map_to_g1(t):
    """Fouque-Tibouchi, with a root and a square check per candidate x."""
    if t == 0:
        t = 1
    b = curve.PointG1.B
    t2 = t * t % P
    denom = (1 + b + t2) % P
    if denom == 0:
        t = (t + 1) % P
        t2 = t * t % P
        denom = (1 + b + t2) % P
    chi_t = _reference_legendre(t)
    w = bn256.SQRT_NEG_3 * t % P * tower.fp_inv(denom) % P
    x1 = ((bn256.SQRT_NEG_3 - 1) * tower.INV_2 - t * w) % P
    for x in (x1, (-1 - x1) % P):
        gx = (x * x * x + b) % P
        y = tower.fp_sqrt(gx)
        if gx and y * y % P == gx:
            return curve.PointG1(x, chi_t * y % P)
    x3 = (1 + tower.fp_inv(w * w % P)) % P
    return curve.PointG1(x3, chi_t * tower.fp_sqrt((x3 * x3 * x3 + b) % P) % P)


class TestEndomorphismSplits:
    def test_lattice_rows_vanish_mod_n(self):
        n = curve.ORDER
        for basis, _, lam, _ in SPLITS:
            for row in basis:
                assert sum(a * pow(lam, j, n) for j, a in enumerate(row)) % n == 0

    def test_eigenvalues(self):
        """phi(G1_GEN) = [lambda]G1_GEN with lambda^2 + lambda + 1 = 0 mod n,
        and psi(G2_GEN) = [6u^2]G2_GEN, a root of x^4 - x^2 + 1 mod n."""
        n, lam, mu = curve.ORDER, curve.PHI_EIGENVALUE, curve.PSI_EIGENVALUE
        assert curve.BETA != 1 and pow(curve.BETA, 3, P) == 1
        assert (lam * lam + lam + 1) % n == 0
        g1 = curve.G1_GEN
        assert _mul_unreduced(g1, lam).affine() == (curve.BETA * g1.x % P, g1.y)
        assert (mu ** 4 - mu ** 2 + 1) % n == 0
        assert _mul_unreduced(curve.G2_GEN, mu) == curve.psi(curve.G2_GEN)

    def test_splits_reconstruct_k_within_bounds(self):
        """sum k_j lambda^j = k mod n, and each |k_j| is at most half the
        sum of column j's absolute entries, which fits 128 bits in G1 and
        65 in G2; the edges give zero and negative parts."""
        n = curve.ORDER
        rng = random.Random(31)
        for basis, rounding, lam, bits in SPLITS:
            bounds = [sum(abs(row[j]) for row in basis) // 2 for j in range(len(basis))]
            assert max(bounds).bit_length() <= bits
            signs = set()
            for k in _split_edges(basis, lam, rng) + [rng.randrange(n) for _ in range(3000)]:
                parts = curve._split(k, basis, rounding)
                assert sum(a * pow(lam, j, n) for j, a in enumerate(parts)) % n == k % n
                assert all(abs(a) <= bound for a, bound in zip(parts, bounds))
                signs.update((a > 0) - (a < 0) for a in parts)
            assert signs == {-1, 0, 1}

    def test_wnaf_digits(self):
        """``wnaf``'s digits, lowest first, sum back to k; each is 0 or odd
        with |d| < 2^(w-1), any w consecutive places hold at most one
        non-zero digit, and the highest digit is non-zero: at the ladder's
        width W and at width 2, the NAF of the Miller loop and of v."""
        w = curve.W
        ks = [0, curve.ORDER - 1] + [s * k for k in (1, 15, 16, 17, 2 ** 65 - 1) for s in (1, -1)]
        rng = random.Random(38)
        for width in (w, 2):
            for k in ks + [rng.randrange(-2 ** 128, 2 ** 128) for _ in range(200)]:
                digits = tower.wnaf(k, width)
                assert sum(d << i for i, d in enumerate(digits)) == k
                assert all(d == 0 or d % 2 and abs(d) < 2 ** (width - 1) for d in digits)
                places = [i for i, d in enumerate(digits) if d]
                assert all(b - a >= width for a, b in zip(places, places[1:]))
                assert not digits or digits[-1]
        assert tower.wnaf(0, w) == []
        assert tower.wnaf(15, w) == [15] and tower.wnaf(-1, w) == [-1]
        assert tower.wnaf(16, w) == [0, 0, 0, 0, 1]
        assert tower.wnaf(17, w) == [-15, 0, 0, 0, 0, 1]
        assert tower.wnaf(2 ** 65 - 1, w) == [-1] + [0] * 64 + [1]

    def test_bases_span_the_whole_lattice(self):
        """det = +-n: each basis spans the lattice itself, not a sublattice
        (the four Galbraith-Scott rows have det -3n)."""
        for basis, _, _, _ in SPLITS:
            assert abs(curve._det(basis)) == curve.ORDER

    def test_batch_exponent_splits_into_the_limbs_of_its_draw(self):
        """BN-256's delta for a draw r splits back into r's four 32-bit
        limbs: at r = 1 and 2^128 - 1, at every r whose limbs are each 0 or
        2^32 - 1, and at random r.  The mock's delta is r itself."""
        prod, mock = Bn256Suite(), MockSuite()
        rng = random.Random(35)
        draws = [1, 2 ** 128 - 1] + LIMB_PATTERNS + [rng.randrange(1, 2 ** 128) for _ in range(300)]
        deltas = [prod.batch_exponent(r) for r in draws]
        for r, delta in zip(draws, deltas):
            assert curve._split(delta, curve.G2_BASIS, curve.G2_ROUNDING) == _limbs(r)
            assert mock.batch_exponent(r) == r
        assert len(set(deltas)) == len(set(draws))
        assert all(delta for r, delta in zip(draws, deltas) if r)


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

    def test_target_group_product_is_the_pairing_of_the_product(self, any_suite, rng):
        """e(a, b) * e(a, c) == e(a, b * c): the GT product by which a tag's
        Z is built from pairings."""
        s = any_suite
        a = s.gen_a ** rng.randrange(1, s.order)
        b, c = (s.gen_b ** rng.randrange(1, s.order) for _ in range(2))
        assert s.pair(a, b) * s.pair(a, c) == s.pair(a, b * c)

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

    def test_g_b_table_is_one_constant(self, prod_suite, rng):
        """Every production suite's g_b carries the one table built at
        import; it equals a fresh build, and pairing g_b, an admin key
        check and an authentication leave it so."""
        s = prod_suite
        table = s.gen_b.lines
        assert Bn256Suite().gen_b.lines is table
        fresh = bn256.g2_lines(curve.G2_GEN)
        assert table == fresh
        (admin_sk, admin_pub), (user_sk, user_pk) = keygen_admin(s, rng), keygen_user(s, rng)
        assert check_admin_key(s, admin_pub)
        x = s.gen_a ** rng.randrange(1, s.order)
        assert s.pair(x, s.gen_b) == s.pair(x, s.element_from_bytes(Group.B, s.gen_b.to_bytes()))
        assert verify_authenticity(s, admin_pub, user_pk, make_x(admin_pub, user_sk), rng)
        assert s.gen_b.lines is table and table == fresh


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
            (s.gen_a ** a, inf_b, s.gen_a, s.gen_b ** b),                   # 1 vs not 1
            (s.gen_a ** a, inf_b, inf_a, s.gen_b ** b),                     # both sides 1
        ]
        for a1, b1, a2, b2 in cases:
            expected = s.pair(a1, b1) == s.pair(a2, b2)
            assert s.pairs_equal(a1, b1, a2, b2) is expected
        assert [s.pairs_equal(*c) for c in cases] == [True, False, True, False, False, False, True]

    def test_g1_negation(self, rng):
        """``PointG1.neg``, by which ``pairs_equal`` negates a2, on the
        generator, on a Jacobian point with z != 1 and at infinity."""
        p = curve.G1_GEN.scalar_mul(rng.randrange(2, curve.ORDER))
        assert p.z != 1
        for q in (curve.G1_GEN, p):
            x, y = q.affine()
            assert q.neg().affine() == (x, tower.P - y)
            assert q.neg().add(q).is_infinity()
        assert curve.G1_INF.neg().is_infinity() and curve.G1_INF.neg().y == 0

    def test_group_mismatch_rejected(self, any_suite):
        s = any_suite
        with pytest.raises(GroupMismatchError):
            s.pairs_equal(s.gen_a, s.gen_b, s.gen_b, s.gen_b)
        with pytest.raises(GroupMismatchError):
            s.pairs_equal(s.gen_a, s.gen_a, s.gen_a, s.gen_b)


class TestElementOperators:
    def test_mismatched_product_refused(self, any_suite):
        """An element of another suite instance, or of the other group."""
        s, other = any_suite, type(any_suite)()
        with pytest.raises(GroupMismatchError, match="^element does not belong to this suite$"):
            s.gen_a * other.gen_a
        with pytest.raises(GroupMismatchError, match="^expected a group-A element, got B$"):
            s.gen_a * s.gen_b

    def test_non_element_operands(self, any_suite):
        with pytest.raises(TypeError):
            any_suite.gen_a * 5
        assert (any_suite.gen_a == 5) is False

    def test_discrete_log_refuses_another_suites_element(self, mock_suite):
        with pytest.raises(GroupMismatchError, match="does not belong to this suite"):
            mock_suite.discrete_log(MockSuite().gen_a)


# GT by the pairing's definition, not by pbcap's own frozen output: the
# plain power (p^12 - 1)/n and a textbook optimal ate on E(F_p12).

FE_EXPONENT = (P ** 12 - 1) // curve.ORDER


def _fp12_sum(*terms):
    """The sum of k*a over the (k, a) terms, coefficient by coefficient:
    F_p12 addition, which ``tower`` does not define."""
    return tower.Fp12(tuple(sum(k * a.c[j] for k, a in terms) % P for j in range(12)))


def _untwist(q):
    """A G2 point as the point (x*w^2, y*w^3) of E(F_p12): w^2 = tau is
    the b1 place of ``Fp12.c`` and w^3 = tau*w the a1 place."""
    xi, xr, yi, yr = q.affine()
    return (tower.Fp12((0,) * 8 + (xi, xr, 0, 0)),
            tower.Fp12((0, 0, yi, yr) + (0,) * 8))


def _textbook_ate(p, q):
    """e(P, Q) = (f_{6u+2,Q} * l_{T,pi(Q)} * l_{T+pi(Q),-pi^2(Q)})(P)^((p^12 - 1)/n)
    with T = [6u+2]Q (Vercauteren, "Optimal pairings", IEEE TIT 2010;
    the BN form in eprint 2010/354): an affine Miller loop over the bits
    of 6u+2 on Q untwisted into E(F_p12), with Frobenius as pi and the
    vertical lines dropped, since they lie in F_p6, which the power kills."""
    px, py = (tower.Fp12((0,) * 11 + (c,)) for c in p.affine())

    def step(t, s):
        """T + S (2T when S is T) and the line through them at P."""
        (tx, ty), (sx, sy) = t, s
        if s is t:
            lam = _fp12_sum((3, tx * tx)) * _fp12_sum((2, ty)).inverse()
        else:
            lam = _fp12_sum((1, sy), (-1, ty)) * _fp12_sum((1, sx), (-1, tx)).inverse()
        x3 = _fp12_sum((1, lam * lam), (-1, tx), (-1, sx))
        y3 = _fp12_sum((1, lam * _fp12_sum((1, tx), (-1, x3))), (-1, ty))
        return (x3, y3), _fp12_sum((1, py), (-1, ty), (-1, lam * _fp12_sum((1, px), (-1, tx))))

    q = t = _untwist(q)
    f = tower.FP12_ONE
    for bit in bin(6 * tower.U + 2)[3:]:
        t, line = step(t, t)
        f = f * f * line
        if bit == "1":
            t, line = step(t, q)
            f = f * line
    qx, qy = q
    pi_q = (qx.frobenius(), qy.frobenius())
    neg_pi2_q = (pi_q[0].frobenius(), _fp12_sum((-1, pi_q[1].frobenius())))
    for s in (pi_q, neg_pi2_q):
        t, line = step(t, s)
        f = f * line
    return f.exp(FE_EXPONENT)


class TestPairingDefinition:
    """GT pinned to the definition of the optimal ate pairing.  Every fixed
    power of the pairing is bilinear and non-degenerate too, so a final
    exponentiation or Miller loop that computed one, such as e^2 or e^-1,
    would pass the bilinearity tests and be frozen into the next
    regenerated vector."""

    def test_final_exponentiation_is_the_plain_power(self):
        rng = random.Random(38)
        for _ in range(3):
            f = bn256.miller_loop([_prepared(_random_pair(rng))])
            assert bn256.final_exponentiation(f) == f.exp(FE_EXPONENT)

    def test_pair_is_the_textbook_optimal_ate(self, prod_suite):
        rng = random.Random(39)
        s = prod_suite
        for _ in range(3):
            x = s.gen_a ** rng.randrange(1, s.order)
            y = s.gen_b ** rng.randrange(1, s.order)
            assert s.pair(x, y).value == _textbook_ate(x.value, y.value)


class TestBn256Kernels:
    """Each fast kernel against the generic arithmetic it replaces."""

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
        zero = Fp2(0, 0)
        for group in bn256.g2_lines(q)[::8]:
            for line in group:
                ai, ar, bi, br, ci, cr = line
                a, b, c = Fp2(ai, ar), Fp2(bi, br).mul_int(px), Fp2(ci, cr).mul_int(py)
                f = _random_fp12(rng)
                full = _join(Fp6(zero, a, b), Fp6(zero, zero, c))
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

    def test_fused_mul_line_matches_reference(self):
        """Real table entries evaluated at a real P, and edge coefficients
        evaluated at edge and random coordinates."""
        rng = random.Random(31)
        p, q = _random_pair(rng)
        cases = [(line, *p.affine()) for group in bn256.g2_lines(q)[::16] for line in group]
        edges = _edge_fp2s()
        lines = list(zip(edges, edges[::-1], edges[3:] + edges[:3])) + [(e, e, e) for e in edges]
        coords = [(0, 0), (1, tower.P - 1), (tower.P - 1, 1), (rng.randrange(tower.P), rng.randrange(tower.P))]
        cases += [(_six_ints(*line), px, py) for line in lines for px, py in coords]
        for f in _edge_fp12s() + [_random_fp12(rng) for _ in range(4)]:
            for line, px, py in cases:
                ai, ar, bi, br, ci, cr = line
                expected = _reference_mul_line(f, Fp2(ai, ar), Fp2(bi, br).mul_int(px),
                                               Fp2(ci, cr).mul_int(py))
                assert tower._mul_line(f, line, px, py) == expected

    def test_frobenius_and_conjugate_match_references(self):
        """Also the constants both sides read: ``XI1[k - 1]`` is
        xi^(k(p - 1)/6) with xi = i + 3, and ``XI2[k - 1]`` its norm, an
        F_p int.  The reference powers take ``pow_bits`` with the reference
        Fp2, so the ladder is first checked against ``pow`` on ints."""
        exponents = [k * (tower.P - 1) // 6 for k in range(1, 6)]
        for e in [0, 1, 2, tower.U] + exponents:
            assert tower.pow_bits(7, e, 1, lambda a: a * a % tower.P,
                                  lambda a, b: a * b % tower.P) == pow(7, e, tower.P)
        for e, xi1, xi2 in zip(exponents, tower.XI1, tower.XI2):
            ref = tower.pow_bits(Fp2(1, 3), e, Fp2(0, 1), Fp2.square, Fp2.__mul__)
            assert xi1 == (ref.x, ref.y)
            assert Fp2(0, xi2) == ref * ref.conjugate()
        rng = random.Random(32)
        for f in _edge_fp12s() + [_random_fp12(rng) for _ in range(12)]:
            assert f.conjugate() == _reference_conjugate(f)
            assert f.frobenius() == _reference_frobenius(f)
            assert f.frobenius_p2() == _reference_frobenius_p2(f)

    def test_inverse_matches_reference(self):
        """Every element but zero, which has no inverse; and the F_p6 and
        F_p2 inverses under it, on seeded elements and on elements with
        every coefficient 0, 1 or p - 1."""
        rng = random.Random(33)
        for f in _edge_fp12s()[1:] + [_random_fp12(rng) for _ in range(12)]:
            assert f.inverse() == _reference_inverse(f)
            assert f * f.inverse() == tower.FP12_ONE
        edges = _edge_fp2s()
        fp2s = edges + [Fp2(rng.randrange(tower.P), rng.randrange(tower.P)) for _ in range(6)]
        fp6s = [Fp6(a, b, c) for a, b, c in zip(edges, edges[::-1], edges[3:] + edges[:3])]
        fp6s += [Fp6(*fp2s[i:i + 3]) for i in range(len(fp2s) - 2)]
        for a in fp6s:
            b = a.inverse()
            assert tower._fp6_inv(*_six_ints(a.x, a.y, a.z)) == _six_ints(b.x, b.y, b.z)
        for a in fp2s[1:]:
            assert tower.fp2_inv((a.x, a.y)) == (a.inverse().x, a.inverse().y)
        with pytest.raises(ValueError):
            tower.fp2_inv((0, 0))

    def test_exp_u_matches_exp(self):
        for t in _cyclotomic_elements(random.Random(23), 3):
            assert t.exp_u() == t.exp(tower.U)

    def test_exp_u_on_one_and_conjugates(self):
        """``FP12_ONE``, and conjugates of cyclotomic elements, which are
        their inverses.  (-1 is no case: its order 2 does not divide
        p^4 - p^2 + 1.)"""
        ts = [tower.FP12_ONE] + [t.conjugate() for t in _cyclotomic_elements(random.Random(29), 2)]
        for t in ts:
            assert t.exp_u() == t.exp(tower.U)

    def test_exp_u_matches_pow_u_chain(self):
        """The compressed chain against ``pow_u`` with ``square``, the
        chain it replaced, on cyclotomic elements and their conjugates."""
        for t in _cyclotomic_elements(random.Random(34), 3):
            for x in (t, t.conjugate()):
                assert x.exp_u() == tower.pow_u(x, tower.Fp12.square,
                                                tower.Fp12.__mul__, tower.Fp12.conjugate)

    def test_exp_u_of_one_takes_the_fallback(self, monkeypatch):
        """1 has a0 = 0, which has no decompression, so its ``exp_u`` takes
        ``pow_u`` with ``square``: 63 squarings.  A cyclotomic element
        takes none."""
        t = _cyclotomic_elements(random.Random(35), 1)[0]
        calls = []

        def counted(f, _inner=tower.Fp12.square):
            calls.append(f)
            return _inner(f)

        monkeypatch.setattr(tower.Fp12, "square", counted)
        assert tower._compressed_powers(tower.FP12_ONE, (0,)) is None
        assert tower.FP12_ONE.exp_u() == tower.FP12_ONE
        assert len(calls) == 63
        calls.clear()
        t.exp_u()
        assert not calls

    def test_compressed_squaring_and_decompression_match_cyclotomic_square(self):
        """A run of 0 only compresses and decompresses x; a run of 1 is one
        compressed squaring; the runs of ``exp_u`` keep the powers that
        repeated ``square`` of a cyclotomic element reaches."""
        for t in _cyclotomic_elements(random.Random(36), 4):
            assert tower._compressed_powers(t, (0,)) == [t]
            assert tower._compressed_powers(t, (1,)) == [t.square()]
            runs = (8, 7, 3, 3)
            powers, x = [], t
            for run in runs:
                for _ in range(run):
                    x = x.square()
                powers.append(x)
            assert tower._compressed_powers(t, runs) == powers
            t2 = t.square()
            t8 = t2.square().square()
            assert tower._compressed_powers(t, (0, 1, 0, 2)) == [t, t2, t2, t8]

    def test_kernel_outputs_are_reduced_on_edge_inputs(self):
        """Every coefficient each kernel returns lies in [0, p), also where
        the unreduced sums are largest (every input coefficient p - 1) or
        cancel (every one 0)."""
        top = tower.P - 1
        zero, full = tower.Fp12((0,) * 12), tower.Fp12((top,) * 12)
        line_sets = [(0,) * 6, (top,) * 6]
        outputs = []
        for f in (zero, full):
            for g in (zero, full):
                outputs.append(f * g)
            outputs.append(f.square())
            outputs += [tower._mul_line(f, line, px, py) for line in line_sets
                        for px in (0, top) for py in (0, top)]
        outputs.append(full.inverse())
        outputs += tower._compressed_powers(full, (0, 1, 2))
        for out in outputs:
            assert len(out.c) == 12 and all(0 <= c < tower.P for c in out.c)

    def test_shared_miller_loop_is_product_of_single_loops(self):
        rng = random.Random(24)
        for _ in range(3):
            a, b = _random_pair(rng), _random_pair(rng)
            a, b = _prepared(a), _prepared(b)
            assert bn256.miller_loop([a, b]) == bn256.miller_loop([a]) * bn256.miller_loop([b])

    def test_gls_scalar_mul_matches_plain_ladder(self):
        """G2 points, with k at the edges of the 4-D split and random k."""
        rng = random.Random(26)
        lam = curve.PSI_EIGENVALUE
        edges = [0, 1, 2, curve.ORDER - 1, curve.ORDER, lam - 1, lam, lam + 1, tower.U]
        points = [curve.G2_GEN] + [_mul_unreduced(_twist_point(rng), TWIST_COFACTOR)
                                   for _ in range(2)]
        for q in points:
            for k in edges + [rng.randrange(curve.ORDER) for _ in range(7)]:
                assert q.scalar_mul(k) == _mul_unreduced(q, k % curve.ORDER)

    def test_g2_gen_tables_are_constant_affine_odd_multiples(self):
        """``_G2_GEN_TABLES`` holds four tables keyed by the odd d with
        |d| < 2^(W-1): entry d of table j is psi^j([d]G2_GEN), every entry
        has z = 1, and the tables equal freshly built ones."""
        tables = curve._G2_GEN_TABLES
        odd = {s * d for d in range(1, 2 ** (curve.W - 1), 2) for s in (1, -1)}
        assert len(tables) == 4
        base = curve.G2_GEN
        for table in tables:
            assert set(table) == odd
            for d, entry in table.items():
                multiple = _mul_unreduced(base, abs(d))
                assert entry == (multiple if d > 0 else multiple.neg())
                assert entry.c[4:] == (0, 1)
            base = curve.psi(base)
        assert curve._psi_tables(curve._odd_multiples(curve.G2_GEN)) == tables

    def test_fixed_base_scalar_mul_matches_plain_ladder(self):
        """G2_GEN through its constant table, at the split edges, each
        delta limb pattern, each column's negative bound and 300 random k.
        A decoded copy of G2_GEN, which builds its own table, gives the
        same points on the edges and the first 20 random k."""
        rng = random.Random(37)
        n, lam = curve.ORDER, curve.PSI_EIGENVALUE
        prod = Bn256Suite()
        ks = [0, 1, 2, n - 1, n] + [pow(lam, j, n) for j in range(4)]
        ks += [prod.batch_exponent(r) for r in LIMB_PATTERNS]
        ks += [_from_parts(d, lam) for d in _negative_bound_parts(curve.G2_BASIS)]
        copy = bn256.g2_from_bytes(bn256.g2_to_bytes(curve.G2_GEN))
        assert copy is not curve.G2_GEN
        for i, k in enumerate(ks + [rng.randrange(n) for _ in range(300)]):
            q = curve.G2_GEN.scalar_mul(k)
            assert q == _mul_unreduced(curve.G2_GEN, k % n)
            if i < len(ks) + 20:
                assert copy.scalar_mul(k) == q

    def test_scalar_mul_on_split_edge_cases(self):
        """Against the plain ladder, in both groups: k whose parts are zero
        or negative in each split, powers of each eigenvalue, k whose parts
        sit at each column's negative bound, k with every pattern of zero
        parts, and each delta limb pattern; the point at infinity stays
        there.  Each k built from parts splits back into exactly those
        parts, so the wNAF ladder runs on them.  G2 takes g_b, through its
        constant tables, and a point that builds its own."""
        rng = random.Random(27)
        n = curve.ORDER
        deltas = [Bn256Suite().batch_exponent(r) for r in LIMB_PATTERNS]
        g2 = curve.G2_GEN.scalar_mul(rng.randrange(1, n))
        for points, inf, basis, rounding, lam in (
                ((curve.G1_GEN,), curve.G1_INF, curve.G1_BASIS, curve.G1_ROUNDING, curve.PHI_EIGENVALUE),
                ((curve.G2_GEN, g2), curve.G2_INF, curve.G2_BASIS, curve.G2_ROUNDING, curve.PSI_EIGENVALUE)):
            dim = len(basis)
            bounds = [sum(abs(row[j]) for row in basis) // 2 for j in range(dim)]
            edge_parts = _negative_bound_parts(basis)
            for j, d in enumerate(edge_parts):
                assert -bounds[j] <= d[j] < -bounds[j] + (bounds[j] >> 39)
            built = edge_parts + [[rng.randrange(-2 ** 32, 2 ** 32) if m >> j & 1 else 0 for j in range(dim)]
                                  for m in range(2 ** dim)]
            ks = [_from_parts(parts, lam) for parts in built]
            assert [curve._split(k, basis, rounding) for k in ks] == built
            for k in _split_edges(basis, lam, rng) + ks + deltas:
                for point in points:
                    assert _affine(point.scalar_mul(k)) == _affine(_mul_unreduced(point, k % n))
                assert inf.scalar_mul(k).is_infinity()

    def test_g1_scalar_mul_matches_plain_ladder(self):
        """The generator, random multiples and hashed points, at the split
        edges and random k."""
        rng = random.Random(30)
        points = [curve.G1_GEN, curve.G1_GEN.scalar_mul(rng.randrange(1, curve.ORDER))]
        points += [bn256.hash_to_g1(m, b"pbcap-test") for m in (b"", b"RecordedBy(Test,Nurse)")]
        edges = [0, 1, 2, curve.ORDER - 1, curve.ORDER, curve.PHI_EIGENVALUE, tower.U]
        for pt in points:
            for k in edges + [rng.randrange(curve.ORDER) for _ in range(5)]:
                assert _affine(pt.scalar_mul(k)) == _affine(_mul_unreduced(pt, k % curve.ORDER))


    def test_mul_u_matches_unreduced_ladder(self):
        """``tower.pow_u`` with the G2 formulas, three NAF ladders by v as
        ``in_g2`` runs it, is [u]Q on G2 points, unchecked twist points, an
        order-13 point and infinity.  No twist point of small order meets
        +-base inside a v ladder: the twist order's only factors below 2^23
        are 13, 7369 and their product, and none divides 2m +- 1 for a
        prefix m of v's digits."""
        rng = random.Random(28)
        points = [curve.G2_GEN, curve.G2_GEN.scalar_mul(rng.randrange(1, curve.ORDER)),
                  _twist_point(rng), _twist_point(rng), _order_13_point(rng), curve.G2_INF]
        for q in points:
            uq = tower.pow_u(q, curve.PointG2.double, curve.PointG2.add, curve.PointG2.neg)
            assert uq == _mul_unreduced(q, tower.U)


class TestG1Add:
    def test_edge_cases(self, rng):
        """P + inf and inf + P give P, P + P (also across two Jacobian forms
        of P) gives P.double(), and P + (-P) is infinity; the generator has
        z = 1, a multiple of it z != 1."""
        inf = curve.G1_INF
        multiple = curve.G1_GEN.scalar_mul(rng.randrange(2, curve.ORDER))
        assert multiple.z != 1
        for pt in (curve.G1_GEN, multiple):
            lam = rng.randrange(2, P)
            other = curve.PointG1(pt.x * lam ** 2 % P, pt.y * lam ** 3 % P, pt.z * lam % P)
            assert pt.add(inf).affine() == pt.affine() == inf.add(pt).affine()
            assert pt.add(pt).affine() == pt.double().affine() == pt.add(other).affine()
            assert pt.add(pt.neg()).is_infinity() and pt.add(other.neg()).is_infinity()
        with pytest.raises(ZeroDivisionError):
            inf.affine()


class TestG2Formulas:
    """The int point and line formulas against their Fp2-object references.
    ``_jacobian`` compares raw coordinates, so each case also checks that
    every output int lies in [0, p)."""

    def _points(self, rng):
        """G2 points with z != 1, unchecked twist points, and coordinate
        triples off the curve with every int 0, 1 or p - 1: the formulas
        are polynomials and must agree on any input."""
        g2 = [curve.G2_GEN.scalar_mul(rng.randrange(1, curve.ORDER)) for _ in range(4)]
        assert all(pt.c[4:] != (0, 1) for pt in g2)
        twist = [_twist_point(rng) for _ in range(2)]
        twist += [pt.double() for pt in twist]
        edges = _edge_fp2s()
        off_curve = [_point(a, b, c) for a, b, c in zip(edges, edges[::-1], edges[2:] + edges[:2])]
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
            lam = Fp2(rng.randrange(1, tower.P), rng.randrange(tower.P))
            other = _rescaled(pt, lam)
            assert _jacobian(other) != _jacobian(pt)
            for a, b in ((pt, pt), (pt, other), (pt, pt.neg()), (pt, other.neg()), (pt, inf), (inf, pt)):
                assert _jacobian(a.add(b)) == _jacobian(_reference_add(a, b))
            assert _jacobian(pt.add(pt)) == _jacobian(pt.double())
            assert pt.add(other.neg()).is_infinity()
        assert _jacobian(inf.add(inf)) == _jacobian(_reference_add(inf, inf))

    def test_add_affine_operand_matches_full_formula(self):
        """An affine second operand (z = 1) takes ``add``'s short branch,
        which must give the raw ints of the full formula, also at P + P
        and P + (-P); the same sum with that operand rescaled to z != 1
        takes the full branch and agrees in affine form."""
        rng = random.Random(49)
        points = self._points(rng)
        affine = [curve.PointG2(pt.c[:4] + (0, 1)) for pt in points]
        for a in points:
            for b in affine:
                total = a.add(b)
                assert _jacobian(total) == _jacobian(_reference_add(a, b))
                lam = Fp2(rng.randrange(1, tower.P), rng.randrange(tower.P))
                if not b.is_infinity() and not total.is_infinity():
                    assert a.add(_rescaled(b, lam)) == total
        for b in affine[:5]:
            for a in (b, b.neg(), _rescaled(b, Fp2(2, 5))):
                assert _jacobian(a.add(b)) == _jacobian(_reference_add(a, b))

    def test_ladder_on_points_outside_g2_matches_reference(self):
        """The formulas on unchecked twist points, which ``in_g2``'s [u]Q and
        the frozen twist entries of ``g2.json`` run on.  On an order-13 point
        the accumulator meets -Q (k = 13) and +Q (k = 15) before the add."""
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

    def test_neg_matches_reference(self):
        """``neg`` against ``Fp2.neg`` of y, x and z unchanged."""
        for pt in self._points(random.Random(47)) + [curve.G2_INF]:
            x, y, z = _fp2s(pt)
            assert _jacobian(pt.neg()) == _jacobian(_point(x, y.neg(), z))

    def test_affine_matches_reference(self):
        """``affine`` against (x / z^2, y / z^3) in ``Fp2``, compared as raw
        ints; every Jacobian form of a point gives the same ints, and a
        z = 1 point gives its own.  A point with z = 0 has no affine form."""
        rng = random.Random(48)
        for pt in self._points(rng):
            x, y, z = _fp2s(pt)
            if z.is_zero():
                with pytest.raises(ZeroDivisionError):
                    pt.affine()
                continue
            ax, ay = x * z.square().inverse(), y * (z.square() * z).inverse()
            assert pt.affine() == (ax.x, ax.y, ay.x, ay.y)
            lam = Fp2(rng.randrange(1, tower.P), rng.randrange(tower.P))
            assert _rescaled(pt, lam).affine() == pt.affine()
            assert curve.PointG2(pt.c[:4] + (0, 1)).affine() == pt.c[:4]

    def test_tangent_and_chord_match_reference(self):
        """On arbitrary points T and affine Q, the next T and the line."""
        rng = random.Random(46)
        points = self._points(rng)
        for t in points:
            t2, line = bn256._tangent(t)
            r2, ref = _reference_tangent(t)
            assert _jacobian(t2) == _jacobian(r2) and line == _six_ints(*ref)
            for q in points:
                q = curve.PointG2(q.c[:4] + (0, 1))
                t2, line = bn256._chord(t, q)
                r2, ref = _reference_chord(t, q)
                assert _jacobian(t2) == _jacobian(r2) and line == _six_ints(*ref)


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

    def test_fp2_sqrt_matches_reference(self):
        """On squares, non-squares and x = 0 (with y a square, a non-square
        and 0), the root ``fp_legendre`` picks is the one the root-and-check
        body took."""
        rng = random.Random(52)
        cases = [(0, 0), (0, 1), (0, tower.P - 1), (1, 0), (tower.P - 1, 0)]
        for _ in range(40):
            x, y = rng.randrange(tower.P), rng.randrange(tower.P)
            cases += [(x, y), (0, y), tower.fp2_mul((x, y), (x, y))]
        roots = [_reference_fp2_sqrt(a) for a in cases]
        assert None in roots and any(r is not None and a[0] for a, r in zip(cases, roots))
        assert {tower.fp_legendre(a[1]) for a in cases if a[0] == 0} == {-1, 0, 1}
        for a, root in zip(cases, roots):
            assert tower.fp2_sqrt(a) == root
            if root is not None:
                assert tower.fp2_mul(root, root) == a

    def test_fp_legendre_matches_euler_criterion(self):
        rng = random.Random(32)
        for a in [0, 1, 2, P - 1, P, -1, 2 * P + 3] + [rng.randrange(P) for _ in range(3000)]:
            assert tower.fp_legendre(a) == _reference_legendre(a)

    def test_map_to_g1_matches_reference(self):
        """The same Jacobian point, on t = 0, 1, 2, p - 1 and seeded draws."""
        rng = random.Random(34)
        for t in [0, 1, 2, P - 1] + [rng.randrange(P) for _ in range(3000)]:
            pt, ref = bn256._map_to_g1(t), _reference_map_to_g1(t)
            assert (pt.x, pt.y, pt.z) == (ref.x, ref.y, ref.z)

    def test_map_to_g1_denominator_never_vanishes(self):
        """1 + b + t^2 = 0 would need -(1 + b) = -4 to be a square mod p;
        with p = 3 mod 4 it is not, so ``_map_to_g1`` needs no re-draw."""
        assert P % 4 == 3
        assert tower.fp_legendre(-(1 + curve.PointG1.B) % P) == -1

    def test_expand_message_xmd_refuses_out_of_range_parameters(self):
        with pytest.raises(ValueError, match="out of range"):
            bn256._expand_message_xmd(b"", b"d" * 256, 32)
        with pytest.raises(ValueError, match="out of range"):
            bn256._expand_message_xmd(b"", b"d", 32 * 256)

    @pytest.mark.parametrize("size", [0, 55, 56, 63, 64, 65, 420])
    def test_sha256_matches_hashlib(self, size):
        """Around the one- and two-block padding edges and at a 420-byte input."""
        data = bytes(range(256)) * 2
        assert bn256.sha256(data[:size]).digest() == hashlib.sha256(data[:size]).digest()

    @pytest.mark.skipif(platform.python_implementation() != "CPython", reason="CPython modules")
    def test_sha256_is_the_interpreters_not_hashlibs(self):
        """``_sha2`` on 3.12+, ``_sha256`` on 3.10 and 3.11; ``hashlib`` is only the fallback."""
        assert bn256.sha256.__module__ in ("_sha2", "_sha256")

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
        assert all(mock_suite.random_scalar(rng) != 0 for _ in range(100_000))

    def test_in_range(self, any_suite, rng):
        for _ in range(1000):
            s = any_suite.random_scalar(rng)
            assert 1 <= s <= any_suite.order - 1

    def test_no_repeats_over_1000_draws(self, any_suite, rng):
        values = {any_suite.random_scalar(rng) for _ in range(1000)}
        assert len(values) == 1000

    def test_seeded_sequence_reproducible(self, any_suite):
        seq1 = [any_suite.random_scalar(random.Random(42)) for _ in range(1)]
        seq2 = [any_suite.random_scalar(random.Random(42)) for _ in range(1)]
        a = random.Random(7)
        b = random.Random(7)
        assert [any_suite.random_scalar(a) for _ in range(50)] == [
            any_suite.random_scalar(b) for _ in range(50)
        ]
        assert seq1 == seq2


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

    def test_malformed_encodings_rejected(self, prod_suite):
        """A non-zero byte after the infinity prefix, a real encoding with
        a prefix other than 0, 2 or 3, and a real G2 encoding one byte
        short."""
        a, b = prod_suite.gen_a.to_bytes(), prod_suite.gen_b.to_bytes()
        zero_then_one = b"\x00\x01" + bytes(31)
        cases = [
            (Group.A, zero_then_one, "bad G1 infinity encoding"),
            (Group.A, b"\x04" + a[1:], "bad G1 prefix"),
            (Group.B, b[:64], "bad G2 encoding length"),
            (Group.B, zero_then_one + bytes(32), "bad G2 infinity encoding"),
            (Group.B, b"\x01" + b[1:], "bad G2 prefix"),
        ]
        for group, blob, message in cases:
            with pytest.raises(DecodeError, match=f"^{message}$"):
                prod_suite.element_from_bytes(group, blob)

    def test_mock_exponent_equal_to_the_order_rejected(self, mock_suite):
        top = mock_suite.order - 1
        assert mock_suite.discrete_log(mock_suite.element_from_bytes(Group.A, top.to_bytes(8, "big"))) == top
        with pytest.raises(DecodeError, match="^mock exponent out of range$"):
            mock_suite.element_from_bytes(Group.A, mock_suite.order.to_bytes(8, "big"))


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


def test_unknown_suite_name_refused():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        get_suite("nope")
