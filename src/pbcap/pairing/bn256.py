"""Pairing arithmetic over a 256-bit Barreto-Naehrig curve.

G1 is the curve y^2 = x^3 + 3 over F_p, G2 the order-n subgroup of its
sextic twist over F_p2, and GT the order-n subgroup of F_p12^*.  The
optimal ate pairing and the tower arithmetic follow Beuchat et al.
(eprint 2010/354); curve parameters match the dclxvi / golang bn256
family (BN parameter v = 1868033).

The Miller loop has no point formulas of its own: T moves by
``PointG2.double`` and ``add``, and each line is a closed form in T with
no P in it (``g2_lines``), evaluated at P only in ``miller_loop``.  The
chords rely on T != +-Q, which holds for Q in G2.  Because a line table
depends on Q alone, a Q paired many times needs one table (Costello and
Stebila, "Fixed argument pairings", LATINCRYPT 2010).  This module keeps
no table: ``g2_lines`` is the only function that builds one, and its caller
decides how long it lives.  ``Bn256Suite.pair`` keeps the table of each
group-B element it pairs on that element; ``pairing_product_is_one``
builds throwaway tables.

Field elements are plain Python ints reduced mod P; extension fields are
thin classes over them.  Nothing here is constant-time.

``Fp12.cyclotomic_square`` and ``Fp12.exp_u`` are correct only inside the
cyclotomic subgroup (elements f with f^(p^6 + 1) = 1), which is where the
hard part of ``final_exponentiation`` runs.  They must never touch a
decoded or otherwise unchecked element: the Miller loop and GT
exponentiation use the generic ``square`` and ``exp``.  GT elements are
encoded (``gt_to_bytes``, the H2 input) but never decoded.
"""

from __future__ import annotations

import hashlib

V = 1868033
U = V ** 3

P = (((U + 1) * 6 * U + 4) * U + 1) * 6 * U + 1
ORDER = P - 6 * U * U
PSI_EIGENVALUE = 6 * U * U  # p mod n: psi's action on G2

assert P % 4 == 3  # sqrt below relies on this


def fp_inv(a: int) -> int:
    return pow(a, -1, P)


def fp_sqrt(a: int) -> int:
    return pow(a, (P + 1) // 4, P)


INV_2 = fp_inv(2)


def fp_legendre(a: int) -> int:
    x = pow(a, (P - 1) // 2, P)
    return -1 if x == P - 1 else x


def _naf(x: int) -> list[int]:
    z = []
    while x > 0:
        if x % 2 == 0:
            z.append(0)
        else:
            zi = 2 - (x % 4)
            x -= zi
            z.append(zi)
        x //= 2
    return z


# 6u+2 and u in NAF, most significant digit first, leading digit dropped
NAF_6UP2 = list(reversed(_naf(6 * U + 2)))[1:]
NAF_U = list(reversed(_naf(U)))[1:]


class Fp2:
    """F_p[i] / (i^2 + 1), represented as x*i + y."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    def __repr__(self):
        return "Fp2(%d, %d)" % (self.x, self.y)

    def __eq__(self, other):
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_one(self) -> bool:
        return self.x == 0 and self.y == 1

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
        t = fp_inv((self.x * self.x + self.y * self.y) % P)
        return Fp2(-self.x * t % P, self.y * t % P)

    def exp(self, k: int) -> "Fp2":
        r = FP2_ONE
        for bit in bin(k)[2:]:
            r = r.square()
            if bit == "1":
                r = r * self
        return r

    def sqrt(self) -> "Fp2 | None":
        """Square root in F_p2, or None if the element is a non-residue.

        Each F_p root is taken first and its square then checked, which
        decides residuosity without a Legendre symbol.  With
        n = x^2 + y^2 and alpha = (y +- sqrt(n))/2, the root is
        (x/(2 sqrt(alpha)))*i + sqrt(alpha); its square is self whenever
        both F_p roots exist.  The two choices of alpha multiply to
        -(x/2)^2, a non-residue for x != 0, so exactly one is a square.
        """
        if self.x == 0:
            v = fp_sqrt(self.y)
            if v * v % P == self.y:
                return Fp2(0, v)
            # -1 is a non-residue, so -y is a square and (t*i)^2 = -t^2 = y
            return Fp2(fp_sqrt(-self.y % P), 0)
        n = (self.x * self.x + self.y * self.y) % P
        lam = fp_sqrt(n)
        if lam * lam % P != n:
            return None
        alpha = (self.y + lam) * INV_2 % P
        v = fp_sqrt(alpha)
        if v * v % P != alpha:
            v = fp_sqrt((self.y - lam) * INV_2 % P)
        return Fp2(self.x * fp_inv(2 * v % P) % P, v)


FP2_ZERO = Fp2(0, 0)
FP2_ONE = Fp2(0, 1)

XI = Fp2(1, 3)  # i + 3, the sextic non-residue

XI1 = [XI.exp(k * (P - 1) // 6) for k in range(1, 6)]
XI2 = [x * x.conjugate() for x in XI1]

TWIST_B = XI.inverse().mul_int(3)


class Fp6:
    """Cubic extension of Fp2: x*tau^2 + y*tau + z with tau^3 = xi."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: Fp2, y: Fp2, z: Fp2):
        self.x = x
        self.y = y
        self.z = z

    def __eq__(self, other):
        return self.x == other.x and self.y == other.y and self.z == other.z

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero() and self.z.is_zero()

    def neg(self) -> "Fp6":
        return Fp6(self.x.neg(), self.y.neg(), self.z.neg())

    def __add__(self, other):
        return Fp6(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Fp6(self.x - other.x, self.y - other.y, self.z - other.z)

    def double(self) -> "Fp6":
        return Fp6(self.x.double(), self.y.double(), self.z.double())

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

    def mul_scalar(self, k: Fp2) -> "Fp6":
        return Fp6(self.x * k, self.y * k, self.z * k)

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


FP6_ZERO = Fp6(FP2_ZERO, FP2_ZERO, FP2_ZERO)
FP6_ONE = Fp6(FP2_ZERO, FP2_ZERO, FP2_ONE)


class Fp12:
    """Quadratic extension of Fp6: x*w + y with w^2 = tau."""

    __slots__ = ("x", "y")

    def __init__(self, x: Fp6, y: Fp6):
        self.x = x
        self.y = y

    def __eq__(self, other):
        return self.x == other.x and self.y == other.y

    def is_one(self) -> bool:
        return self.x.is_zero() and self.y == FP6_ONE

    def conjugate(self) -> "Fp12":
        return Fp12(self.x.neg(), self.y)

    def frobenius(self) -> "Fp12":
        e1 = Fp6(
            self.x.x.conjugate() * XI1[4],
            self.x.y.conjugate() * XI1[2],
            self.x.z.conjugate() * XI1[0],
        )
        e2 = Fp6(
            self.y.x.conjugate() * XI1[3],
            self.y.y.conjugate() * XI1[1],
            self.y.z.conjugate(),
        )
        return Fp12(e1, e2)

    def frobenius_p2(self) -> "Fp12":
        e1 = Fp6(self.x.x * XI2[4], self.x.y * XI2[2], self.x.z * XI2[0])
        e2 = Fp6(self.y.x * XI2[3], self.y.y * XI2[1], self.y.z)
        return Fp12(e1, e2)

    def __mul__(self, other):
        # Karatsuba: three Fp6 products
        axbx = self.x * other.x
        ayby = self.y * other.y
        tx = (self.x + self.y) * (other.x + other.y) - axbx - ayby
        return Fp12(tx, ayby + axbx.mul_tau())

    def mul_scalar(self, k: Fp6) -> "Fp12":
        return Fp12(self.x * k, self.y * k)

    def square(self) -> "Fp12":
        v0 = self.x * self.y
        t = self.x.mul_tau() + self.y
        ty = (self.x + self.y) * t - v0 - v0.mul_tau()
        return Fp12(v0.double(), ty)

    def cyclotomic_square(self) -> "Fp12":
        """Square of an element of the cyclotomic subgroup (Granger-Scott, PKC 2010).

        Over F_p4 = F_p2[s]/(s^2 - xi) with s = w^3, the element is
        a + b*w + c*w^2 and its square is
        (3a^2 - 2a', 3s*c^2 + 2b', 3b^2 - 2c') with ' the F_p4 conjugate.
        Wrong for any element outside that subgroup.
        """
        a2, a3 = _fp4_square(self.y.z, self.x.y)
        b2, b3 = _fp4_square(self.x.z, self.y.x)
        c2, c3 = _fp4_square(self.y.y, self.x.x)
        # coefficients of w^0 .. w^5: y.z, x.z, y.y, x.y, y.x, x.x
        y_z = _triple_minus_double(a2, self.y.z)
        x_y = _triple_plus_double(a3, self.x.y)
        x_z = _triple_plus_double(c3.mul_xi(), self.x.z)
        y_x = _triple_minus_double(c2, self.y.x)
        y_y = _triple_minus_double(b2, self.y.y)
        x_x = _triple_plus_double(b3, self.x.x)
        return Fp12(Fp6(x_x, x_y, x_z), Fp6(y_x, y_y, y_z))

    def exp(self, k: int) -> "Fp12":
        r = FP12_ONE
        for bit in bin(k)[2:]:
            r = r.square()
            if bit == "1":
                r = r * self
        return r

    def exp_u(self) -> "Fp12":
        """self^U for a cyclotomic-subgroup element: signed digits of U,
        where the inverse is the conjugate."""
        inv = self.conjugate()
        r = self
        for digit in NAF_U:
            r = r.cyclotomic_square()
            if digit == 1:
                r = r * self
            elif digit == -1:
                r = r * inv
        return r

    def inverse(self) -> "Fp12":
        t1 = self.y * self.y - (self.x * self.x).mul_tau()
        t2 = t1.inverse()
        return Fp12(self.x.neg(), self.y).mul_scalar(t2)


FP12_ONE = Fp12(FP6_ZERO, FP6_ONE)


def _fp4_square(a: Fp2, b: Fp2) -> tuple[Fp2, Fp2]:
    """(a + b*s)^2 in F_p2[s]/(s^2 - xi), as its two coefficients."""
    a2 = a.square()
    b2 = b.square()
    return b2.mul_xi() + a2, (a + b).square() - a2 - b2


def _triple_minus_double(t: Fp2, z: Fp2) -> Fp2:
    """3t - 2z, built as one Fp2 object."""
    return Fp2((3 * t.x - 2 * z.x) % P, (3 * t.y - 2 * z.y) % P)


def _triple_plus_double(t: Fp2, z: Fp2) -> Fp2:
    """3t + 2z, built as one Fp2 object."""
    return Fp2((3 * t.x + 2 * z.x) % P, (3 * t.y + 2 * z.y) % P)


class PointG1:
    """Jacobian point on y^2 = x^3 + 3 over F_p."""

    __slots__ = ("x", "y", "z")

    B = 3

    def __init__(self, x: int, y: int, z: int = 1):
        self.x = x
        self.y = y
        self.z = z

    def is_infinity(self) -> bool:
        return self.z == 0

    def affine(self) -> tuple[int, int]:
        if self.z == 0:
            raise ZeroDivisionError("point at infinity has no affine form")
        if self.z == 1:
            return self.x, self.y
        zinv = fp_inv(self.z)
        zinv2 = zinv * zinv % P
        return self.x * zinv2 % P, self.y * zinv2 % P * zinv % P

    def __eq__(self, other):
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        return self.affine() == other.affine()

    def double(self) -> "PointG1":
        # dbl-2009-l
        a = self.x * self.x % P
        b = self.y * self.y % P
        c = b * b % P
        d = 2 * ((self.x + b) ** 2 - a - c) % P
        e = 3 * a % P
        f = e * e % P
        x3 = (f - 2 * d) % P
        y3 = (e * (d - x3) - 8 * c) % P
        z3 = 2 * self.y * self.z % P
        return PointG1(x3, y3, z3)

    def add(self, other: "PointG1") -> "PointG1":
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        # add-2007-bl
        z1z1 = self.z * self.z % P
        z2z2 = other.z * other.z % P
        u1 = self.x * z2z2 % P
        u2 = other.x * z1z1 % P
        s1 = self.y * other.z * z2z2 % P
        s2 = other.y * self.z * z1z1 % P
        h = (u2 - u1) % P
        r = (s2 - s1) % P
        if h == 0 and r == 0:
            return self.double()
        r = 2 * r % P
        i = 4 * h * h % P
        j = h * i % P
        v = u1 * i % P
        x3 = (r * r - j - 2 * v) % P
        y3 = (r * (v - x3) - 2 * s1 * j) % P
        z3 = ((self.z + other.z) ** 2 - z1z1 - z2z2) * h % P
        return PointG1(x3, y3, z3)

    def scalar_mul(self, k: int) -> "PointG1":
        r = PointG1(0, 0, 0)
        for bit in bin(k % ORDER)[2:]:
            r = r.double()
            if bit == "1":
                r = r.add(self)
        return r


class PointG2:
    """Jacobian point on the sextic twist y^2 = x^3 + b' over F_p2."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: Fp2, y: Fp2, z: Fp2 = FP2_ONE):
        self.x = x
        self.y = y
        self.z = z

    def is_infinity(self) -> bool:
        return self.z.is_zero()

    def affine(self) -> tuple[Fp2, Fp2]:
        if self.z.is_zero():
            raise ZeroDivisionError("point at infinity has no affine form")
        if self.z.is_one():
            return self.x, self.y
        zinv = self.z.inverse()
        zinv2 = zinv.square()
        return self.x * zinv2, self.y * zinv2 * zinv

    def is_on_curve(self) -> bool:
        if self.is_infinity():
            return True
        x, y = self.affine()
        return y.square() == x.square() * x + TWIST_B

    def __eq__(self, other):
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        return self.affine() == other.affine()

    def neg(self) -> "PointG2":
        return PointG2(self.x, self.y.neg(), self.z)

    def double(self) -> "PointG2":
        a = self.x.square()
        b = self.y.square()
        c = b.square()
        d = ((self.x + b).square() - a - c).double()
        e = a.double() + a
        f = e.square()
        c8 = c.double().double().double()
        x3 = f - d.double()
        y3 = e * (d - x3) - c8
        z3 = (self.y * self.z).double()
        return PointG2(x3, y3, z3)

    def add(self, other: "PointG2") -> "PointG2":
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        z1z1 = self.z.square()
        z2z2 = other.z.square()
        u1 = self.x * z2z2
        u2 = other.x * z1z1
        s1 = self.y * other.z * z2z2
        s2 = other.y * self.z * z1z1
        h = u2 - u1
        r = s2 - s1
        if h.is_zero() and r.is_zero():
            return self.double()
        r = r.double()
        i = h.square().double().double()
        j = h * i
        v = u1 * i
        x3 = r.square() - j - v.double()
        y3 = r * (v - x3) - (s1 * j).double()
        z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h
        return PointG2(x3, y3, z3)

    def scalar_mul(self, k: int) -> "PointG2":
        """[k mod n]Q by 2-D GLS (Galbraith-Lin-Scott, Eurocrypt 2009).

        psi acts on G2 as [p] = [6u^2], since n = p - 6u^2.  Splitting
        k mod n = a*6u^2 + b gives [k]Q = [a]psi(Q) + [b]Q, with a and b
        of about 128 bits each, so one Shamir ladder over Q, psi(Q) and
        Q + psi(Q) takes half the doublings of a plain ladder.

        Valid domain: Q in G2 with any k, or any twist point with
        k mod n < 6u^2, where a = 0 and psi(Q) is never added.  ``in_g2``
        relies on the second case for its [u]Q on unchecked points.
        """
        a, b = divmod(k % ORDER, PSI_EIGENVALUE)
        q_psi = psi(self)
        table = (None, self, q_psi, self.add(q_psi))
        r = PointG2(FP2_ZERO, FP2_ONE, FP2_ZERO)
        for i in reversed(range(max(a.bit_length(), b.bit_length()))):
            r = r.double()
            digit = (a >> i & 1) << 1 | b >> i & 1
            if digit:
                r = r.add(table[digit])
        return r


G1_GEN = PointG1(1, P - 2)
G1_INF = PointG1(0, 0, 0)
G2_INF = PointG2(FP2_ZERO, FP2_ONE, FP2_ZERO)

# Generator of the order-n subgroup of the twist (dclxvi parameters)
G2_GEN = PointG2(
    Fp2(21167961636542580255011770066570541300993051739349375019639421053990175267184,
        64746500191241794695844075326670126197795977525365406531717464316923369116492),
    Fp2(20666913350058776956210519119118544732556678129809273996262322366050359951122,
        17778617556404439934652658462602675281523610326338642107814333856843981424549),
    FP2_ONE,
)


def psi(q: PointG2) -> PointG2:
    """Untwist-Frobenius-twist endomorphism of the twist; [p] on G2."""
    return PointG2(q.x.conjugate() * XI1[1], q.y.conjugate() * XI1[2], q.z.conjugate())


def in_g2(q: PointG2) -> bool:
    """Membership of a twist point in the order-n subgroup.

    [u+1]Q + psi([u]Q) + psi^2([u]Q) == psi^3([2u]Q) (Scott, eprint
    2021/1130): one 63-bit scalar multiplication instead of [n]Q.
    u < 6u^2, so ``scalar_mul`` gives [u]Q without psi even for Q
    outside G2.
    """
    uq = q.scalar_mul(U)
    lhs = uq.add(q).add(psi(uq)).add(psi(psi(uq)))
    return lhs == psi(psi(psi(uq.double())))


# --- optimal ate pairing -------------------------------------------------

def _tangent(t: PointG2):
    """2T and the tangent at T: (6x^3 - 4y^2, -6x^2 z^2, 4y z^3)."""
    zz = t.z.square()
    xx = t.x.square()
    t2 = t.double()
    return t2, ((xx * t.x).mul_int(6) - t.y.square().double().double(),
                (xx * zz).mul_int(6).neg(), (t2.z * zz).double())


def _chord(t: PointG2, q: PointG2):
    """T + Q and the chord through T and an affine Q: (2(r x_Q - y_Q z3),
    -2r, 2 z3) with r = 2(y_Q z^3 - y) and z3 the z of T + Q."""
    r = (q.y * t.z * t.z.square() - t.y).double()
    t = t.add(q)
    return t, ((r * q.x - q.y * t.z).double(), r.double().neg(), t.z.double())


def g2_lines(q: PointG2) -> list[list[tuple[Fp2, Fp2, Fp2]]]:
    """P-free line coefficients (a, b, c) of the optimal ate Miller loop on Q.

    T starts at Q and moves only by ``PointG2.double`` and ``add``; the
    generic addition relies on T != +-Q, which holds for Q in G2.  There
    is one group per NAF_6UP2 digit (the tangent, then the chord with Q
    or -Q for a non-zero digit) and a last group for psi(Q) and
    -psi^2(Q).  A line is evaluated at P = (px, py) as (a, b*px, c*py).

    The only code that builds a table.  Building one costs about a third
    of a one-pair Miller loop, so a caller that pairs the same Q again
    passes the same table: ``Bn256Suite.pair`` keeps it on the group-B
    element.  Q must not be the point at infinity.
    """
    qa = PointG2(*q.affine())
    t = qa
    lines = []
    for digit in NAF_6UP2:
        t, tangent = _tangent(t)
        group = [tangent]
        if digit:
            t, chord = _chord(t, qa if digit == 1 else qa.neg())
            group.append(chord)
        lines.append(group)
    t, first = _chord(t, psi(qa))
    _, second = _chord(t, PointG2(qa.x.mul_int(XI2[1].y), qa.y, FP2_ONE))
    lines.append([first, second])
    return lines


def _mul_linear(g: Fp6, a: Fp2, b: Fp2) -> Fp6:
    """g * (a*tau + b) in five Fp2 products, where a full Fp6 product takes six."""
    ya = g.y * a
    zb = g.z * b
    return Fp6(g.x * b + ya, (g.y + g.z) * (a + b) - ya - zb, (g.x * a).mul_xi() + zb)


def _mul_line(f: Fp12, a: Fp2, b: Fp2, c: Fp2) -> Fp12:
    """f * ((a*tau + b)*w + c), the line evaluated at P.

    Karatsuba over w with both Fp6 products sparse (eprint 2010/354 §4):
    13 Fp2 products instead of 15.
    """
    t1 = _mul_linear(f.x, a, b)
    t3 = f.y.mul_scalar(c)
    fx = _mul_linear(f.x + f.y, a, b + c) - t1 - t3
    fy = t3 + t1.mul_tau()
    return Fp12(fx, fy)


def miller_loop(pairs) -> Fp12:
    """Product of the optimal ate Miller loops of (P, lines) pairs, where
    ``lines`` is ``g2_lines(Q)`` for the pair's Q.

    The loop only evaluates tables; it builds none, so the caller may
    pass one Q's table to many loops.  One accumulator serves every
    pair: it is squared once per NAF digit and each pair's lines for
    that digit, evaluated at its P, are multiplied into it.  Because
    (f1*f2)^2 * l1 * l2 = (f1^2 * l1) * (f2^2 * l2), the result equals
    the product of the single-pair loops exactly, with one Fp12 squaring
    per digit instead of one per digit and pair.  No P may be at
    infinity, and each Q must lie in G2.
    """
    evaluated = [(lines, *p.affine()) for p, lines in pairs]
    f = FP12_ONE
    for step in range(len(NAF_6UP2) + 1):
        if step < len(NAF_6UP2):
            f = f.square()
        for lines, px, py in evaluated:
            for la, lb, lc in lines[step]:
                f = _mul_line(f, la, lb.mul_int(px), lc.mul_int(py))
    return f


def final_exponentiation(f: Fp12) -> Fp12:
    # Algorithm 31, eprint 2010/354
    t1 = f.conjugate() * f.inverse()  # f^(p^6 - 1)
    t1 = t1 * t1.frobenius_p2()

    fp1 = t1.frobenius()
    fp2 = t1.frobenius_p2()
    fp3 = fp2.frobenius()

    # t1 now lies in the cyclotomic subgroup, and so does everything below
    fu1 = t1.exp_u()
    fu2 = fu1.exp_u()
    fu3 = fu2.exp_u()

    y3 = fu1.frobenius().conjugate()
    fu2p = fu2.frobenius()
    fu3p = fu3.frobenius()
    y2 = fu2.frobenius_p2()

    y0 = fp1 * fp2 * fp3
    y1 = t1.conjugate()
    y5 = fu2.conjugate()
    y4 = (fu1 * fu2p).conjugate()
    y6 = (fu3 * fu3p).conjugate()

    t0 = y6.cyclotomic_square() * y4 * y5
    t1 = y3 * y5 * t0
    t0 = t0 * y2
    t1 = (t1.cyclotomic_square() * t0).cyclotomic_square()
    t0 = t1 * y1
    t1 = t1 * y0
    t0 = t0.cyclotomic_square() * t1
    return t0


def pairing_product_is_one(pairs) -> bool:
    """Whether the product of e(p, q) over (p, q) pairs is 1.

    One Miller loop runs over every pair with a factor at infinity
    dropped (its pairing is 1), and one final exponentiation follows
    (Scott, "On the efficient implementation of pairing-based
    protocols", IMA 2011).  Each Q's table is built here and dropped.
    """
    live = [(p, g2_lines(q)) for p, q in pairs if not (p.is_infinity() or q.is_infinity())]
    return final_exponentiation(miller_loop(live)).is_one()


# --- hash to G1 ----------------------------------------------------------

SQRT_NEG_3 = fp_sqrt(P - 3)


def _map_to_g1(t: int) -> PointG1:
    """Fouque-Tibouchi map F_p -> E(F_p) for BN curves (b = 3)."""
    if t == 0:
        t = 1  # the map is undefined at 0; negligible-probability input
    b = PointG1.B
    t2 = t * t % P
    denom = (1 + b + t2) % P
    if denom == 0:
        t = (t + 1) % P
        t2 = t * t % P
        denom = (1 + b + t2) % P
    chi_t = fp_legendre(t)
    w = SQRT_NEG_3 * t % P * fp_inv(denom) % P

    def g(x: int) -> int:
        return (x * x * x + b) % P

    x1 = ((SQRT_NEG_3 - 1) * INV_2 - t * w) % P
    for x in (x1, (-1 - x1) % P):
        gx = g(x)
        y = fp_sqrt(gx)
        # a non-zero square (Legendre symbol 1); gx = 0 falls through
        if gx and y * y % P == gx:
            return PointG1(x, chi_t * y % P)
    x3 = (1 + fp_inv(w * w % P)) % P
    gx3 = g(x3)
    return PointG1(x3, chi_t * fp_sqrt(gx3) % P)


def _expand_message_xmd(msg: bytes, dst: bytes, out_len: int) -> bytes:
    """expand_message_xmd with SHA-256 (RFC 9380, section 5.3.1)."""
    h = hashlib.sha256
    b_in_bytes = 32
    ell = (out_len + b_in_bytes - 1) // b_in_bytes
    if ell > 255 or len(dst) > 255:
        raise ValueError("expand_message_xmd parameter out of range")
    dst_prime = dst + len(dst).to_bytes(1, "big")
    z_pad = b"\x00" * 64
    l_i_b = out_len.to_bytes(2, "big")
    b0 = h(z_pad + msg + l_i_b + b"\x00" + dst_prime).digest()
    bi = h(b0 + b"\x01" + dst_prime).digest()
    out = [bi]
    for i in range(2, ell + 1):
        bi = h(bytes(a ^ b for a, b in zip(b0, bi)) + i.to_bytes(1, "big") + dst_prime).digest()
        out.append(bi)
    return b"".join(out)[:out_len]


def hash_to_g1(msg: bytes, dst: bytes) -> PointG1:
    """Indifferentiable hash to G1: sum of two Fouque-Tibouchi maps."""
    uniform = _expand_message_xmd(msg, dst, 96)
    t0 = int.from_bytes(uniform[:48], "big") % P
    t1 = int.from_bytes(uniform[48:], "big") % P
    return _map_to_g1(t0).add(_map_to_g1(t1))


# --- serialization -------------------------------------------------------

FP_BYTES = 32


def g1_to_bytes(pt: PointG1) -> bytes:
    if pt.is_infinity():
        return b"\x00" + b"\x00" * FP_BYTES
    x, y = pt.affine()
    prefix = b"\x03" if y & 1 else b"\x02"
    return prefix + x.to_bytes(FP_BYTES, "big")


def g1_from_bytes(data: bytes) -> PointG1:
    """Decode a compressed G1 point: take the root of x^3 + 3, then check
    its square, so x is on the curve exactly when the root squares back.
    G1 is the whole curve, so no subgroup test follows."""
    if len(data) != 1 + FP_BYTES:
        raise ValueError("bad G1 encoding length")
    if data[0] == 0:
        if any(data[1:]):
            raise ValueError("bad G1 infinity encoding")
        return PointG1(0, 0, 0)
    if data[0] not in (2, 3):
        raise ValueError("bad G1 prefix")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise ValueError("G1 x coordinate out of range")
    yy = (x * x * x + PointG1.B) % P
    y = fp_sqrt(yy)
    if y * y % P != yy:
        raise ValueError("G1 x coordinate not on curve")
    if (y & 1) != (data[0] & 1):
        y = P - y
    return PointG1(x, y)


def g2_to_bytes(pt: PointG2) -> bytes:
    if pt.is_infinity():
        return b"\x00" + b"\x00" * (2 * FP_BYTES)
    x, y = pt.affine()
    sign = y.y & 1 if y.y != 0 else y.x & 1
    prefix = b"\x03" if sign else b"\x02"
    return prefix + x.x.to_bytes(FP_BYTES, "big") + x.y.to_bytes(FP_BYTES, "big")


def g2_from_bytes(data: bytes) -> PointG2:
    if len(data) != 1 + 2 * FP_BYTES:
        raise ValueError("bad G2 encoding length")
    if data[0] == 0:
        if any(data[1:]):
            raise ValueError("bad G2 infinity encoding")
        return G2_INF
    if data[0] not in (2, 3):
        raise ValueError("bad G2 prefix")
    xx = int.from_bytes(data[1:1 + FP_BYTES], "big")
    xy = int.from_bytes(data[1 + FP_BYTES:], "big")
    if xx >= P or xy >= P:
        raise ValueError("G2 x coordinate out of range")
    x = Fp2(xx, xy)
    yy = x.square() * x + TWIST_B
    y = yy.sqrt()
    if y is None:
        raise ValueError("G2 x coordinate not on twist")
    sign = y.y & 1 if y.y != 0 else y.x & 1
    if sign != (data[0] & 1):
        y = y.neg()
    pt = PointG2(x, y)
    if not in_g2(pt):
        raise ValueError("decoded G2 point not in the prime-order subgroup")
    return pt


def gt_to_bytes(e: Fp12) -> bytes:
    coords = (
        e.x.x.x, e.x.x.y, e.x.y.x, e.x.y.y, e.x.z.x, e.x.z.y,
        e.y.x.x, e.y.x.y, e.y.y.x, e.y.y.y, e.y.z.x, e.y.z.y,
    )
    return b"".join(c.to_bytes(FP_BYTES, "big") for c in coords)
