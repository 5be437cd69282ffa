"""The two curves of the BN-256 pairing and their points.

G1 is the curve y^2 = x^3 + 3 over F_p, in Jacobian coordinates over
ints; G2 is the order-n subgroup of its sextic twist y^2 = x^3 + b' over
F_p2, in Jacobian coordinates whose six ints, the i and real parts of x,
y and z, a ``PointG2`` holds as one tuple ``c``.  This module holds the
points, their formulas and scalar multiplications, the endomorphism
``psi`` and the G2 subgroup test ``in_g2``; the pairing, hash-to-G1 and
the encodings live in ``bn256``, the field tower in ``tower``.

Nearly all G2 work (the GLS ladder of ``PointG2.scalar_mul``, ``in_g2``
and the line tables of ``bn256.g2_lines``) goes to ``PointG2.double``
and ``add`` and to ``psi``.  They unpack ``c`` into named ints, reduce
mod P a value that feeds a further product, and reduce each output int
once, as the F_p12 kernels of ``tower`` do.  Every int a point holds
lies in [0, P), because the encodings read the raw ints.  The points are
a module of their own because a process that imports from source, with
no cached bytecode, compiles each module whole: with the int formulas
inside ``bn256``, importing ``pbcap.cli`` peaked about 0.2 MB higher, and
so did the benchmark's peak RSS, while split into two modules it peaks
as before.
Nothing here is constant-time.
"""

from __future__ import annotations

from .tower import P, U, XI1, fp2_inv, fp2_mul, fp_inv, pow_bits, pow_u

ORDER = P - 6 * U * U
PSI_EIGENVALUE = 6 * U * U  # p mod n: psi's action on G2

TWIST_B = tuple(3 * c % P for c in fp2_inv((1, 3)))  # 3/xi, xi = i + 3


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

    def neg(self) -> "PointG1":
        return PointG1(self.x, -self.y % P, self.z)

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
        return pow_bits(self, k % ORDER, G1_INF, PointG1.double, PointG1.add)


class PointG2:
    """Jacobian point on the sextic twist y^2 = x^3 + b' over F_p2: ``c``
    holds the i and real parts of x, y and z, six ints in [0, P)."""

    __slots__ = ("c",)

    def __init__(self, c: tuple[int, int, int, int, int, int]):
        self.c = c

    def is_infinity(self) -> bool:
        return self.c[4] == 0 and self.c[5] == 0

    def affine(self) -> tuple[int, int, int, int]:
        xi, xr, yi, yr, zi, zr = self.c
        if self.is_infinity():
            raise ZeroDivisionError("point at infinity has no affine form")
        if zi == 0 and zr == 1:
            return xi, xr, yi, yr
        zinv = fp2_inv((zi, zr))
        zinv2 = fp2_mul(zinv, zinv)
        return (*fp2_mul((xi, xr), zinv2), *fp2_mul(fp2_mul((yi, yr), zinv2), zinv))

    def __eq__(self, other):
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        return self.affine() == other.affine()

    def neg(self) -> "PointG2":
        xi, xr, yi, yr, zi, zr = self.c
        return PointG2((xi, xr, -yi % P, -yr % P, zi, zr))

    # In the formulas below, ai and ar are the i and real parts of a (an Fp2
    # is x*i + y).  An Fp2 square is (2*i*r, (r - i)(r + i)); an Fp2 product
    # is Karatsuba, with m and n the real and i products.

    def double(self) -> "PointG2":
        """dbl-2009-l, as ``PointG1.double``."""
        xi, xr, yi, yr, zi, zr = self.c
        # A = X^2, B = Y^2, C = B^2
        ai, ar = 2 * xi * xr % P, (xr - xi) * (xr + xi) % P
        bi, br = 2 * yi * yr % P, (yr - yi) * (yr + yi) % P
        ci, cr = 2 * bi * br, (br - bi) * (br + bi)
        # D = 2((X + B)^2 - A - C), E = 3A, X3 = E^2 - 2D
        si, sr = xi + bi, xr + br
        di, dr = 2 * (2 * si * sr - ai - ci) % P, 2 * ((sr - si) * (sr + si) - ar - cr) % P
        ei, er = 3 * ai, 3 * ar
        x3i, x3r = (2 * ei * er - 2 * di) % P, ((er - ei) * (er + ei) - 2 * dr) % P
        # Y3 = E(D - X3) - 8C, Z3 = 2YZ
        ui, ur = di - x3i, dr - x3r
        m, n = er * ur, ei * ui
        y3i, y3r = ((ei + er) * (ui + ur) - m - n - 8 * ci) % P, (m - n - 8 * cr) % P
        m, n = yr * zr, yi * zi
        return PointG2((x3i, x3r, y3i, y3r, 2 * ((yi + yr) * (zi + zr) - m - n) % P, 2 * (m - n) % P))

    def add(self, other: "PointG2") -> "PointG2":
        """add-2007-bl, as ``PointG1.add``; P + P takes ``double``."""
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        x1i, x1r, y1i, y1r, z1i, z1r = self.c
        x2i, x2r, y2i, y2r, z2i, z2r = other.c
        # Z1Z1 = Z1^2, Z2Z2 = Z2^2, U1 = X1 Z2Z2, U2 = X2 Z1Z1
        z11i, z11r = 2 * z1i * z1r % P, (z1r - z1i) * (z1r + z1i) % P
        z22i, z22r = 2 * z2i * z2r % P, (z2r - z2i) * (z2r + z2i) % P
        m, n = x1r * z22r, x1i * z22i
        u1i, u1r = ((x1i + x1r) * (z22i + z22r) - m - n) % P, (m - n) % P
        m, n = x2r * z11r, x2i * z11i
        hi, hr = ((x2i + x2r) * (z11i + z11r) - m - n - u1i) % P, (m - n - u1r) % P
        # S1 = Y1 Z2 Z2Z2, S2 = Y2 Z1 Z1Z1, H = U2 - U1, R = S2 - S1
        m, n = y1r * z2r, y1i * z2i
        ti, tr = ((y1i + y1r) * (z2i + z2r) - m - n) % P, (m - n) % P
        m, n = tr * z22r, ti * z22i
        s1i, s1r = ((ti + tr) * (z22i + z22r) - m - n) % P, (m - n) % P
        m, n = y2r * z1r, y2i * z1i
        ti, tr = ((y2i + y2r) * (z1i + z1r) - m - n) % P, (m - n) % P
        m, n = tr * z11r, ti * z11i
        ri, rr = ((ti + tr) * (z11i + z11r) - m - n - s1i) % P, (m - n - s1r) % P
        if not (hi or hr or ri or rr):
            return self.double()
        ri, rr = 2 * ri, 2 * rr
        # I = 4H^2, J = H I, V = U1 I, X3 = R^2 - J - 2V
        ii, ir = 8 * hi * hr % P, 4 * (hr - hi) * (hr + hi) % P
        m, n = hr * ir, hi * ii
        ji, jr = ((hi + hr) * (ii + ir) - m - n) % P, (m - n) % P
        m, n = u1r * ir, u1i * ii
        vi, vr = ((u1i + u1r) * (ii + ir) - m - n) % P, (m - n) % P
        x3i, x3r = (2 * ri * rr - ji - 2 * vi) % P, ((rr - ri) * (rr + ri) - jr - 2 * vr) % P
        # Y3 = R(V - X3) - 2 S1 J
        wi, wr = vi - x3i, vr - x3r
        m, n = rr * wr, ri * wi
        mj, nj = s1r * jr, s1i * ji
        y3i = ((ri + rr) * (wi + wr) - m - n - 2 * ((s1i + s1r) * (ji + jr) - mj - nj)) % P
        y3r = (m - n - 2 * (mj - nj)) % P
        # Z3 = ((Z1 + Z2)^2 - Z1Z1 - Z2Z2) H
        si, sr = z1i + z2i, z1r + z2r
        ti, tr = (2 * si * sr - z11i - z22i) % P, ((sr - si) * (sr + si) - z11r - z22r) % P
        m, n = tr * hr, ti * hi
        return PointG2((x3i, x3r, y3i, y3r, ((ti + tr) * (hi + hr) - m - n) % P, (m - n) % P))

    def scalar_mul(self, k: int) -> "PointG2":
        """[k mod n]Q by 2-D GLS (Galbraith-Lin-Scott, Eurocrypt 2009).

        psi acts on G2 as [p] = [6u^2], since n = p - 6u^2.  Splitting
        k mod n = a*6u^2 + b gives [k]Q = [a]psi(Q) + [b]Q, with a and b
        of about 128 bits each, so one Shamir ladder over Q, psi(Q) and
        Q + psi(Q) takes half the doublings of a plain ladder.

        Valid domain: Q in G2 with any k, or any twist point with
        k mod n < 6u^2, where a = 0 and psi(Q) is never added.  The second
        case serves only the frozen twist entries of the G2 vectors
        (``in_g2`` takes its [u]Q from ``tower.pow_u``).
        """
        a, b = divmod(k % ORDER, PSI_EIGENVALUE)
        q_psi = psi(self)
        table = (None, self, q_psi, self.add(q_psi))
        r = G2_INF
        for i in reversed(range(max(a.bit_length(), b.bit_length()))):
            r = r.double()
            digit = (a >> i & 1) << 1 | b >> i & 1
            if digit:
                r = r.add(table[digit])
        return r


G1_GEN = PointG1(1, P - 2)
G1_INF = PointG1(0, 0, 0)
G2_INF = PointG2((0, 0, 0, 1, 0, 0))

# Generator of the order-n subgroup of the twist (dclxvi parameters)
G2_GEN = PointG2((
    21167961636542580255011770066570541300993051739349375019639421053990175267184,
    64746500191241794695844075326670126197795977525365406531717464316923369116492,
    20666913350058776956210519119118544732556678129809273996262322366050359951122,
    17778617556404439934652658462602675281523610326338642107814333856843981424549,
    0, 1,
))


PSI_X, PSI_Y = XI1[1], XI1[2]


def psi(q: PointG2) -> PointG2:
    """Untwist-Frobenius-twist endomorphism of the twist; [p] on G2:
    (conj(x) xi^((p-1)/3), conj(y) xi^((p-1)/2), conj(z))."""
    xi, xr, yi, yr, zi, zr = q.c
    xi, yi = -xi, -yi
    (ai, ar), (bi, br) = PSI_X, PSI_Y
    m, n = xr * ar, xi * ai
    mb, nb = yr * br, yi * bi
    return PointG2((((xi + xr) * (ai + ar) - m - n) % P, (m - n) % P,
                    ((yi + yr) * (bi + br) - mb - nb) % P, (mb - nb) % P, -zi % P, zr))


def in_g2(q: PointG2) -> bool:
    """Membership of a twist point in the order-n subgroup.

    [u+1]Q + psi([u]Q) + psi^2([u]Q) == psi^3([2u]Q) (Scott, eprint
    2021/1130): one [u]Q, three ladders by v, instead of [n]Q.
    """
    # [u]Q for any twist point: ``add`` handles +-base and infinity
    uq = pow_u(q, PointG2.double, PointG2.add, PointG2.neg)
    lhs = uq.add(q).add(psi(uq)).add(psi(psi(uq)))
    return lhs == psi(psi(psi(uq.double())))
