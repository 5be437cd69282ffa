"""The F_p12 tower of the BN-256 pairing.

F_p2 = F_p[i]/(i^2 + 1), F_p6 = F_p2[tau]/(tau^3 - xi) with xi = i + 3,
and F_p12 = F_p6[w]/(w^2 - tau), following Beuchat et al. (eprint
2010/354).  This module holds the field constants (P, U and the
Frobenius constants), the classes ``Fp2``, ``Fp6`` and ``Fp12``, and the
sparse line product ``_mul_line`` of the Miller loop; the curve points
live in ``curve``, the pairing, hashing and serialization in ``bn256``.

Field elements are plain Python ints; the extension fields are thin
classes over them.  Every coefficient an element holds lies in [0, P),
because equality and ``bn256.gt_to_bytes`` read the raw ints.  Nothing
here is constant-time.

Four kernels take most of a pairing's time: ``Fp12.__mul__``,
``Fp12.square``, ``Fp12.cyclotomic_square`` and ``_mul_line``.  Each reads
its operands' coefficients into ints, keeps the algorithm of the class
formulas it replaced (Karatsuba over w and in each F_p6 and F_p2 product,
Granger-Scott squaring), builds no intermediate ``Fp2`` or ``Fp6`` object
and reduces each of its 12 output coefficients mod P exactly once (lazy
reduction, Aranha et al., Eurocrypt 2011).  Every product it takes is of
linear combinations of reduced coefficients, so no intermediate grows
past about 520 bits.  The F_p6 products are the int-level helpers
``_fp6_mul`` and ``_fp6_mul_sparse``, not copies inlined at each call
site: a call costs at most a few percent of a kernel, while the inlined
copies made this module 40% larger (8.2k against 5.8k syntax-tree
nodes), and compiling it from source, as every process does when no
bytecode is cached, raised the benchmark's peak RSS by 0.35 MB.

``Fp12.cyclotomic_square`` and ``Fp12.exp_u`` are correct only inside the
cyclotomic subgroup (elements f with f^(p^6 + 1) = 1), which is where the
hard part of ``bn256.final_exponentiation`` runs.  They must never touch
a decoded or otherwise unchecked element: the Miller loop and GT
exponentiation use the generic ``square`` and ``exp``.
"""

from __future__ import annotations

V = 1868033
U = V ** 3

P = (((U + 1) * 6 * U + 4) * U + 1) * 6 * U + 1

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


FP6_ZERO = Fp6(FP2_ZERO, FP2_ZERO, FP2_ZERO)
FP6_ONE = Fp6(FP2_ZERO, FP2_ZERO, FP2_ONE)


def _fp12(c: tuple[int, ...]) -> "Fp12":
    """The element with unreduced coefficients c, in ``gt_to_bytes`` order
    (x.x.x, x.x.y, ..., y.z.y), each reduced mod P once."""
    return Fp12(
        Fp6(Fp2(c[0] % P, c[1] % P), Fp2(c[2] % P, c[3] % P), Fp2(c[4] % P, c[5] % P)),
        Fp6(Fp2(c[6] % P, c[7] % P), Fp2(c[8] % P, c[9] % P), Fp2(c[10] % P, c[11] % P)),
    )


def _fp6_mul(a2i, a2r, a1i, a1r, a0i, a0r, b2i, b2r, b1i, b1r, b0i, b0r):
    """The unreduced product of two Fp6 elements given as ints, in and out
    alike as the i and real parts of the tau^2, tau and 1 coefficients:
    Algorithm 13 of eprint 2010/354, with each of its six Fp2 products by
    Karatsuba.  m and n are the real and i products of one Fp2 product, and
    a product by xi = i + 3 maps (i, r) to (3i + r, 3r - i)."""
    m, n = a0r * b0r, a0i * b0i
    t0r, t0i = m - n, (a0i + a0r) * (b0i + b0r) - m - n
    m, n = a1r * b1r, a1i * b1i
    t1r, t1i = m - n, (a1i + a1r) * (b1i + b1r) - m - n
    m, n = a2r * b2r, a2i * b2i
    t2r, t2i = m - n, (a2i + a2r) * (b2i + b2r) - m - n
    # tau^0: xi*((a2 + a1)(b2 + b1) - t1 - t2) + t0
    ur, ui, vr, vi = a2r + a1r, a2i + a1i, b2r + b1r, b2i + b1i
    m, n = ur * vr, ui * vi
    qr, qi = m - n - t1r - t2r, (ui + ur) * (vi + vr) - m - n - t1i - t2i
    c0i, c0r = 3 * qi + qr + t0i, 3 * qr - qi + t0r
    # tau^1: (a1 + a0)(b1 + b0) - t0 - t1 + xi*t2
    ur, ui, vr, vi = a1r + a0r, a1i + a0i, b1r + b0r, b1i + b0i
    m, n = ur * vr, ui * vi
    c1r = m - n - t0r - t1r + 3 * t2r - t2i
    c1i = (ui + ur) * (vi + vr) - m - n - t0i - t1i + 3 * t2i + t2r
    # tau^2: (a2 + a0)(b2 + b0) - t0 + t1 - t2
    ur, ui, vr, vi = a2r + a0r, a2i + a0i, b2r + b0r, b2i + b0i
    m, n = ur * vr, ui * vi
    return ((ui + ur) * (vi + vr) - m - n - t0i + t1i - t2i, m - n - t0r + t1r - t2r,
            c1i, c1r, c0i, c0r)


def _fp6_mul_sparse(a2i, a2r, a1i, a1r, a0i, a0r, pi, pr, qi, qr):
    """``_fp6_mul`` by p*tau + q, an element with no tau^2 term: five Fp2
    products where a full product takes six."""
    m, n = a1r * pr, a1i * pi
    ur, ui = m - n, (a1i + a1r) * (pi + pr) - m - n
    m, n = a0r * qr, a0i * qi
    vr, vi = m - n, (a0i + a0r) * (qi + qr) - m - n
    # tau^2: a2*q + a1*p
    m, n = a2r * qr, a2i * qi
    c2i, c2r = (a2i + a2r) * (qi + qr) - m - n + ui, m - n + ur
    # tau^1: a1*q + a0*p = (a1 + a0)(p + q) - a1*p - a0*q
    m, n = (a1r + a0r) * (pr + qr), (a1i + a0i) * (pi + qi)
    c1r = m - n - ur - vr
    c1i = (a1i + a1r + a0i + a0r) * (pi + pr + qi + qr) - m - n - ui - vi
    # tau^0: xi*a2*p + a0*q
    m, n = a2r * pr, a2i * pi
    wr, wi = m - n, (a2i + a2r) * (pi + pr) - m - n
    return c2i, c2r, c1i, c1r, 3 * wi + wr + vi, 3 * wr - wi + vr


class Fp12:
    """Quadratic extension of Fp6: x*w + y with w^2 = tau.

    The kernels read an Fp6 operand u as six ints named by power of tau
    and part: u2i, u2r = u.x.x, u.x.y (the i and real parts of the tau^2
    coefficient), u1i, u1r = u.y.x, u.y.y and u0i, u0r = u.z.x, u.z.y.
    """

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
        """(a*w + b)(c*w + d) = ((a + b)(c + d) - ac - bd)*w + bd + ac*tau:
        Karatsuba over w, three ``_fp6_mul`` products."""
        a, b, c, d = self.x, self.y, other.x, other.y
        a2i, a2r, a1i, a1r, a0i, a0r = a.x.x, a.x.y, a.y.x, a.y.y, a.z.x, a.z.y
        b2i, b2r, b1i, b1r, b0i, b0r = b.x.x, b.x.y, b.y.x, b.y.y, b.z.x, b.z.y
        c2i, c2r, c1i, c1r, c0i, c0r = c.x.x, c.x.y, c.y.x, c.y.y, c.z.x, c.z.y
        d2i, d2r, d1i, d1r, d0i, d0r = d.x.x, d.x.y, d.y.x, d.y.y, d.z.x, d.z.y
        # u = ac, v = bd and s = (a + b)(c + d)
        u2i, u2r, u1i, u1r, u0i, u0r = _fp6_mul(a2i, a2r, a1i, a1r, a0i, a0r,
                                                c2i, c2r, c1i, c1r, c0i, c0r)
        v2i, v2r, v1i, v1r, v0i, v0r = _fp6_mul(b2i, b2r, b1i, b1r, b0i, b0r,
                                                d2i, d2r, d1i, d1r, d0i, d0r)
        s2i, s2r, s1i, s1r, s0i, s0r = _fp6_mul(
            a2i + b2i, a2r + b2r, a1i + b1i, a1r + b1r, a0i + b0i, a0r + b0r,
            c2i + d2i, c2r + d2r, c1i + d1i, c1r + d1r, c0i + d0i, c0r + d0r)
        return _fp12((
            s2i - u2i - v2i, s2r - u2r - v2r,
            s1i - u1i - v1i, s1r - u1r - v1r,
            s0i - u0i - v0i, s0r - u0r - v0r,
            v2i + u1i, v2r + u1r,
            v1i + u0i, v1r + u0r,
            v0i + 3 * u2i + u2r, v0r + 3 * u2r - u2i,
        ))

    def mul_scalar(self, k: Fp6) -> "Fp12":
        return Fp12(self.x * k, self.y * k)

    def square(self) -> "Fp12":
        """(a*w + b)^2 = 2ab*w + (a + b)(a*tau + b) - ab - ab*tau: two
        ``_fp6_mul`` products."""
        a, b = self.x, self.y
        a2i, a2r, a1i, a1r, a0i, a0r = a.x.x, a.x.y, a.y.x, a.y.y, a.z.x, a.z.y
        b2i, b2r, b1i, b1r, b0i, b0r = b.x.x, b.x.y, b.y.x, b.y.y, b.z.x, b.z.y
        # v = ab and s = (a + b)(a*tau + b)
        v2i, v2r, v1i, v1r, v0i, v0r = _fp6_mul(a2i, a2r, a1i, a1r, a0i, a0r,
                                                b2i, b2r, b1i, b1r, b0i, b0r)
        s2i, s2r, s1i, s1r, s0i, s0r = _fp6_mul(
            a2i + b2i, a2r + b2r, a1i + b1i, a1r + b1r, a0i + b0i, a0r + b0r,
            a1i + b2i, a1r + b2r, a0i + b1i, a0r + b1r, 3 * a2i + a2r + b0i, 3 * a2r - a2i + b0r)
        return _fp12((
            2 * v2i, 2 * v2r, 2 * v1i, 2 * v1r, 2 * v0i, 2 * v0r,
            s2i - v2i - v1i, s2r - v2r - v1r,
            s1i - v1i - v0i, s1r - v1r - v0r,
            s0i - v0i - 3 * v2i - v2r, s0r - v0r - 3 * v2r + v2i,
        ))

    def cyclotomic_square(self) -> "Fp12":
        """Square of an element of the cyclotomic subgroup (Granger-Scott, PKC 2010).

        Over F_p4 = F_p2[s]/(s^2 - xi) with s = w^3, the element is
        A + B*w + C*w^2 and its square is
        (3A^2 - 2A', 3s*C^2 + 2B', 3B^2 - 2C') with ' the F_p4 conjugate.
        (p + q*s)^2 = p^2 + xi*q^2 + ((p + q)^2 - p^2 - q^2)*s, and an Fp2
        square is (2*i*r, (r - i)(r + i)).  Wrong for any element outside
        that subgroup.
        """
        a, b = self.x, self.y
        a2i, a2r, a1i, a1r, a0i, a0r = a.x.x, a.x.y, a.y.x, a.y.y, a.z.x, a.z.y
        b2i, b2r, b1i, b1r, b0i, b0r = b.x.x, b.x.y, b.y.x, b.y.y, b.z.x, b.z.y

        # A = b0 + a1*s, the w^0 and w^3 coefficients
        pi, pr = 2 * b0i * b0r, (b0r - b0i) * (b0r + b0i)
        qi, qr = 2 * a1i * a1r, (a1r - a1i) * (a1r + a1i)
        si, sr = b0i + a1i, b0r + a1r
        y0i, y0r = 3 * (3 * qi + qr + pi) - 2 * b0i, 3 * (3 * qr - qi + pr) - 2 * b0r
        x1i = 3 * (2 * si * sr - pi - qi) + 2 * a1i
        x1r = 3 * ((sr - si) * (sr + si) - pr - qr) + 2 * a1r

        # B = a0 + b2*s, the w^1 and w^4 coefficients
        pi, pr = 2 * a0i * a0r, (a0r - a0i) * (a0r + a0i)
        qi, qr = 2 * b2i * b2r, (b2r - b2i) * (b2r + b2i)
        si, sr = a0i + b2i, a0r + b2r
        y1i, y1r = 3 * (3 * qi + qr + pi) - 2 * b1i, 3 * (3 * qr - qi + pr) - 2 * b1r
        x2i = 3 * (2 * si * sr - pi - qi) + 2 * a2i
        x2r = 3 * ((sr - si) * (sr + si) - pr - qr) + 2 * a2r

        # C = b1 + a2*s, the w^2 and w^5 coefficients
        pi, pr = 2 * b1i * b1r, (b1r - b1i) * (b1r + b1i)
        qi, qr = 2 * a2i * a2r, (a2r - a2i) * (a2r + a2i)
        si, sr = b1i + a2i, b1r + a2r
        y2i, y2r = 3 * (3 * qi + qr + pi) - 2 * b2i, 3 * (3 * qr - qi + pr) - 2 * b2r
        ei, er = 2 * si * sr - pi - qi, (sr - si) * (sr + si) - pr - qr
        x0i, x0r = 3 * (3 * ei + er) + 2 * a0i, 3 * (3 * er - ei) + 2 * a0r

        return _fp12((x2i, x2r, x1i, x1r, x0i, x0r, y2i, y2r, y1i, y1r, y0i, y0r))

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


def _mul_line(f: Fp12, line: tuple[int, int, int, int, int, int], px: int, py: int) -> Fp12:
    """f * ((a*tau + b*px)*w + c*py), the line (a, b, c) evaluated at
    P = (px, py); ``line`` holds the i and real parts of a, b and c.

    Karatsuba over w with both Fp6 products sparse (eprint 2010/354 §4):
    with f = g*w + h and the evaluated line (a*tau + b)*w + c, the product
    is (g + h)(a*tau + b + c) - g(a*tau + b) - h*c on w and
    h*c + g(a*tau + b)*tau off it.  A product by a*tau + b takes five Fp2
    products, one by c three: 13 in all, where a full Fp12 product takes 18.
    """
    ai, ar, bi, br, ci, cr = line
    bi, br, ci, cr = bi * px % P, br * px % P, ci * py % P, cr * py % P
    g, h = f.x, f.y
    g2i, g2r, g1i, g1r, g0i, g0r = g.x.x, g.x.y, g.y.x, g.y.y, g.z.x, g.z.y
    h2i, h2r, h1i, h1r, h0i, h0r = h.x.x, h.x.y, h.y.x, h.y.y, h.z.x, h.z.y
    # u = g*(a*tau + b) and s = (g + h)(a*tau + b + c)
    u2i, u2r, u1i, u1r, u0i, u0r = _fp6_mul_sparse(g2i, g2r, g1i, g1r, g0i, g0r, ai, ar, bi, br)
    s2i, s2r, s1i, s1r, s0i, s0r = _fp6_mul_sparse(
        g2i + h2i, g2r + h2r, g1i + h1i, g1r + h1r, g0i + h0i, g0r + h0r, ai, ar, bi + ci, br + cr)
    # v = h*c
    m, n = h2r * cr, h2i * ci
    v2r, v2i = m - n, (h2i + h2r) * (ci + cr) - m - n
    m, n = h1r * cr, h1i * ci
    v1r, v1i = m - n, (h1i + h1r) * (ci + cr) - m - n
    m, n = h0r * cr, h0i * ci
    v0r, v0i = m - n, (h0i + h0r) * (ci + cr) - m - n
    return _fp12((
        s2i - u2i - v2i, s2r - u2r - v2r,
        s1i - u1i - v1i, s1r - u1r - v1r,
        s0i - u0i - v0i, s0r - u0r - v0r,
        v2i + u1i, v2r + u1r,
        v1i + u0i, v1r + u0r,
        v0i + 3 * u2i + u2r, v0r + 3 * u2r - u2i,
    ))
