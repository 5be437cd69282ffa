"""The F_p12 tower of the BN-256 pairing.

F_p2 = F_p[i]/(i^2 + 1), F_p6 = F_p2[tau]/(tau^3 - xi) with xi = i + 3,
and F_p12 = F_p6[w]/(w^2 - tau), following Beuchat et al. (eprint
2010/354).  This module holds the field constants (P, U and the
Frobenius constants), the class ``Fp12``, the int helpers ``fp2_mul``,
``fp2_inv``, ``fp2_sqrt`` and the F_p6 ones, the sparse line product
``_mul_line`` of the Miller loop, and two ladders: ``pow_bits``, the
binary one that ``Fp12.exp`` and ``XI1`` share, and ``pow_u``.  The
scalar multiplications of ``curve`` run a ladder of their own.
``fp_legendre`` computes the Legendre symbol as a Jacobi symbol, by
quadratic reciprocity on ints, in well under half the time of Euler's
criterion.  The curve points live in ``curve``, the pairing,
hashing and serialization in ``bn256``.

Field elements are plain Python ints, and there is no F_p2 or F_p6 class.
An F_p2 element outside the kernels is an (i, real) pair of ints; an
``Fp12`` holds its 12 coefficients as one flat tuple ``c`` in
``gt_to_bytes`` order.  Every coefficient an element holds lies in
[0, P), because equality and ``bn256.gt_to_bytes`` read the raw ints.
The tests keep the F_p2 and F_p6 class formulas the int code replaced as
references.  Nothing here is constant-time.

Three kernels take most of a pairing's time: ``Fp12.__mul__``,
``Fp12.square`` and ``_mul_line``.  Each unpacks its operands' ``c``
tuples into named ints, keeps the algorithm of the class formulas it
replaced (Karatsuba over w and in each F_p6 and F_p2 product) and
reduces each of its 12 output coefficients mod P exactly once, in the
tuple it returns (lazy reduction, Aranha et al., Eurocrypt 2011).  Every
product it takes is of linear combinations of reduced coefficients, so
no intermediate grows past about 520 bits.  The F_p6 products are the
int-level helpers ``_fp6_mul`` and ``_fp6_mul_sparse``, not copies
inlined at each call site: a call costs at most a few percent of a
kernel, while the inlined copies made this module 40% larger (8.2k
against 5.8k syntax-tree nodes), and compiling it from source, as every
process does when no bytecode is cached, raised the benchmark's peak RSS
by 0.35 MB.

``Fp12.exp_u`` is correct only inside the cyclotomic subgroup (elements
f with f^(p^4 - p^2 + 1) = 1, as every f^((p^6 - 1)(p^2 + 1)) is; -1 is
not), which is where the hard part of ``bn256.final_exponentiation``
runs.  It must never touch a decoded or otherwise unchecked element: the
Miller loop and GT exponentiation use the generic ``square`` and
``exp``.  ``pow_u`` raises to u = v^3 as three passes over the signed
digits of v, which has 5 non-zero digits where u has 23: 63 squarings
and 12 products (Naehrig, Niederhagen and Schwabe, LATINCRYPT 2010).
``curve.in_g2`` takes [u]Q by that chain in G2.  ``exp_u`` runs the same
three passes by v, with the same 12 products, but squares in compressed
form (Karabina, Math. Comp. 2013): 4 of the 6 F_p2 coefficients, 8
reductions a squaring where ``square`` takes 12.  Each pass decompresses
the four powers it keeps with one F_p inversion.  An element with a kept
power it cannot decompress (a0 of 0, as in 1) takes ``pow_u`` with
``square``.  The hard part's four other squarings take ``square`` too:
a cyclotomic squaring of its own saved about 0.6% of a final
exponentiation.
"""

from __future__ import annotations

from itertools import accumulate

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
    """The Legendre symbol (a/p): 1, -1, or 0 for a = 0 mod p.

    Computed as the Jacobi symbol, by quadratic reciprocity on ints
    (Cohen, A Course in Computational Algebraic Number Theory, Algorithm
    1.4.10): each factor 2 of the top flips the sign when the bottom is
    3 or 5 mod 8, each swap when both are 3 mod 4, and each swap reduces
    the new top mod the new bottom.  About 90 such swaps where
    Euler's criterion takes a 254-bit power.
    """
    a %= P
    n, t = P, 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                t = -t
        if a & n & 2:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def wnaf(k: int, w: int) -> list[int]:
    """The width-w NAF of k, lowest digit first: sum d_i 2^i = k, every
    d_i is 0 or odd with |d_i| < 2^(w-1), and any w consecutive digits
    hold at most one non-zero one.  k may be negative.  Width 2 gives the
    NAF, whose digits are 0 and +-1."""
    digits = []
    while k:
        d = 0
        if k & 1:
            d = k & (2 ** w - 1)
            if d >= 2 ** (w - 1):
                d -= 2 ** w
            k -= d
        digits.append(d)
        k >>= 1
    return digits


# 6u+2 and v in NAF, most significant digit first, leading digit dropped
NAF_6UP2 = list(reversed(wnaf(6 * U + 2, 2)))[1:]
NAF_V = list(reversed(wnaf(V, 2)))[1:]


def pow_u(x, square, mul, inverse):
    """x^u in the group of ``square``, ``mul`` and ``inverse``: three passes
    over the signed digits of v, each with its own base's inverse."""
    for _ in range(3):
        base, inv = x, inverse(x)
        for digit in NAF_V:
            x = square(x)
            if digit == 1:
                x = mul(x, base)
            elif digit == -1:
                x = mul(x, inv)
    return x


def pow_bits(x, k, one, square, mul):
    """x^k in the group of ``one``, ``square`` and ``mul``: left to right
    over the bits of k, one square per bit and a product per set bit."""
    r = one
    for bit in bin(k)[2:]:
        r = square(r)
        if bit == "1":
            r = mul(r, x)
    return r


def fp2_mul(a, b):
    """a*b by Karatsuba; the inputs may be unreduced."""
    (ai, ar), (bi, br) = a, b
    m, n = ar * br, ai * bi
    return ((ai + ar) * (bi + br) - m - n) % P, (m - n) % P


def fp2_inv(a):
    """1/a = conj(a)/(ai^2 + ar^2); raises ValueError for 0."""
    ai, ar = a
    t = fp_inv((ai * ai + ar * ar) % P)
    return -ai * t % P, ar * t % P


def fp2_sqrt(a):
    """Square root of a = x*i + y in F_p2, or None if a is a non-residue.

    With n = x^2 + y^2 and alpha = (y +- sqrt(n))/2, the root is
    (x/(2 sqrt(alpha)))*i + sqrt(alpha).  a is a square exactly when n
    is, which the root of n, squared back, decides.  The two choices of
    alpha multiply to -(x/2)^2, a non-residue for x != 0, so exactly one
    is a square: ``fp_legendre`` picks it, at a fraction of a root's
    cost, and one root of alpha follows.
    """
    x, y = a
    if x == 0:
        if fp_legendre(y) >= 0:
            return 0, fp_sqrt(y)
        # -1 is a non-residue, so -y is a square and (t*i)^2 = -t^2 = y
        return fp_sqrt(-y % P), 0
    n = (x * x + y * y) % P
    lam = fp_sqrt(n)
    if lam * lam % P != n:
        return None
    alpha = (y + lam) * INV_2 % P
    if fp_legendre(alpha) < 0:
        alpha = (y - lam) * INV_2 % P
    v = fp_sqrt(alpha)
    return x * fp_inv(2 * v % P) % P, v


# xi^(k(p - 1)/6) for k = 1..5, with xi = i + 3 the sextic non-residue: one ladder, then products
XI1 = list(accumulate([pow_bits((1, 3), (P - 1) // 6, (0, 1), lambda a: fp2_mul(a, a), fp2_mul)] * 5,
                      fp2_mul))
# XI1[k] * conj(XI1[k]) is a norm, so a plain F_p int
XI2 = [(xi * xi + xr * xr) % P for xi, xr in XI1]


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


def _fp6_inv(a2i, a2r, a1i, a1r, a0i, a0r):
    """1/a for the six ints of an Fp6 element a = x*tau^2 + y*tau + z, in
    and out in ``_fp6_mul``'s order: Algorithm 17 of eprint 2010/354 (with
    the sign fix on C).  The inputs may be unreduced; the outputs are
    reduced."""
    x, y, z = (a2i, a2r), (a1i, a1r), (a0i, a0r)
    (xxi, xxr), (yyi, yyr), (zzi, zzr) = fp2_mul(x, x), fp2_mul(y, y), fp2_mul(z, z)
    (xyi, xyr), (xzi, xzr), (yzi, yzr) = fp2_mul(x, y), fp2_mul(x, z), fp2_mul(y, z)
    # A = z^2 - xi*x*y, B = xi*x^2 - y*z, C = y^2 - x*z
    a = zzi - 3 * xyi - xyr, zzr - 3 * xyr + xyi
    b = 3 * xxi + xxr - yzi, 3 * xxr - xxi - yzr
    c = yyi - xzi, yyr - xzr
    # F = xi*(C*y + B*x) + A*z
    (ci, cr), (bi, br), (ai, ar) = fp2_mul(c, y), fp2_mul(b, x), fp2_mul(a, z)
    f = fp2_inv((3 * (ci + bi) + cr + br + ai, 3 * (cr + br) - ci - bi + ar))
    return (*fp2_mul(c, f), *fp2_mul(b, f), *fp2_mul(a, f))


class Fp12:
    """Quadratic extension of Fp6: a*w + b with w^2 = tau.

    ``c`` holds the 12 coefficients, each in [0, P), in ``gt_to_bytes``
    order: a's, then b's, each half as the i and real parts of its tau^2,
    tau and 1 coefficients.  The kernels name them by half, power of tau
    and part: a2i, a2r, a1i, a1r, a0i, a0r, b2i, ..., b0r = f.c.
    """

    __slots__ = ("c",)

    def __init__(self, c: tuple[int, ...]):
        self.c = c

    def __eq__(self, other):
        return self.c == other.c

    def is_one(self) -> bool:
        return self.c == FP12_ONE.c

    def conjugate(self) -> "Fp12":
        return Fp12(tuple([-x % P for x in self.c[:6]]) + self.c[6:])

    def frobenius(self) -> "Fp12":
        """Each Fp2 coefficient conjugated, times its power of xi."""
        c, out = self.c, []
        for k, q in enumerate((XI1[4], XI1[2], XI1[0], XI1[3], XI1[1], (0, 1))):
            out += fp2_mul((-c[2 * k], c[2 * k + 1]), q)
        return Fp12(tuple(out))

    def frobenius_p2(self) -> "Fp12":
        """Each Fp2 coefficient times its power of xi's norm, an int."""
        consts = (XI2[4], XI2[2], XI2[0], XI2[3], XI2[1], 1)
        return Fp12(tuple([x * consts[n // 2] % P for n, x in enumerate(self.c)]))

    def __mul__(self, other):
        """(a*w + b)(c*w + d) = ((a + b)(c + d) - ac - bd)*w + bd + ac*tau:
        Karatsuba over w, three ``_fp6_mul`` products."""
        a2i, a2r, a1i, a1r, a0i, a0r, b2i, b2r, b1i, b1r, b0i, b0r = self.c
        c2i, c2r, c1i, c1r, c0i, c0r, d2i, d2r, d1i, d1r, d0i, d0r = other.c
        # u = ac, v = bd and s = (a + b)(c + d)
        u2i, u2r, u1i, u1r, u0i, u0r = _fp6_mul(a2i, a2r, a1i, a1r, a0i, a0r,
                                                c2i, c2r, c1i, c1r, c0i, c0r)
        v2i, v2r, v1i, v1r, v0i, v0r = _fp6_mul(b2i, b2r, b1i, b1r, b0i, b0r,
                                                d2i, d2r, d1i, d1r, d0i, d0r)
        s2i, s2r, s1i, s1r, s0i, s0r = _fp6_mul(
            a2i + b2i, a2r + b2r, a1i + b1i, a1r + b1r, a0i + b0i, a0r + b0r,
            c2i + d2i, c2r + d2r, c1i + d1i, c1r + d1r, c0i + d0i, c0r + d0r)
        return Fp12((
            (s2i - u2i - v2i) % P, (s2r - u2r - v2r) % P,
            (s1i - u1i - v1i) % P, (s1r - u1r - v1r) % P,
            (s0i - u0i - v0i) % P, (s0r - u0r - v0r) % P,
            (v2i + u1i) % P, (v2r + u1r) % P,
            (v1i + u0i) % P, (v1r + u0r) % P,
            (v0i + 3 * u2i + u2r) % P, (v0r + 3 * u2r - u2i) % P,
        ))

    def square(self) -> "Fp12":
        """(a*w + b)^2 = 2ab*w + (a + b)(a*tau + b) - ab - ab*tau: two
        ``_fp6_mul`` products."""
        a2i, a2r, a1i, a1r, a0i, a0r, b2i, b2r, b1i, b1r, b0i, b0r = self.c
        # v = ab and s = (a + b)(a*tau + b)
        v2i, v2r, v1i, v1r, v0i, v0r = _fp6_mul(a2i, a2r, a1i, a1r, a0i, a0r,
                                                b2i, b2r, b1i, b1r, b0i, b0r)
        s2i, s2r, s1i, s1r, s0i, s0r = _fp6_mul(
            a2i + b2i, a2r + b2r, a1i + b1i, a1r + b1r, a0i + b0i, a0r + b0r,
            a1i + b2i, a1r + b2r, a0i + b1i, a0r + b1r, 3 * a2i + a2r + b0i, 3 * a2r - a2i + b0r)
        return Fp12((
            2 * v2i % P, 2 * v2r % P, 2 * v1i % P, 2 * v1r % P, 2 * v0i % P, 2 * v0r % P,
            (s2i - v2i - v1i) % P, (s2r - v2r - v1r) % P,
            (s1i - v1i - v0i) % P, (s1r - v1r - v0r) % P,
            (s0i - v0i - 3 * v2i - v2r) % P, (s0r - v0r - 3 * v2r + v2i) % P,
        ))

    def exp(self, k: int) -> "Fp12":
        return pow_bits(self, k, FP12_ONE, Fp12.square, Fp12.__mul__)

    def exp_u(self) -> "Fp12":
        """self^U, correct only for a cyclotomic-subgroup element, where the
        conjugate is the inverse: three passes x -> x^v, each
        x x^(2^8) x^(2^15) x^(-2^18) x^(2^21) with the four powers from
        ``_compressed_powers``.  An element with a power it cannot
        decompress, as 1 has, takes ``pow_u`` with ``square``."""
        x = self
        for _ in range(3):
            g = _compressed_powers(x, (8, 7, 3, 3))
            if g is None:
                return pow_u(self, Fp12.square, Fp12.__mul__, Fp12.conjugate)
            x = x * g[0] * g[1] * g[2].conjugate() * g[3]
        return x

    def inverse(self) -> "Fp12":
        """1/(a*w + b) = (-a*w + b) * t with t = 1/(b^2 - a^2*tau), a
        ``_fp6_inv``."""
        a, b = self.c[:6], self.c[6:]
        u2i, u2r, u1i, u1r, u0i, u0r = _fp6_mul(*a, *a)
        v2i, v2r, v1i, v1r, v0i, v0r = _fp6_mul(*b, *b)
        # a^2*tau = u1*tau^2 + u0*tau + xi*u2
        t = _fp6_inv(v2i - u1i, v2r - u1r, v1i - u0i, v1r - u0r,
                     v0i - 3 * u2i - u2r, v0r - 3 * u2r + u2i)
        u2i, u2r, u1i, u1r, u0i, u0r = _fp6_mul(*a, *t)
        v2i, v2r, v1i, v1r, v0i, v0r = _fp6_mul(*b, *t)
        return Fp12((-u2i % P, -u2r % P, -u1i % P, -u1r % P, -u0i % P, -u0r % P,
                     v2i % P, v2r % P, v1i % P, v1r % P, v0i % P, v0r % P))


FP12_ONE = Fp12((0,) * 11 + (1,))


def _compressed_powers(x: Fp12, runs) -> "list[Fp12] | None":
    """x^(2^m) for each running sum m of ``runs``, by compressed squarings
    of a cyclotomic-subgroup element x (Karabina, Math. Comp. 2013); None
    if one of them has a0 = 0, which has no decompression.

    A squaring maps the coefficients (b1, b2, a0, a2) to
    (3(a0^2 + xi b2^2) - 2b1, 3(b1^2 + xi a2^2) - 2b2, 2a0 + 6xi b1 a2,
    2a2 + 6 a0 b2): the B and C parts of Granger and Scott's cyclotomic
    squaring (PKC 2010), 8 reductions where ``Fp12.square`` takes 12.
    Each kept power keeps the unreduced b1^2 and a2^2 that the next
    squaring takes anyway, and is decompressed by
    a1 = (xi a2^2 + 3b1^2 - 2b2)/(4a0) and
    b0 = xi(2a1^2 + a0 a2 - 3b1 b2) + 1, with one inversion for them all
    (Montgomery's trick; Aranha et al., Eurocrypt 2011).  A run of 0
    keeps x itself.
    """
    a2i, a2r, _, _, a0i, a0r, b2i, b2r, b1i, b1r, _, _ = x.c
    # p = b1^2 and q = a2^2, unreduced, of the value the loop squares next
    pi, pr = 2 * b1i * b1r, (b1r - b1i) * (b1r + b1i)
    qi, qr = 2 * a2i * a2r, (a2r - a2i) * (a2r + a2i)
    kept = []
    for run in runs:
        for _ in range(run):
            # C = b1 + a2 s: b2 and a0 from p, q and 2 b1 a2 = (b1 + a2)^2 - p - q
            si, sr = b1i + a2i, b1r + a2r
            ei, er = 2 * si * sr - pi - qi, (sr - si) * (sr + si) - pr - qr
            c0i, c0r = (3 * (3 * ei + er) + 2 * a0i) % P, (3 * (3 * er - ei) + 2 * a0r) % P
            c2i, c2r = (3 * (3 * qi + qr + pi) - 2 * b2i) % P, (3 * (3 * qr - qi + pr) - 2 * b2r) % P
            # B = a0 + b2 s: b1 and a2 from a0^2, b2^2 and their cross term
            pi, pr = 2 * a0i * a0r, (a0r - a0i) * (a0r + a0i)
            qi, qr = 2 * b2i * b2r, (b2r - b2i) * (b2r + b2i)
            si, sr = a0i + b2i, a0r + b2r
            b1i, b1r = (3 * (3 * qi + qr + pi) - 2 * b1i) % P, (3 * (3 * qr - qi + pr) - 2 * b1r) % P
            a2i = (3 * (2 * si * sr - pi - qi) + 2 * a2i) % P
            a2r = (3 * ((sr - si) * (sr + si) - pr - qr) + 2 * a2r) % P
            a0i, a0r, b2i, b2r = c0i, c0r, c2i, c2r
            pi, pr = 2 * b1i * b1r, (b1r - b1i) * (b1r + b1i)
            qi, qr = 2 * a2i * a2r, (a2r - a2i) * (a2r + a2i)
        kept.append((a2i, a2r, a0i, a0r, b2i, b2r, b1i, b1r, pi, pr, qi, qr))
    # 1/(4 a0) = conj(a0) / (4 N(a0)); prefix[j] is the product of the norms before j
    norms = [4 * (k[2] * k[2] + k[3] * k[3]) % P for k in kept]
    prefix = [1]
    for n in norms:
        prefix.append(prefix[-1] * n % P)
    if not prefix[-1]:
        return None
    t = fp_inv(prefix[-1])
    for j in reversed(range(len(kept))):
        a2i, a2r, a0i, a0r, b2i, b2r, b1i, b1r, pi, pr, qi, qr = kept[j]
        s = t * prefix[j] % P
        t = t * norms[j] % P
        ni, nr = (3 * (qi + pi) + qr - 2 * b2i) % P, (3 * (qr + pr) - qi - 2 * b2r) % P
        ci, cr = -a0i * s % P, a0r * s % P
        m, n = nr * cr, ni * ci
        a1i, a1r = ((ni + nr) * (ci + cr) - m - n) % P, (m - n) % P
        m, n, mb, nb = a0r * a2r, a0i * a2i, b1r * b2r, b1i * b2i
        ei = (4 * a1i * a1r + (a0i + a0r) * (a2i + a2r) - m - n
              - 3 * ((b1i + b1r) * (b2i + b2r) - mb - nb))
        er = 2 * (a1r - a1i) * (a1r + a1i) + m - n - 3 * (mb - nb)
        kept[j] = Fp12((a2i, a2r, a1i, a1r, a0i, a0r, b2i, b2r, b1i, b1r,
                        (3 * ei + er) % P, (3 * er - ei + 1) % P))
    return kept


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
    g2i, g2r, g1i, g1r, g0i, g0r, h2i, h2r, h1i, h1r, h0i, h0r = f.c
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
    return Fp12((
        (s2i - u2i - v2i) % P, (s2r - u2r - v2r) % P,
        (s1i - u1i - v1i) % P, (s1r - u1r - v1r) % P,
        (s0i - u0i - v0i) % P, (s0r - u0r - v0r) % P,
        (v2i + u1i) % P, (v2r + u1r) % P,
        (v1i + u0i) % P, (v1r + u0r) % P,
        (v0i + 3 * u2i + u2r) % P, (v0r + 3 * u2r - u2i) % P,
    ))
