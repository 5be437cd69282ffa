"""The two curves of the BN-256 pairing and their points.

G1 is the curve y^2 = x^3 + 3 over F_p, in Jacobian coordinates over
ints; G2 is the order-n subgroup of its sextic twist y^2 = x^3 + b' over
F_p2, in Jacobian coordinates whose six ints, the i and real parts of x,
y and z, a ``PointG2`` holds as one tuple ``c``.  This module holds the
points, their formulas and scalar multiplications, the endomorphism
``psi`` and the G2 subgroup test ``in_g2``; the pairing, hash-to-G1 and
the encodings live in ``bn256``, the field tower in ``tower``.

Both scalar multiplications split k by an endomorphism into signed
parts and run one interleaved width-W NAF ladder, ``_ladder``, W = 5,
over a table of odd multiples per image of the point (Moeller, SAC
2001): one double per digit position and one add per non-zero digit,
about one per W + 1 bits of each part.  In G1, phi(x, y) = (beta x, y)
acts as [lambda] with lambda^2 + lambda + 1 = 0 mod n, and k splits into
two parts of at most 128 bits (GLV: Gallant, Lambert and Vanstone,
Crypto 2001); phi's table costs one modmul per entry.  In G2, psi acts
as [6u^2], and k splits into four parts of at most 65 bits (4-D GLS:
Galbraith and Scott, Pairing 2008).  A G2 table depends on the point
alone, and g_b = ``G2_GEN`` takes constant ones, affine and built at
import (fixed-base precomputation: Brickell, Gordon, McCurley and
Wilson, Eurocrypt 1992).  ``_split`` rounds k against a short basis of
the lattice of vectors (a_j) with sum a_j lambda^j = 0 mod n (Babai
rounding): ``G1_BASIS`` has the rows (2u+1, 6u^2+4u+1) and (6u^2+2u,
-2u-1), ``G2_BASIS`` three Galbraith-Scott rows for BN curves and
(1, -2u-1, -1, -2u).  Both bases have det +-n and so span the whole
lattice, and a k = sum d_j lambda^j mod n with every |d_j| < 2^32 splits
back into exactly (d_j): its coordinates in the G2 basis lie within
10^-9 of integers, which the rounding returns.  So an authentication's
delta, whose d_j are 32-bit limbs, keeps a ladder of at most 33 digit
positions.  The rounding constants are ints, computed once from the
bases by Cramer's rule.
``PointG2.scalar_mul`` is defined on G2 only, since psi is
[6u^2] nowhere else; a multiple of any other twist point, as in
``in_g2``, needs a plain ladder such as ``tower.pow_u``.

Nearly all G2 work (the ladder of ``PointG2.scalar_mul``, ``in_g2`` and
the line tables of ``bn256.g2_lines``) goes to ``PointG2.double`` and
``add`` and to ``psi``.  They unpack ``c`` into named ints, reduce
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

from .tower import P, U, XI1, fp2_inv, fp2_mul, fp_inv, pow_u, wnaf

ORDER = P - 6 * U * U
PSI_EIGENVALUE = 6 * U * U  # p mod n: psi's action on G2
BETA = pow(2, (P - 1) // 3, P)  # a cube root of unity in F_p
PHI_EIGENVALUE = ORDER - 36 * U ** 3 - 18 * U * U - 6 * U - 2  # phi's action on G1

# Bases of the lattice {(a_0, ..., a_{d-1}) : sum a_j lambda^j = 0 mod n},
# with lambda = PHI_EIGENVALUE in G1 (GLV) and PSI_EIGENVALUE in G2.  Each
# has det +-n, so it spans the whole lattice.  The G2 rows are the first
# three of Galbraith and Scott's four for BN curves (Pairing 2008), whose
# four span only a sublattice of index 3, and (1, -2u-1, -1, -2u).  Each
# entry is O(u) or O(u^2), where n is O(u^4).
G1_BASIS = ((2 * U + 1, 6 * U * U + 4 * U + 1), (6 * U * U + 2 * U, -2 * U - 1))
G2_BASIS = ((U + 1, U, U, -2 * U), (2 * U + 1, -U, -U - 1, -U),
            (2 * U, 2 * U + 1, 2 * U + 1, 2 * U + 1), (1, -2 * U - 1, -1, -2 * U))

TWIST_B = tuple(3 * c % P for c in fp2_inv((1, 3)))  # 3/xi, xi = i + 3


def _det(m) -> int:
    """Determinant of a square int matrix, by expansion along its first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j, a in enumerate(m[0]))


def _rounding(basis) -> tuple[int, ...]:
    """The c_i with (1, 0, ..., 0) = sum (c_i / n) row_i: n times the first
    column of basis^-1, a cofactor over det/n = +-1 by Cramer's rule."""
    scale = _det(basis) // ORDER
    return tuple((-1) ** i * _det([row[1:] for row in basis[:i] + basis[i + 1:]]) // scale
                 for i in range(len(basis)))


G1_ROUNDING = _rounding(G1_BASIS)
G2_ROUNDING = _rounding(G2_BASIS)


def _split(k: int, basis, rounding) -> list[int]:
    """Signed parts k_j with sum k_j lambda^j = k mod n (Babai rounding):
    (k mod n, 0, ..., 0) minus the basis combination with coefficients
    round(k c_i / n).  Each |k_j| is at most half the sum of column j's
    absolute entries."""
    k %= ORDER
    coeffs = [(2 * k * c + ORDER) // (2 * ORDER) for c in rounding]
    parts = [-sum(a * row[j] for a, row in zip(coeffs, basis)) for j in range(len(basis))]
    parts[0] += k
    return parts


W = 5  # the wNAF width: digits are odd and below 2^(W-1) in absolute value


def _odd_multiples(p):
    """{d: [d]P} for every odd d with |d| < 2^(W-1): a ladder table."""
    p2 = p.double()
    table, m = {}, p
    for d in range(1, 2 ** (W - 1), 2):
        table[d], table[-d] = m, m.neg()
        m = m.add(p2)
    return table


def _ladder(tables, parts, inf):
    """The sum of [k_j]B_j, with table j the ``_odd_multiples`` of B_j
    and k_j signed: interleaved wNAF (Moeller, SAC 2001), one double per
    digit position of the longest part, one add per non-zero digit."""
    columns = []
    for table, k in zip(tables, parts):
        digits = wnaf(k, W)
        columns += [[] for _ in range(len(digits) - len(columns))]
        for column, d in zip(columns, digits):
            if d:
                column.append(table[d])
    r = inf
    for column in reversed(columns):
        r = r.double()
        for q in column:
            r = r.add(q)
    return r


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
        """[k mod n]P by 2-D GLV (Gallant, Lambert and Vanstone, Crypto 2001).

        E(F_p) has prime order n, so phi(x, y) = (beta x, y) acts on every
        point as [lambda], lambda = ``PHI_EIGENVALUE``.  ``G1_BASIS`` splits
        k into two signed parts of at most 128 bits, and one wNAF ladder
        runs over the odd multiples of P and their phi images, one modmul
        each.
        """
        table = _odd_multiples(self)
        phi = {d: PointG1(BETA * t.x % P, t.y, t.z) for d, t in table.items()}
        return _ladder((table, phi), _split(k, G1_BASIS, G1_ROUNDING), G1_INF)


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
        return self._double_and_squares()[0]

    def _double_and_squares(self):
        """2Q, with the squares X^2 and Y^2 that ``double`` takes, as the
        i and real parts of each: ``bn256._tangent`` reuses them."""
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
        z3i, z3r = 2 * ((yi + yr) * (zi + zr) - m - n) % P, 2 * (m - n) % P
        return PointG2((x3i, x3r, y3i, y3r, z3i, z3r)), ai, ar, bi, br

    def add(self, other: "PointG2") -> "PointG2":
        """add-2007-bl, as ``PointG1.add``; P + P takes ``double``.  An
        affine ``other`` (z = 1) skips the products by Z2: Z2Z2 = 1,
        U1 = X1 and S1 = Y1, and the same ints come out."""
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        x1i, x1r, y1i, y1r, z1i, z1r = self.c
        x2i, x2r, y2i, y2r, z2i, z2r = other.c
        affine = z2i == 0 and z2r == 1
        # Z1Z1 = Z1^2, Z2Z2 = Z2^2, U1 = X1 Z2Z2, U2 = X2 Z1Z1
        z11i, z11r = 2 * z1i * z1r % P, (z1r - z1i) * (z1r + z1i) % P
        if affine:
            u1i, u1r, s1i, s1r = x1i, x1r, y1i, y1r
        else:
            z22i, z22r = 2 * z2i * z2r % P, (z2r - z2i) * (z2r + z2i) % P
            m, n = x1r * z22r, x1i * z22i
            u1i, u1r = ((x1i + x1r) * (z22i + z22r) - m - n) % P, (m - n) % P
            # S1 = Y1 Z2 Z2Z2
            m, n = y1r * z2r, y1i * z2i
            ti, tr = ((y1i + y1r) * (z2i + z2r) - m - n) % P, (m - n) % P
            m, n = tr * z22r, ti * z22i
            s1i, s1r = ((ti + tr) * (z22i + z22r) - m - n) % P, (m - n) % P
        m, n = x2r * z11r, x2i * z11i
        hi, hr = ((x2i + x2r) * (z11i + z11r) - m - n - u1i) % P, (m - n - u1r) % P
        # S2 = Y2 Z1 Z1Z1, H = U2 - U1, R = S2 - S1
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
        # Z3 = ((Z1 + Z2)^2 - Z1Z1 - Z2Z2) H, which is 2 Z1 H for Z2 = 1
        if affine:
            ti, tr = 2 * z1i, 2 * z1r
        else:
            si, sr = z1i + z2i, z1r + z2r
            ti, tr = (2 * si * sr - z11i - z22i) % P, ((sr - si) * (sr + si) - z11r - z22r) % P
        m, n = tr * hr, ti * hi
        return PointG2((x3i, x3r, y3i, y3r, ((ti + tr) * (hi + hr) - m - n) % P, (m - n) % P))

    def scalar_mul(self, k: int) -> "PointG2":
        """[k mod n]Q for Q in G2 by 4-D GLS (Galbraith and Scott, Pairing 2008).

        psi acts on G2 as [6u^2] (``PSI_EIGENVALUE``), since n = p - 6u^2.
        ``_split`` splits k into four signed parts of at most 65 bits, and
        one wNAF ladder runs over the odd multiples of Q and their psi,
        psi^2 and psi^3 images.  For ``G2_GEN`` the ladder takes the
        constant ``_G2_GEN_TABLES``; any other Q builds its own tables.
        Defined on G2 only: on any other twist point psi is not [6u^2], and
        the result is not [k]Q.  Every group-B value is in G2 (a generator,
        a product, or a decoding that passed ``in_g2``), and ``in_g2`` takes
        its [u]Q from ``tower.pow_u``.
        """
        tables = _G2_GEN_TABLES if self is G2_GEN else _psi_tables(_odd_multiples(self))
        return _ladder(tables, _split(k, G2_BASIS, G2_ROUNDING), G2_INF)


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


def _psi_tables(table):
    """A table of ``_odd_multiples`` and its psi, psi^2 and psi^3 images:
    the tables of a G2 ladder.  psi(-T) is -psi(T), int for int, and a
    ``neg`` costs far less than a ``psi``."""
    tables = [table]
    for _ in range(3):
        image = {d: psi(t) for d, t in tables[-1].items() if d > 0}
        tables.append({**image, **{-d: t.neg() for d, t in image.items()}})
    return tables


# G2_GEN's odd multiples, made affine once, and their psi images, which
# keep z = 1: every ladder add on g_b is mixed
_G2_GEN_TABLES = _psi_tables({d: PointG2((*t.affine(), 0, 1)) for d, t in _odd_multiples(G2_GEN).items()})


def in_g2(q: PointG2) -> bool:
    """Membership of a twist point in the order-n subgroup.

    [u+1]Q + psi([u]Q) + psi^2([u]Q) == psi^3([2u]Q) (Scott, eprint
    2021/1130): one [u]Q, three ladders by v, instead of [n]Q.
    """
    # [u]Q for any twist point: ``add`` handles +-base and infinity
    uq = pow_u(q, PointG2.double, PointG2.add, PointG2.neg)
    lhs = uq.add(q).add(psi(uq)).add(psi(psi(uq)))
    return lhs == psi(psi(psi(uq.double())))
