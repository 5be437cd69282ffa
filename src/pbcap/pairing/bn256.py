"""Pairing, hashing and serialization of a 256-bit Barreto-Naehrig curve.

G1 is the curve y^2 = x^3 + 3 over F_p, G2 the order-n subgroup of its
sextic twist over F_p2, and GT the order-n subgroup of F_p12^*.  The
optimal ate pairing follows Beuchat et al. (eprint 2010/354); curve
parameters match the dclxvi / golang bn256 family (BN parameter
v = 1868033).  The field tower, its constants and the Miller loop's
sparse line product live in ``tower``, the curve points, ``psi`` and
``in_g2`` in ``curve``; this module holds the pairing, hash-to-G1 and
the encodings.

The Miller loop has no point formulas of its own: T moves by
``PointG2.double`` and ``add``, and each line is a closed form in T with
no P in it (``g2_lines``), evaluated at P only in ``miller_loop``.  The
chords rely on T != +-Q, which holds for Q in G2.  Because a line table
depends on Q alone, a Q paired many times needs one table (Costello and
Stebila, "Fixed argument pairings", LATINCRYPT 2010).  This module keeps
no table: ``g2_lines`` is the only function that builds one, and its caller
decides how long it lives.  ``Bn256Suite`` keeps the table of each
group-B element it pairs on that element.

Nearly all of a pairing's time goes to three tower kernels,
``Fp12.square`` and ``_mul_line`` in the Miller loop and ``Fp12.__mul__``
in the final exponentiation, and to the compressed squarings of
``Fp12.exp_u``.  Nearly all of a line table's goes to the point formulas
``PointG2.double`` and ``add`` and to the line formulas ``_tangent`` and
``_chord``.  The kernels and the formulas alike work on plain ints and
reduce each output coefficient mod P once; the formulas also reduce a
value that feeds a further product.  A line is six ints, a G2 point a
tuple of six (``PointG2.c``), an F_p12 element a tuple of twelve
(``Fp12.c``).
Nothing here is constant-time.

The hard part of ``final_exponentiation`` takes its three powers of u
with ``Fp12.exp_u``, which ``tower``'s docstring restricts to the
cyclotomic subgroup.  GT elements are encoded (``gt_to_bytes``, the H2
input) but never decoded; ``gt_to_bytes`` joins the raw coefficients of
``Fp12.c``, so they must be fully reduced.

``sha256`` here is pbcap's one hash (H1's ``expand_message_xmd``, H2 and
the mock suite's H1).  It comes from the interpreter's own module, not
from the standard library's OpenSSL-backed one, whose import maps
libcrypto into the process and raised every command's peak RSS by
3.7 MB; that module is only the fallback of an interpreter without the
builtin.  The digests are the same; the builtin code is slower, about
2.6-2.8 against 1.0 us per 420-byte input, which no command notices.
"""

from __future__ import annotations

try:  # the interpreter's own SHA-256, looked up as ``random`` looks up its sha512
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from .curve import G2_INF, TWIST_B, PointG1, PointG2, in_g2, psi
from .tower import (
    FP12_ONE,
    INV_2,
    NAF_6UP2,
    P,
    Fp12,
    _mul_line,
    fp2_mul,
    fp2_sqrt,
    fp_inv,
    fp_legendre,
    fp_sqrt,
)


# --- optimal ate pairing -------------------------------------------------

def _tangent(t: PointG2):
    """2T and the tangent at T: (6x^3 - 4y^2, -6x^2 z^2, 4y z^3), in the
    ints of the ``PointG2`` formulas; x^2 and y^2 are the squares the
    doubling took."""
    xi, xr, _, _, zi, zr = t.c
    t2, xxi, xxr, yyi, yyr = t._double_and_squares()
    zzi, zzr = 2 * zi * zr % P, (zr - zi) * (zr + zi) % P
    m, n = xxr * xr, xxi * xi
    ai = (6 * ((xxi + xxr) * (xi + xr) - m - n) - 4 * yyi) % P
    ar = (6 * (m - n) - 4 * yyr) % P
    m, n = xxr * zzr, xxi * zzi
    bi, br = -6 * ((xxi + xxr) * (zzi + zzr) - m - n) % P, -6 * (m - n) % P
    wi, wr = t2.c[4:]
    m, n = wr * zzr, wi * zzi
    return t2, (ai, ar, bi, br, 2 * ((wi + wr) * (zzi + zzr) - m - n) % P, 2 * (m - n) % P)


def _chord(t: PointG2, q: PointG2):
    """T + Q and the chord through T and an affine Q: (2(r x_Q - y_Q z3),
    -2r, 2 z3) with r = 2(y_Q z^3 - y) and z3 the z of T + Q."""
    (xi, xr, yi, yr, _, _), (_, _, tyi, tyr, zi, zr) = q.c, t.c
    zzi, zzr = 2 * zi * zr % P, (zr - zi) * (zr + zi) % P
    m, n = yr * zr, yi * zi
    ui, ur = ((yi + yr) * (zi + zr) - m - n) % P, (m - n) % P
    m, n = ur * zzr, ui * zzi
    ri = 2 * ((ui + ur) * (zzi + zzr) - m - n - tyi) % P
    rr = 2 * (m - n - tyr) % P
    t = t.add(q)
    zi, zr = t.c[4:]
    m, n = rr * xr, ri * xi
    mz, nz = yr * zr, yi * zi
    ai = 2 * ((ri + rr) * (xi + xr) - m - n - (yi + yr) * (zi + zr) + mz + nz) % P
    ar = 2 * (m - n - mz + nz) % P
    return t, (ai, ar, -2 * ri % P, -2 * rr % P, 2 * zi % P, 2 * zr % P)


def g2_lines(q: PointG2) -> list[list[tuple[int, int, int, int, int, int]]]:
    """P-free line coefficients (a, b, c) of the optimal ate Miller loop on Q.

    T starts at Q and moves only by ``PointG2.double`` and ``add``; the
    generic addition relies on T != +-Q, which holds for Q in G2.  There
    is one group per NAF_6UP2 digit (the tangent, the chord with +-Q for
    a non-zero digit and, in the last, the chords with psi(Q) and
    -psi^2(Q)).  A line is six ints, the i and real parts of a, b and c;
    at P = (px, py) it is (a, b*px, c*py), which ``_mul_line`` evaluates.

    The only code that builds a table.  Building one costs about a third
    of a one-pair Miller loop, so a caller that pairs the same Q again
    passes the same table: ``Bn256Suite`` keeps it on the group-B
    element.  Q must not be the point at infinity.
    """
    qa = PointG2((*q.affine(), 0, 1))
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
    _, second = _chord(t, psi(psi(qa)).neg())
    lines[-1] += [first, second]
    return lines


def miller_loop(pairs) -> Fp12:
    """Product of the optimal ate Miller loops of (P, lines) pairs, where
    ``lines`` is ``g2_lines(Q)`` for the pair's Q.

    The loop only evaluates tables; it builds none, so the caller may
    pass one Q's table to many loops.  One accumulator serves every
    pair: it is squared once per group (one per NAF digit) and each
    pair's lines of that group, evaluated at its P, are multiplied into
    it.  Because (f1*f2)^2 * l1 * l2 = (f1^2 * l1) * (f2^2 * l2), the
    result equals the product of the single-pair loops exactly, with one
    Fp12 squaring per group instead of one per group and pair.  No P may
    be at infinity, and each Q must lie in G2.
    """
    evaluated = [(lines, *p.affine()) for p, lines in pairs]
    f = FP12_ONE
    for step in range(len(NAF_6UP2)):
        f = f.square()
        for lines, px, py in evaluated:
            for line in lines[step]:
                f = _mul_line(f, line, px, py)
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

    t0 = y6.square() * y4 * y5
    t1 = y3 * y5 * t0
    t0 = t0 * y2
    t1 = (t1.square() * t0).square()
    t0 = t1 * y1
    t1 = t1 * y0
    t0 = t0.square() * t1
    return t0


# --- hash to G1 ----------------------------------------------------------

SQRT_NEG_3 = fp_sqrt(P - 3)


def _map_to_g1(t: int) -> PointG1:
    """Fouque-Tibouchi map F_p -> E(F_p) for BN curves (b = 3).

    The candidates x1 and x2 are tested by ``fp_legendre``, and one root
    is taken, of the first whose g(x) is a non-zero square; if neither
    is, x3's g(x) is a square.  The denominator 1 + b + t^2 is never 0:
    that would need t^2 = -4 = -1 * 2^2, and -1 is a non-square mod p
    because p = 3 mod 4."""
    if t == 0:
        t = 1  # the map is undefined at 0; negligible-probability input
    b = PointG1.B
    denom = (1 + b + t * t) % P
    chi_t = fp_legendre(t)
    w = SQRT_NEG_3 * t % P * fp_inv(denom) % P

    def g(x: int) -> int:
        return (x * x * x + b) % P

    x1 = ((SQRT_NEG_3 - 1) * INV_2 - t * w) % P
    for x in (x1, (-1 - x1) % P):
        gx = g(x)
        # a non-zero square; gx = 0 falls through
        if fp_legendre(gx) == 1:
            return PointG1(x, chi_t * fp_sqrt(gx) % P)
    x3 = (1 + fp_inv(w * w % P)) % P
    gx3 = g(x3)
    return PointG1(x3, chi_t * fp_sqrt(gx3) % P)


def _expand_message_xmd(msg: bytes, dst: bytes, out_len: int) -> bytes:
    """expand_message_xmd with SHA-256 (RFC 9380, section 5.3.1)."""
    h = sha256
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
    xi, xr, yi, yr = pt.affine()
    sign = yr & 1 if yr != 0 else yi & 1
    prefix = b"\x03" if sign else b"\x02"
    return prefix + xi.to_bytes(FP_BYTES, "big") + xr.to_bytes(FP_BYTES, "big")


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
    x3i, x3r = fp2_mul(fp2_mul((xx, xy), (xx, xy)), (xx, xy))
    y = fp2_sqrt(((x3i + TWIST_B[0]) % P, (x3r + TWIST_B[1]) % P))
    if y is None:
        raise ValueError("G2 x coordinate not on twist")
    yi, yr = y
    sign = yr & 1 if yr != 0 else yi & 1
    if sign != (data[0] & 1):
        yi, yr = -yi % P, -yr % P
    pt = PointG2((xx, xy, yi, yr, 0, 1))
    if not in_g2(pt):
        raise ValueError("decoded G2 point not in the prime-order subgroup")
    return pt


def gt_to_bytes(e: Fp12) -> bytes:
    return b"".join(c.to_bytes(FP_BYTES, "big") for c in e.c)
