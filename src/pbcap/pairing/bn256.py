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
decides how long it lives.  ``Bn256Suite.pair`` keeps the table of each
group-B element it pairs on that element; ``pairing_product_is_one``
builds throwaway tables.

Nearly all of a pairing's time goes to four tower kernels:
``Fp12.square`` and ``_mul_line`` in the Miller loop,
``Fp12.cyclotomic_square`` and ``Fp12.__mul__`` in the final
exponentiation.  Nearly all of a line table's goes to the point formulas
``PointG2.double`` and ``add`` and to the line formulas ``_tangent`` and
``_chord``.  The kernels and the formulas alike work on plain ints,
build no intermediate ``Fp2`` and reduce each output coefficient mod P
once; the formulas also reduce a value that feeds a further product.  A
line is six ints.  Nothing here is constant-time.

``Fp12.cyclotomic_square`` and ``Fp12.exp_u`` are correct only inside the
cyclotomic subgroup (elements f with f^(p^6 + 1) = 1), which is where the
hard part of ``final_exponentiation`` runs.  They must never touch a
decoded or otherwise unchecked element: the Miller loop and GT
exponentiation use the generic ``square`` and ``exp``.  GT elements are
encoded (``gt_to_bytes``, the H2 input) but never decoded; ``gt_to_bytes``
reads the raw coefficients, so they must be fully reduced.
"""

from __future__ import annotations

import hashlib

from .curve import G2_INF, TWIST_B, PointG1, PointG2, in_g2, psi
from .tower import (
    FP2_ONE,
    FP12_ONE,
    INV_2,
    NAF_6UP2,
    P,
    XI2,
    Fp2,
    Fp12,
    _mul_line,
    fp_inv,
    fp_legendre,
    fp_sqrt,
)


# --- optimal ate pairing -------------------------------------------------

def _tangent(t: PointG2):
    """2T and the tangent at T: (6x^3 - 4y^2, -6x^2 z^2, 4y z^3), in the
    ints of the ``PointG2`` formulas."""
    xi, xr, yi, yr, zi, zr = t.x.x, t.x.y, t.y.x, t.y.y, t.z.x, t.z.y
    t2 = t.double()
    xxi, xxr = 2 * xi * xr % P, (xr - xi) * (xr + xi) % P
    zzi, zzr = 2 * zi * zr % P, (zr - zi) * (zr + zi) % P
    m, n = xxr * xr, xxi * xi
    ai = (6 * ((xxi + xxr) * (xi + xr) - m - n) - 8 * yi * yr) % P
    ar = (6 * (m - n) - 4 * (yr - yi) * (yr + yi)) % P
    m, n = xxr * zzr, xxi * zzi
    bi, br = -6 * ((xxi + xxr) * (zzi + zzr) - m - n) % P, -6 * (m - n) % P
    wi, wr = t2.z.x, t2.z.y
    m, n = wr * zzr, wi * zzi
    return t2, (ai, ar, bi, br, 2 * ((wi + wr) * (zzi + zzr) - m - n) % P, 2 * (m - n) % P)


def _chord(t: PointG2, q: PointG2):
    """T + Q and the chord through T and an affine Q: (2(r x_Q - y_Q z3),
    -2r, 2 z3) with r = 2(y_Q z^3 - y) and z3 the z of T + Q."""
    xi, xr, yi, yr, zi, zr = q.x.x, q.x.y, q.y.x, q.y.y, t.z.x, t.z.y
    zzi, zzr = 2 * zi * zr % P, (zr - zi) * (zr + zi) % P
    m, n = yr * zr, yi * zi
    ui, ur = ((yi + yr) * (zi + zr) - m - n) % P, (m - n) % P
    m, n = ur * zzr, ui * zzi
    ri = 2 * ((ui + ur) * (zzi + zzr) - m - n - t.y.x) % P
    rr = 2 * (m - n - t.y.y) % P
    t = t.add(q)
    zi, zr = t.z.x, t.z.y
    m, n = rr * xr, ri * xi
    mz, nz = yr * zr, yi * zi
    ai = 2 * ((ri + rr) * (xi + xr) - m - n - (yi + yr) * (zi + zr) + mz + nz) % P
    ar = 2 * (m - n - mz + nz) % P
    return t, (ai, ar, -2 * ri % P, -2 * rr % P, 2 * zi % P, 2 * zr % P)


def g2_lines(q: PointG2) -> list[list[tuple[int, int, int, int, int, int]]]:
    """P-free line coefficients (a, b, c) of the optimal ate Miller loop on Q.

    T starts at Q and moves only by ``PointG2.double`` and ``add``; the
    generic addition relies on T != +-Q, which holds for Q in G2.  There
    is one group per NAF_6UP2 digit (the tangent, then the chord with Q
    or -Q for a non-zero digit) and a last group for psi(Q) and
    -psi^2(Q).  A line is six ints, the i and real parts of a, b and c;
    at P = (px, py) it is (a, b*px, c*py), which ``_mul_line`` evaluates.

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
