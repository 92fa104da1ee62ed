"""Scalar point arithmetic of PG(2,q), one point at a time, kept as the oracle
for the vector code paths: the H-model normalization that point codes encode,
the K -> H conversion of a point (x : z), incidence, and the image of a point
under a collineation.

H codes: x*q + y for (x : y : 1), q^2 + x for (x : 1 : 0), q^2 + q for
(1 : 0 : 0).  Lines [a : b : c] get the codes of the points (a : b : c).
"""

from nihoval.gf2m import polar_v, spread_i, unit_circle


def h_code(P, x: int, y: int, z: int) -> int:
    """The code of (x : y : z), scaled so its last nonzero coordinate is 1."""
    q = P.q
    if z:
        zi = P.finv(z)
        return P.fmul(x, zi) * q + P.fmul(y, zi)
    if y:
        return q * q + P.fmul(x, P.finv(y))
    if x:
        return q * q + q
    raise ValueError("(0:0:0) is not a projective point")


def coords(P, code: int) -> tuple[int, int, int]:
    """The normalized coordinates of the point with H code `code`."""
    q = P.q
    if code < q * q:
        return code // q, code % q, 1
    if code < q * q + q:
        return code - q * q, 1, 0
    return 1, 0, 0


def k_point_to_h(P, xcode: int, z: int) -> int:
    """H code of the K point (x : z): normalized to z = 1, or to (u : 0) with
    u on the unit circle, then (<i, x> : <1, x> : z)."""
    if z:
        xcode, z = P.kmul(xcode, P.finv(z)), 1
    else:
        _, l = polar_v(P, xcode)
        xcode = int(unit_circle(P).codes[l])
    return h_code(P, P.bform(spread_i(P), xcode), P.bform(1, xcode), z)


def hyperoval_codes(g) -> list[int]:
    """H codes of {(u : g(u))} u {0}, point by point, in unit-circle order."""
    return ([k_point_to_h(g.params, int(u), int(v)) for u, v in zip(g.S.codes, g.values)]
            + [k_point_to_h(g.params, 0, 1)])


def line_through(P, a: int, b: int) -> int:
    """Code of the line through two distinct points (cross product; char 2)."""
    (ax, ay, az), (bx, by, bz) = coords(P, a), coords(P, b)
    return h_code(P, P.fmul(ay, bz) ^ P.fmul(az, by), P.fmul(az, bx) ^ P.fmul(ax, bz),
                  P.fmul(ax, by) ^ P.fmul(ay, bx))


def incident(P, point: int, line: int) -> bool:
    (x, y, z), (a, b, c) = coords(P, point), coords(P, line)
    return (P.fmul(a, x) ^ P.fmul(b, y) ^ P.fmul(c, z)) == 0


def apply(phi, code: int) -> int:
    """Image of a point under the collineation x -> M * x^(2^frob)."""
    P, M = phi.params, phi.matrix
    fr = P.f_frob[phi.frob]
    x, y, z = (int(fr[v]) for v in coords(P, code))
    return h_code(P, *(P.fmul(M[r], x) ^ P.fmul(M[r + 1], y) ^ P.fmul(M[r + 2], z)
                       for r in (0, 3, 6)))
