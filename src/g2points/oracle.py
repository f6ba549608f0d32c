"""Brute-force oracles, kept deliberately independent of the main path.

Everything here recomputes values from first principles with the dumbest
reliable method available: rational points by integer search, Z_p root
counts by residue refinement over exact integers, unit-ball zero counts by
the Newton polygon of exact integers, Jacobian orders by counting unordered
divisor point-pairs.  Test code compares these against the optimized
implementations; the two code paths share nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curve import CurvePoint, HyperellipticCurve


def naive_rational_points(C: HyperellipticCurve, H: int):
    """All rational points with x = a/b, |a| <= H, 1 <= b <= max(H, 1),
    gcd(a, b) = 1, plus infinity.  Sorted deterministically."""
    found = [CurvePoint.infinity()]
    seen = set()
    for b in range(1, max(H, 1) + 1):
        for a in range(-H, H + 1):
            if math.gcd(a, b) != 1:
                continue
            # (y b^3)^2 = sum f_i a^i b^(6-i)
            G = 0
            for i, ci in enumerate(C.f_coeffs):
                G += ci * a ** i * b ** (6 - i)
            if G < 0:
                continue
            r = math.isqrt(G)
            if r * r != G:
                continue
            x = Fraction(a, b)
            if x in seen:
                continue
            seen.add(x)
            y = Fraction(r, b ** 3)
            if y == 0:
                found.append(CurvePoint.affine(x, y))
            else:
                found.append(CurvePoint.affine(x, y))
                found.append(CurvePoint.affine(x, -y))
    found.sort(key=lambda P: (0,) if P.at_infinity else (1, P.x, P.y))
    return found


# -- Z_p root counting over exact coefficients ------------------------------

def _fdeg(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return len(c) - 1


def _fdivmod(a, b):
    db = _fdeg(b)
    q = [Fraction(0)] * max(len(a) - db, 0)
    r = [Fraction(x) for x in a]
    while _fdeg(r) >= db >= 0:
        dr = _fdeg(r)
        k = dr - db
        c = r[dr] / b[db]
        q[k] = c
        for j in range(db + 1):
            r[k + j] -= c * b[j]
        r = r[:dr]  # top coefficient is now exactly zero
    return q, r


def _fgcd(a, b):
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while _fdeg(b) >= 0:
        _, r = _fdivmod(a, b)
        a, b = b, r
    d = _fdeg(a)
    if d < 0:
        return []
    lead = a[d]
    return [x / lead for x in a[: d + 1]]


def _fderiv(a):
    return [a[i] * i for i in range(1, len(a))]


def _squarefree_parts(coeffs):
    """Yun-style: [(g_1, 1), (g_2, 2), ...] with f = c * prod g_j^j."""
    f = [Fraction(c) for c in coeffs]
    if _fdeg(f) <= 0:
        return []
    out = []
    g = _fgcd(f, _fderiv(f))
    w, _ = _fdivmod(f, g) if _fdeg(g) >= 0 else (f, [])
    j = 1
    while _fdeg(w) > 0:
        y = _fgcd(w, g)
        part, _ = _fdivmod(w, y) if _fdeg(y) >= 0 else (w, [])
        if _fdeg(part) > 0:
            out.append((part, j))
        w = y
        g, _ = _fdivmod(g, y) if _fdeg(y) >= 0 else (g, [])
        j += 1
    return out


def _int_clear(coeffs):
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    out = [int(c * den) for c in coeffs]
    g = 0
    for c in out:
        g = math.gcd(g, c)
    return [c // g for c in out] if g else out


def _strip_p(coeffs, p):
    g = None
    for c in coeffs:
        if c:
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            g = v if g is None else min(g, v)
    if not g:
        return coeffs
    return [c // p ** g for c in coeffs]


def _ieval(coeffs, x, mod):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def _count_distinct_zp_roots(coeffs, p, depth):
    """Distinct Z_p roots of a squarefree integer polynomial."""
    if depth > 64:
        raise ArithmeticError("refinement did not terminate (input not squarefree?)")
    d1 = _fderiv(coeffs)
    total = 0
    for r in range(p):
        if _ieval(coeffs, r, p) != 0:
            continue
        if _ieval(d1, r, p) != 0:
            total += 1
            continue
        # substitute x = r + p z and strip p-content
        taylor = _itaylor(coeffs, r)
        scaled = [taylor[i] * p ** i for i in range(len(taylor))]
        total += _count_distinct_zp_roots(_strip_p(scaled, p), p, depth + 1)
    return total


def _itaylor(coeffs, r):
    cs = list(coeffs)
    out = []
    while cs:
        b = cs[-1]
        qs = [b]
        for c in reversed(cs[:-1]):
            b = b * r + c
            qs.append(b)
        out.append(b)
        qs.reverse()
        cs = qs[1:]
    return out


def exhaustive_series_zeros(coeffs, p: int) -> int:
    """Zeros in Z_p, with multiplicity, of a polynomial given by exact
    integer or rational coefficients (ascending)."""
    exact = [Fraction(c) for c in coeffs]
    if _fdeg(exact) <= 0:
        return 0
    total = 0
    for part, mult in _squarefree_parts(exact):
        ints = _int_clear(part)
        total += mult * _count_distinct_zp_roots(ints, p, 0)
    return total


# -- zeros in the closed unit ball by the Newton polygon -------------------

def newton_polygon_zeros(coeffs, p: int) -> int:
    """Zeros in the closed unit ball of C_p, with multiplicity, of the
    polynomial with exact integer coefficients ``coeffs`` (ascending).

    A segment of the lower convex hull of the points (i, v_p(c_i)) with
    slope -s carries as many roots of valuation s as it is long, so the
    count is the zero roots plus the length of the segments of slope <= 0.
    """
    pts = []
    for i, c in enumerate(coeffs):
        if c:
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            pts.append((i, v))
    if not pts:
        raise ValueError("the zero polynomial has no Newton polygon")
    hull = []
    for i, v in pts:
        # drop the last vertex while it lies on or above the chord to (i, v)
        while len(hull) >= 2:
            (i0, v0), (i1, v1) = hull[-2], hull[-1]
            if (v1 - v0) * (i - i0) < (v - v0) * (i1 - i0):
                break
            hull.pop()
        hull.append((i, v))
    return hull[0][0] + sum(i1 - i0 for (i0, v0), (i1, v1) in zip(hull, hull[1:])
                            if v1 <= v0)


# -- Jacobian order and exponent by divisor pairs ---------------------------

def _fp_affine_points(C, p):
    from .padic import legendre_symbol, sqrt_mod_p
    pts = []
    for x in range(p):
        r = 0
        for c in reversed(C.f_coeffs):
            r = (r * x + c) % p
        if r == 0:
            pts.append((x, 0))
        else:
            if legendre_symbol(r, p) == 1:
                y = sqrt_mod_p(r, p)
                pts.append((x, y))
                pts.append((x, p - y))
    return pts


def exhaustive_jacobian(C: HyperellipticCurve, p: int):
    """(order, exponent) of J(F_p).

    The order counts unordered point-pairs {P, Q} with Q != involution(P):
    the identity class plus pairs from C(F_p) (infinity allowed) plus
    Frobenius-conjugate pairs from C(F_{p^2}); each non-identity class has
    a unique such representative.  The exponent comes from a from-scratch
    local group law over Mumford tuples (no code shared with the main path).
    """
    from .padic import legendre_symbol, smallest_nonresidue
    if p > 23:
        raise ValueError("oracle is desk-scale only")
    if not C.good_reduction(p):
        raise ValueError("curve has bad reduction at %d" % p)
    aff = _fp_affine_points(C, p)
    n = len(aff) + 1  # infinity included
    n_fixed = 1 + sum(1 for (_, y) in aff if y == 0)  # involution-fixed
    pairs_total = n * (n + 1) // 2
    identity_pairs = n_fixed + (n - n_fixed) // 2
    fp_pairs = pairs_total - identity_pairs

    c = smallest_nonresidue(p)
    fmod = [k % p for k in C.f_coeffs]
    n2 = 1
    for a in range(p):
        for b in range(p):
            ra, rb = 0, 0
            for k in reversed(fmod):
                ra, rb = (ra * a + rb * b * c + k) % p, (ra * b + rb * a) % p
            if ra == 0 and rb == 0:
                n2 += 1
            elif legendre_symbol((ra * ra - c * rb * rb) % p, p) == 1:
                n2 += 2
    m = n2 - n  # points of F_{p^2} not rational over F_p
    anti = 0
    for x in range(p):
        r = 0
        for k in reversed(C.f_coeffs):
            r = (r * x + k) % p
        if r != 0 and legendre_symbol(r, p) == -1:
            anti += 1
    conj_pairs = m // 2 - anti
    order = 1 + fp_pairs + conj_pairs

    elements = _mini_enumerate(C, p)
    if len(elements) != order:
        raise ArithmeticError(
            "oracle-internal mismatch: pair count %d vs Mumford scan %d"
            % (order, len(elements)))
    # every element lies on the walk of one that no earlier walk visited,
    # so its order divides that walk's length
    exponent, visited = 1, set()
    fcoeffs = [k % p for k in C.f_coeffs]
    for el in elements:
        if (tuple(el[0]), tuple(el[1])) not in visited:
            walk = _mini_walk(el, fcoeffs, p, order)
            visited.update(walk)
            exponent = exponent * len(walk) // math.gcd(exponent, len(walk))
    return order, exponent


# a tiny standalone group law over F_p Mumford tuples (u, v), used only to
# compute element orders; lists ascending, arithmetic mod p throughout

def _mtrim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _mdivmod(a, b, p):
    a, b = _mtrim(list(a)), _mtrim(list(b))
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    r = list(a)
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        cc = r[-1] * inv % p
        q[k] = cc
        for j in range(db + 1):
            r[k + j] = (r[k + j] - cc * b[j]) % p
        r = _mtrim(r[:-1])
        if len(r) - 1 < db:
            break
    return q, r


def _mmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _mtrim(out)


def _madd(a, b, p):
    out = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append((x + y) % p)
    return _mtrim(out)


def _mneg(a, p):
    return [(-x) % p for x in a]


def _mxgcd(a, b, p):
    r0, r1 = _mtrim(list(a)), _mtrim(list(b))
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _mdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _madd(s0, _mneg(_mmul(q, s1, p), p), p)
        t0, t1 = t1, _madd(t0, _mneg(_mmul(q, t1, p), p), p)
    inv = pow(r0[-1], -1, p)
    return ([x * inv % p for x in r0], [x * inv % p for x in s0],
            [x * inv % p for x in t0])


def _mini_add(D1, D2, f, p):
    u1, v1 = D1
    u2, v2 = D2
    d1, e1, e2 = _mxgcd(u1, u2, p)
    s, c1, c2 = _mxgcd(d1, _madd(v1, v2, p), p)
    s1, s2, s3 = _mmul(c1, e1, p), _mmul(c1, e2, p), c2
    u3, rem = _mdivmod(_mmul(u1, u2, p), _mmul(s, s, p), p)
    assert not rem
    num = _madd(_madd(_mmul(_mmul(s1, u1, p), v2, p),
                      _mmul(_mmul(s2, u2, p), v1, p), p),
                _mmul(s3, _madd(_mmul(v1, v2, p), f, p), p), p)
    v3, rem = _mdivmod(num, s, p)
    assert not rem
    _, v3 = _mdivmod(v3, u3, p)
    while len(u3) - 1 > 2:
        u3n, rem = _mdivmod(_madd(f, _mneg(_mmul(v3, v3, p), p), p), u3, p)
        assert not rem
        inv = pow(u3n[-1], -1, p)
        u3n = [x * inv % p for x in u3n]
        _, v3 = _mdivmod(_mneg(v3, p), u3n, p)
        u3 = u3n
    inv = pow(u3[-1], -1, p)
    u3 = [x * inv % p for x in u3]
    _, v3 = _mdivmod(v3, u3, p)
    return (u3, v3)


def _mini_enumerate(C, p):
    f = [k % p for k in C.f_coeffs]
    els = [([1], [])]
    for u0 in range(p):
        # degree 1: u = x + u0, v = v0 with v0^2 = f(-u0)
        x = (-u0) % p
        fx = 0
        for k in reversed(f):
            fx = (fx * x + k) % p
        for v0 in range(p):
            if v0 * v0 % p == fx:
                els.append(([u0, 1], _mtrim([v0])))
    for u1 in range(p):
        for u0 in range(p):
            u = [u0, u1, 1]
            _, r = _mdivmod(f, u, p)
            r0 = r[0] if len(r) > 0 else 0
            r1 = r[1] if len(r) > 1 else 0
            for v1 in range(p):
                # v^2 mod u: (2 v1 v0 - v1^2 u1) x + (v0^2 - v1^2 u0)
                if v1 == 0:
                    if r1 != 0:
                        continue
                    for v0 in range(p):
                        if v0 * v0 % p == r0:
                            els.append((u, _mtrim([v0])))
                else:
                    v0 = (r1 + v1 * v1 % p * u1) * pow(2 * v1, -1, p) % p
                    if (v0 * v0 - v1 * v1 % p * u0) % p == r0 % p:
                        els.append((u, _mtrim([v0, v1])))
    return els


def _mini_walk(el, f, p, cap):
    """The keys of el, 2.el, ..., up to the identity: ord(el) of them."""
    acc = el
    walk = [(tuple(el[0]), tuple(el[1]))]
    while not (acc[0] == [1] and acc[1] == []):
        acc = _mini_add(acc, el, f, p)
        walk.append((tuple(acc[0]), tuple(acc[1])))
        if len(walk) > cap:
            raise ArithmeticError("element order exceeds group order")
    return walk
