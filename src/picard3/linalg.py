"""Exact linear algebra over the integers and rationals.

Everything in this package runs on Python ints and ``fractions.Fraction``;
no floating point is used anywhere.  Matrices are immutable tuples of tuples,
vectors are tuples.  The matrices that occur are tiny (at most 6x6), so the
implementations favour clarity over asymptotics.  The one exception is
:func:`mat_mul` and :func:`mat_vec` for the engine's own dimensions: a 4x4
right factor (the even Clifford part) takes one unrolled product, and the
inner dimensions 3 (the lattice L) and 6 (the exterior square W) an unrolled
dot product, which saves the per-entry ``sum``/``map`` overhead that
dominates products of matrices this small.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from ._value import check_ints

Matrix = tuple  # tuple of row tuples
Vector = tuple


def mat(rows) -> Matrix:
    """Freeze a nested sequence into a matrix (tuple of row tuples)."""
    return tuple(map(tuple, rows))


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def quotient(n: int, d: int):
    """n / d (integers, d != 0) as an int when it is integral, else as a Fraction."""
    q, r = divmod(n, d)
    return q if r == 0 else Fraction(n, d)


def mat_div(a: Matrix, d: int) -> Matrix:
    """The integer matrix a divided by d != 0, entry by entry by quotient."""
    if d == 1:
        return a
    return tuple(tuple(quotient(x, d) for x in row) for row in a)


def vec_dot(u: Vector, v: Vector):
    return sum(map(mul, u, v))


def _dot3(u: Vector, v: Vector):
    u0, u1, u2 = u
    v0, v1, v2 = v
    return u0 * v0 + u1 * v1 + u2 * v2


def _dot6(u: Vector, v: Vector):
    u0, u1, u2, u3, u4, u5 = u
    v0, v1, v2, v3, v4, v5 = v
    return u0 * v0 + u1 * v1 + u2 * v2 + u3 * v3 + u4 * v4 + u5 * v5


_DOTS = {3: _dot3, 6: _dot6}


def _mul4(a: Matrix, b: Matrix) -> Matrix:
    """a b for a 4x4 matrix b, unrolled; a loop, not a comprehension, keeps
    the entries of b in fast locals rather than closure cells."""
    (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3) = b
    out = []
    for x0, x1, x2, x3 in a:
        out.append((x0 * p0 + x1 * q0 + x2 * r0 + x3 * s0,
                    x0 * p1 + x1 * q1 + x2 * r1 + x3 * s1,
                    x0 * p2 + x1 * q2 + x2 * r2 + x3 * s2,
                    x0 * p3 + x1 * q3 + x2 * r3 + x3 * s3))
    return tuple(out)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, by :func:`_mul4` for a 4x4 b and else by the dot product chosen
    once from the inner dimension len(b)."""
    if len(b) == 4 and len(b[0]) == 4:
        return _mul4(a, b)
    dot = _DOTS.get(len(b), vec_dot)
    bt = transpose(b)
    return tuple([tuple([dot(row, col) for col in bt]) for row in a])


def mat_vec(a: Matrix, v: Vector) -> Vector:
    dot = _DOTS.get(len(v), vec_dot)
    return tuple([dot(row, v) for row in a])


def clear_denominators(v) -> tuple:
    """(d, w): the least common denominator d of the int or Fraction
    entries of v, and the integers w = d * v."""
    d = lcm(*(x.denominator for x in v))
    return d, [x.numerator * (d // x.denominator) for x in v]


def _bareiss(rows: list, n: int, jordan: bool = False):
    """Bareiss fraction-free elimination of integer rows in place, pivoting
    on the first n columns of the first n rows; every division is exact.
    ``jordan`` also clears above each pivot, which leaves +-det times the
    identity in that block.  Returns the determinant of the block."""
    sign, prev = 1, 1
    for i in range(n):
        piv = next((r for r in range(i, n) if rows[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            rows[i], rows[piv] = rows[piv], rows[i]
            sign = -sign
        p = rows[i][i]
        for r in range(n) if jordan else range(i + 1, n):
            if r != i:
                f = rows[r][i]
                rows[r] = [(x * p - f * y) // prev for x, y in zip(rows[r], rows[i])]
        prev = p
    return sign * prev


def det(a: Matrix):
    """Determinant of a matrix of ints (bools too) and Fractions.  An all-int
    3x3 matrix is expanded by cofactors along its first row, and a 4x4 one by
    the 2x2 minors of its first two rows (Laplace), kept when it is an int,
    which it is exactly when every entry is.  Anything else goes through
    Bareiss elimination, with each row scaled to integers by its common
    denominator and their product divided out once at the end.  An entry
    that is neither an int nor a Fraction raises TypeError."""
    if len(a) == 3:
        (p, q, r), (s, t, u), (v, w, x) = a
        if (type(p) is type(q) is type(r) is type(s) is type(t) is type(u)
                is type(v) is type(w) is type(x) is int):
            return p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)
    elif len(a) == 4:
        (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3) = a
        d = ((p0 * q1 - p1 * q0) * (r2 * s3 - r3 * s2)
             - (p0 * q2 - p2 * q0) * (r1 * s3 - r3 * s1)
             + (p0 * q3 - p3 * q0) * (r1 * s2 - r2 * s1)
             + (p1 * q2 - p2 * q1) * (r0 * s3 - r3 * s0)
             - (p1 * q3 - p3 * q1) * (r0 * s2 - r2 * s0)
             + (p2 * q3 - p3 * q2) * (r0 * s1 - r1 * s0))
        if type(d) is int:
            return d
    rows, scale = [], 1
    for row in a:
        if not all(isinstance(x, (int, Fraction)) for x in row):
            raise TypeError("matrix entries must be int or Fraction")
        d, w = clear_denominators(row)
        rows.append(w)
        scale *= d
    return quotient(_bareiss(rows, len(rows)), scale)


def adjugate(a: Matrix) -> Matrix:
    """adj(a) = det(a) a^{-1} of an invertible integer matrix, by
    fraction-free Gauss-Jordan elimination of [a | I].  Raises ValueError if
    a is singular."""
    n = len(a)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    d = _bareiss(rows, n, jordan=True)
    if d == 0:
        raise ValueError("matrix is singular")
    # the left block is now +-d times the identity
    return mat_scale(d // rows[0][0], [r[n:] for r in rows])


def sign_normalize(v) -> Vector:
    """The representative of v modulo +-1 whose first nonzero entry is
    positive.  Raises ValueError for the zero vector."""
    for x in v:
        if x != 0:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    raise ValueError("the zero vector has no sign class")


def smith_normal_form(a: Matrix):
    """Smith normal form with transforms: returns (d, u, v) with u*a*v = d.

    u and v are unimodular; d is diagonal with nonnegative entries satisfying
    d[i] | d[i+1].  The elimination runs on the block matrix
    b = [[a, I_rows], [I_cols, 0]]: an operation on its top rows carries u
    along, and one on its left columns carries v, so d, u and v are its three
    nonzero blocks at the end.  One pivot rule fills slot t: move a nonzero
    entry p of least |p| in the remaining block (the first in row-major
    order) to (t, t), then subtract floor(x / p) times row t from each row
    below and times column t from each column to its right.  If a remainder
    is left in row or column t, pick again; otherwise, if p does not divide
    some entry of the remaining block, add that entry's row to row t and
    pick again.  Remainders are smaller than |p|, so |p| falls within two
    picks, and the loop ends.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    b = ([list(r) + [1 if i == j else 0 for j in range(rows)] for i, r in enumerate(a)]
         + [[1 if i == j else 0 for j in range(cols + rows)] for i in range(cols)])
    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if b[i][j] != 0 and (best is None or abs(b[i][j]) < abs(b[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        b[t], b[i] = b[i], b[t]
        for r in b:
            r[t], r[j] = r[j], r[t]
        p, left = b[t][t], False
        for i in range(t + 1, rows):
            if b[i][t] != 0:
                q = b[i][t] // p
                b[i] = [x - q * y for x, y in zip(b[i], b[t])]
                left |= b[i][t] != 0
        for j in range(t + 1, cols):
            if b[t][j] != 0:
                q = b[t][j] // p
                for r in b:
                    r[j] -= q * r[t]
                left |= b[t][j] != 0
        if left:  # a remainder is left in row or column t
            continue
        for i in range(t + 1, rows):
            if any(x % p for x in b[i][t + 1:cols]):
                b[t] = [x + y for x, y in zip(b[t], b[i])]
                break
        else:
            t += 1
    for i in range(min(rows, cols)):  # normalize signs
        if b[i][i] < 0:
            b[i] = [-x for x in b[i]]
    return (mat(r[:cols] for r in b[:rows]), mat(r[cols:] for r in b[:rows]),
            mat(r[:cols] for r in b[rows:]))


def char_poly(a: Matrix):
    """Coefficients (1, c_{n-1}, ..., c_0) of det(tI - a), descending, for a
    square integer matrix, by Faddeev-LeVerrier: with M_1 = I,
    c_{n-k} = -tr(a M_k) / k and M_{k+1} = a M_k + c_{n-k} I, where each
    division by k is exact."""
    n = len(a)
    coeffs, m = [1], identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -sum(am[i][i] for i in range(n)) // k
        coeffs.append(c)
        m = tuple(tuple(x + c * (i == j) for j, x in enumerate(row))
                  for i, row in enumerate(am))
    return tuple(coeffs)


@lru_cache(maxsize=32)
def factor(n: int) -> tuple:
    """((p, e), ...) with p ascending and |n| = prod p^e (n != 0), by trial
    division by 2, 3 and then 6k +- 1 while p^2 <= the unfactored part.
    Cached: an M_n report asks for factor(n) 6 times, 7 for 4 and odd prime powers.
    A non-int n (a bool or a float too) raises TypeError."""
    check_ints(n)
    if n == 0:
        raise ValueError("0 has no factorisation")
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p = 3 if p == 2 else 5 if p == 3 else p + (2 if p % 6 == 5 else 4)
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def square_root_count(u: int, n: int) -> int:
    """The number of x mod |n| with x^2 = u mod n, for u prime to n != 0
    (else ValueError): the product over p^e || n of the local counts,
    1 + (u/p) at odd p by Euler's criterion (Hensel lifts each root to p^e),
    and min(2^(e-1), 4) at 2^e when u = 1 mod 2, 4, 8 for e = 1, 2, >= 3, else 0."""
    check_ints(u, n)
    if n == 0 or gcd(u, n) != 1:
        raise ValueError("n must be nonzero and prime to u")
    count = 1
    for p, e in factor(n):
        if p == 2:
            count *= min(2 ** (e - 1), 4) if u % min(2 ** e, 8) == 1 else 0
        else:
            count *= 2 if pow(u, (p - 1) // 2, p) == 1 else 0
    return count


def factor_pairs(m: int, bound: int, mx: int = 1, my: int = 1) -> list:
    """Every (x, y) with x*y = m, |x|, |y| <= bound, mx | x and my | y, for
    nonzero strides mx and my; when m = 0 these are the pairs with x = 0 or
    y = 0.  The bounded box searches list their solutions of x*y = m through
    this one place."""
    mx, my = abs(mx), abs(my)
    if m == 0:
        return ([(0, y) for y in range(-(bound // my) * my, bound + 1, my)]
                + [(x, 0) for x in range(-(bound // mx) * mx, bound + 1, mx) if x])
    am = abs(m)
    if am > bound * bound or bound < 0:
        return []
    out = []  # x starts at |m| / bound, so |y| <= bound holds
    for x in range(-(-am // (bound * mx)) * mx, min(bound, am) + 1, mx):
        if m % x == 0 and m // x % my == 0:
            out += ((x, m // x), (-x, -(m // x)))
    return out


def squarefree_part(n: int) -> int:
    """The squarefree integer representing n modulo nonzero rational squares."""
    return (-1 if n < 0 else 1) * prod(p for p, e in factor(n) if e % 2)
