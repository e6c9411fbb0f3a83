"""The benchmark's own arithmetic, written apart from picard3.

Everything here uses plain Python integers and is used only to build inputs
and to check the program's outputs.  The congruence invariants of
M_n = U(n) + <-2n> are computed from the factorisation of n, prime power by
prime power, where picard3 scans all residues.
"""

from __future__ import annotations

from math import gcd


def factorize(n: int) -> dict:
    """{p: e} with n = prod p^e, by trial division (n >= 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _roots_of_one(p: int, e: int) -> int:
    """#{a mod p^e : a^2 = 1}."""
    if p != 2:
        return 2
    return 1 if e == 1 else 2 if e == 2 else 4


def _roots_of_minus_one(p: int, e: int) -> int:
    """#{a mod p^e : a^2 = -1}."""
    if p == 2:
        return 1 if e == 1 else 0
    return 2 if p % 4 == 1 else 0


def delta(n: int, fac: dict | None = None) -> int:
    """|{a in (Z/n)^x : a^2 = +-1} / {+-1}|, from local root counts (CRT).

    For n > 2 the solutions of a^2 = 1 and a^2 = -1 are disjoint and a != -a,
    so the classes number half of all solutions.
    """
    if n <= 2:
        return 1
    fac = fac if fac is not None else factorize(n)
    ones, minus = 1, 1
    for p, e in fac.items():
        ones *= _roots_of_one(p, e)
        minus *= _roots_of_minus_one(p, e)
    return (ones + minus) // 2


def minus_one_is_square(n: int, fac: dict | None = None) -> bool:
    """-1 is a square mod n  <=>  4 does not divide n and every odd p | n is 1 mod 4."""
    fac = fac if fac is not None else factorize(n)
    return fac.get(2, 0) < 2 and all(p % 4 == 1 for p in fac if p != 2)


def index_in_pi(n: int, fac: dict | None = None) -> int:
    """[Pi : G_n] = n^3 prod_{p | n} (1 - p^-2) / delta_n (1 and 6 below n = 3)."""
    if n == 1:
        return 1
    if n == 2:
        return 6
    fac = fac if fac is not None else factorize(n)
    num, den = n ** 3, 1
    for p in fac:
        num *= p * p - 1
        den *= p * p
    if num % den:
        raise ArithmeticError("n^3 prod(1 - p^-2) is not an integer")
    v, d = num // den, delta(n, fac)
    if v % d:
        raise ArithmeticError("delta_n does not divide the index")
    return v // d


def represents_unit(k: int, l: int, eps: int) -> bool:
    """Does the halved U(k) + <2l> represent eps: gcd(k, l) = 1 and eps*l a square mod |k|."""
    kk = abs(k)
    return gcd(k, l) == 1 and any((x * x - eps * l) % kk == 0 for x in range(kk))


def det3(m) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def adj3(m):
    """The adjugate: adj(m) m = m adj(m) = det(m) I."""
    c = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [x for x in range(3) if x != i]
            s = [y for y in range(3) if y != j]
            minor = m[r[0]][s[0]] * m[r[1]][s[1]] - m[r[0]][s[1]] * m[r[1]][s[0]]
            c[j][i] = (-1) ** (i + j) * minor
    return c


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a):
    return [list(r) for r in zip(*a)]
