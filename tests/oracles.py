"""Exhaustive scans kept as independent oracles for the closed forms.

Each function here is the definition its library counterpart replaced by a
formula; the tests check that the two agree.
"""

from math import gcd

from picard3.modular import ModularElement, is_torsion, member


def delta_n_scan(n: int) -> int:
    """|{a in (Z/n)^x : a^2 = +-1 mod n} / {+-1}| by exhaustive scan."""
    if n <= 2:
        return 1
    sols = {a for a in range(1, n) if gcd(a, n) == 1
            and (a * a) % n in (1 % n, (-1) % n)}
    return len({frozenset((a, (-a) % n)) for a in sols})


def qr_minus_one_scan(n: int) -> bool:
    """Is -1 a unit square modulo n?  By scan."""
    target = (-1) % n
    return any((a * a) % n == target for a in range(n) if gcd(a, n) == 1)


def represents_scan(k: int, l: int, eps: int) -> bool:
    """gcd(k, l) = 1 and eps*l a square mod |k|, by scan."""
    if gcd(k, l) != 1:
        return False
    kk = abs(k)
    target = (eps * l) % kk
    return any((x * x) % kk == target for x in range(kk))


def totient_like_index_scan(n: int) -> int:
    """n^3 * prod_{p|n} (1 - 1/p^2), with the primes found by trial division."""
    num, den = n ** 3, 1
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            num *= p * p - 1
            den *= p * p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        num *= m * m - 1
        den *= m * m
    assert num % den == 0
    return num // den


def torsion_search_scan(spec, bound: int):
    """Every torsion member of the subgroup with |entries| <= bound, found by
    solving bc = ad - det over the whole box, sorted like torsion_search."""
    found = set()
    identity = ModularElement(1, 0, 0, 1)

    def consider(a, b, c, d):
        if max(abs(a), abs(b), abs(c), abs(d)) > bound:
            return
        el = ModularElement(a, b, c, d)
        if el != identity and member(el, spec) and is_torsion(el)[0]:
            found.add(el)

    for det_val, traces in ((1, (0, 1, -1)), (-1, (0,))):
        for t in traces:
            for a in range(-bound, bound + 1):
                d = t - a
                m = a * d - det_val
                if m == 0:
                    for b in range(-bound, bound + 1):
                        consider(a, b, 0, d)
                        consider(a, 0, b, d)
                    continue
                for b in range(1, bound + 1):
                    if m % b == 0:
                        consider(a, b, m // b, d)
                        consider(a, -b, -(m // b), d)
    return tuple(sorted(found, key=lambda e: (e.a, e.b, e.c, e.d)))
