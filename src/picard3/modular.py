"""Congruence-subgroup arithmetic in PGL2(Z) and PSL2(Z).

Elements are 2x2 integer matrices of determinant +-1, normalized modulo +-1
so that the first nonzero entry (in row-major order) is positive.  Subgroups
are congruence predicates: Pi(n), Gamma(n), the unit groups of the orders
B_{k,l}, the scalar-congruence groups G_n and Gamma_0(k).
"""

from __future__ import annotations

from math import gcd, isqrt

from ._value import Value, check_ints
from .linalg import factor, factor_pairs, mat, sign_normalize


class ModularElement(Value):
    """An element of PGL2(Z): integer matrix mod +-1, det = +-1."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        check_ints(a, b, c, d)
        if a * d - b * c not in (1, -1):
            raise ValueError("determinant must be +-1")
        super().__init__(*sign_normalize((a, b, c, d)))

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        # trace is only defined mod sign in PGL2; callers use |trace| or parity
        return self.a + self.d

    @property
    def matrix(self):
        return mat([[self.a, self.b], [self.c, self.d]])

    @staticmethod
    def from_matrix(m) -> "ModularElement":
        try:
            (a, b), (c, d) = m
        except (TypeError, ValueError):
            raise ValueError(f"a 2x2 matrix is required, not {m!r}") from None
        return ModularElement(a, b, c, d)

    def __mul__(self, other: "ModularElement") -> "ModularElement":
        return ModularElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "ModularElement":
        dt = self.det
        return ModularElement(dt * self.d, -dt * self.b,
                              -dt * self.c, dt * self.a)


# Which of the parameters (n, k, l) each kind of SubgroupSpec reads.
_READS = {"Pi_n": (True, False, False), "Gamma_n": (True, False, False),
          "B_kl_units": (False, True, True), "G_n": (True, False, False),
          "Gamma0_k": (False, True, False)}


class SubgroupSpec(Value):
    """A congruence predicate: one of Pi_n, Gamma_n, B_kl_units, G_n,
    Gamma0_k, with its parameters.  A kind takes the nonzero integer
    parameters it reads and no other; each is stored as its absolute value,
    which defines the same group, so specs of one group compare and hash
    equal."""

    __slots__ = _fields = ("kind", "n", "k", "l")

    def __init__(self, kind: str, n: int = 0, k: int = 0, l: int = 0):
        reads = _READS.get(kind)
        if reads is None:
            raise ValueError(f"kind must be one of {tuple(_READS)}")
        check_ints(n, k, l)
        given = (n != 0, k != 0, l != 0)
        if given != reads:
            if not all(g for g, r in zip(given, reads) if r):
                raise ValueError(f"the parameters of {kind} must be nonzero")
            raise ValueError(f"{kind} does not read "
                             + ", ".join(p for p, g, r in zip("nkl", given, reads) if g > r))
        super().__init__(kind, abs(n), abs(k), abs(l))

    @property
    def moduli(self) -> tuple:
        """(m_ad, m_b, m_c), positive, with m_ad | a - d, m_b | b and
        m_c | c for every member [[a, b], [c, d]]: (n, n, n) for Pi_n,
        Gamma_n and G_n, (k, l, k) for B_kl_units, (1, 1, k) for Gamma0_k."""
        if self.kind == "B_kl_units":
            return self.k, self.l, self.k
        if self.kind == "Gamma0_k":
            return 1, 1, self.k
        return (self.n,) * 3


def member(x, spec: SubgroupSpec) -> bool:
    """Membership predicate for an element or a 2x2 integer matrix: the
    divisibilities of spec.moduli, plus det = 1 for Gamma_n and a = +-1
    (mod n) for Pi_n and Gamma_n."""
    if not isinstance(x, ModularElement):
        x = ModularElement.from_matrix(x)
    m_ad, m_b, m_c = spec.moduli
    if (x.a - x.d) % m_ad or x.b % m_b or x.c % m_c:
        return False
    if spec.kind == "Gamma_n" and x.det != 1:
        return False
    return (spec.kind not in ("Pi_n", "Gamma_n")
            or (x.a - 1) % m_ad == 0 or (x.a + 1) % m_ad == 0)


def _totient_like_index(n: int) -> int:
    """n^3 * prod_{p|n} (1 - 1/p^2), exactly (p^3 divides n^3 for each p)."""
    v = n ** 3
    for p, _ in factor(n):
        v = v // (p * p) * (p * p - 1)
    return v


def index_gamma_n(n: int) -> int:
    """[Gamma : Gamma(n)] = n^3/2 * prod (1 - 1/p^2) for n >= 3; 1, 6 below."""
    check_ints(n)
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    if n == 2:
        return 6
    v = _totient_like_index(n)
    if v % 2:
        raise AssertionError("[Gamma : Gamma(n)] formula gave an odd count")
    return v // 2


def delta_n(n: int) -> int:
    """|{a in (Z/n)^x : a^2 = +-1 mod n} / {+-1}| = (s+ + s-)/2 for n > 2,
    s+- the numbers of square roots of +-1 mod n.  s+ is the CRT product of
    the local counts 2 (odd p) and min(2^(e-1), 4) (2^e); -1 has as many
    roots as +1 when it is a square mod n (qr_minus_one), else none, so
    delta_n is s+ or s+/2.  For n = 1, 2, where +1 = -1, the formula gives
    s+ = 1 = delta_n."""
    check_ints(n)
    if n < 1:
        raise ValueError("n must be positive")
    plus = 1
    for p, e in factor(n):
        plus *= min(2 ** (e - 1), 4) if p == 2 else 2
    return plus if qr_minus_one(n) else plus // 2


def index_pi_g_n(n: int) -> int:
    """[Pi : G_n] = n^3 prod(1-1/p^2) / delta_n; the formula gives 1 and 6
    for n = 1, 2.  delta_n refuses a non-int n (TypeError) and n < 1."""
    d = delta_n(n)
    v = _totient_like_index(n)
    if v % d:
        raise AssertionError("delta_n does not divide the index")
    return v // d


def provably_torsion_free(spec: SubgroupSpec) -> bool:
    """True when the subgroup is proved to hold no torsion besides the
    identity; False means "not proved", not "has torsion".

    With (m_ad, m_b, m_c) = spec.moduli, a member [[a, b], [c, d]] has
    tr^2 - 4 det = (a - d)^2 + 4bc divisible by m = gcd(m_ad^2, 4 m_b m_c),
    while a torsion element other than the identity has det 1 and tr in
    {0, +-1}, or det -1 and tr 0, so tr^2 - 4 det in {-4, -3, 4}.  So no m
    outside {1, 2, 3, 4} admits torsion (Minkowski's lemma; Newman, Integral
    Matrices, ch. IX).  m is n^2 for Pi_n, Gamma_n and G_n (torsion-free for
    |n| >= 3), |k| gcd(k, 4l) for B_{k,l}^x and 1 for Gamma_0(k).
    """
    m_ad, m_b, m_c = spec.moduli
    return gcd(m_ad * m_ad, 4 * m_b * m_c) not in (1, 2, 3, 4)


def torsion_search(spec: SubgroupSpec, bound: int):
    """All torsion elements of the subgroup with |entries| <= bound.

    Emptiness is bounded evidence only, never a proof of torsion-freeness.
    The enumeration runs over the complete torsion trace/det classes
    (det 1 with tr in {0, +-1}; det -1 with tr 0), solving bc = ad - det by
    divisor enumeration, which is exactly the bounded box scan.  Each such
    candidate is torsion and none is the identity (trace 2), so only
    membership is tested, and only for b, c in the multiples of the moduli
    (m_b, m_c) of spec.moduli, which every member's b and c obey;
    linalg.factor_pairs lists those pairs.
    """
    check_ints(bound)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    _, mb, mc = spec.moduli
    found = set()
    for det_val, traces in ((1, (0, 1, -1)), (-1, (0,))):
        for t in traces:
            for a in range(-bound, bound + 1):
                d = t - a
                m = a * d - det_val  # need bc = m
                if abs(d) > bound or m % (mb * mc) != 0:
                    continue
                for b, c in factor_pairs(m, bound, mb, mc):
                    el = ModularElement(a, b, c, d)
                    if member(el, spec):
                        found.add(el)
    return tuple(sorted(found, key=lambda e: (e.a, e.b, e.c, e.d)))


def free_rank(index_in_pi: int) -> int:
    """Rank of a torsion-free finite-index subgroup of PGL2(Z): index/12 + 1.

    The index must be taken in Pi = PGL2(Z); callers holding an index in
    Gamma = PSL2(Z) must double it first.  An index that is not a positive
    multiple of 12 signals torsion or a wrong ambient group: ValueError.
    """
    check_ints(index_in_pi)
    if index_in_pi < 1 or index_in_pi % 12 != 0:
        raise ValueError("index not a positive multiple of 12 (torsion, or not in Pi?)")
    return index_in_pi // 12 + 1


def qr_minus_one(n: int) -> bool:
    """Is -1 a quadratic residue modulo n?  Yes iff 4 does not divide n and
    every odd prime p | n has p = 1 mod 4."""
    check_ints(n)
    if n < 1:
        raise ValueError("n must be positive")
    return n % 4 != 0 and all(p % 4 == 1 for p, _ in factor(n) if p != 2)


def negative_pell(d: int):
    """Solve x^2 - d y^2 = -4: returns the fundamental witness (x, y) or None.

    Let D = d when d = 0, 1 mod 4 and D = 4d otherwise, s = D mod 2, and
    omega = (s + sqrt(D))/2, so that the solutions (x, y) are the units
    (x + y sqrt(d))/2 of norm -1 in Z[omega].  One period of the continued
    fraction of omega, in the form (P + sqrt(D))/Q, runs from (P, Q) = (s, 2)
    until Q = 2 again.  An even period means no unit of norm -1, hence no
    solution.  An odd period ends on the convergent p/q with p - q*omega of
    norm -1, which gives the fundamental solution x = 2p - s*q, y = q
    (y = 2q when D = 4d).  Raises for d <= 0 or square.
    """
    check_ints(d)
    if d <= 0:
        raise ValueError("d must be positive")
    if isqrt(d) ** 2 == d:
        raise ValueError("d must not be a perfect square")
    big_d, f = (d, 1) if d % 4 in (0, 1) else (4 * d, 2)
    s, r = big_d % 2, isqrt(big_d)
    pp, qq = s, 2
    p, p_prev, q, q_prev = 1, 0, 0, 1
    period = 0
    while True:
        a = (pp + r) // qq
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        pp = a * qq - pp
        qq = (big_d - pp * pp) // qq
        period += 1
        if qq == 2:
            break
    if period % 2 == 0:
        return None
    x, y = 2 * p - s * q, f * q
    if x * x - d * y * y != -4:
        raise AssertionError("continued fraction gave no -4 Pell solution")
    return x, y


def prime_power_generator(n: int):
    """The extra generator of G_n over Gamma(n) for prime powers n (or None).

    Cases: n = 2 -> diag(1, -1); n = 4 -> None (G_4 = Gamma(4));
    n = 2^e, e >= 3 -> the unipotent-like matrix with lambda = 1 + 2^{e-1};
    n = p^e with p = 3 mod 4 -> None; n = p^e with p = 1 mod 4 -> the
    det -1 class witness of the smaller root a of a^2 = -1 mod n.
    """
    check_ints(n)
    p, e = prime_power(n)
    if p is None:
        raise ValueError("n must be a prime power")
    if n == 2:
        return ModularElement(1, 0, 0, -1)
    if n == 4:
        return None
    if p == 2:
        lam = 1 + 2 ** (e - 1)
        return ModularElement(lam, 2 ** e, 2 ** (2 * e - 3),
                              1 - 2 ** (e - 1) + 2 ** (2 * (e - 1)))
    if p % 4 == 3:
        return None
    # a^2 = -1 mod p from a non-residue c (Euler), Newton-lifted to p^e
    c = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
    a = pow(c, (p - 1) // 4, p)
    for _ in range(e - 1):
        a = (a - (a * a + 1) * pow(2 * a, -1, n)) % n
    return g_n_class_witness(n, min(a, n - a), -1)


def prime_power(n: int):
    """(p, e) with n = p^e, or (None, None) when n is not a prime power."""
    f = factor(n) if n >= 2 else ()
    return f[0] if len(f) == 1 else (None, None)


def g_n_class_witness(n: int, lam: int, eps: int) -> ModularElement:
    """An explicit element of G_n congruent to lam*I mod n with det = eps.

    Requires lam^2 = eps mod n.  Construction: lam*I + n*[[t, r], [1, 0]]
    with t chosen so the determinant comes out exactly eps.
    """
    if (lam * lam - eps) % n != 0:
        raise ValueError("lam^2 != eps mod n")
    m = (lam * lam - eps) // n
    t = (-m * pow(lam, -1, n)) % n
    r = (m + lam * t) // n
    el = ModularElement(lam + n * t, n * r, n, lam)
    if el.det != eps or not member(el, SubgroupSpec("G_n", n=n)):
        raise AssertionError("class witness left G_n or has the wrong det")
    return el
