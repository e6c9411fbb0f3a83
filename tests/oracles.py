"""Exhaustive scans and generic solvers kept as independent oracles for the
closed forms.

Each function here is the definition its library counterpart replaced by a
formula or a faster kernel; the tests check that the two agree.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from picard3.clifford import (CliffordElement, EvenCliffordElement,
                              OddCliffordElement)
from picard3.isometries import Isometry3
from picard3.lattice import Lattice
from picard3.linalg import det, kernel_basis, mat, primitive_vector
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


def isometry_scan(lat: Lattice, bound: int):
    """All isometries of a rank-3 lattice with |entries| <= bound (brute force).

    Columns are constrained to the correct diagonal Gram values before
    assembling candidates.
    """
    q = lat.gram
    cols = list(product(range(-bound, bound + 1), repeat=3))
    by_val = {}
    for v in cols:
        val = sum(v[i] * q[i][j] * v[j] for i in range(3) for j in range(3))
        by_val.setdefault(val, []).append(v)
    out = []
    for c1 in by_val.get(q[0][0], []):
        for c2 in by_val.get(q[1][1], []):
            if sum(c1[i] * q[i][j] * c2[j] for i in range(3) for j in range(3)) != q[0][1]:
                continue
            for c3 in by_val.get(q[2][2], []):
                if sum(c1[i] * q[i][j] * c3[j] for i in range(3) for j in range(3)) != q[0][2]:
                    continue
                if sum(c2[i] * q[i][j] * c3[j] for i in range(3) for j in range(3)) != q[1][2]:
                    continue
                g = mat(tuple(zip(c1, c2, c3)))
                if det(g) in (1, -1):
                    out.append(Isometry3(g, lat))
    return out


# ------------------------------------------------ the Fraction Clifford kernel

def _mono_times_gen(mono: tuple, j: int, pair, half):
    """E_mono * E_j as a list of (coeff, mono) terms, monos ascending."""
    if not mono or mono[-1] < j:
        return [(1, mono + (j,))]
    last = mono[-1]
    if last == j:
        return [(half[j], mono[:-1])]
    # last > j: E_last E_j = <E_last, E_j> - E_j E_last
    out = [(pair[(last, j)], mono[:-1])]
    for c, m in _mono_times_gen(mono[:-1], j, pair, half):
        out.append((-c, m + (last,)))
    return out


def _monomial_product(m1: int, m2: int, params) -> list:
    """E_m1 * E_m2 as 8 integer coordinates, by the rewriting rules."""
    q = params.gram
    pair = {(i + 1, j + 1): q[i][j] for i in range(3) for j in range(3)}
    half = {i: pair[(i, i)] // 2 for i in (1, 2, 3)}
    terms = [(1, tuple(i for i in (1, 2, 3) if m1 & (1 << (i - 1))))]
    for g in (i for i in (1, 2, 3) if m2 & (1 << (i - 1))):
        terms = [(c * c2, mono2) for c, mono in terms
                 for c2, mono2 in _mono_times_gen(mono, g, pair, half)]
    vec = [0] * 8
    for c, mono in terms:
        vec[sum(1 << (i - 1) for i in mono)] += c
    return vec


def rewrite_mul(x: CliffordElement, y: CliffordElement, params) -> tuple:
    """The coordinates of x * y, multiplied monomial by monomial in Fractions."""
    out = [Fraction(0)] * 8
    for m1, c1 in enumerate(x.coeffs):
        for m2, c2 in enumerate(y.coeffs):
            if c1 != 0 and c2 != 0:
                for m3, c3 in enumerate(_monomial_product(m1, m2, params)):
                    out[m3] += c1 * c2 * c3
    return tuple(out)


def rewrite_reversal(x: CliffordElement, params) -> tuple:
    """The coordinates of x*, each monomial's generators multiplied in reverse."""
    out = [Fraction(0)] * 8
    for m, c in enumerate(x.coeffs):
        acc = CliffordElement.scalar(c)
        for i in (4, 2, 1):
            if m & i:
                acc = CliffordElement(rewrite_mul(acc, CliffordElement.basis(i), params))
        out = [a + b for a, b in zip(out, acc.coeffs)]
    return tuple(out)


def _mul(x, y, params) -> CliffordElement:
    return CliffordElement(rewrite_mul(x, y, params))


def _norm(x, params):
    p = rewrite_mul(x, CliffordElement(rewrite_reversal(x, params)), params)
    assert all(c == 0 for c in p[1:]), "x * x^* is not scalar"
    return p[0]


def conjugation_matrix(alpha: CliffordElement, eps: int, params):
    """Matrix of v -> eps * alpha v alpha^{-1} on (E1, E2, E3), by
    conjugating each generator in the Fraction kernel."""
    n = _norm(alpha, params)
    astar = CliffordElement(rewrite_reversal(alpha, params))
    cols = []
    for m in (1, 2, 4):
        img = _mul(_mul(alpha, CliffordElement.basis(m), params), astar, params)
        img = img.scale(Fraction(eps) / n)
        oc = OddCliffordElement.from_full(img)
        assert oc.x4 == 0, "conjugation image left L (x) Q"
        cols.append((oc.x1, oc.x2, oc.x3))
    return mat(tuple(zip(*cols)))


def kernel_lift(g, params):
    """Solve alpha * Ei = det(g) * g(Ei) * alpha over the even (det g = 1)
    or odd (det g = -1) part as a 12 x 4 homogeneous system; returns the
    primitive solution (first nonzero coordinate positive) and its norm."""
    iso = g if isinstance(g, Isometry3) else Isometry3(g, Lattice(params.gram))
    eps = iso.det
    cls = EvenCliffordElement if eps == 1 else OddCliffordElement
    unit = [cls(*[int(i == j) for j in range(4)]) for i in range(4)]
    basis = [b.to_full(params) if eps == 1 else b.to_full() for b in unit]
    rows = []
    for i, m in enumerate((1, 2, 4)):
        v = CliffordElement.basis(m)
        gv = CliffordElement.vector(tuple(iso.matrix[r][i] for r in range(3)))
        cols = []
        for bj in basis:
            term = _mul(bj, v, params) - _mul(gv, bj, params).scale(eps)
            if eps == 1:
                cols.append(OddCliffordElement.from_full(term).coords)
            else:
                cols.append(EvenCliffordElement.from_full(term, params).coords)
        for r in range(4):
            rows.append(tuple(col[r] for col in cols))
    ker = kernel_basis(mat(rows))
    assert len(ker) == 1, f"lift space has dimension {len(ker)}"
    elem = cls(*primitive_vector(ker[0]))
    full = elem.to_full(params) if eps == 1 else elem.to_full()
    assert conjugation_matrix(full, eps, params) == iso.matrix, "lift does not reproduce g"
    return elem, _norm(full, params)


def det_by_fractions(a):
    """Determinant by Gaussian elimination in Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            for c in range(i, n):
                m[r][c] -= f * m[i][c]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out
