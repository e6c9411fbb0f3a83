"""Exhaustive scans, generic solvers and Fraction paths kept as independent
oracles for the closed forms and the integer kernels.

Each function here is the definition its library counterpart replaced by a
formula or a faster kernel, or a brute-force count or check of one; the
tests check that the two agree.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, isqrt
from operator import mul

from picard3.clifford import (DIM, EVEN_MASKS, GEN_MASKS, ODD_MASKS,
                              CliffordElement, EvenCliffordElement,
                              OddCliffordElement, clifford_mul, element_E,
                              integer_mul, integer_reversal, norm, reversal)
from picard3.exterior import GRAM_W, WEDGE_PAIRS
from picard3.isometries import Isometry3
from picard3.lattice import Lattice, _element_order, discriminant_group
from picard3.linalg import (adjugate, clear_denominators, det, identity, mat,
                            mat_mul, mat_scale, mat_vec, sign_normalize,
                            smith_normal_form, transpose, vec_dot)
from picard3.modular import ModularElement, SubgroupSpec, member


@lru_cache(maxsize=2)
def _square_counts(n: int) -> Counter:
    """How many x mod n have each square x^2 mod n, for n >= 1."""
    return Counter(x * x % n for x in range(n))


def square_root_count_scan(u: int, n: int) -> int:
    """The number of x mod |n| with x^2 = u mod n, by one scan per |n|."""
    return _square_counts(abs(n))[u % abs(n)]


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


def is_torsion(x: ModularElement):
    """(finite, order): decided by the closed trace/determinant criterion.

    det 1: identity (x = +-I), order 2 iff tr = 0, order 3 iff tr = +-1,
    otherwise infinite.  det -1: order 2 iff tr = 0, otherwise infinite.
    """
    if (x.a, x.b, x.c, x.d) == (1, 0, 0, 1):
        return True, 1
    t = x.trace
    if x.det == 1:
        if t == 0:
            return True, 2
        if t in (1, -1):
            return True, 3
        return False, None
    if t == 0:
        return True, 2
    return False, None


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


def g_n_torsion_residues(n: int):
    """The residues mod n^2 a torsion element of G_n would need, by scan.

    A member [[a, b], [c, d]] of G_n has b = c = 0 and a = d (mod n), so for
    trace t and det e: 2a = t (mod n) and a (t - a) = ad = e (mod n^2).
    Returns every (t, e, a) with 0 <= a < n^2 that solves both, for the
    torsion classes (t, e) = (0, 1), (+-1, 1), (0, -1).
    """
    nn = n * n
    return [(t, e, a) for e, traces in ((1, (0, 1, -1)), (-1, (0,)))
            for t in traces for a in range(nn)
            if (2 * a - t) % n == 0 and (a * (t - a) - e) % nn == 0]


def member_by_kind(x, spec: SubgroupSpec) -> bool:
    """Membership predicate for an element or a 2x2 integer matrix, with
    the congruences written out for each subgroup kind."""
    if not isinstance(x, ModularElement):
        x = ModularElement.from_matrix(x)
    a, b, c, d = x.a, x.b, x.c, x.d
    if spec.kind == "Pi_n":
        n = abs(spec.n)
        return ((a % n == 1 % n and d % n == 1 % n and b % n == 0 and c % n == 0)
                or ((-a) % n == 1 % n and (-d) % n == 1 % n and b % n == 0 and c % n == 0))
    if spec.kind == "Gamma_n":
        return x.det == 1 and member_by_kind(x, SubgroupSpec("Pi_n", n=spec.n))
    if spec.kind == "G_n":
        n = abs(spec.n)
        return b % n == 0 and c % n == 0 and (a - d) % n == 0
    if spec.kind == "B_kl_units":
        return (a - d) % spec.k == 0 and c % spec.k == 0 and b % spec.l == 0
    if spec.kind == "Gamma0_k":
        return c % spec.k == 0
    raise AssertionError("unreachable")


def provably_torsion_free_by_kind(spec: SubgroupSpec) -> bool:
    """The torsion-freeness criterion written out for each subgroup kind:
    |n| >= 3 for Pi_n, Gamma_n and G_n, |k| gcd(k, 4l) outside {1, 2, 3, 4}
    for B_{k,l}^x, never for Gamma_0(k)."""
    if spec.kind in ("Pi_n", "Gamma_n", "G_n"):
        return abs(spec.n) >= 3
    if spec.kind == "B_kl_units":
        return abs(spec.k) * gcd(spec.k, 4 * spec.l) not in (1, 2, 3, 4)
    return False


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


def _by_value(pairs, f) -> dict:
    """The pairs grouped by the value of f on them."""
    table = {}
    for p in pairs:
        table.setdefault(f(*p), []).append(p)
    return table


def _sign_class(v: tuple) -> tuple:
    """The representative of v mod +-1 whose first nonzero entry is positive."""
    return max(v, tuple(-x for x in v))


def unit_search_scan(k: int, l: int, bound: int):
    """Every B_{k,l} matrix [[a, b], [c, d]] with |entries| <= bound and
    det = +-1, mod +-1, sorted like unit_search_even.  Scans the (a, d) and
    (b, c) planes of the box, tabulates each by its product and matches
    ad - bc = +-1.  The identity class is included at every bound, as the
    search includes it."""
    box = range(-bound, bound + 1)
    ad = _by_value(((a, d) for a in box for d in box if (a - d) % k == 0), mul)
    bc = _by_value(((b, c) for b in box for c in box
                    if b % l == 0 and c % k == 0), mul)
    found = {(1, 0, 0, 1)}
    for p, ads in ad.items():
        for eps in (1, -1):
            for (a, d), (b, c) in product(ads, bc.get(p - eps, ())):
                found.add(_sign_class((a, b, c, d)))
    return tuple(mat([[a, b], [c, d]]) for a, b, c, d in sorted(found))


def v_set_scan(k: int, l: int, bound: int):
    """Every odd element with |coords| <= bound and
    k x1 x3 + l x2 (x2 - k x4) = +-1, mod +-1, sorted like v_set_search.
    Scans the (x1, x3) and (x2, x4) planes of the box, tabulates each by its
    term of the equation and matches the sums +-1."""
    box = range(-bound, bound + 1)
    left = _by_value(product(box, box), lambda x1, x3: k * x1 * x3)
    right = _by_value(product(box, box), lambda x2, x4: l * x2 * (x2 - k * x4))
    found = set()
    for v, pairs in left.items():
        for eps in (1, -1):
            for (x1, x3), (x2, x4) in product(pairs, right.get(eps - v, ())):
                found.add(_sign_class((x1, x2, x3, x4)))
    return tuple(OddCliffordElement(x4, x1, x2, x3)
                 for x1, x2, x3, x4 in sorted(found))


# ------------------------------------------------ the Fraction Clifford kernel
#
# These oracles work on the ascending monomials, where slot 5 holds E1E3; the
# library's slot 5 holds E3E1.  ascending() converts in either direction.

def ascending(x: CliffordElement, params) -> CliffordElement:
    """x with slot 5 re-expressed between E3E1 and E1E3.  E3E1 = t - E1E3
    (t = <E1, E3>) and E1E3 = t - E3E1, so the map is its own inverse."""
    c = list(x.coeffs)
    c[0] += params.t * c[5]
    c[5] = -c[5]
    return CliffordElement(tuple(c))


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


def monomial_product(m1: int, m2: int, params) -> list:
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
    """The coordinates of x * y, multiplied monomial by monomial in Fractions
    (ascending monomials)."""
    out = [Fraction(0)] * 8
    ys = [(m2, c2) for m2, c2 in enumerate(y.coeffs) if c2 != 0]
    for m1, c1 in enumerate(x.coeffs):
        if c1 != 0:
            for m2, c2 in ys:
                for m3, c3 in enumerate(monomial_product(m1, m2, params)):
                    if c3 != 0:
                        out[m3] += c1 * c2 * c3
    return tuple(out)


def rewrite_reversal(x: CliffordElement, params) -> tuple:
    """The coordinates of x*, each monomial's generators multiplied in reverse
    (ascending monomials)."""
    out = [Fraction(0)] * 8
    for m, c in enumerate(x.coeffs):
        if c == 0:
            continue
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
    conjugating each generator in the Fraction kernel (alpha on the
    ascending monomials)."""
    n = _norm(alpha, params)
    astar = CliffordElement(rewrite_reversal(alpha, params))
    cols = []
    for m in (1, 2, 4):
        img = _mul(_mul(alpha, CliffordElement.basis(m), params), astar, params)
        img = img.scale(Fraction(eps) / n)
        x4, x1, x2, x3 = img.coords
        assert x4 == 0, "conjugation image left L (x) Q"
        cols.append((x1, x2, x3))
    return mat(tuple(zip(*cols)))


def kernel_lift(g, params):
    """Solve alpha * Ei = det(g) * g(Ei) * alpha over the even (det g = 1)
    or odd (det g = -1) part as a 12 x 4 homogeneous system; returns the
    primitive solution (first nonzero coordinate positive) and its norm.
    The system has rank 3, so for its Smith form u A w = d the solutions
    are the multiples of column 3 of the unimodular w."""
    iso = g if isinstance(g, Isometry3) else Isometry3(g, Lattice(params.gram))
    eps = iso.det
    cls = EvenCliffordElement if eps == 1 else OddCliffordElement
    unit = [cls(*[int(i == j) for j in range(4)]) for i in range(4)]
    basis = [ascending(b, params) for b in unit]
    rows = []
    for i, m in enumerate((1, 2, 4)):
        v = CliffordElement.basis(m)
        gv = CliffordElement.vector(tuple(iso.matrix[r][i] for r in range(3)))
        cols = []
        for bj in basis:
            term = _mul(bj, v, params) - _mul(gv, bj, params).scale(eps)
            cols.append(ascending(term, params).coords)
        for r in range(4):
            rows.append(tuple(col[r] for col in cols))
    d, _, w = smith_normal_form([clear_denominators(row)[1] for row in rows])
    rank = sum(d[i][i] != 0 for i in range(4))
    assert rank == 3, f"lift space has dimension {4 - rank}"
    elem = cls(*primitive_vector([row[3] for row in w]))
    full = ascending(elem, params)
    assert conjugation_matrix(full, eps, params) == iso.matrix, "lift does not reproduce g"
    return elem, _norm(full, params)


def is_isometry_by_products(g, lat: Lattice) -> bool:
    """Is g an int matrix with g^T Q g = Q?  By two generic products, for
    any shape and rank."""
    gm = mat(g)
    return (all(type(x) is int for row in gm for x in row)
            and mat_mul(mat_mul(transpose(gm), lat.gram), gm) == lat.gram)


def evaluate_unit_forms(forms, x) -> list:
    """[Q_11(x), ..., Q_33(x), N(x)]: each row of forms against the list of
    monomials x_p x_q, p <= q, in lexicographic order."""
    monos = [x[p] * x[q] for p in range(4) for q in range(p, 4)]
    return [sum(map(mul, row, monos)) for row in forms]


def unit_forms_by_products(params, grade: str):
    """The unit-form matrix M of one grade (see picard3._kernels), from 76
    integer Clifford products: the coefficient of x_p x_q in a coordinate of
    x y x* is that of b_p y b_q* + b_q y b_p*, p <= q, on the basis b of the
    grade.  AssertionError unless x E_j x* has no E1E2E3 coordinate and
    x x* is scalar."""
    masks = EVEN_MASKS if grade == "even" else ODD_MASKS
    basis = [[int(i == m) for i in range(DIM)] for m in masks]
    stars = [integer_reversal(b, params) for b in basis]
    pairs = [(p, q) for p in range(4) for q in range(p, 4)]

    def symmetrized(left):
        """Coordinates of left[p] stars[q] + left[q] stars[p], p <= q."""
        out = []
        for p, q in pairs:
            c = integer_mul(left[p], stars[q], params)
            if p != q:
                c = [x + y for x, y in zip(c, integer_mul(left[q], stars[p], params))]
            out.append(c)
        return out

    rows = [None] * 10
    for j, m in enumerate(GEN_MASKS):
        gen = [int(i == m) for i in range(DIM)]
        terms = symmetrized([integer_mul(b, gen, params) for b in basis])
        if any(t[7] != 0 for t in terms):
            raise AssertionError("conjugation image left L (x) Q")
        for i, mi in enumerate(GEN_MASKS):
            rows[3 * i + j] = tuple(t[mi] for t in terms)
    terms = symmetrized(basis)
    if any(x != 0 for t in terms for x in t[1:]):
        raise AssertionError("x * x^* is not scalar")
    rows[9] = tuple(t[0] for t in terms)
    return tuple(rows)


def primitive_vector(v):
    """Scale a nonzero rational vector to a primitive integer vector.

    Clears denominators, divides by the content, and fixes the sign so the
    first nonzero coordinate is positive.
    """
    _, ints = clear_denominators(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return sign_normalize([x // g for x in ints])


def inverse(a):
    """Exact inverse adj(A) D / det(A), where A = D a has integer rows and D
    is diagonal; raises ValueError if singular."""
    ds, rows = zip(*map(clear_denominators, a))
    adj = adjugate(rows)
    d = sum(x * r[0] for x, r in zip(rows[0], adj))
    return tuple(tuple(Fraction(x * dj, d) for x, dj in zip(row, ds)) for row in adj)


def mat_mul_reference(a, b):
    """a b with each entry a generic sum of products over the inner index."""
    bt = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


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


def determinantal_divisors(a) -> tuple:
    """(D_1, ..., D_r), r = min(rows, cols), with D_k the gcd of all k x k
    minors of the integer matrix a (0 when all vanish).  Each minor is a
    cofactor expansion along its first row over the (k - 1) x (k - 1) minors,
    kept by row and column sets."""
    rows, cols = len(a), len(a[0]) if a else 0
    minors, out = {((), ()): 1}, []
    for k in range(1, min(rows, cols) + 1):
        minors = {(rs, cs): sum((-1) ** j * a[rs[0]][c] * minors[rs[1:], cs[:j] + cs[j + 1:]]
                                for j, c in enumerate(cs))
                  for rs in combinations(range(rows), k) for cs in combinations(range(cols), k)}
        out.append(gcd(*minors.values()))
    return tuple(out)


# ------------------------------------------------ brute-force counts and checks

def order_psl2_zn(n: int) -> int:
    """|PSL2(Z/n)| by exhaustive scan (the oracle for index_gamma_n)."""
    if n == 1:
        return 1
    count = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a * d - b * c) % n == 1:
                        count += 1
    if n == 2:
        return count
    if count % 2:
        raise AssertionError("odd count of det-1 matrices mod n")
    return count // 2


def element_order(x: ModularElement, cap: int = 12):
    """Matrix-power oracle for is_torsion (projective order, or None)."""
    acc = x
    for k in range(1, cap + 1):
        if (acc.a, acc.b, acc.c, acc.d) == (1, 0, 0, 1):
            return k
        acc = acc * x
    return None


def generator_lifts_by_inverse(lat: Lattice) -> tuple:
    """The discriminant-group lifts as the columns of Q^{-1} U^{-1}, for the
    Smith row transform U (U Q V = D), by two Fraction inverses."""
    d, u, _ = smith_normal_form(lat.gram)
    lifts = mat_mul(inverse(lat.gram), inverse(u))
    return tuple(tuple(row[i] for row in lifts)
                 for i in range(lat.rank) if d[i][i] > 1)


def induced_action_trivial(g, lat: Lattice) -> bool:
    """Cross-check for the kernel test: g fixes every generator lift mod L."""
    group = discriminant_group(lat)
    gm = mat(g)
    for lift in group.generator_lifts:
        diff = tuple(a - b for a, b in zip(mat_vec(gm, lift), lift))
        if not all(Fraction(x).denominator == 1 for x in diff):
            return False
    return True


def gram_half(params):
    """Q_{L0} = Q_L / 2 (rational)."""
    return mat_scale(Fraction(1, 2), params.gram)


def dual_basis_vectors(params):
    """Columns of Q_{L0}^{-1}: the dual basis of (Ei) for the halved form."""
    return inverse(gram_half(params))


def symmetric_diagonalize(q):
    """Rational congruence diagonalization: returns (p, d) with p^T q p = d,
    p invertible over Q and d diagonal."""
    n = len(q)
    m = [[Fraction(x) for x in row] for row in q]
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def col_axpy(dst, src, f):  # col dst += f * col src, on m (both sides) and p
        for r in range(n):
            m[r][dst] += f * m[r][src]
        for r in range(n):
            m[dst][r] += f * m[src][r]
        for r in range(n):
            p[r][dst] += f * p[r][src]

    def col_swap(i, j):
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        m[i], m[j] = m[j], m[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for i in range(n):
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if j is not None:
                col_swap(i, j)
            else:
                j = next((k for k in range(i + 1, n) if m[i][k] != 0), None)
                if j is None:
                    continue  # row/col i entirely zero
                col_axpy(i, j, Fraction(1))  # now m[i][i] = 2*m[i][j] != 0
        for j in range(i + 1, n):
            if m[i][j] != 0:
                col_axpy(j, i, -m[i][j] / m[i][i])
    return mat(p), mat(m)


def signature_of(q):
    """(s_plus, s_minus) of a symmetric rational matrix, from the signs of
    a diagonalization."""
    _, d = symmetric_diagonalize(q)
    diag = [d[i][i] for i in range(len(d))]
    return sum(x > 0 for x in diag), sum(x < 0 for x in diag)


def positive_vector(q):
    """An integer vector v with v^T q v > 0, from the first positive entry of
    a diagonalization of q; requires s_plus >= 1."""
    p, d = symmetric_diagonalize(q)
    for i in range(len(d)):
        if d[i][i] > 0:
            return primitive_vector(tuple(p[r][i] for r in range(len(d))))
    raise ValueError("form is negative semidefinite")


def cone_test_by_two_diagonalizations(g, lat: Lattice) -> bool:
    """The positive-cone test with the signature and the positive vector each
    from a diagonalization of their own, of Q or, for signature (n, 1), -Q."""
    s_plus, s_minus = signature_of(lat.gram)
    if s_plus == 1:
        q = lat.gram
    elif s_minus == 1:
        q = mat(tuple(tuple(-x for x in row) for row in lat.gram))
    else:
        raise ValueError(f"cone test unsupported for signature {(s_plus, s_minus)}")
    gm = mat(g)
    if not is_isometry_by_products(gm, lat):
        raise ValueError("g is not an isometry of L")
    v = positive_vector(q)
    val = vec_dot(mat_vec(gm, v), mat_vec(q, v))
    assert val != 0, "degenerate cone pairing"
    return val > 0


# ------------------------------- the Fraction phi_rep and exterior-square actions

def phi_generators(params):
    """The printed matrices M1, M2, M3 of left multiplication by e1, e2, e3."""
    a, b, c, s, t, u = (params.a, params.b, params.c,
                        params.s, params.t, params.u)
    m1 = mat([[0, -b * c, c * u, -s * u],
              [1, s, 0, u],
              [0, 0, 0, b],
              [0, 0, -c, s]])
    m2 = mat([[0, -s * t, -a * c, a * s],
              [0, t, 0, -a],
              [1, s, t, 0],
              [0, c, 0, 0]])
    m3 = mat([[0, b * t, -t * u, -a * b],
              [0, 0, a, 0],
              [0, -b, u, 0],
              [1, 0, t, u]])
    return m1, m2, m3


def phi_rep_by_fractions(x: CliffordElement, params):
    """The 4x4 matrix x0 I + x1 M1 + x2 M2 + x3 M3, by 64 Fraction
    multiply-adds; ints when x is integral."""
    m1, m2, m3 = phi_generators(params)
    out = [[Fraction(0)] * 4 for _ in range(4)]
    for coef, m in zip(x.coords, (identity(4), m1, m2, m3)):
        for i in range(4):
            for j in range(4):
                out[i][j] += coef * m[i][j]
    res = mat(out)
    if x.is_integral:
        res = mat(tuple(tuple(int(v) for v in row) for row in res))
    return res


def _even_basis():
    return [EvenCliffordElement(*[int(i == j) for j in range(4)]) for i in range(4)]


def wedge_of_even(p: tuple, q: tuple) -> tuple:
    """x ^ y in W for even elements given by e-basis coordinates p, q."""
    return tuple(p[i] * q[j] - p[j] * q[i] for i, j in WEDGE_PAIRS)


def compound_by_definition(t):
    """Second compound of a 4x4 matrix: entry ((i,j),(k,l)) =
    t[i][k] t[j][l] - t[i][l] t[j][k], for (i, j), (k, l) in WEDGE_PAIRS."""
    rows = []
    for i, j in WEDGE_PAIRS:
        ti, tj = t[i], t[j]
        rows.append(tuple(ti[k] * tj[l] - ti[l] * tj[k] for k, l in WEDGE_PAIRS))
    return tuple(rows)


def iota_inverse_by_definition(params):
    """iota^{-1} = G_W^{-1} C(T) for the pairing matrix T[i][j] = (e_i, F_j)_E,
    the E1E2E3-coordinate of e_i F_j* in Fractions, on the bases (e_i) and
    (F_j) = (E1E2E3, E1, E2, E3); G_W^{-1} = G_W swaps the row halves."""
    odd = [OddCliffordElement(*(int(i == j) for j in range(4))) for i in range(4)]
    t = [[clifford_mul(e, reversal(f, params), params).coeffs[7] for f in odd]
         for e in _even_basis()]
    c = compound_by_definition(t)
    return c[3:] + c[:3]


def w_form_by_fractions(v: tuple, w: tuple):
    """<v, w>_W = v^T G_W w, summed in Fractions over the Gram matrix."""
    return sum(Fraction(v[i]) * GRAM_W[i][j] * Fraction(w[j])
               for i in range(6) for j in range(6))


def mu_matrix_by_fractions(x, y, params):
    """mu(x, y) through two Clifford products per basis element, wedged in
    Fractions."""
    imgs = [clifford_mul(clifford_mul(x, e, params), y, params).coords
            for e in _even_basis()]
    cols = [wedge_of_even(imgs[i], imgs[j]) for i, j in WEDGE_PAIRS]
    return mat(tuple(zip(*cols)))


def mu_tilde_matrix_by_fractions(x, params):
    """mu~(x) for odd x with Nx != 0: the wedges of the Fraction images e_i x,
    mapped back by iota^{-1}."""
    if not x.is_odd:
        raise ValueError("mu~ requires an odd element")
    if norm(x, params) == 0:
        raise ValueError("mu~ requires N x != 0")
    imgs = [clifford_mul(e, x, params).coords for e in _even_basis()]
    ioinv = iota_inverse_by_definition(params)
    cols = []
    for i, j in WEDGE_PAIRS:
        xi = wedge_of_even(imgs[i], imgs[j])
        cols.append(tuple(sum(ioinv[r][m] * xi[m] for m in range(6))
                          for r in range(6)))
    return mat(tuple(zip(*cols)))


def eta_matrix_by_fractions(x, params):
    """eta_x: v -> -x^{-1} v x on (E1, E2, E3), in Fractions."""
    n = norm(x, params)
    if n == 0:
        raise ValueError("eta requires N x != 0")
    xstar = reversal(x, params)
    cols = []
    for i in (1, 2, 4):
        img = clifford_mul(clifford_mul(xstar, CliffordElement.basis(i), params),
                           x, params).scale(Fraction(-1, 1) / n)
        x4, x1, x2, x3 = img.coords
        assert x4 == 0, "eta image left L (x) Q"
        cols.append((x1, x2, x3))
    return mat(tuple(zip(*cols)))


def _perm_sign(perm) -> int:
    return (-1) ** sum(perm[i] > perm[j] for i in range(len(perm))
                       for j in range(i + 1, len(perm)))


def alternating_E_by_fractions(params):
    """(E, (Ehat_1, Ehat_2, Ehat_3)) summed in Fractions over S_3 and over
    the permutations of the other two indices."""
    acc = CliffordElement.zero()
    for perm in permutations((1, 2, 3)):
        term = CliffordElement.scalar(1)
        for i in perm:
            term = clifford_mul(term, CliffordElement.basis(1 << (i - 1)), params)
        acc = acc + term.scale(Fraction(_perm_sign(perm), 6))
    assert acc.coeffs == element_E(params).coeffs
    hats = []
    for j in (1, 2, 3):
        others = [i for i in (1, 2, 3) if i != j]
        h = CliffordElement.zero()
        for perm in permutations(others):
            full = [0, 0, 0]
            full[j - 1] = j
            idx = iter(perm)
            for pos in range(3):
                if full[pos] == 0:
                    full[pos] = next(idx)
            term = CliffordElement.scalar(1)
            for i in perm:
                term = clifford_mul(term, CliffordElement.basis(1 << (i - 1)), params)
            h = h + term.scale(Fraction((-1) ** (j + 1) * _perm_sign(full), 2))
        hats.append(h)
    return acc, tuple(hats)


def _sqrt_continued_fraction(d: int):
    """Period of the continued fraction of sqrt(d) and the convergent
    (p, q) at the end of the first period (d > 0 nonsquare)."""
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    period = 0
    while True:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        period += 1
        if q == 1:
            break
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return period, p_cur, q_cur


def _pell_minus_one(d: int):
    """Fundamental solution of x^2 - d y^2 = -1, or None (CF period parity)."""
    period, p, q = _sqrt_continued_fraction(d)
    if period % 2 == 0:
        return None
    if p * p - d * q * q != -1:
        raise AssertionError("continued fraction gave no -1 Pell solution")
    return p, q


def negative_pell_two_stage(d: int):
    """Solve x^2 - d y^2 = -4: returns a fundamental witness (x, y) or None.

    Solvability is the continued-fraction period-parity criterion (for
    sqrt(d), or sqrt(d/4) when 4 | d since x is then forced even).  For
    d = 1 mod 4 the fundamental solution may be half-integral relative to
    the -1 Pell solution (T, U); it is recovered exactly by the cube-root
    descent x^3 + 3x = 2T, d y^3 - 3y = 2U.  Raises for d <= 0 or square.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    r = isqrt(d)
    if r * r == d:
        raise ValueError("d must not be a perfect square")
    if d % 4 == 0:
        sol = _pell_minus_one(d // 4)
        if sol is None:
            return None
        t, u = sol
        return 2 * t, u
    sol = _pell_minus_one(d)
    if sol is None:
        return None
    t, u = sol
    if d % 4 == 1:
        x = _integer_cbrt_solve(lambda v: v ** 3 + 3 * v, 2 * t)
        y = _integer_cbrt_solve(lambda v: d * v ** 3 - 3 * v, 2 * u)
        if x is not None and y is not None and x * x - d * y * y == -4:
            return x, y
    return 2 * t, 2 * u


def _integer_cbrt_solve(f, target: int):
    """Unique integer v >= 1 with monotone cubic f(v) = target, else None."""
    lo, hi = 1, 2
    while f(hi) < target:
        hi *= 2
    while lo <= hi:
        mid = (lo + hi) // 2
        val = f(mid)
        if val == target:
            return mid
        if val < target:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def form_orthogonal_group_bijective(form, cap: int = 1000):
    """All automorphisms of A(L) preserving q, by backtracking over images,
    each full map checked for bijectivity on every element of A(L).

    Each automorphism is an m x m integer matrix whose column i is the image
    of generator i in exponent coordinates.  Raises ValueError when
    |A(L)| > cap.
    """
    group = form.group
    factors = group.invariant_factors
    m = len(factors)
    if group.order > cap:
        raise ValueError(f"|A(L)| = {group.order} exceeds cap {cap}")
    if m == 0:
        return (mat([]),)

    gens = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    elements = list(group.elements())

    # candidate images per generator: matching order, q-value preserved
    candidates = []
    for i in range(m):
        want_q = form.q_of(gens[i])
        cand = [e for e in elements
                if _element_order(e, factors) == factors[i]
                and form.q_of(e) == want_q]
        candidates.append(cand)

    auts = []

    def bilinear_ok(imgs, new):
        i = len(imgs)
        for j, old in enumerate(imgs):
            if form.bilinear(new, old) != form.bilinear(gens[i], gens[j]):
                return False
        return True

    def is_bijective(imgs):
        seen = set()
        for e in elements:
            img = tuple(sum(ci * imgs[i][r] for i, ci in enumerate(e)) % factors[r]
                        for r in range(m))
            if img in seen:
                return False
            seen.add(img)
        return True

    def backtrack(imgs):
        if len(imgs) == m:
            if is_bijective(imgs):
                auts.append(mat(transpose(imgs)))
            return
        for cand in candidates[len(imgs)]:
            if bilinear_ok(imgs, cand):
                backtrack(imgs + [cand])

    backtrack([])
    return tuple(auts)
