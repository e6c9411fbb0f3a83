"""The rank-3 discriminant-kernel isomorphism as algorithms: isometries from
Clifford units (h, phi, and the family matrix P), Clifford lifts of
isometries, spinor norms, and bounded unit enumeration for the lattices
U(k) + <2l>.

The unit-to-isometry map is h_alpha(v) = eps * alpha v alpha^{-1} with
eps = +1 for even alpha and -1 for odd alpha; it lands in the discriminant
kernel, has det = eps, and every kernel isometry arises this way (up to the
sign of alpha).

Both directions run in closed form.  For each lattice and grade, the
entries of alpha E_j alpha* and the norm N(alpha) are integer quadratic
forms in the four unit coordinates, derived once from the Clifford kernel
and stacked into a 10 x 10 matrix M over the monomials x_p x_q.  As
N = +-1, h_alpha, g_alpha and phi_alpha are eps N Q, N Q and Q.  The lift
multiplies the entries of g by the cached adj(M) and reads the unit off a
row of the resulting rank-1 matrix (x_p x_q).
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import mul

from ._value import Value
from .clifford import (DIM, EVEN_MASKS, GEN_MASKS, ODD_MASKS,
                       PARAMS_CACHE_SIZE, CliffordElement, EvenCliffordElement,
                       GramParams, OddCliffordElement, clifford_mul,
                       integer_mul, integer_norm, integer_reversal)
from .lattice import Isometry3, Lattice
from .linalg import (adjugate, factor_pairs, mat, primitive_vector,
                     sign_normalize, squarefree_part)
from .modular import SubgroupSpec, member

# The slots of the unit coordinates of each grade.
_CHARTS = {"even": EVEN_MASKS, "odd": ODD_MASKS}


class CliffordUnit(Value):
    """A unit of Cl+-(L): integral pure-grade element with N = +-1, mod sign.

    The stored element is the sign-class representative whose first nonzero
    coordinate is positive; ``grade`` is "even" or "odd".
    """

    _fields = ("element", "grade", "norm")

    def __init__(self, element: CliffordElement, grade: str, norm: int):
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "norm", norm)

    @staticmethod
    def from_element(elem: CliffordElement, params: GramParams) -> "CliffordUnit":
        if elem.is_even:
            grade = "even"
        elif elem.is_odd:
            grade = "odd"
        else:
            raise ValueError("a unit is even or odd")
        if not elem.is_integral:
            raise ValueError("unit must have integral coordinates")
        n = integer_norm(elem.ints, params)
        if n not in (1, -1):
            raise ValueError(f"not a unit: N = {n}")
        coords = elem.coords
        return CliffordUnit(elem if sign_normalize(coords) == coords else -elem,
                            grade, n)


def unit_product(u1: CliffordUnit, u2: CliffordUnit,
                 params: GramParams) -> CliffordUnit:
    """Product of two units (grades multiply by parity)."""
    return CliffordUnit.from_element(clifford_mul(u1.element, u2.element, params),
                                     params)


# The monomials x_p x_q (p <= q) of the four unit coordinates, and the
# position of x_p x_q in that list for either order of p and q.
_MONOMIALS = tuple((p, q) for p in range(4) for q in range(p, 4))
_MONO_INDEX = {pq: i for i, (p, q) in enumerate(_MONOMIALS)
               for pq in ((p, q), (q, p))}


@lru_cache(maxsize=PARAMS_CACHE_SIZE)
def _unit_forms(params: GramParams, grade: str):
    """(M, adj M) for the units of one grade, as 10 x 10 integer matrices.

    Row 3i + j of M holds the coefficients, over the monomials x_p x_q of
    the unit coordinates x, of the E_{i+1}-coordinate of
    alpha E_{j+1} alpha*; the last row holds N(alpha) = alpha alpha*.  M is
    invertible because Sym^2 of the 4-dimensional grade is End(L (x) Q) + Q.
    """
    basis = [[int(m == s) for m in range(DIM)] for s in _CHARTS[grade]]
    stars = [integer_reversal(b, params) for b in basis]

    def symmetrized(left):
        """Coordinates of left[p] stars[q] + left[q] stars[p], p <= q."""
        out = []
        for p, q in _MONOMIALS:
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
    try:
        return rows, adjugate(rows)
    except ValueError:
        raise AssertionError(f"det M = 0 for the {grade} units of {params}") from None


def _evaluate(forms, x) -> list:
    """[Q_11(x), Q_12(x), ..., Q_33(x), N(x)] at the integer unit coordinates x."""
    monos = [x[p] * x[q] for p, q in _MONOMIALS]
    return [sum(map(mul, row, monos)) for row in forms]


def _unit_matrix(unit: CliffordUnit, params: GramParams, c: int):
    """c (Q_ij(x)) at the coordinates x of a unit, from one evaluation of
    the unit forms; AssertionError unless N(x) is the unit's norm."""
    vals = _evaluate(_unit_forms(params, unit.grade)[0],
                     [unit.element.ints[m] for m in _CHARTS[unit.grade]])
    if vals[9] != unit.norm:
        raise AssertionError("the norm form disagrees with N alpha")
    return tuple(tuple(c * v for v in vals[3 * i:3 * i + 3]) for i in range(3))


@lru_cache(maxsize=PARAMS_CACHE_SIZE)
def _lattice(params: GramParams) -> Lattice:
    """The lattice of params, validated once per Gram tuple."""
    return Lattice(params.gram)


def h_alpha(unit: CliffordUnit, params: GramParams) -> Isometry3:
    """The kernel isometry h_alpha: v -> eps_alpha * alpha v alpha^{-1}.

    In closed form: entry (i, j) is eps * Q_ij(x) / N(x) = eps * N(x) * Q_ij(x),
    where Q_ij is the integer quadratic form in the unit coordinates x that
    gives the E_i-coordinate of alpha E_j alpha* (Voight, GTM 288, ch. 22),
    derived once per lattice and grade.  The image is an isometry of
    determinant eps, or an error is raised.
    """
    eps = 1 if unit.grade == "even" else -1
    iso = Isometry3(_unit_matrix(unit, params, eps * unit.norm), _lattice(params))
    if iso.det != eps:
        raise AssertionError("det(h_alpha) != eps_alpha")
    return iso


def g_alpha(unit: CliffordUnit, params: GramParams):
    """Plain conjugation v -> alpha v alpha^{-1} (determinant +1)."""
    return _unit_matrix(unit, params, unit.norm)


def phi_alpha(unit: CliffordUnit, params: GramParams) -> Isometry3:
    """phi_alpha = eps*(N alpha)*h_alpha = (v -> alpha v alpha*); det = N alpha."""
    iso = Isometry3(_unit_matrix(unit, params, 1), _lattice(params))
    if iso.det != unit.norm:
        raise AssertionError("det(phi_alpha) != N alpha")
    return iso


def clifford_lift(g, params: GramParams):
    """The Clifford element alpha with alpha v alpha^{-1} = det(g) * g(v).

    alpha lies in the even part when det g = 1 and in the odd part when
    det g = -1.  Since Q_ij(x) = eps N(x) g_ij, the monomial vector
    (x_p x_q) is proportional to adj(M) (eps g_11, ..., eps g_33, 1); the
    row of that symmetric rank-1 matrix with the largest diagonal entry is
    proportional to x (Shepperd's rotation-to-quaternion method, J. Guidance
    & Control 1, 1978, over an indefinite form).  The primitive integral
    representative is returned (sign fixed by the first nonzero
    coordinate), together with its norm N; g lies in the discriminant
    kernel iff N = +-1.
    """
    iso = Isometry3.of(g, _lattice(params))
    eps = iso.det
    grade = "even" if eps == 1 else "odd"
    forms, adj = _unit_forms(params, grade)
    rhs = [eps * x for row in iso.matrix for x in row] + [1]
    w = [sum(map(mul, row, rhs)) for row in adj]
    p = max(range(4), key=lambda i: abs(w[_MONO_INDEX[i, i]]))
    if w[_MONO_INDEX[p, p]] == 0:
        raise ValueError("no Clifford lift: g is not an isometry of L (x) Q")
    coords = primitive_vector([w[_MONO_INDEX[p, q]] for q in range(4)])
    vals = _evaluate(forms, coords)
    n = vals[9]
    # consistency: the lift must reproduce g, i.e. Q_ij(x) = N(x) eps g_ij
    if vals != [n * r for r in rhs]:
        raise AssertionError("lift does not reproduce g")
    cls = EvenCliffordElement if eps == 1 else OddCliffordElement
    return cls(*coords), n


def spinor_norm(g, params: GramParams) -> int:
    """theta(g): the square class of N(lift), as a squarefree integer."""
    _, n = clifford_lift(g, params)
    if n == 0:
        raise ValueError("lift has norm 0")
    return squarefree_part(n)


def _family_member(alpha, k: int, l: int):
    """(params, a, b, c, d) for alpha = [[a, b], [c, d]] in B_{k,l}, params
    of U(k) + <2l>; ValueError when k or l is 0 or alpha is not in B_{k,l}."""
    params = GramParams.family(k, l)
    if not member(alpha, SubgroupSpec("B_kl_units", k=k, l=l)):
        raise ValueError("alpha is not in B_{k,l}")
    return (params, *alpha[0], *alpha[1])


def _p_alpha(k: int, l: int, params: GramParams, a, b, c, d) -> Isometry3:
    b_l, c_k = b // l, c // k
    rows = ((a * a, 2 * a * b, -k * b_l * b),
            (a * c, a * d + b * c, -k * b_l * d),
            (-l * c_k * c, -2 * l * c_k * d, d * d))
    return Isometry3(rows, _lattice(params))


def _even_unit(k: int, l: int, params: GramParams, a, b, c, d) -> CliffordUnit:
    return CliffordUnit.from_element(
        EvenCliffordElement(d, b // l, (a - d) // k, c // k), params)


def p_alpha_matrix(alpha, k: int, l: int) -> Isometry3:
    """The printed ternary matrix P_alpha for alpha in B_{k,l}, det = +-1.

    P_alpha represents phi_alpha on U(k) + <2l> under the basis
    ((k/2) te1, -l te2, (k/2) te3) of the twisted lattice; it satisfies
    P^T Q P = (ad - bc)^2 Q = Q exactly.
    """
    return _p_alpha(k, l, *_family_member(alpha, k, l))


def family_unit(alpha, k: int, l: int) -> CliffordUnit:
    """The even Clifford unit corresponding to a B_{k,l} matrix.

    Under e1 = [[0,l],[0,0]], e2 = [[k,0],[0,0]], e3 = [[0,0],[k,0]] the
    matrix [[a,b],[c,d]] has coordinates (d, b/l, (a-d)/k, c/k).
    """
    return _even_unit(k, l, *_family_member(alpha, k, l))


def p_alpha_and_unit(alpha, k: int, l: int):
    """(p_alpha_matrix(alpha, k, l), family_unit(alpha, k, l)), from one
    membership test of alpha."""
    fm = _family_member(alpha, k, l)
    return _p_alpha(k, l, *fm), _even_unit(k, l, *fm)


def _check_search(k: int, l: int, bound: int):
    GramParams.family(k, l)
    if bound < 0:
        raise ValueError("bound must be >= 0")


def unit_search_even(k: int, l: int, bound: int):
    """All alpha in B_{k,l} with |entries| <= bound and det = +-1, mod +-1.

    A box scan over b in lZ and c in kZ: for each eps = +-1, the pairs (a, d)
    with ad = eps + bc come from linalg.factor_pairs and are kept when
    a = d (mod k).  Returned as 2x2 integer matrices sorted lexicographically
    by (a, b, c, d), each normalized so its first nonzero entry is positive.
    """
    _check_search(k, l, bound)
    found = {(1, 0, 0, 1)}  # the identity class; at bound 0 it is the only unit
    kk, ll = abs(k), abs(l)
    for b in range(-(bound // ll) * ll, bound + 1, ll):
        for c in range(-(bound // kk) * kk, bound + 1, kk):
            for eps in (1, -1):
                for a, d in factor_pairs(eps + b * c, bound):
                    if (a - d) % k == 0:
                        found.add(sign_normalize((a, b, c, d)))
    return tuple(mat([[a, b], [c, d]]) for a, b, c, d in sorted(found))


def v_set_search(k: int, l: int, bound: int):
    """All odd elements with |coords| <= bound solving k x1 x3 + l x2 (x2 - k x4) = +-1.

    For each (x2, x4) in the box, the pairs (x1, x3) with
    x1 x3 = (eps - l x2 (x2 - k x4)) / k come from linalg.factor_pairs.
    Deduplicated mod +-1 and sorted by (x1, x2, x3, x4).  Empty exactly when
    the halved family lattice represents neither +1 nor -1 (for bounds large
    enough to witness a solution).
    """
    _check_search(k, l, bound)
    found = set()
    for x2 in range(-bound, bound + 1):
        for x4 in range(-bound, bound + 1):
            base = l * x2 * (x2 - k * x4)
            for eps in (1, -1):
                if (eps - base) % k == 0:
                    for x1, x3 in factor_pairs((eps - base) // k, bound):
                        found.add(sign_normalize((x1, x2, x3, x4)))
    return tuple(OddCliffordElement(x4, x1, x2, x3)
                 for x1, x2, x3, x4 in sorted(found))


def seeded_units(k: int, l: int, count: int, seed: int):
    """Deterministic pseudo-random units of Cl+-(U(k)+<2l>), for test suites.

    Generators come from the bounded searches (the even one from bound 3,
    doubled until it finds a nontrivial unit); units are random words of
    length 1 to 5 in them.  Both grades occur whenever the odd coset is
    nonempty.
    """
    params = GramParams.family(k, l)
    b = 3
    while True:
        gens = [family_unit(m, k, l) for m in unit_search_even(k, l, b)]
        gens = [u for u in gens if u.element.coords != (1, 0, 0, 0)]
        if gens or b > 64 * max(abs(k), abs(l)):
            break
        b *= 2
    for odd in v_set_search(k, l, 2)[:6]:
        gens.append(CliffordUnit.from_element(odd, params))
    if not gens:
        raise ValueError("no nontrivial generators found")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        u = CliffordUnit.from_element(EvenCliffordElement(1, 0, 0, 0), params)
        for _ in range(rng.randint(1, 5)):
            u = unit_product(u, rng.choice(gens), params)
        out.append(u)
    return out

