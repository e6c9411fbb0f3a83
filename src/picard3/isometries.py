"""The rank-3 discriminant-kernel isomorphism as algorithms: isometries from
Clifford units (h, phi, and the family matrix P), Clifford lifts of
isometries, spinor norms, and bounded unit enumeration for the lattices
U(k) + <2l>.

The unit-to-isometry map is h_alpha(v) = eps * alpha v alpha^{-1} with
eps = +1 for even alpha and -1 for odd alpha; it lands in the discriminant
kernel, has det = eps, and every kernel isometry arises this way (up to the
sign of alpha).

Both directions run in closed form.  The entries of alpha E_j alpha* and
the norm N(alpha) are integer quadratic forms in the four unit coordinates,
stacked into a 10 x 10 matrix M over the monomials x_p x_q.  M and
W = D M^-1 (D = disc) are integer polynomials in the Gram tuple, generated
into _kernels.UNIT_FORMS from the rewriting rules, and evaluated once per
lattice and grade.  As N = +-1, h_alpha, g_alpha and phi_alpha are eps N Q,
N Q and Q.  The lift multiplies the entries of g by W and reads the unit
off a row of the resulting rank-1 matrix (x_p x_q).  Both evaluations, of M
at the monomials and of W at the entries of g, run as unrolled 10-term int
sums.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd
from operator import itemgetter

from ._kernels import UNIT_FORMS
from ._value import Value, check_ints
from .clifford import (EVEN_MASKS, ODD_MASKS, PARAMS_CACHE_SIZE,
                       CliffordElement, EvenCliffordElement, GramParams,
                       OddCliffordElement, clifford_mul, integer_norm)
from .lattice import Isometry3, Lattice
from .linalg import factor_pairs, mat, sign_normalize, squarefree_part
from .modular import SubgroupSpec, member

# The unit coordinates of each grade, read off the eight slots.
_CHARTS = {"even": itemgetter(*EVEN_MASKS), "odd": itemgetter(*ODD_MASKS)}


class CliffordUnit(Value):
    """A unit of Cl+-(L): integral pure-grade element with N = +-1, mod sign.

    The stored element is the sign-class representative whose first nonzero
    coordinate is positive; ``grade`` is "even" or "odd".
    """

    __slots__ = _fields = ("element", "grade", "norm")

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
        coords = _CHARTS[grade](elem.ints)
        return CliffordUnit(elem if sign_normalize(coords) == coords else -elem,
                            grade, n)


def unit_product(u1: CliffordUnit, u2: CliffordUnit,
                 params: GramParams) -> CliffordUnit:
    """Product of two units (grades multiply by parity)."""
    return CliffordUnit.from_element(clifford_mul(u1.element, u2.element, params),
                                     params)


# The monomials x_p x_q (p <= q) of the four unit coordinates; the entries
# x_p x_p, and each row (x_p x_q)_q, of a vector over them.
_MONOMIALS = tuple((p, q) for p in range(4) for q in range(p, 4))
_DIAGONAL = itemgetter(*(_MONOMIALS.index((p, p)) for p in range(4)))
_ROWS = [itemgetter(*(_MONOMIALS.index((min(p, q), max(p, q))) for q in range(4)))
         for p in range(4)]


@lru_cache(maxsize=PARAMS_CACHE_SIZE)
def _unit_forms(params: GramParams, grade: str):
    """(M, W) for the units of one grade, as 10 x 10 integer matrices (see
    _kernels): M over the monomials x_p x_q, and W = disc M^-1.  Cached, as
    a round trip reads them twice."""
    return UNIT_FORMS[grade](*params)


def _apply(rows, v) -> list:
    """[row . v for row in rows], unrolled; a loop keeps v in fast locals."""
    v0, v1, v2, v3, v4, v5, v6, v7, v8, v9 = v
    out = []
    for a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 in rows:
        out.append(a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3 + a4 * v4
                   + a5 * v5 + a6 * v6 + a7 * v7 + a8 * v8 + a9 * v9)
    return out


def _evaluate(forms, x) -> list:
    """[Q_11(x), Q_12(x), ..., Q_33(x), N(x)] at the integer unit coordinates x."""
    x0, x1, x2, x3 = x
    return _apply(forms, (x0 * x0, x0 * x1, x0 * x2, x0 * x3, x1 * x1,
                          x1 * x2, x1 * x3, x2 * x2, x2 * x3, x3 * x3))


def _unit_matrix(unit: CliffordUnit, params: GramParams, c: int):
    """c (Q_ij(x)) at the coordinates x of a unit, from one evaluation of
    the unit forms; AssertionError unless N(x) is the unit's norm."""
    v = _evaluate(_unit_forms(params, unit.grade)[0],
                  _CHARTS[unit.grade](unit.element.ints))
    if v[9] != unit.norm:
        raise AssertionError("the norm form disagrees with N alpha")
    return ((c * v[0], c * v[1], c * v[2]), (c * v[3], c * v[4], c * v[5]),
            (c * v[6], c * v[7], c * v[8]))


@lru_cache(maxsize=PARAMS_CACHE_SIZE)
def _lattice(params: GramParams) -> Lattice:
    """The lattice of params, validated once per Gram tuple.  The unit maps
    read it before _unit_forms, so a degenerate tuple, where M is singular,
    raises Lattice's ValueError."""
    return Lattice(params.gram)


def h_alpha(unit: CliffordUnit, params: GramParams) -> Isometry3:
    """The kernel isometry h_alpha: v -> eps_alpha * alpha v alpha^{-1}.

    In closed form: entry (i, j) is eps * Q_ij(x) / N(x) = eps * N(x) * Q_ij(x),
    where Q_ij is the integer quadratic form in the unit coordinates x that
    gives the E_i-coordinate of alpha E_j alpha* (Voight, GTM 288, ch. 22),
    evaluated once per lattice and grade.  The image is an isometry of
    determinant eps, or an error is raised.
    """
    eps = 1 if unit.grade == "even" else -1
    lat = _lattice(params)
    iso = Isometry3(_unit_matrix(unit, params, eps * unit.norm), lat)
    if iso.det != eps:
        raise AssertionError("det(h_alpha) != eps_alpha")
    return iso


def g_alpha(unit: CliffordUnit, params: GramParams):
    """Plain conjugation v -> alpha v alpha^{-1} (determinant +1)."""
    _lattice(params)
    return _unit_matrix(unit, params, unit.norm)


def phi_alpha(unit: CliffordUnit, params: GramParams) -> Isometry3:
    """phi_alpha = eps*(N alpha)*h_alpha = (v -> alpha v alpha*); det = N alpha."""
    lat = _lattice(params)
    iso = Isometry3(_unit_matrix(unit, params, 1), lat)
    if iso.det != unit.norm:
        raise AssertionError("det(phi_alpha) != N alpha")
    return iso


def clifford_lift(g, params: GramParams):
    """The Clifford element alpha with alpha v alpha^{-1} = det(g) * g(v).

    alpha lies in the even part when det g = 1 and in the odd part when
    det g = -1.  Since Q_ij(x) = eps N(x) g_ij, the monomial vector
    (x_p x_q) is proportional to W (eps g_11, ..., eps g_33, 1), where
    W = D M^-1 is the generated inverse of the unit forms (D = disc); the
    row of that symmetric rank-1 matrix with the largest diagonal entry is
    proportional to x (Shepperd's rotation-to-quaternion method, J. Guidance
    & Control 1, 1978, over an indefinite form).  The primitive integral
    representative is returned (sign fixed by the first nonzero
    coordinate), together with its norm N; g lies in the discriminant
    kernel iff N = +-1.
    """
    iso = Isometry3.of(g, _lattice(params))
    eps = iso.det
    forms, inv = _unit_forms(params, "even" if eps == 1 else "odd")
    # W (g_11, ..., g_33, eps) is eps times the vector above: same rows
    rhs = [*iso.matrix[0], *iso.matrix[1], *iso.matrix[2], eps]
    w = _apply(inv, rhs)
    diagonal = list(map(abs, _DIAGONAL(w)))
    if not any(diagonal):
        raise ValueError("no Clifford lift: g is not an isometry of L (x) Q")
    row = _ROWS[diagonal.index(max(diagonal))](w)
    d = gcd(*row)
    coords = sign_normalize([x // d for x in row])
    vals = _evaluate(forms, coords)
    # consistency: the lift must reproduce g, i.e. Q_ij(x) = N(x) eps g_ij
    n = vals[9]
    if vals != [n * eps * r for r in rhs]:
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
    check_ints(k, l, bound)
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
    check_ints(k, l, count, seed)
    params = GramParams.family(k, l)
    one = CliffordUnit.from_element(EvenCliffordElement(1, 0, 0, 0), params)
    b = 3
    while True:
        gens = [family_unit(m, k, l) for m in unit_search_even(k, l, b)]
        gens = [u for u in gens if u != one]
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
        u = one
        for _ in range(rng.randint(1, 5)):
            u = unit_product(u, rng.choice(gens), params)
        out.append(u)
    return out

