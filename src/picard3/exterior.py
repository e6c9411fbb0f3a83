"""The exterior square W of the even Clifford part, as executable proof
apparatus: the hyperbolic form on W, the printed bases of the sublattices
P+ and P-, the two-sided action mu, and the odd action mu~ through the
duality iota.

W has basis (e01, e02, e03, e23, e31, e12) with e_ij = e_i ^ e_j; the form
<w, w>_W = 2(p01 p23 + p02 p31 + p03 p12) makes W isomorphic to U + U + U.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .clifford import (PARAMS_CACHE_SIZE, CliffordElement, EvenCliffordElement,
                       GramParams, OddCliffordElement, clifford_mul, element_E,
                       norm, pairing_E, reversal)
from .linalg import inverse, mat, mat_mul, smith_normal_form

# index pairs (i, j) for the basis e_i ^ e_j of W, and for F_i ^ F_j of W'
WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))

# Gram matrix of <,>_W: dual pairs (e01,e23), (e02,e31), (e03,e12)
GRAM_W = mat([[0, 0, 0, 1, 0, 0],
              [0, 0, 0, 0, 1, 0],
              [0, 0, 0, 0, 0, 1],
              [1, 0, 0, 0, 0, 0],
              [0, 1, 0, 0, 0, 0],
              [0, 0, 1, 0, 0, 0]])


@dataclass(frozen=True)
class WElement:
    """6 exact coordinates on (e01, e02, e03, e23, e31, e12)."""

    coords: tuple

    def __post_init__(self):
        if len(self.coords) != 6:
            raise ValueError("need 6 coordinates")
        object.__setattr__(self, "coords",
                           tuple(Fraction(x) for x in self.coords))


def w_form(w1: WElement, w2: WElement):
    """<w1, w2>_W = (w1 ^ w2) / omega."""
    total = Fraction(0)
    for i in range(6):
        for j in range(6):
            if GRAM_W[i][j]:
                total += w1.coords[i] * w2.coords[j]
    return total.numerator if total.denominator == 1 else total


def wedge_of_even(p: tuple, q: tuple) -> WElement:
    """x ^ y in W for even elements given by e-basis coordinates p, q."""
    return WElement(tuple(p[i] * q[j] - p[j] * q[i] for i, j in WEDGE_PAIRS))


@dataclass(frozen=True)
class PBasis:
    """The printed integral bases w_i^+ and w_i^- of P+ and P-."""

    plus: tuple   # three WElements
    minus: tuple


def p_bases(params: GramParams) -> PBasis:
    """Rows of the printed 6x6 matrix; certifies the defining properties.

    Asserts: Gram(w+) = Q_L, Gram(w-) = -Q_L, the cross block vanishes, and
    both coordinate stacks are primitive (Smith invariant factors all 1).
    """
    a, b, c, s, t, u = (params.a, params.b, params.c,
                        params.s, params.t, params.u)
    rows = [
        (a, u, 0, 1, 0, 0),
        (0, b, s, 0, 1, 0),
        (t, 0, c, 0, 0, 1),
        (a, 0, t, -1, 0, 0),
        (u, b, 0, 0, -1, 0),
        (0, s, c, 0, 0, -1),
    ]
    plus = tuple(WElement(r) for r in rows[:3])
    minus = tuple(WElement(r) for r in rows[3:])
    q = params.gram
    for i in range(3):
        for j in range(3):
            if w_form(plus[i], plus[j]) != q[i][j]:
                raise AssertionError("Gram(w+) != Q_L")
            if w_form(minus[i], minus[j]) != -q[i][j]:
                raise AssertionError("Gram(w-) != -Q_L")
            if w_form(plus[i], minus[j]) != 0:
                raise AssertionError("P+ and P- are not orthogonal")
    for triple in (rows[:3], rows[3:]):
        d, _, _ = smith_normal_form(mat(triple))
        if [d[i][i] for i in range(3)] != [1, 1, 1]:
            raise AssertionError("P basis stack is not primitive")
    return PBasis(plus, minus)


def _even_coords(x: CliffordElement, params: GramParams) -> tuple:
    return EvenCliffordElement.from_full(x, params).coords


def mu_matrix(x: EvenCliffordElement, y: EvenCliffordElement,
              params: GramParams):
    """Matrix of mu(x, y): h1 ^ h2 -> x h1 y ^ x h2 y on the e_ij basis."""
    xf, yf = x.to_full(params), y.to_full(params)
    basis = [EvenCliffordElement(*[int(i == j) for j in range(4)]).to_full(params)
             for i in range(4)]
    imgs = [_even_coords(clifford_mul(clifford_mul(xf, e, params), yf, params),
                         params) for e in basis]
    cols = [wedge_of_even(imgs[i], imgs[j]).coords for i, j in WEDGE_PAIRS]
    return mat(tuple(zip(*cols)))


@lru_cache(maxsize=PARAMS_CACHE_SIZE)
def _pairing_matrix(params: GramParams):
    """T[i][j] = (e_i, F_j)_E on the bases (e_i) and (E1E2E3, E1, E2, E3)."""
    evens = [EvenCliffordElement(*[int(i == j) for j in range(4)])
             for i in range(4)]
    odds = [OddCliffordElement(*[int(i == j) for j in range(4)])
            for i in range(4)]
    return mat(tuple(tuple(pairing_E(e, f, params) for f in odds)
                     for e in evens))


def _compound_matrix(t):
    """Second compound: entry ((i,j),(k,l)) = t[i][k] t[j][l] - t[i][l] t[j][k]."""
    rows = []
    for i, j in WEDGE_PAIRS:
        row = []
        for k, l in WEDGE_PAIRS:
            row.append(t[i][k] * t[j][l] - t[i][l] * t[j][k])
        rows.append(tuple(row))
    return mat(rows)


def iota_matrix(params: GramParams):
    """Matrix of iota: W -> W' = wedge^2 Cl^- in the wedge bases.

    iota(w) is the unique xi with (v, xi) = <v, w>_W for all v, where (,) is
    the wedge-square of the duality pairing; in coordinates C^{-1} G_W.
    """
    c = _compound_matrix(_pairing_matrix(params))
    return mat_mul(inverse(c), GRAM_W)


def iota_inverse_matrix(params: GramParams):
    """G_W^{-1} C, where G_W^{-1} = G_W (a permutation involution)."""
    c = _compound_matrix(_pairing_matrix(params))
    return mat_mul(GRAM_W, c)


def _odd_coords(x: CliffordElement) -> tuple:
    return OddCliffordElement.from_full(x).coords


def mu_tilde_matrix(x, params: GramParams):
    """Matrix of mu~(x): h1 ^ h2 -> iota^{-1}(h1 x ^ h2 x), for odd x, Nx != 0.

    ``x`` may be an OddCliffordElement or an odd CliffordElement (rational
    coordinates allowed, e.g. the central element E).
    """
    xf = x.to_full() if isinstance(x, OddCliffordElement) else x
    if not xf.is_odd:
        raise ValueError("mu~ requires an odd element")
    if norm(xf, params) == 0:
        raise ValueError("mu~ requires N x != 0")
    basis = [EvenCliffordElement(*[int(i == j) for j in range(4)]).to_full(params)
             for i in range(4)]
    imgs = [_odd_coords(clifford_mul(e, xf, params)) for e in basis]
    ioinv = iota_inverse_matrix(params)
    cols = []
    for i, j in WEDGE_PAIRS:
        xi = tuple(imgs[i][k] * imgs[j][l] - imgs[i][l] * imgs[j][k]
                   for k, l in WEDGE_PAIRS)
        cols.append(tuple(sum(ioinv[r][m] * xi[m] for m in range(6))
                          for r in range(6)))
    return mat(tuple(zip(*cols)))


def eta_matrix(x, params: GramParams):
    """Matrix of eta_x: v -> -x^{-1} v x on (E1, E2, E3), for odd x, Nx != 0."""
    xf = x.to_full() if isinstance(x, OddCliffordElement) else x
    n = norm(xf, params)
    if n == 0:
        raise ValueError("eta requires N x != 0")
    xstar = reversal(xf, params)
    cols = []
    for i in (1, 2, 4):
        v = CliffordElement.basis(i)
        img = clifford_mul(clifford_mul(xstar, v, params), xf, params)
        img = img.scale(Fraction(-1, 1) / n)
        oc = OddCliffordElement.from_full(img)
        if oc.x4 != 0:
            raise AssertionError("eta image left L (x) Q")
        cols.append((oc.x1, oc.x2, oc.x3))
    return mat(tuple(zip(*cols)))


def lambda_plus_matrix(params: GramParams):
    """6x3 coordinate stack of the isometry lambda+: L -> P+, Ei -> w_i^+."""
    pb = p_bases(params)
    return mat(tuple(tuple(pb.plus[j].coords[r] for j in range(3))
                     for r in range(6)))


def lambda_minus_matrix(params: GramParams):
    pb = p_bases(params)
    return mat(tuple(tuple(pb.minus[j].coords[r] for j in range(3))
                     for r in range(6)))


def mu_of_unit_conjugation(alpha: EvenCliffordElement, params: GramParams):
    """mu(alpha, alpha^{-1}) for a unit alpha: equals mu(alpha, alpha*)."""
    af = alpha.to_full(params)
    n = norm(af, params)
    if n not in (1, -1):
        raise ValueError("alpha must be a unit")
    astar = EvenCliffordElement.from_full(reversal(af, params), params)
    return mu_matrix(alpha, astar, params)
