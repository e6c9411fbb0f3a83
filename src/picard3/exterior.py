"""The exterior square W of the even Clifford part, as executable proof
apparatus: the hyperbolic form on W, the printed bases of the sublattices
P+ and P-, the two-sided action mu, and the odd action mu~ through the
duality iota.

W has basis (e01, e02, e03, e23, e31, e12) with e_ij = e_i ^ e_j; the form
<w, w>_W = 2(p01 p23 + p02 p31 + p03 p12) makes W isomorphic to U + U + U.
Vectors of W are integer 6-tuples on this basis.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from ._value import Value
from .clifford import (DIM, ODD_MASKS, PARAMS_CACHE_SIZE, CliffordElement,
                       GramParams, integer_left_odd, integer_norm, integer_phi,
                       integer_reversal, integer_right_even, integer_right_odd,
                       norm, reversal)
from .linalg import det, mat, mat_div, mat_mul, transpose

# index pairs (i, j) for the basis e_i ^ e_j of W, and for F_i ^ F_j of W'
WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))

# The basis (E1E2E3, E1, E2, E3) as integer coordinates.
_ODD_BASIS = tuple(tuple(int(m == s) for m in range(DIM)) for s in ODD_MASKS)

# Gram matrix of <,>_W: dual pairs (e01,e23), (e02,e31), (e03,e12)
GRAM_W = mat([[0, 0, 0, 1, 0, 0],
              [0, 0, 0, 0, 1, 0],
              [0, 0, 0, 0, 0, 1],
              [1, 0, 0, 0, 0, 0],
              [0, 1, 0, 0, 0, 0],
              [0, 0, 1, 0, 0, 0]])


def pair_w(v, w):
    """<v, w>_W on coordinate tuples: each coordinate pairs with the one
    three places on (GRAM_W)."""
    return sum(map(mul, v, w[3:] + w[:3]))


class PBasis(Value):
    """The printed integral bases w_i^+ and w_i^- of P+ and P-, each three
    integer 6-tuples."""

    __slots__ = _fields = ("plus", "minus")


def p_bases(params: GramParams) -> PBasis:
    """Rows of the printed 6x6 matrix; certifies the defining properties.

    Asserts: Gram(w+) = Q_L, Gram(w-) = -Q_L, the cross block vanishes, and
    both coordinate stacks are primitive: their e23, e31, e12 columns form
    a unimodular 3x3 minor, so every Smith invariant factor is 1.
    """
    a, b, c, s, t, u = params
    plus = ((a, u, 0, 1, 0, 0),
            (0, b, s, 0, 1, 0),
            (t, 0, c, 0, 0, 1))
    minus = ((a, 0, t, -1, 0, 0),
             (u, b, 0, 0, -1, 0),
             (0, s, c, 0, 0, -1))
    q = params.gram
    for i in range(3):
        for j in range(3):
            if pair_w(plus[i], plus[j]) != q[i][j]:
                raise AssertionError("Gram(w+) != Q_L")
            if pair_w(minus[i], minus[j]) != -q[i][j]:
                raise AssertionError("Gram(w-) != -Q_L")
            if pair_w(plus[i], minus[j]) != 0:
                raise AssertionError("P+ and P- are not orthogonal")
    for triple in (plus, minus):
        if det([w[3:] for w in triple]) not in (1, -1):
            raise AssertionError("P basis stack is not primitive")
    return PBasis(plus, minus)


def mu_matrix(x: CliffordElement, y: CliffordElement, params: GramParams):
    """Matrix of mu(x, y): h1 ^ h2 -> x h1 y ^ x h2 y on the e_ij basis, for
    even x and y.

    h -> x h y has the integer matrix Phi(x) P(y) on the integer coordinates
    of x and y, for the left and right multiplication matrices
    :func:`integer_phi` and :func:`integer_right_even`.  Its second
    compound is divided once by (dx dy)^2 for the denominators dx, dy.
    """
    if not (x.is_even and y.is_even):
        raise ValueError("mu requires even elements")
    t = mat_mul(integer_phi(x.ints, params), integer_right_even(y.ints, params))
    return mat_div(_compound_matrix(t), (x.den * y.den) ** 2)


@lru_cache(maxsize=PARAMS_CACHE_SIZE)
def _pairing_matrix(params: GramParams):
    """T[i][j] = (e_i, F_j)_E on the bases (e_i) and (E1E2E3, E1, E2, E3):
    the E1E2E3-coordinate of e_i F_j*, so column j of T is the E1E2E3 row
    of the right multiplication matrix of F_j*."""
    return transpose([integer_right_odd(integer_reversal(f, params), params)[0]
                      for f in _ODD_BASIS])


def _wedge(v, w):
    """v ^ w for 4-vectors v, w: its coordinates on the e_k ^ e_l, (k, l) in
    WEDGE_PAIRS."""
    v0, v1, v2, v3 = v
    w0, w1, w2, w3 = w
    return (v0 * w1 - v1 * w0, v0 * w2 - v2 * w0, v0 * w3 - v3 * w0,
            v2 * w3 - v3 * w2, v3 * w1 - v1 * w3, v1 * w2 - v2 * w1)


def _compound_matrix(t):
    """Second compound: entry ((i,j),(k,l)) = t[i][k] t[j][l] - t[i][l] t[j][k],
    so row (i, j) is the wedge of rows i and j of t, (i, j) in WEDGE_PAIRS."""
    r0, r1, r2, r3 = t
    return (_wedge(r0, r1), _wedge(r0, r2), _wedge(r0, r3),
            _wedge(r2, r3), _wedge(r3, r1), _wedge(r1, r2))


def _odd_norm(x: CliffordElement, params: GramParams) -> int:
    """The norm of x.ints; ValueError unless x is odd with N x != 0."""
    if not x.is_odd:
        raise ValueError("mu~ and eta require an odd element")
    n = integer_norm(x.ints, params)
    if n == 0:
        raise ValueError("mu~ and eta require N x != 0")
    return n


def integer_mu_tilde(xs, params: GramParams):
    """M with mu~(x) = M / d^2, for x = xs / d odd with N x != 0 (unchecked).
    The right multiplication matrix A of xs holds the images e_i xs, and M
    is G_W^{-1} C(T) C(A) = G_W C(T A) by Cauchy-Binet, for the pairing
    matrix T of iota^{-1} = G_W^{-1} C(T): the row halves of C(T A) swapped."""
    c = _compound_matrix(mat_mul(_pairing_matrix(params),
                                 integer_right_odd(xs, params)))
    return c[3:] + c[:3]


def integer_eta(xs, params: GramParams):
    """T with eta_x = T / (-n), for x = xs / d odd with N x != 0 (unchecked)
    and n = N xs.  T has the columns xs* v xs for v = E1, E2, E3, so the
    image -x^{-1} v x is T v / (-n).  The odd map v -> xs* v xs is the
    product of the right multiplication matrix of xs and the left one of
    xs*; T is its block on (E1, E2, E3)."""
    e, *rows = mat_mul(integer_right_odd(xs, params),
                       integer_left_odd(integer_reversal(xs, params), params))
    if e[1] or e[2] or e[3]:
        raise AssertionError("eta image left L (x) Q")
    return tuple(row[1:] for row in rows)


def mu_tilde_matrix(x: CliffordElement, params: GramParams):
    """Matrix of mu~(x): h1 ^ h2 -> iota^{-1}(h1 x ^ h2 x), for odd x, Nx != 0.

    x may have rational coordinates (e.g. the central element E); the
    integer core :func:`integer_mu_tilde` is divided once, by den(x)^2."""
    _odd_norm(x, params)
    return mat_div(integer_mu_tilde(x.ints, params), x.den ** 2)


def eta_matrix(x: CliffordElement, params: GramParams):
    """Matrix of eta_x: v -> -x^{-1} v x on (E1, E2, E3), for odd x, Nx != 0:
    the integer core :func:`integer_eta`, divided once by -N(x.ints)."""
    n = _odd_norm(x, params)
    return mat_div(integer_eta(x.ints, params), -n)


def lambda_plus_matrix(params: GramParams):
    """6x3 coordinate stack of the isometry lambda+: L -> P+, Ei -> w_i^+."""
    return transpose(p_bases(params).plus)


def lambda_minus_matrix(params: GramParams):
    """6x3 coordinate stack of the isometry lambda-: L(-1) -> P-, Ei -> w_i^-."""
    return transpose(p_bases(params).minus)


def mu_of_unit_conjugation(alpha: CliffordElement, params: GramParams):
    """mu(alpha, alpha^{-1}) for an even unit alpha: equals mu(alpha, alpha*)."""
    if norm(alpha, params) not in (1, -1):
        raise ValueError("alpha must be a unit")
    return mu_matrix(alpha, reversal(alpha, params), params)
