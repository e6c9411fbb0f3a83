"""The Clifford algebra of an even lattice of rank 3, in exact arithmetic.

Conventions.  The lattice has Gram matrix

    Q_L = [[2a, u, t],
           [ u, 2b, s],
           [ t,  s, 2c]]

on the basis (E1, E2, E3), and the algebra is generated by the Ei subject to
v*w + w*v = <v, w> (so Ei^2 = <Ei, Ei>/2, i.e. a, b, c).  The even part
carries the quaternion basis

    e0 = 1,  e1 = E2*E3,  e2 = E3*E1,  e3 = E1*E2,

and an element is stored by 8 coordinates on the monomials
1, E1, E2, E1E2, E3, E3E1, E2E3, E1E2E3, as integers over one common
denominator.  Both grades are then slices of the 8 slots: EVEN_MASKS on
(e0, e1, e2, e3) and ODD_MASKS on (E1E2E3, E1, E2, E3).  Products, the
reversal and four 4x4 multiplication matrices run on integers through
straight-line kernels: left multiplication by an even element on the even
part (``phi_rep``), right multiplication by an even element on the even
part, right multiplication by an odd element from the even part to the odd
part, and left multiplication by an odd element from the odd part to the
even part.  The exterior-square actions are products of these matrices.
The kernels are the generated module ``_kernels``: tests/kernelgen.py
derives the structure constants from the rewriting rules, as integer
polynomials in (a, b, c, s, t, u), and writes each kernel from them; a
lattice keeps only the values of the 25 non-constant polynomials.  Every
product sign is produced by the rules, and a test regenerates the module
and compares it with the shipped one.

The module also gives the reduced trace/norm and the central odd element E
with E^2 = -D0 where D0 = disc(L)/8.  Three closed forms stay printed, each
checked by tests: ``gram_B`` (tests/test_clifford.py test_gram_B, against the
trace form), ``element_E`` (test_element_E_properties, test_alternating_E)
and ``exterior.p_bases`` (its certificates, and tests/test_exterior.py
test_p_bases_rows_and_certificates).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import _kernels
from ._value import Value, check_ints
from .lattice import Lattice
from .linalg import clear_denominators, mat, mat_div, quotient

# Basis monomials indexed by bitmask: bit (i-1) set  <=>  Ei present.  Slot 5
# holds E3*E1 rather than the ascending E1*E3, so that the even part sits on
# the quaternion basis.
DIM = 8
# The slots of the coordinate charts: (e0, e1, e2, e3) = (1, E2E3, E3E1, E1E2)
# of the even part, and (E1E2E3, E1, E2, E3) of the odd part.
EVEN_MASKS = (0, 6, 5, 3)
ODD_MASKS = (7, 1, 2, 4)
GEN_MASKS = (1, 2, 4)  # E1, E2, E3
# Gram tuples kept per table cache: acceptance families plus a verify round.
PARAMS_CACHE_SIZE = 32


class GramParams(namedtuple("GramParams", "a b c s t u")):
    """The six integers (a, b, c, s, t, u) determining a rank-3 even lattice;
    any other field type raises TypeError, also from _make and _replace."""

    __slots__ = ()

    def __new__(cls, a, b, c, s, t, u):
        check_ints(a, b, c, s, t, u)
        return super().__new__(cls, a, b, c, s, t, u)

    @classmethod
    def _make(cls, iterable):   # namedtuple's _make, and so _replace, skip __new__
        return cls(*iterable)

    @staticmethod
    def from_gram(q) -> "GramParams":
        """The parameters of a rank-3 Gram matrix, validated by Lattice."""
        q = Lattice(q).gram
        if len(q) != 3:
            raise ValueError("rank-3 Gram matrix required")
        return GramParams(q[0][0] // 2, q[1][1] // 2, q[2][2] // 2,
                          q[1][2], q[0][2], q[0][1])

    @staticmethod
    def family(k: int, l: int) -> "GramParams":
        """U(k) + <2l>: Gram [[0, 0, k], [0, 2l, 0], [k, 0, 0]], k and l nonzero."""
        if k == 0 or l == 0:
            raise ValueError("k and l must be nonzero")
        return GramParams(0, l, 0, 0, k, 0)

    @property
    def gram(self):
        a, b, c, s, t, u = self
        return mat([[2 * a, u, t], [u, 2 * b, s], [t, s, 2 * c]])

    @property
    def disc(self) -> int:
        a, b, c, s, t, u = self
        return 2 * (4 * a * b * c + s * t * u - a * s * s - b * t * t - c * u * u)

    @property
    def disc_half(self) -> Fraction:
        """D0 = disc(L)/8 = disc(L0)."""
        return Fraction(self.disc, 8)


class CliffordElement(Value):
    """An element of Cl(L) tensor Q: 8 rational coordinates on the monomials
    1, E1, E2, E1E2, E3, E3E1, E2E3, E1E2E3 (slots 0-7), stored as the
    integers ``ints`` over the positive common denominator ``den``, in lowest
    terms.

    Immutable; equal elements compare and hash equal.  ``coeffs`` and, for a
    pure-grade element, ``coords`` give the coordinates as Fractions.  A
    coefficient or a scale that is not an int or a Fraction, a bool too,
    raises TypeError.
    """

    __slots__ = _fields = ("ints", "den")

    def __init__(self, coeffs):
        if len(coeffs) != DIM:
            raise ValueError("need 8 coefficients")
        if all(type(x) is int for x in coeffs):
            den, ints = 1, coeffs
        elif all(type(x) is int or type(x) is Fraction for x in coeffs):
            den, ints = clear_denominators(coeffs)
        else:
            raise TypeError("coefficients must be int or Fraction")
        # direct writes, not Value.__init__: a hot constructor (every unit, every lift)
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "den", den)

    def __repr__(self):
        return f"CliffordElement(coeffs={self.coeffs!r})"

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.ints)

    @property
    def coords(self) -> tuple:
        """(x0, x1, x2, x3) on (e0, e1, e2, e3) for an even element, and
        (x4, x1, x2, x3) on (E1E2E3, E1, E2, E3) for an odd one."""
        if self.is_even:
            masks = EVEN_MASKS
        elif self.is_odd:
            masks = ODD_MASKS
        else:
            raise ValueError("element is neither even nor odd")
        return tuple(Fraction(self.ints[m], self.den) for m in masks)

    @staticmethod
    def zero() -> "CliffordElement":
        return CliffordElement((0,) * DIM)

    @staticmethod
    def scalar(x) -> "CliffordElement":
        return CliffordElement((x,) + (0,) * (DIM - 1))

    @staticmethod
    def basis(mask: int) -> "CliffordElement":
        return CliffordElement(tuple(int(i == mask) for i in range(DIM)))

    @staticmethod
    def vector(v) -> "CliffordElement":
        """The lattice vector v1*E1 + v2*E2 + v3*E3 as a Clifford element."""
        c = [0] * DIM
        c[1], c[2], c[4] = v[0], v[1], v[2]
        return CliffordElement(tuple(c))

    def __add__(self, other):
        d = lcm(self.den, other.den)
        fx, fy = d // self.den, d // other.den
        return _element([x * fx + y * fy for x, y in zip(self.ints, other.ints)], d)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _element([-x for x in self.ints], self.den)

    def scale(self, c) -> "CliffordElement":
        if type(c) is not int and type(c) is not Fraction:
            raise TypeError("coefficients must be int or Fraction")
        return _element([c.numerator * x for x in self.ints], c.denominator * self.den)

    @property
    def even_part(self) -> "CliffordElement":
        return _element([x if m in EVEN_MASKS else 0
                         for m, x in enumerate(self.ints)], self.den)

    @property
    def odd_part(self) -> "CliffordElement":
        return _element([x if m in ODD_MASKS else 0
                         for m, x in enumerate(self.ints)], self.den)

    @property
    def is_even(self) -> bool:   # no odd slot (ODD_MASKS) is set
        xs = self.ints
        return not (xs[7] or xs[1] or xs[2] or xs[4])

    @property
    def is_odd(self) -> bool:   # no even slot (EVEN_MASKS) is set
        xs = self.ints
        return not (xs[0] or xs[6] or xs[5] or xs[3])

    @property
    def is_integral(self) -> bool:
        return self.den == 1


def _element(ints, den: int) -> CliffordElement:
    """The element with integer coordinates ints over den > 0, reduced."""
    g = gcd(den, *ints)
    x = object.__new__(CliffordElement)
    # direct writes, not Value.__init__: every Clifford product ends here
    object.__setattr__(x, "ints", tuple(ints) if g == 1 else tuple(v // g for v in ints))
    object.__setattr__(x, "den", den // g)
    return x


def EvenCliffordElement(x0, x1, x2, x3) -> CliffordElement:  # noqa: N802
    """The even element x0 e0 + x1 e1 + x2 e2 + x3 e3."""
    return CliffordElement((x0, 0, 0, x3, 0, x2, x1, 0))


def OddCliffordElement(x4, x1, x2, x3) -> CliffordElement:  # noqa: N802
    """The odd element x4 E1E2E3 + x1 E1 + x2 E2 + x3 E3."""
    return CliffordElement((0, x1, x2, 0, x3, 0, 0, x4))


@lru_cache(maxsize=PARAMS_CACHE_SIZE)
def _constants(params: GramParams) -> tuple:
    """The constants k of the kernels at the fields of params."""
    return _kernels.constants(*params)


def _grade(xs):
    """0 for an even or zero coordinate list, 1 for an odd one, None for one
    with both grades."""
    if xs[1] or xs[2] or xs[4] or xs[7]:
        return None if xs[0] or xs[3] or xs[5] or xs[6] else 1
    return 0


def integer_mul(xs, ys, params: GramParams) -> list:
    """The product of two elements given by integer coordinate lists, by the
    kernel of their grades.  A factor with both grades splits into its two
    parts, and the four graded products are summed."""
    k = _constants(params)
    gx, gy = _grade(xs), _grade(ys)
    if gx is None or gy is None:
        return [sum(c) for c in zip(*(f(xs, ys, k) for f in _kernels.MUL))]
    return _kernels.MUL[2 * gx + gy](xs, ys, k)


def clifford_mul(x: CliffordElement, y: CliffordElement,
                 params: GramParams) -> CliffordElement:
    """Product in Cl(L), by the rewriting rules Ei Ej = <Ei,Ej> - Ej Ei:
    the integer coordinates multiply through the integer structure
    constants, over the product of the denominators."""
    return _element(integer_mul(x.ints, y.ints, params), x.den * y.den)


def integer_reversal(xs, params: GramParams) -> list:
    """The reversal of an element given by an integer coordinate list."""
    return _kernels.reversal(xs, _constants(params))


def reversal(x: CliffordElement, params: GramParams) -> CliffordElement:
    """The involution * (reversal of tensor factors), an anti-automorphism."""
    return _element(integer_reversal(x.ints, params), x.den)


def trace(x: CliffordElement, params: GramParams):
    """Reduced trace Tr(x) = x + x* of an even element (a scalar)."""
    if not x.is_even:
        raise ValueError("reduced trace is defined on the even part")
    s = [a + b for a, b in zip(x.ints, integer_reversal(x.ints, params))]
    if any(s[1:]):
        raise AssertionError("x + x* is not scalar")
    return quotient(s[0], x.den)


def integer_norm(xs, params: GramParams) -> int:
    """x x^* for a pure even or pure odd element given by an integer
    coordinate list, by the product kernel of its grade."""
    k = _constants(params)
    mul = _kernels.MUL[3 if xs[1] or xs[2] or xs[4] or xs[7] else 0]
    p = mul(xs, _kernels.reversal(xs, k), k)
    if any(p[1:]):
        raise AssertionError("x * x^* is not scalar")
    return p[0]


def norm(x: CliffordElement, params: GramParams):
    """N x = x * x^* for a pure even or pure odd element (a scalar)."""
    if _grade(x.ints) is None:
        raise ValueError("norm requires a pure even or pure odd element")
    return quotient(integer_norm(x.ints, params), x.den * x.den)


def integer_phi(xs, params: GramParams):
    """The 4x4 matrix of left multiplication by the even part of the integer
    coordinate list xs, on (e0, e1, e2, e3): column j holds x e_j."""
    return _kernels.phi(xs, _constants(params))


def integer_right_even(xs, params: GramParams):
    """The 4x4 matrix of right multiplication by the even part of xs, on
    (e0, e1, e2, e3): column j holds e_j x."""
    return _kernels.right_even(xs, _constants(params))


def integer_right_odd(xs, params: GramParams):
    """The 4x4 matrix of right multiplication by the odd part of xs, from
    (e0, e1, e2, e3) to (E1E2E3, E1, E2, E3): column j holds e_j x."""
    return _kernels.right_odd(xs, _constants(params))


def integer_left_odd(xs, params: GramParams):
    """The 4x4 matrix of left multiplication by the odd part of xs, from
    (E1E2E3, E1, E2, E3) to (e0, e1, e2, e3): column j holds x F_j for the
    j-th odd basis vector F_j."""
    return _kernels.left_odd(xs, _constants(params))


def phi_rep(x: CliffordElement, params: GramParams):
    """The 4x4 matrix representation of the even part (left multiplication):
    :func:`integer_phi` of the integer coordinates, divided once when x is
    not integral."""
    if not x.is_even:
        raise ValueError("phi_rep requires an even element")
    return mat_div(integer_phi(x.ints, params), x.den)


def integer_gram_B(params: GramParams):
    """2 Q_B, the integer matrix of Tr(x y*) on (e0, e1, e2, e3); its
    determinant is 16 D0^2 = disc^2 / 4."""
    a, b, c, s, t, u = params
    return ((2, s, t, u),
            (s, 2 * b * c, s * t - c * u, s * u - b * t),
            (t, s * t - c * u, 2 * a * c, t * u - a * s),
            (u, s * u - b * t, t * u - a * s, 2 * a * b))


def gram_B(params: GramParams):
    """Gram matrix of <x,y>_B = Tr(x y*)/2 on (e0, e1, e2, e3); det = D0^2."""
    return mat([[Fraction(x, 2) for x in row] for row in integer_gram_B(params)])


def element_E(params: GramParams) -> CliffordElement:
    """The central odd element E = E1E2E3 + (-s E1 + t E2 - u E3)/2.

    Satisfies Ex = xE for all x, E* = -E and E^2 = -D0.  The sign of E is a
    global convention; this closed form fixes it.
    """
    return _element([0, -params.s, params.t, 0, -params.u, 0, 0, 2], 2)


def alternating_E(params: GramParams):
    """E as the alternating sum over S_3, plus the dual elements E-hat.

    Returns (E, (Ehat_1, Ehat_2, Ehat_3)), where 2 Ehat_j = E_a E_b - E_b E_a
    for (j, a, b) a cyclic shift of (1, 2, 3), and 6 E is the alternating sum
    of the products E_a E_b E_c.  Grouped by its last factor, that sum is
    the three-term sum of (2 Ehat_j) E_j; both are summed in integers.
    Cross-checks performed here: the alternating E equals the closed form of
    :func:`element_E`, and Ei * E = sum_j <Ei, Ej>_0 Ehat_j, a three-term
    sum.  Disagreement raises AssertionError.
    """
    gens = [[int(m == g) for m in range(DIM)] for g in GEN_MASKS]
    hats2 = [[x - y for x, y in zip(integer_mul(gens[a], gens[b], params),
                                    integer_mul(gens[b], gens[a], params))]
             for a, b in ((1, 2), (2, 0), (0, 1))]
    h0, h1, h2 = (integer_mul(h, g, params) for h, g in zip(hats2, gens))
    acc6 = [x + y + z for x, y, z in zip(h0, h1, h2)]
    E = _element(acc6, 6)
    if E != element_E(params):
        raise AssertionError("alternating sum disagrees with the closed form of E")

    q = params.gram
    for i in range(3):
        # 6 (Ei E) against 6 sum_j (q_ij / 2)(2 Ehat_j) / 4
        q0, q1, q2 = q[i]
        lhs = integer_mul(gens[i], acc6, params)
        rhs = [q0 * x + q1 * y + q2 * z for x, y, z in zip(*hats2)]
        if any(2 * x != 3 * y for x, y in zip(lhs, rhs)):
            raise AssertionError("Ei * E != sum <Ei,Ej>_0 Ehat_j")
    return E, tuple(_element(h, 2) for h in hats2)

