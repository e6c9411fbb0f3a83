"""Even integer lattices: discriminants, duals, discriminant groups and forms,
rank-3 isometries (Isometry3) with their discriminant-kernel and positive-cone
tests, and the family representability criterion.

A lattice is its symmetric integer Gram matrix.  Degenerate or odd lattices
are rejected at construction.  All values are exact; q-values live in Q/2Z on
the diagonal and Q/Z off it, stored as reduced ``Fraction`` representatives.
A value holds its fields only: the signature and the flags of an Isometry3 are
computed on each read, the vectors of the cone test once per Gram matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod

from ._value import Value, check_ints
from .linalg import (adjugate, char_poly, det, identity, mat, mat_mul, mat_vec,
                     smith_normal_form, square_root_count, transpose, vec_dot)


class Lattice(Value):
    """An even non-degenerate lattice, identified with its Gram matrix."""

    __slots__ = _fields = ("gram",)

    def __init__(self, gram):
        g = mat(gram)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        check_ints(*(x for row in g for x in row))
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
            if g[i][i] % 2 != 0:
                raise ValueError("lattice must be even (even diagonal)")
        if det(g) == 0:
            raise ValueError("lattice must be non-degenerate")
        super().__init__(g)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, x, y):
        """<x, y> extended to rational coordinate vectors."""
        return vec_dot(x, mat_vec(self.gram, y))


def family_lattice(k: int, l: int) -> Lattice:
    """U(k) + <2l> with Gram [[0,0,k],[0,2l,0],[k,0,0]]."""
    check_ints(k, l)
    if k == 0 or l == 0:
        raise ValueError("k and l must be nonzero")
    return Lattice(((0, 0, k), (0, 2 * l, 0), (k, 0, 0)))


def m_n_lattice(n: int) -> Lattice:
    """M_n = U(n) + <-2n>, n nonzero."""
    return family_lattice(n, -n)


def disc(lat: Lattice) -> int:
    """The discriminant det(Q_L)."""
    return det(lat.gram)


def signature(lat: Lattice):
    """(s_plus, s_minus): the sign changes of det(tI - Q) and of
    det(-tI - Q).  A symmetric matrix has only real eigenvalues, so
    Descartes' rule of signs counts its positive and negative ones exactly."""
    c = char_poly(lat.gram)
    twin = [-x if i % 2 else x for i, x in enumerate(c)]
    nonzero = [[x for x in p if x != 0] for p in (c, twin)]
    return tuple(sum(x * y < 0 for x, y in zip(p, p[1:])) for p in nonzero)


class DiscriminantGroup(Value):
    """A(L) = L^v / L with invariant factors d1 | d2 | ... (each > 1).

    ``generator_lifts`` are rational coordinate vectors in L (x) Q whose
    classes generate the cyclic summands, lift i having order d_i.
    """

    __slots__ = _fields = ("invariant_factors", "generator_lifts")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def elements(self):
        """All tuples of exponents (c1, ..., cm), ci in Z/d_i."""
        return product(*(range(d) for d in self.invariant_factors))


def discriminant_group(lat: Lattice) -> DiscriminantGroup:
    """Invariant factors of coker(Q_L) via Smith normal form.

    The lifts are the columns of Q_L^{-1} U^{-1} = V D^{-1} for the Smith
    transforms U Q V = D: lift i is column i of V over d_i, of order d_i.
    """
    d, _, v = smith_normal_form(lat.gram)
    kept = [i for i in range(lat.rank) if d[i][i] > 1]
    return DiscriminantGroup(
        tuple(d[i][i] for i in kept),
        tuple(tuple(Fraction(row[i], d[i][i]) for row in v) for i in kept))


class FiniteQuadraticForm(Value):
    """The discriminant form q(L): A(L) -> Q/2Z.

    ``values`` is the Gram matrix of the generator lifts, reduced mod 2Z on
    the diagonal and mod Z off it.  Two forms are equal iff these reduced
    matrices (and the invariant factors) agree.
    """

    __slots__ = _fields = ("group", "values")

    def _pairing(self, c1, c2) -> Fraction:
        """sum_ij c1_i c2_j values_ij: <x, y> mod Z, and <x, x> mod 2Z when
        c1 = c2 (values is symmetric, its off-diagonal terms come in pairs)."""
        return sum((x * y * v for x, row in zip(c1, self.values)
                    for y, v in zip(c2, row)), Fraction(0))

    def q_of(self, coeffs):
        """q(sum_i c_i g_i) in Q/2Z for an exponent tuple."""
        return self._pairing(coeffs, coeffs) % 2

    def bilinear(self, c1, c2):
        """<x, y> in Q/Z for exponent tuples."""
        return self._pairing(c1, c2) % 1


def discriminant_form(lat: Lattice) -> FiniteQuadraticForm:
    group = discriminant_group(lat)
    lifts = group.generator_lifts
    return FiniteQuadraticForm(group, tuple(
        tuple(lat.pairing(x, y) % (2 if i == j else 1) for j, y in enumerate(lifts))
        for i, x in enumerate(lifts)))


def _element_order(coeffs, factors):
    """Order of an exponent tuple in the group +Z/d_i."""
    return lcm(*(d // gcd(c, d) for c, d in zip(coeffs, factors)))


def form_orthogonal_group(form: FiniteQuadraticForm):
    """All automorphisms of A(L) preserving q, found one generator at a time.

    Each automorphism is an m x m integer matrix whose column i is the image
    of generator i in exponent coordinates.  The partial maps (images of
    generators 0..i-1) are extended by every element with the order and
    q-value of generator i whose pairings with the earlier images equal
    those of generator i; the result is in lexicographic order of the
    images.  A map found here preserves the discriminant bilinear form b,
    which is nondegenerate, so its kernel lies in the radical of b: it is
    injective, hence bijective.  Raises ValueError when |A(L)| > 1000.
    """
    group = form.group
    factors = group.invariant_factors
    if group.order > 1000:
        raise ValueError(f"|A(L)| = {group.order} exceeds cap 1000")
    elements = list(group.elements())
    gens = identity(len(factors))
    maps = [()]
    for i, (gen, d) in enumerate(zip(gens, factors)):
        want_q = form.q_of(gen)
        want_b = [form.bilinear(gen, old) for old in gens[:i]]
        cands = [e for e in elements
                 if _element_order(e, factors) == d and form.q_of(e) == want_q]
        maps = [imgs + (e,) for imgs in maps for e in cands
                if all(form.bilinear(e, old) == b for old, b in zip(imgs, want_b))]
    return tuple(mat(transpose(imgs)) for imgs in maps)


def is_isometry(g, lat: Lattice) -> bool:
    """Is g a 3x3 int matrix with g^T Q g = Q, for lat of rank 3?  No other
    shape, and no Fraction or bool entry, is one.  Unrolled: the nine entries
    of Qg, then the six of g^T Qg on and above its diagonal (it is symmetric)."""
    try:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = g
        (q0, q1, q2), (_, q4, q5), (_, _, q8) = lat.gram
    except ValueError:
        return False
    if not (type(a0) is type(a1) is type(a2) is type(b0) is type(b1) is type(b2)
            is type(c0) is type(c1) is type(c2) is int):
        return False
    # column j of Qg is (u_j, v_j, w_j) = Q (a_j, b_j, c_j)
    u0, v0, w0 = q0*a0 + q1*b0 + q2*c0, q1*a0 + q4*b0 + q5*c0, q2*a0 + q5*b0 + q8*c0
    u1, v1, w1 = q0*a1 + q1*b1 + q2*c1, q1*a1 + q4*b1 + q5*c1, q2*a1 + q5*b1 + q8*c1
    u2, v2, w2 = q0*a2 + q1*b2 + q2*c2, q1*a2 + q4*b2 + q5*c2, q2*a2 + q5*b2 + q8*c2
    return (a0*u0 + b0*v0 + c0*w0 == q0 and a0*u1 + b0*v1 + c0*w1 == q1
            and a0*u2 + b0*v2 + c0*w2 == q2 and a1*u1 + b1*v1 + c1*w1 == q4
            and a1*u2 + b1*v2 + c1*w2 == q5 and a2*u2 + b2*v2 + c2*w2 == q8)


class Isometry3(Value):
    """An integer isometry g of a rank-3 even lattice, whose flags are
    computed on each read; the one place where g^T Q g = Q is checked.  A
    matrix that is not 3x3, or a lattice of another rank, raises the same
    ValueError as a non-isometry."""

    __slots__ = _fields = ("matrix", "lattice")

    def __init__(self, matrix, lattice: Lattice):
        # direct writes, not Value.__init__: a hot constructor (h_alpha, clifford_lift)
        object.__setattr__(self, "matrix", mat(matrix))
        object.__setattr__(self, "lattice", lattice)
        if not is_isometry(self.matrix, lattice):
            raise ValueError("g is not an isometry of L")

    @classmethod
    def of(cls, g, lat: Lattice) -> "Isometry3":
        """g itself when it is an Isometry3 of lat; otherwise the matrix of g
        (an Isometry3 of another lattice, or a bare matrix) checked on lat."""
        if isinstance(g, Isometry3) and g.lattice == lat:
            return g
        return cls(getattr(g, "matrix", g), lat)

    @property
    def det(self) -> int:
        return det(self.matrix)

    @property
    def in_kernel(self) -> bool:
        """g acts trivially on A(L)  <=>  (g - I) Q_L^{-1} is an integer
        matrix  <=>  (g - I) adj(Q_L) = 0 mod det Q_L."""
        q = self.lattice.gram
        diff = tuple(tuple(x - int(i == j) for j, x in enumerate(row))
                     for i, row in enumerate(self.matrix))
        adj = adjugate(q)
        d = vec_dot(q[0], [r[0] for r in adj])   # det Q_L, along row 0
        return all(x % d == 0 for row in mat_mul(diff, adj) for x in row)

    @property
    def preserves_cone(self) -> bool:
        return preserves_positive_cone(self, self.lattice)


def in_discriminant_kernel(g, lat: Lattice) -> bool:
    """Does the isometry g act trivially on A(L)?  See Isometry3.in_kernel."""
    return Isometry3.of(g, lat).in_kernel


def _positive_vector(r) -> tuple:
    """An integer v with v^T r v > 0 for a symmetric 3 x 3 r of signature
    (1, 2), by the first case that applies: (1) e_i for r_ii > 0;
    (2) w = r_jj e_i - r_ij e_j, of norm r_jj m, for r_jj < 0 and a minor
    m = r_ii r_jj - r_ij^2 < 0; (3) b (1 - r_kk) w + e_k, of norm at least
    2 b^2, for an isotropic w (an e_i with r_ii = 0, or a w of (2) with
    m = 0) and b = (r w)_k != 0, which exists as r is nondegenerate; (4) else
    every coordinate plane is negative definite, so det r > 0 and column 0
    of adj(r) has norm det(r) (r_11 r_22 - r_12^2) > 0."""
    n = len(r)
    e = identity(n)
    planes = [(r[i][i] * r[j][j] - r[i][j] ** 2, r[j][j],
               tuple(r[j][j] * x - r[i][j] * y for x, y in zip(e[i], e[j])))
              for i in range(n) for j in range(n) if i != j]
    positive = ([e[i] for i in range(n) if r[i][i] > 0]
                + [w for m, r_jj, w in planes if r_jj < 0 and m < 0])
    if positive:
        return positive[0]
    isotropic = ([e[i] for i in range(n) if r[i][i] == 0]
                 + [w for m, r_jj, w in planes if r_jj < 0 and m == 0])
    if isotropic:
        w = isotropic[0]
        k, b = next((k, b) for k, b in enumerate(mat_vec(r, w)) if b != 0)
        return tuple(b * (1 - r[k][k]) * x + y for x, y in zip(w, e[k]))
    return tuple(row[0] for row in adjugate(r))


@lru_cache(maxsize=32)
def _cone_vectors(lat: Lattice) -> tuple:
    """(v, eps Q v) of preserves_positive_cone, computed once per Gram matrix."""
    if lat.rank != 3:
        raise ValueError(f"cone test unsupported for rank {lat.rank}")
    sig = signature(lat)
    if 1 not in sig:
        raise ValueError(f"cone test unsupported for signature {sig}")
    eps = 1 if sig[0] == 1 else -1
    r = tuple(tuple(eps * x for x in row) for row in lat.gram)
    v = _positive_vector(r)
    return v, mat_vec(r, v)


def preserves_positive_cone(g, lat: Lattice) -> bool:
    """Cone test in integers, for rank 3 and signature (1, 2) or (2, 1): with
    eps = +1 for (1, 2) and -1 otherwise, and v from _positive_vector(eps Q),
    returns eps <gv, v> > 0.  The rank and the signature are checked first,
    then g (by Isometry3.of).
    """
    v, rv = _cone_vectors(lat)
    val = vec_dot(mat_vec(Isometry3.of(g, lat).matrix, v), rv)
    if val == 0:
        raise AssertionError("degenerate cone pairing")  # impossible for isometries
    return val > 0


def represents(k: int, l: int, eps: int) -> bool:
    """Does U(k)+<2l> halved represent eps (= +-1)?

    Closed-form criterion: gcd(k, l) = 1 and eps*l a square mod |k|, i.e.
    with a square root (linalg.square_root_count).  Used both for the
    existence of the odd-unit coset and for the (-2)-curve test (the
    lattice has a (-2)-vector iff the halved form represents -1).
    """
    check_ints(k, l, eps)
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if k == 0 or l == 0:
        raise ValueError("k and l must be nonzero")
    return gcd(k, l) == 1 and square_root_count(eps * l, k) > 0
