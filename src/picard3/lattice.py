"""Even integer lattices: discriminants, duals, discriminant groups and forms,
isometries (Isometry3) with their discriminant-kernel and positive-cone
tests, and the family representability criterion.

A lattice is its symmetric integer Gram matrix.  Degenerate or odd lattices
are rejected at construction.  All values are exact; q-values live in Q/2Z on
the diagonal and Q/Z off it, stored as reduced ``Fraction`` representatives.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod

from ._value import Value
from .linalg import (adjugate, char_poly, det, factor, identity, is_integral,
                     mat, mat_mul, mat_vec, smith_normal_form, transpose,
                     vec_dot)


class Lattice(Value):
    """An even non-degenerate lattice, identified with its Gram matrix."""

    _fields = ("gram",)

    def __init__(self, gram):
        g = mat(gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
                if not isinstance(g[i][j], int):
                    raise ValueError("Gram entries must be integers")
            if g[i][i] % 2 != 0:
                raise ValueError("lattice must be even (even diagonal)")
        if det(g) == 0:
            raise ValueError("lattice must be non-degenerate")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, x, y):
        """<x, y> extended to rational coordinate vectors."""
        return vec_dot(x, mat_vec(self.gram, y))

    @cached_property
    def _signature(self) -> tuple:
        """signature(self), computed once per lattice."""
        c = char_poly(self.gram)
        twin = [-x if i % 2 else x for i, x in enumerate(c)]
        nonzero = [[x for x in p if x != 0] for p in (c, twin)]
        return tuple(sum(x * y < 0 for x, y in zip(p, p[1:])) for p in nonzero)

    @cached_property
    def _cone_vectors(self) -> tuple:
        """(v, eps Q v) of preserves_positive_cone, computed once per lattice."""
        if self.rank > 3:
            raise ValueError(f"cone test unsupported for rank {self.rank}")
        sig = self._signature
        if 1 not in sig:
            raise ValueError(f"cone test unsupported for signature {sig}")
        eps = 1 if sig[0] == 1 else -1
        r = tuple(tuple(eps * x for x in row) for row in self.gram)
        v = _positive_vector(r)
        return v, mat_vec(r, v)


def family_lattice(k: int, l: int) -> Lattice:
    """U(k) + <2l> with Gram [[0,0,k],[0,2l,0],[k,0,0]]."""
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
    Descartes' rule of signs counts its positive and negative ones exactly.
    Computed once per lattice."""
    return lat._signature


class DiscriminantGroup(Value):
    """A(L) = L^v / L with invariant factors d1 | d2 | ... (each > 1).

    ``generator_lifts`` are rational coordinate vectors in L (x) Q whose
    classes generate the cyclic summands, lift i having order d_i.
    """

    _fields = ("invariant_factors", "generator_lifts")

    def __init__(self, invariant_factors: tuple, generator_lifts: tuple):
        object.__setattr__(self, "invariant_factors", invariant_factors)
        object.__setattr__(self, "generator_lifts", generator_lifts)

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

    _fields = ("group", "values")

    def __init__(self, group: DiscriminantGroup, values: tuple):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", values)

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
    gm = mat(g)
    return ((all(type(x) is int for row in gm for x in row) or is_integral(gm))
            and mat_mul(mat_mul(transpose(gm), lat.gram), gm) == lat.gram)


class Isometry3(Value):
    """An integer isometry g of a rank-3 even lattice, with cached flags; the
    one place where g^T Q g = Q is checked."""

    _fields = ("matrix", "lattice")

    def __init__(self, matrix, lattice: Lattice):
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

    @cached_property
    def det(self) -> int:
        return int(det(self.matrix))

    @cached_property
    def in_kernel(self) -> bool:
        """g acts trivially on A(L)  <=>  (g - I) Q_L^{-1} is an integer
        matrix  <=>  (g - I) adj(Q_L) = 0 mod det Q_L."""
        q = self.lattice.gram
        diff = tuple(tuple(x - int(i == j) for j, x in enumerate(row))
                     for i, row in enumerate(self.matrix))
        adj = adjugate(q)
        d = vec_dot(q[0], [r[0] for r in adj])   # det Q_L, along row 0
        return all(x % d == 0 for row in mat_mul(diff, adj) for x in row)

    @cached_property
    def preserves_cone(self) -> bool:
        return preserves_positive_cone(self, self.lattice)


def in_discriminant_kernel(g, lat: Lattice) -> bool:
    """Does the isometry g act trivially on A(L)?  See Isometry3.in_kernel."""
    return Isometry3.of(g, lat).in_kernel


def _positive_vector(r) -> tuple:
    """An integer v with v^T r v > 0 for a symmetric r of signature
    (1, n - 1), n <= 3, by the first case that applies: (1) e_i for
    r_ii > 0; (2) w = r_jj e_i - r_ij e_j, of norm r_jj m, for r_jj < 0 and
    a minor m = r_ii r_jj - r_ij^2 < 0; (3) b (1 - r_kk) w + e_k, of norm at
    least 2 b^2, for an isotropic w (an e_i with r_ii = 0, or a w of (2)
    with m = 0) and b = (r w)_k != 0, which exists as r is nondegenerate;
    (4) else every coordinate plane is negative definite, so n = 3, det r > 0
    and column 0 of adj(r) has norm det(r) (r_11 r_22 - r_12^2) > 0."""
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


def preserves_positive_cone(g, lat: Lattice) -> bool:
    """Cone test in integers, for rank at most 3 and signature (1, n) or
    (n, 1): with eps = +1 for (1, n) and -1 otherwise, and v from
    _positive_vector(eps Q), returns eps <gv, v> > 0.  The rank and the
    signature are checked first, then g (by Isometry3.of).  v and eps Q v
    are computed once per lattice.
    """
    v, rv = lat._cone_vectors
    val = vec_dot(mat_vec(Isometry3.of(g, lat).matrix, v), rv)
    if val == 0:
        raise AssertionError("degenerate cone pairing")  # impossible for isometries
    return val > 0


def represents(k: int, l: int, eps: int) -> bool:
    """Does U(k)+<2l> halved represent eps (= +-1)?

    Closed-form criterion: gcd(k, l) = 1 and eps*l a square mod |k|.  Used
    both for the existence of the odd-unit coset and for the (-2)-curve test
    (the lattice has a (-2)-vector iff the halved form represents -1).  The
    unit eps*l is a square mod p^e || k iff it is one mod p (Euler, then
    Hensel) for odd p, and 1 mod 1, 4, 8 for 2^e, e = 1, 2, >= 3.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if k == 0 or l == 0:
        raise ValueError("k and l must be nonzero")
    if gcd(k, l) != 1:
        return False
    u = eps * l
    return all(pow(u, (p - 1) // 2, p) == 1 if p > 2
               else e == 1 or u % (4 if e == 2 else 8) == 1 for p, e in factor(k))
