"""The integer Clifford kernels (and the shipped kernel module against its
generator), the closed-form unit <-> isometry maps and the Bareiss and
cofactor determinants against the Fraction paths they replaced
(tests/oracles.py)."""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import kernelgen
from oracles import (ascending, conjugation_matrix, det_by_fractions,
                     evaluate_unit_forms, isometry_scan, kernel_lift,
                     monomial_product, rewrite_mul, rewrite_reversal,
                     unit_forms_by_products)
from picard3 import _kernels
from picard3 import linalg as la
from picard3.clifford import (DIM, EVEN_MASKS, ODD_MASKS, CliffordElement,
                              GramParams, _constants, clifford_mul, integer_left_odd,
                              integer_mul, integer_norm, integer_phi,
                              integer_reversal, integer_right_even,
                              integer_right_odd, norm, reversal)
from picard3.exterior import _pairing_matrix
from picard3.isometries import (_evaluate, _lattice_forms, clifford_lift,
                                g_alpha, h_alpha, seeded_units)
from picard3.lattice import Lattice
from conftest import random_gram_params

FAMILIES = ((1, -1), (2, -2), (3, -3), (2, 3), (5, -7))


def dense_gram_params(rng):
    """Six nonzero entries in [-5, 5], non-degenerate."""
    while True:
        p = GramParams(*(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
                         for _ in range(6)))
        if p.disc != 0:
            return p


@pytest.mark.parametrize("k,l", FAMILIES)
def test_unit_maps_match_the_fraction_oracles(k, l):
    params = GramParams(0, l, 0, 0, k, 0)
    units = seeded_units(k, l, 40, seed=21)
    assert {u.grade for u in units} == ({"even", "odd"} if (k, l) in ((1, -1), (2, 3))
                                       else {"even"})
    for u in units:
        eps = 1 if u.grade == "even" else -1
        full = ascending(u.element, params)
        h = h_alpha(u, params)
        assert h.matrix == conjugation_matrix(full, eps, params)
        assert g_alpha(u, params) == conjugation_matrix(full, 1, params)
        lift, n = clifford_lift(h, params)
        want, want_n = kernel_lift(h, params)
        assert lift == want and type(lift) is type(want)
        assert n == want_n == u.norm


def test_lift_outside_the_kernel_matches_the_oracle():
    # the reflection of test_clifford_lift_outside_kernel, then every
    # isometry with entries <= 2 of two lattices, kernel or not
    refl = la.mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    u6 = ((0, 1, 0), (1, 0, 0), (0, 0, -6))
    params = GramParams.from_gram(u6)
    assert clifford_lift(refl, params) == kernel_lift(refl, params)
    for gram in (u6, ((0, 0, 2), (0, -4, 0), (2, 0, 0))):
        params = GramParams.from_gram(gram)
        isos = isometry_scan(Lattice(gram), 2)
        assert any(not g.in_kernel for g in isos)
        for g in isos:
            assert clifford_lift(g.matrix, params) == kernel_lift(g, params)


def test_unit_form_matrix_is_invertible_on_dense_tuples(rng):
    # the generated M is the one that 76 Clifford products give, W = D M^-1,
    # and det M = +-D^5 / 4, so adj(M) = +-(D^4 / 4) W: the lift's rows
    tuples = [GramParams(0, l, 0, 0, k, 0) for k, l in FAMILIES]
    tuples += [dense_gram_params(rng) for _ in range(300)]
    for p in tuples:
        d = p.disc
        for grade, sign in (("even", 1), ("odd", -1)):
            m, w = _lattice_forms(p)[1][grade]
            assert m == unit_forms_by_products(p, grade), (p, grade)
            assert la.mat_mul(m, w) == la.mat_scale(d, la.identity(10))
            dm = la.det(m)
            assert 4 * dm == sign * d ** 5
            assert la.mat_scale(dm, w) == la.mat_scale(d, la.adjugate(m))


def _one_coefficient_changed(rows, rng):
    """A copy of a matrix of polynomials with one coefficient moved by 1."""
    rows = [[dict(f) for f in row] for row in rows]
    f = rng.choice([f for row in rows for f in row if f])
    f[rng.choice(sorted(f))] += rng.choice((-1, 1))
    return rows


def test_kernelgen_proofs_refuse_one_coefficient_changed():
    # the generator proves M W = D I and Q(x)^T G Q(x) = N(x)^2 G as
    # polynomial identities; a slip in one coefficient of W or M fails them
    rng = random.Random(20261021)
    for _, masks in kernelgen.UNIT_GRADES:
        m = kernelgen.unit_form_matrix(masks)
        w = kernelgen.scaled_inverse_polynomials(m)
        for _ in range(5):
            with pytest.raises(AssertionError, match=r"M W != D I"):
                kernelgen.check_inverse(m, _one_coefficient_changed(w, rng))
            with pytest.raises(AssertionError, match=r"Q\^T G Q != N\^2 G"):
                kernelgen.check_isometry_law(_one_coefficient_changed(m, rng))


def test_unit_form_evaluation_matches_the_list_built_one(rng):
    tuples = [GramParams(0, l, 0, 0, k, 0) for k, l in FAMILIES]
    tuples += [random_gram_params(rng) for _ in range(20)]
    for p in tuples:
        for grade in ("even", "odd"):
            forms = _lattice_forms(p)[1][grade][0]
            for _ in range(20):
                x = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(4)]
                assert _evaluate(forms, x) == evaluate_unit_forms(forms, x), (p, grade, x)


def test_integer_kernel_matches_the_rewriting_rules(rng):
    def half_integral():
        """Half-integral coordinates with the E3E1 slot 5 nonzero."""
        c = [Fraction(rng.randint(-6, 6), 2) for _ in range(8)]
        c[5] = Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), 2)
        return CliffordElement(tuple(c))

    zero = CliffordElement.zero()
    basis = [CliffordElement.basis(m) for m in range(8)]
    for trial in range(60):
        p = random_gram_params(rng)

        def asc(z):
            return ascending(z, p)

        def oracle_mul(x, y):
            return asc(CliffordElement(rewrite_mul(asc(x), asc(y), p)))

        def oracle_reversal(x):
            return asc(CliffordElement(rewrite_reversal(asc(x), p)))

        x, y = half_integral(), half_integral()
        assert clifford_mul(x, y, p) == oracle_mul(x, y)
        assert reversal(x, p) == oracle_reversal(x)
        stars = [oracle_reversal(b) for b in basis]
        for b, star in zip(basis, stars):
            assert clifford_mul(b, y, p) == oracle_mul(b, y)
            assert clifford_mul(y, b, p) == oracle_mul(y, b)
            assert reversal(b, p) == star
        if trial < 10:      # all 64 structure-constant slots
            for b in basis:
                for b2 in basis:
                    assert clifford_mul(b, b2, p) == oracle_mul(b, b2)
        # every grade pair of the kernels, the zero element (which counts as
        # even), a factor with one nonzero coordinate, and mixed factors,
        # which split into their graded parts
        assert clifford_mul(zero, y, p) == clifford_mul(y, zero, p) == zero
        one = [basis[rng.randrange(8)].scale(Fraction(rng.choice((-3, 1, 5)), 2))
               for _ in range(2)]
        for u in (zero, x.even_part, x.odd_part, x, one[0]):
            assert reversal(u, p) == oracle_reversal(u)
            for v in (zero, y.even_part, y.odd_part, y, one[1]):
                assert clifford_mul(u, v, p) == oracle_mul(u, v)
        # (e_i, F_j)_E: the E1E2E3-coordinate of e_i F_j*
        assert _pairing_matrix(p) == tuple(
            tuple(oracle_mul(basis[m], stars[j]).coeffs[7] for j in ODD_MASKS)
            for m in EVEN_MASKS)


def test_structure_constants_match_the_rewriting_rules_on_every_slot(rng):
    # the polynomial constants evaluated per lattice, against the oracle's
    # rewriting on all 64 products of two monomials and all 8 reversals:
    # every tuple in {-1, 0, 1}^6, degenerate ones included, then random
    # ones.  The oracle works on the ascending monomials, where slot 5 holds
    # E1E3 = t - E3E1; the integer coordinates convert as ascending() does.
    tuples = list(product((-1, 0, 1), repeat=6))
    tuples += [tuple(rng.randint(-6, 6) for _ in range(6)) for _ in range(500)]
    assert any(GramParams(*t).disc == 0 for t in tuples)
    for t in tuples:
        p = GramParams(*t)

        def asc(v):
            return [v[0] + p.t * v[5], *v[1:5], -v[5], *v[6:]]

        monos = [asc([int(m == j) for m in range(8)]) for j in range(8)]
        for m1, x in enumerate(monos):
            assert asc(integer_reversal(x, p)) == list(
                rewrite_reversal(CliffordElement.basis(m1), p)), (p, m1)
            for m2, y in enumerate(monos):
                assert (asc(integer_mul(x, y, p))
                        == monomial_product(m1, m2, p)), (p, m1, m2)


def _graded(xs, masks):
    """The part of the coordinate list xs on the slots masks."""
    return [v if m in masks else 0 for m, v in enumerate(xs)]


def test_matrix_kernels_are_the_products_with_each_basis_vector():
    # column j of each multiplication matrix is the product of one graded
    # part of x, on its side, with the j-th basis vector of the grade acted
    # on; the kernels get x with both grades and read only their own
    rng = random.Random(20261019)
    even = [[int(m == s) for m in range(8)] for s in EVEN_MASKS]
    odd = [[int(m == s) for m in range(8)] for s in ODD_MASKS]
    for _ in range(200):
        p = random_gram_params(rng)
        xs = [rng.randint(-9, 9) for _ in range(8)]
        xe, xo = _graded(xs, EVEN_MASKS), _graded(xs, ODD_MASKS)
        # (kernel, basis acted on, chart of the image, other chart, image)
        cases = ((integer_phi, even, EVEN_MASKS, ODD_MASKS,
                  lambda b: integer_mul(xe, b, p)),
                 (integer_right_even, even, EVEN_MASKS, ODD_MASKS,
                  lambda b: integer_mul(b, xe, p)),
                 (integer_right_odd, even, ODD_MASKS, EVEN_MASKS,
                  lambda b: integer_mul(b, xo, p)),
                 (integer_left_odd, odd, EVEN_MASKS, ODD_MASKS,
                  lambda b: integer_mul(xo, b, p)))
        for kernel, basis, rows, other, image in cases:
            cols = [image(b) for b in basis]
            assert all(c[m] == 0 for c in cols for m in other), (p, xs)
            assert kernel(xs, p) == tuple(tuple(c[m] for c in cols) for m in rows), \
                (kernel.__name__, p, xs)


def test_integer_norm_is_the_scalar_part_of_x_times_its_reversal():
    rng = random.Random(20261020)
    for _ in range(200):
        p = random_gram_params(rng)
        xs = [rng.randint(-9, 9) for _ in range(8)]
        for masks in (EVEN_MASKS, ODD_MASKS):
            x = _graded(xs, masks)
            assert integer_norm(x, p) == integer_mul(x, integer_reversal(x, p), p)[0]
        if any(_graded(xs, EVEN_MASKS)) and any(_graded(xs, ODD_MASKS)):
            with pytest.raises(ValueError):
                norm(CliffordElement(tuple(xs)), p)


@pytest.fixture(scope="module")
def generated_text():
    """The module text that tests/kernelgen.py writes, built once: a build
    derives and proves the unit forms (about 0.1 s)."""
    return kernelgen.module_source()


def test_shipped_kernels_are_the_generated_text(generated_text):
    # every sign and coefficient of the kernels comes from the rewriting
    # rules: tests/kernelgen.py writes the module on the chart of clifford
    assert (kernelgen.DIM, kernelgen.EVEN_MASKS, kernelgen.ODD_MASKS) == \
        (DIM, EVEN_MASKS, ODD_MASKS)
    assert Path(_kernels.__file__).read_text() == generated_text


def test_kernelgen_check_fails_on_a_missing_or_stale_module(generated_text, tmp_path,
                                                             monkeypatch, capsys):
    # main writes and checks against the text built once above
    module = tmp_path / "_kernels.py"
    monkeypatch.setattr(kernelgen, "MODULE", module)
    monkeypatch.setattr(kernelgen, "module_source", lambda: generated_text)
    assert kernelgen.main(["--check"]) == 1
    assert kernelgen.main([]) == 0
    assert kernelgen.main(["--check"]) == 0
    module.write_text(module.read_text().replace("k22*x7", "-k22*x7", 1))
    assert kernelgen.main(["--check"]) == 1
    assert "is stale" in capsys.readouterr().err
    assert kernelgen.main(["--bad"]) == 2


class Poison:
    """The value of a slot that a kernel must not read: arithmetic on it
    raises, and it equals no number."""

    def _raise(self, *args):
        raise AssertionError("a kernel read a slot outside its grades")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __neg__ = _raise


def _poisoned(xs, masks):
    """xs with a Poison in every slot outside masks."""
    return [v if m in masks else Poison() for m, v in enumerate(xs)]


def test_kernels_read_only_the_slots_of_their_grades():
    # MUL[2 gx + gy] reads the grade-gx slots of x and the grade-gy slots of
    # y, and each matrix kernel one grade of x: a poisoned slot outside them
    # neither enters the arithmetic nor reaches the result
    rng = random.Random(20261021)
    matrices = ((_kernels.phi, EVEN_MASKS), (_kernels.right_even, EVEN_MASKS),
                (_kernels.right_odd, ODD_MASKS), (_kernels.left_odd, ODD_MASKS))
    grade_pairs = list(product((EVEN_MASKS, ODD_MASKS), repeat=2))
    assert len(grade_pairs) == len(_kernels.MUL)
    for _ in range(50):
        k = _constants(random_gram_params(rng))
        xs, ys = ([rng.randint(-9, 9) for _ in range(8)] for _ in range(2))
        for (gx, gy), mul in zip(grade_pairs, _kernels.MUL):
            assert mul(_poisoned(xs, gx), _poisoned(ys, gy), k) == \
                mul(_graded(xs, gx), _graded(ys, gy), k), mul.__name__
        for kernel, masks in matrices:
            assert kernel(_poisoned(xs, masks), k) == kernel(_graded(xs, masks), k), \
                kernel.__name__


def test_bareiss_det_matches_fraction_elimination(rng):
    for _ in range(400):
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            a = la.mat([[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                        for _ in range(n)])
        else:
            a = la.mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                         for _ in range(n)] for _ in range(n)])
        d = la.det(a)
        assert d == det_by_fractions(a)
        assert type(d) is (int if Fraction(d).denominator == 1 else Fraction)
        if d != 0 and all(type(x) is int for row in a for x in row):
            assert la.mat_mul(a, la.adjugate(a)) == la.mat_scale(d, la.identity(n))


def _check_int_cofactor_det(rng, n):
    for i in range(500):
        bound = 10 ** rng.randint(0, 20)
        a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if i % 5 == 0:      # singular: a repeated, negated or zero row
            f = rng.choice((1, -1, 0))
            a[n - 1] = [f * x for x in a[rng.randrange(n - 1)]]
        a = la.mat(a)
        d = la.det(a)
        assert type(d) is int
        assert d == det_by_fractions(a)
        assert d == 0 or i % 5


def test_int_3x3_det_matches_fraction_elimination(rng):
    _check_int_cofactor_det(rng, 3)


def test_int_4x4_det_matches_fraction_elimination(rng, monkeypatch):
    calls = []
    bareiss = la._bareiss
    monkeypatch.setattr(la, "_bareiss", lambda *args: calls.append(1) or bareiss(*args))
    _check_int_cofactor_det(rng, 4)
    assert not calls
    # a Fraction entry keeps the Bareiss path
    a = la.mat([[Fraction(1, 2), 1, 0, 3], [2, -1, 4, 0], [0, 5, 1, -2], [7, 0, 2, 1]])
    assert la.det(a) == det_by_fractions(a)
    assert calls == [1]
