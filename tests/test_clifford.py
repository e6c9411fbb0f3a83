import io
import pickle
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from oracles import dual_basis_vectors, gram_half, inverse
from picard3 import exterior as ext
from picard3 import linalg as la
from picard3.cli import main
from picard3.clifford import (EVEN_MASKS, ODD_MASKS, CliffordElement,
                              EvenCliffordElement, GramParams,
                              OddCliffordElement, _constants,
                              alternating_E, clifford_mul, element_E, gram_B,
                              integer_mul, integer_reversal, norm, phi_rep,
                              reversal, trace)
from picard3.isometries import CliffordUnit, _lattice_forms
from picard3.lattice import family_lattice
from conftest import random_gram_params
from kernelgen import WORDS

WEHLER = GramParams.from_gram(((0, 2, 2), (2, 0, 2), (2, 2, 0)))


def family_params(k, l):
    return GramParams(0, l, 0, 0, k, 0)


# The duality and odd-part elements of the paper, checked below against its
# printed matrices.

def tilde_e(i: int, params: GramParams) -> CliffordElement:
    """The trace-zero projection e_i - Tr(e_i)/2 for i in {1, 2, 3}."""
    tr = {1: params.s, 2: params.t, 3: params.u}[i]
    coords = [Fraction(-tr, 2), 0, 0, 0]
    coords[i] = 1
    return EvenCliffordElement(*coords)


def v_dot_E(v, params: GramParams) -> CliffordElement:
    """The even element v * E for a (rational) lattice vector v."""
    return clifford_mul(CliffordElement.vector(v), element_E(params), params)


def pairing_E(x: CliffordElement, y: CliffordElement, params: GramParams):
    """(x, y)_E for even x and odd y: the E1E2E3-coefficient of x * y*."""
    if not (x.is_even and y.is_odd):
        raise ValueError("pairing_E pairs an even with an odd element")
    prod = integer_mul(x.ints, integer_reversal(y.ints, params), params)
    return Fraction(prod[7], x.den * y.den)


def odd_gram(params: GramParams, basis_choice: str = "standard"):
    """Intersection matrix of the odd part under the quadratic form N.

    ``standard``: basis (E1E2E3, E1, E2, E3).
    ``dual``: basis (-E1E2E3 - t E2, E1, E2, E3), dual to (e_i) under the
    pairing (,)_E; its Gram equals D0 * Q_B^{-1}.
    """
    basis = [OddCliffordElement(*e) for e in la.identity(4)]
    if basis_choice == "dual":
        basis[0] = OddCliffordElement(-1, 0, -params.t, 0)
    elif basis_choice != "standard":
        raise ValueError("basis_choice must be 'standard' or 'dual'")
    out = []
    for x in basis:
        row = []
        for y in basis:
            nxy = norm(x + y, params) - norm(x, params) - norm(y, params)
            row.append(Fraction(nxy, 2))
        out.append(tuple(row))
    return la.mat(out)


def odd_norm_family(x1, x2, x3, x4, k: int, l: int):
    """N(x1 E1 + x2 E2 + x3 E3 + x4 E1E2E3) on U(k) + <2l>, closed form."""
    return k * x1 * x3 + l * x2 * (x2 - k * x4)


def test_gram_params_from_gram():
    assert (WEHLER.a, WEHLER.b, WEHLER.c) == (0, 0, 0)
    assert (WEHLER.s, WEHLER.t, WEHLER.u) == (2, 2, 2)
    assert WEHLER.disc == 16 and WEHLER.disc_half == 2
    with pytest.raises(ValueError):
        GramParams.from_gram(((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        GramParams.from_gram(((0, 0, 0), (0, 2, 0), (0, 0, 2)))   # degenerate
    for bad in (((2, Fraction(1, 2), 0), (Fraction(1, 2), 2, 0), (0, 0, 2)),
                ((2.0, 0, 0), (0, 2, 0), (0, 0, -2))):
        with pytest.raises(TypeError):
            GramParams.from_gram(bad)


def test_gram_params_family_is_the_family_lattice():
    ks = [v for v in range(-6, 7) if v]
    for k in ks:
        for l in ks:
            assert GramParams.family(k, l).gram == family_lattice(k, l).gram
    for k, l in ((0, 1), (1, 0), (0, 0)):
        with pytest.raises(ValueError, match="^k and l must be nonzero$"):
            GramParams.family(k, l)


def test_gram_params_fields_must_be_ints():
    # a bool passes 2 * True as the int 2, and a Fraction half puts 1 on the
    # Gram diagonal: each field takes ints only
    for bad in (True, Fraction(1, 2), 1.0):
        for i in range(6):
            fields = [0, 0, 0, 0, 2, 0]
            fields[i] = bad
            with pytest.raises(TypeError):
                GramParams(*fields)
    assert GramParams(0, 0, 0, 0, 2, 0) == (0, 0, 0, 0, 2, 0)
    assert pickle.loads(pickle.dumps(WEHLER)) == WEHLER


def test_gram_params_make_and_replace_check_their_fields():
    # namedtuple builds both through tuple.__new__, which skips the field check
    base = GramParams(0, 0, 0, 0, 2, 0)
    with pytest.raises(TypeError):
        GramParams._make((True, 0, 0, 0, 2, 0))
    with pytest.raises(TypeError):
        base._replace(a=0.5)
    with pytest.raises(TypeError):
        base._replace(u=Fraction(1, 2))
    assert GramParams._make([0, 0, 0, 0, 2, 0]) == base
    one = base._replace(a=1)
    assert type(one) is GramParams and one == (1, 0, 0, 0, 2, 0)


def test_scalar_and_basis_products():
    one = CliffordElement.scalar(1)
    x = CliffordElement(tuple(range(8)))
    assert clifford_mul(one, x, WEHLER).coeffs == x.coeffs
    e1 = CliffordElement.basis(1)
    assert clifford_mul(e1, e1, WEHLER).coeffs == CliffordElement.zero().coeffs
    e2, e3 = CliffordElement.basis(2), CliffordElement.basis(4)
    anti = clifford_mul(e2, e3, WEHLER) + clifford_mul(e3, e2, WEHLER)
    assert anti.coeffs == CliffordElement.scalar(WEHLER.s).coeffs


def test_mul_is_associative_and_respects_form(rng):
    for _ in range(30):
        p = random_gram_params(rng)
        xs = [CliffordElement(tuple(rng.randint(-3, 3) for _ in range(8)))
              for _ in range(3)]
        x, y, z = xs
        assert clifford_mul(clifford_mul(x, y, p), z, p).coeffs == \
            clifford_mul(x, clifford_mul(y, z, p), p).coeffs
        v = [rng.randint(-4, 4) for _ in range(3)]
        w = [rng.randint(-4, 4) for _ in range(3)]
        cv, cw = CliffordElement.vector(v), CliffordElement.vector(w)
        anti = clifford_mul(cv, cw, p) + clifford_mul(cw, cv, p)
        form = sum(v[i] * p.gram[i][j] * w[j] for i in range(3) for j in range(3))
        assert anti.coeffs == CliffordElement.scalar(form).coeffs


def test_reversal_is_antiautomorphism(rng):
    for _ in range(20):
        p = random_gram_params(rng)
        x = CliffordElement(tuple(rng.randint(-3, 3) for _ in range(8)))
        y = CliffordElement(tuple(rng.randint(-3, 3) for _ in range(8)))
        assert reversal(clifford_mul(x, y, p), p).coeffs == \
            clifford_mul(reversal(y, p), reversal(x, p), p).coeffs


def test_norm_examples():
    one = CliffordElement.scalar(1)
    assert norm(one, WEHLER) == 1
    # appendix fixture: N(5 E2 + E3 + E1E2E3) = 1 over diag(6,-10,-18)
    p = GramParams.from_gram(((6, 0, 0), (0, -10, 0), (0, 0, -18)))
    alpha = OddCliffordElement(1, 0, 5, 1)
    assert norm(alpha, p) == 1
    assert norm(OddCliffordElement(-1, 0, -5, -1), p) == 1
    # Nr(e1) on Wehler by the multiplication oracle
    e1 = EvenCliffordElement(0, 1, 0, 0)
    prod = clifford_mul(e1, reversal(e1, WEHLER), WEHLER)
    assert norm(e1, WEHLER) == prod.coeffs[0]


def test_norm_rejects_mixed_grade():
    x = CliffordElement((1, 1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        norm(x, WEHLER)
    with pytest.raises(ValueError):
        trace(CliffordElement.basis(1), WEHLER)


def test_norm_multiplicative_pure_grades(rng):
    for _ in range(30):
        p = random_gram_params(rng)
        fx = EvenCliffordElement(*(rng.randint(-4, 4) for _ in range(4)))
        fy = EvenCliffordElement(*(rng.randint(-4, 4) for _ in range(4)))
        ox = OddCliffordElement(*(rng.randint(-4, 4) for _ in range(4)))
        oy = OddCliffordElement(*(rng.randint(-4, 4) for _ in range(4)))
        assert norm(clifford_mul(fx, fy, p), p) == norm(fx, p) * norm(fy, p)
        assert norm(clifford_mul(ox, oy, p), p) == norm(ox, p) * norm(oy, p)
        assert norm(clifford_mul(fx, ox, p), p) == norm(fx, p) * norm(ox, p)


PRINTED_M1 = lambda p: la.mat([[0, -p.b * p.c, p.c * p.u, -p.s * p.u],
                               [1, p.s, 0, p.u],
                               [0, 0, 0, p.b],
                               [0, 0, -p.c, p.s]])


def test_phi_of_e1_is_printed_matrix(rng):
    for _ in range(15):
        p = random_gram_params(rng)
        assert phi_rep(EvenCliffordElement(0, 1, 0, 0), p) == PRINTED_M1(p)
    assert phi_rep(EvenCliffordElement(1, 0, 0, 0), WEHLER) == la.identity(4)


def test_phi_is_ring_homomorphism(rng):
    for _ in range(25):
        p = random_gram_params(rng)
        x = EvenCliffordElement(*(rng.randint(-4, 4) for _ in range(4)))
        y = EvenCliffordElement(*(rng.randint(-4, 4) for _ in range(4)))
        xy = clifford_mul(x, y, p)
        assert la.mat_mul(phi_rep(x, p), phi_rep(y, p)) == phi_rep(xy, p)
        # e1 * e2 expanded in the e-basis against the matrix product
        e1, e2 = EvenCliffordElement(0, 1, 0, 0), EvenCliffordElement(0, 0, 1, 0)
        e12 = clifford_mul(e1, e2, p)
        assert phi_rep(e12, p) == la.mat_mul(phi_rep(e1, p), phi_rep(e2, p))


def test_phi_trace_and_norm_identities(rng):
    for _ in range(25):
        p = random_gram_params(rng)
        x = EvenCliffordElement(*(rng.randint(-4, 4) for _ in range(4)))
        m = phi_rep(x, p)
        assert 2 * trace(x, p) == sum(m[i][i] for i in range(4))
        assert norm(x, p) ** 2 == la.det(m)


def test_gram_B(rng):
    qb = gram_B(WEHLER)
    assert qb[0][0] == 1
    assert la.det(qb) == WEHLER.disc_half ** 2 == 4
    for _ in range(50):
        p = random_gram_params(rng)
        assert la.det(gram_B(p)) == p.disc_half ** 2
    # bilinear trace form reproduces gram_B on the basis
    for _ in range(10):
        p = random_gram_params(rng)
        basis = [EvenCliffordElement(*[int(i == j) for j in range(4)])
                 for i in range(4)]
        qb = gram_B(p)
        for i in range(4):
            for j in range(4):
                prod = clifford_mul(basis[i], reversal(basis[j], p), p)
                tr = (prod + reversal(prod, p)).coeffs[0]
                assert tr / 2 == qb[i][j]


def test_element_E_properties(rng):
    for _ in range(30):
        p = random_gram_params(rng)
        E = element_E(p)
        for m in range(8):
            bm = CliffordElement.basis(m)
            assert clifford_mul(E, bm, p).coeffs == clifford_mul(bm, E, p).coeffs
        assert reversal(E, p).coeffs == (-E).coeffs
        assert clifford_mul(E, E, p).coeffs == \
            CliffordElement.scalar(-p.disc_half).coeffs


def test_repr_evaluates_to_an_equal_element():
    scope = {"CliffordElement": CliffordElement, "Fraction": Fraction}
    elements = [EvenCliffordElement(3, -1, 0, 2), OddCliffordElement(1, 0, -4, 5)]
    elements += [element_E(p) for p in (WEHLER, family_params(3, -5))]
    assert elements[-1].den == 2
    for x in elements:
        assert eval(repr(x), scope) == x


def test_element_E_examples():
    ortho = GramParams.from_gram(((2, 0, 0), (0, 2, 0), (0, 0, -2)))
    assert element_E(ortho).coeffs == CliffordElement.basis(7).coeffs
    fam = family_params(2, 1)         # U(2) + <2>
    E = element_E(fam)
    assert E.coeffs[7] == 1 and E.coeffs[2] == Fraction(2, 2)
    assert clifford_mul(E, E, fam).coeffs == \
        CliffordElement.scalar(Fraction(4 * 1, 4)).coeffs   # k^2 l / 4
    assert clifford_mul(element_E(WEHLER), element_E(WEHLER), WEHLER).coeffs \
        == CliffordElement.scalar(-2).coeffs


def test_tilde_e_and_v_dot_E(rng):
    for _ in range(25):
        p = random_gram_params(rng)
        tes = [tilde_e(i, p) for i in (1, 2, 3)]
        assert tilde_e(1, p).coords[0] == -Fraction(p.s, 2)
        # (E1 E, E2 E, E3 E) = (te1, te2, te3) Q_L0
        for i in range(3):
            ei = [0, 0, 0]
            ei[i] = 1
            rhs = CliffordElement.zero()
            for j in range(3):
                rhs = rhs + tes[j].scale(gram_half(p)[j][i])
            assert v_dot_E(ei, p).coeffs == rhs.coeffs
        # <vE, v'E>_B = D0 <v, v'>_0
        v = [rng.randint(-4, 4) for _ in range(3)]
        w = [rng.randint(-4, 4) for _ in range(3)]
        prod = clifford_mul(v_dot_E(v, p), reversal(v_dot_E(w, p), p), p)
        tr = (prod + reversal(prod, p)).coeffs[0] / 2
        pairing0 = sum(v[i] * gram_half(p)[i][j] * w[j]
                       for i in range(3) for j in range(3))
        assert tr == p.disc_half * pairing0
        # dual-basis image: Ehat_i * E = te_i
        dual = dual_basis_vectors(p)
        for i in range(3):
            col = tuple(dual[r][i] for r in range(3))
            assert v_dot_E(col, p).coeffs == tes[i].coeffs
        # gram of (te_i) equals D0 * Q_L0^{-1}
        q0inv = inverse(gram_half(p))
        for i in range(3):
            for j in range(3):
                prod = clifford_mul(tes[i], reversal(tes[j], p), p)
                tr = (prod + reversal(prod, p)).coeffs[0] / 2
                assert tr == p.disc_half * q0inv[i][j]


def test_pairing_E_printed_matrix(rng):
    for _ in range(20):
        p = random_gram_params(rng)
        evens = [EvenCliffordElement(*[int(i == j) for j in range(4)])
                 for i in range(4)]
        odds = [OddCliffordElement(*[int(i == j) for j in range(4)])
                for i in range(4)]
        assert pairing_E(evens[0], odds[0], p) == -1
        for i in range(1, 4):
            assert pairing_E(evens[0], odds[i], p) == 0
            for j in range(1, 4):
                assert pairing_E(evens[i], odds[j], p) == int(i == j)
        # (te_i, E_j)_E = delta_ij including index 0 with E_0 = -E, te_0 = e_0
        e0 = -element_E(p)
        tes = [EvenCliffordElement(1, 0, 0, 0)] + [tilde_e(i, p) for i in (1, 2, 3)]
        fs = [e0] + odds[1:]
        for i in range(4):
            for j in range(4):
                assert pairing_E(tes[i], fs[j], p) == int(i == j)


def test_odd_gram(rng):
    ortho = GramParams.from_gram(((2, 0, 0), (0, 4, 0), (0, 0, -2)))
    og = odd_gram(ortho, "standard")
    a, b, c = ortho.a, ortho.b, ortho.c
    assert og == la.mat([[a * b * c, 0, 0, 0], [0, a, 0, 0],
                         [0, 0, b, 0], [0, 0, 0, c]])
    for _ in range(20):
        p = random_gram_params(rng)
        og = odd_gram(p, "standard")
        a, b, c, s, t, u = p.a, p.b, p.c, p.s, p.t, p.u
        printed = [[2 * a * b * c, a * s, s * u - b * t, c * u],
                   [a * s, 2 * a, u, t],
                   [s * u - b * t, u, 2 * b, s],
                   [c * u, t, s, 2 * c]]
        assert og == la.mat([[Fraction(x, 2) for x in row] for row in printed])
        # lower-right block is Q_L / 2
        for i in range(3):
            for j in range(3):
                assert og[i + 1][j + 1] == Fraction(p.gram[i][j], 2)
        assert odd_gram(p, "dual") == \
            la.mat_scale(p.disc_half, inverse(gram_B(p)))
    with pytest.raises(ValueError):
        odd_gram(WEHLER, "other")


def test_odd_norm_family(rng):
    assert odd_norm_family(1, 0, 1, 0, 1, -1) == 1
    assert odd_norm_family(0, 1, 0, 0, 3, 7) == 7
    for n in range(2, 8):
        for _ in range(20):
            xs = [rng.randint(-9, 9) for _ in range(4)]
            assert odd_norm_family(*xs, n, -n) % n == 0
    for _ in range(40):
        k = rng.choice([1, 2, 3, 5, -2])
        l = rng.choice([1, -1, 2, -3, -7])
        p = family_params(k, l)
        x1, x2, x3, x4 = (rng.randint(-4, 4) for _ in range(4))
        beta = OddCliffordElement(x4, x1, x2, x3)
        assert norm(beta, p) == odd_norm_family(x1, x2, x3, x4, k, l)


def test_alternating_E(rng):
    ortho = GramParams.from_gram(((2, 0, 0), (0, 2, 0), (0, 0, -2)))
    acc, hats = alternating_E(ortho)
    assert acc.coeffs == CliffordElement.basis(7).coeffs
    # orthogonal basis: Ehat = (E2E3, E3E1, E1E2)
    assert hats == tuple(CliffordElement.basis(m) for m in (6, 5, 3))
    for _ in range(50):
        p = random_gram_params(rng)
        alternating_E(p)    # all cross-checks are built in


def test_alternating_E_makes_each_generator_product_once(monkeypatch):
    # the six E_a E_b, then the three (2 Ehat_j) E_j whose sum is 6 E, and
    # the three E_i (6 E)
    import picard3.clifford as cl
    calls = []
    mul = cl.integer_mul
    monkeypatch.setattr(cl, "integer_mul", lambda x, y, p: calls.append(1) or mul(x, y, p))
    alternating_E(WEHLER)
    assert len(calls) == 12


def test_alternating_E_basis_change_invariance(rng):
    # an elementary transformation (det 1) leaves E fixed
    for _ in range(10):
        p = random_gram_params(rng)
        lam = rng.randint(-3, 3)
        s_mat = ((1, lam, 0), (0, 1, 0), (0, 0, 1))     # E1 -> E1 + lam E2
        new_gram = la.mat_mul(la.mat_mul(la.transpose(s_mat), p.gram), s_mat)
        p2 = GramParams.from_gram(new_gram)
        e_new = element_E(p2)
        # rewrite e_new (built on the transformed basis) in the old basis
        vecs = [CliffordElement.vector(tuple(s_mat[r][i] for r in range(3)))
                for i in range(3)]
        mapped = CliffordElement.zero()
        for word, c in zip(WORDS, e_new.coeffs):   # E'_i -> sum_r S_ri E_r
            term = CliffordElement.scalar(c)
            for i in word:
                term = clifford_mul(term, vecs[i], p)
            mapped = mapped + term
        assert mapped == element_E(p)
        acc = CliffordElement.zero()
        from itertools import permutations
        for perm in permutations((0, 1, 2)):
            sign = 1
            pl = list(perm)
            for i in range(3):
                for j in range(i + 1, 3):
                    if pl[i] > pl[j]:
                        sign = -sign
            term = CliffordElement.scalar(sign)
            for i in perm:
                term = clifford_mul(term, vecs[i], p)
            acc = acc + term.scale(Fraction(1, 6))
        assert acc.coeffs == element_E(p).coeffs


def test_charts_are_slices_and_round_trip(rng):
    assert EvenCliffordElement(1, 2, 3, 4).coeffs == (1, 0, 0, 4, 0, 3, 2, 0)
    assert OddCliffordElement(1, 2, 3, 4).coeffs == (0, 2, 3, 0, 4, 0, 0, 1)
    for _ in range(50):
        ints = tuple(rng.randint(-9, 9) for _ in range(4))
        fracs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4))
        for xs in (ints, fracs):
            even, odd = EvenCliffordElement(*xs), OddCliffordElement(*xs)
            assert even.is_even and odd.is_odd
            assert even.coords == xs and odd.coords == xs
            assert all(type(x) is Fraction for x in even.coords + odd.coords)
            integral = all(Fraction(x).denominator == 1 for x in xs)
            assert even.is_integral == odd.is_integral == integral
    with pytest.raises(ValueError):
        (EvenCliffordElement(1, 0, 0, 0) + OddCliffordElement(1, 0, 0, 0)).coords


def test_grade_tests_read_the_chart_slots():
    # every support pattern of the 8 slots: even iff no odd slot is set, odd
    # iff no even slot is set (so zero is both)
    for support in range(256):
        x = CliffordElement(tuple((support >> m) & 1 for m in range(8)))
        assert x.is_even == (not any(x.ints[m] for m in ODD_MASKS))
        assert x.is_odd == (not any(x.ints[m] for m in EVEN_MASKS))


def test_slot_5_holds_E3E1(rng):
    assert CliffordElement.basis(5).coeffs == (0, 0, 0, 0, 0, 1, 0, 0)
    e1, e3 = CliffordElement.basis(1), CliffordElement.basis(4)
    for _ in range(20):
        p = random_gram_params(rng)
        assert clifford_mul(e3, e1, p) == CliffordElement.basis(5)
        assert clifford_mul(e1, e3, p) == \
            CliffordElement.scalar(p.t) - CliffordElement.basis(5)
        assert EvenCliffordElement(0, 0, 1, 0) == clifford_mul(e3, e1, p)


def test_equal_rationals_give_equal_elements():
    x = CliffordElement((Fraction(2, 4), 1, 0, 0, 0, Fraction(-3, 6), 0, 2))
    y = CliffordElement((Fraction(1, 2), Fraction(4, 4), 0, 0, 0, Fraction(-1, 2), 0, 2))
    assert x == y and hash(x) == hash(y)
    assert (x.ints, x.den) == ((1, 2, 0, 0, 0, -1, 0, 4), 2)
    half = CliffordElement.scalar(Fraction(1, 2))
    one = CliffordElement.scalar(1)
    assert half + half == one and hash(half + half) == hash(one)
    assert (half + half).den == 1 and half.scale(2).den == 1
    assert clifford_mul(CliffordElement.scalar(2), half, WEHLER) == one
    assert len({x, y, one, half + half, half}) == 3
    assert x != x.scale(2) and x != (1, 0, 0, 0, 0, 0, 0, 0)
    assert pickle.loads(pickle.dumps(x)) == x
    with pytest.raises(AttributeError):
        x.den = 3


def test_coefficients_must_be_exact():
    # a float would enter as its binary fraction, 0.1 as 3602879701896397/2^55
    for bad in (0.1, 1.0, 1j, "1/2"):
        with pytest.raises(TypeError):
            CliffordElement((bad,) + (0,) * 7)
        with pytest.raises(TypeError):
            CliffordElement.scalar(1).scale(bad)
    with pytest.raises(ValueError, match="^need 8 coefficients$"):
        CliffordElement((0,) * 7)


def test_coefficients_and_scale_refuse_bool():
    # bool is an int subclass: True would enter silently as the coefficient 1
    for coeffs in ((True,) + (0,) * 7, (Fraction(1, 2), False) + (0,) * 6):
        with pytest.raises(TypeError):
            CliffordElement(coeffs)
    for make in (EvenCliffordElement, OddCliffordElement):
        with pytest.raises(TypeError):
            make(1, 0, True, 0)
    for c in (True, False):
        with pytest.raises(TypeError):
            CliffordElement.scalar(1).scale(c)


def test_wrong_grade_inputs_raise():
    even, odd = EvenCliffordElement(1, 2, 0, 1), OddCliffordElement(1, 0, 0, 1)
    for bad in (odd, even + odd):
        with pytest.raises(ValueError):
            phi_rep(bad, WEHLER)
        with pytest.raises(ValueError):
            ext.mu_matrix(bad, even, WEHLER)
        with pytest.raises(ValueError):
            ext.mu_matrix(even, bad, WEHLER)
        with pytest.raises(ValueError):
            pairing_E(bad, odd, WEHLER)
    with pytest.raises(ValueError):
        pairing_E(even, even, WEHLER)
    with pytest.raises(ValueError):
        CliffordUnit.from_element(even + odd, WEHLER)
    with pytest.raises(ValueError, match="^unit must have integral coordinates$"):
        CliffordUnit.from_element(EvenCliffordElement(Fraction(1, 2), 0, 0, 0), WEHLER)
    with pytest.raises(ValueError, match="^not a unit: N = 4$"):
        CliffordUnit.from_element(EvenCliffordElement(2, 0, 0, 0), WEHLER)


def test_per_tuple_caches_stay_bounded():
    # 100 fresh Gram tuples per suite pass through caches that hold 32
    for suite in ("clifford", "exterior"):
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "--suite", suite, "--trials", "100",
                         "--format", "json"]) == 0
    for table in (_constants, ext._pairing_matrix, _lattice_forms):
        info = table.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize
    assert _constants.cache_info().currsize == _constants.cache_info().maxsize


def test_lattice_constants_are_evaluated_once_per_tuple_and_never_by_analyze_n():
    # analyze --n evaluates no kernel constants; 100 fresh Gram tuples
    # evaluate them once each
    _constants.cache_clear()
    with redirect_stdout(io.StringIO()):
        assert main(["analyze", "--n", "65003", "--format", "json"]) == 0
        assert _constants.cache_info().misses == 0
        assert main(["verify", "--suite", "clifford", "--trials", "100",
                     "--format", "json"]) == 0
    assert _constants.cache_info().misses == 100
