from fractions import Fraction

import pytest

from picard3 import linalg as la
from picard3.clifford import (EvenCliffordElement, GramParams,
                              OddCliffordElement, norm)
from oracles import isometry_scan, unit_search_scan, v_set_scan
from picard3.isometries import (CliffordUnit, Isometry3, clifford_lift,
                                family_unit, g_alpha, h_alpha, p_alpha_matrix,
                                phi_alpha, seeded_units, spinor_norm,
                                unit_product, unit_search_even, v_set_search)
from picard3.lattice import Lattice, family_lattice, in_discriminant_kernel

FAMILIES = ((1, -1), (2, -2), (3, -3), (2, 3), (5, -7))
BASIS_SWAP = la.mat([[0, 0, 1], [0, -1, 0], [1, 0, 0]])


def family_params(k, l):
    return GramParams(0, l, 0, 0, k, 0)


def sign_class(coords):
    for x in coords:
        if x != 0:
            return coords if x > 0 else tuple(-v for v in coords)
    return coords


def test_isometry3_validation():
    lat = family_lattice(2, -2)
    with pytest.raises(ValueError):
        Isometry3(((1, 1, 0), (0, 1, 0), (0, 0, 1)), lat)
    iso = Isometry3(la.identity(3), lat)
    assert iso.det == 1 and iso.in_kernel and iso.preserves_cone
    same = Isometry3([[1, 0, 0], [0, 1, 0], [0, 0, 1]], family_lattice(2, -2))
    assert same == iso and hash(same) == hash(iso)
    assert iso != Isometry3(la.identity(3), family_lattice(2, -3))


def test_isometry_paths_refuse_non_int_entries():
    # the identity with one entry 1 written as Fraction(1, 1) or True
    params = family_params(2, -2)
    lat = family_lattice(2, -2)
    for one in (Fraction(1, 1), True):
        g = ((one, 0, 0), (0, 1, 0), (0, 0, 1))
        for check in (lambda: Isometry3(g, lat),
                      lambda: in_discriminant_kernel(g, lat),
                      lambda: clifford_lift(g, params)):
            with pytest.raises(ValueError, match="g is not an isometry of L"):
                check()


def test_unit_search_even_examples():
    assert unit_search_even(2, 2, 0) == (la.mat([[1, 0], [0, 1]]),)
    b22 = unit_search_even(2, 2, 3)
    assert la.mat([[1, 0], [2, 1]]) in b22
    assert la.mat([[1, 2], [0, 1]]) in b22
    assert la.mat([[1, 2], [2, 1]]) not in b22      # det -3
    b11 = unit_search_even(1, 1, 1)
    for m in b11:
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] in (1, -1)
        assert all(abs(x) <= 1 for row in m for x in row)
    # congruences hold on every result
    for k, l in FAMILIES:
        for m in unit_search_even(k, l, 6):
            assert (m[0][0] - m[1][1]) % k == 0
            assert m[1][0] % k == 0 and m[0][1] % l == 0


def test_family_unit_norm_is_det():
    for k, l in FAMILIES:
        params = family_params(k, l)
        for m in unit_search_even(k, l, 6)[:15]:
            u = family_unit(m, k, l)
            assert u.norm == m[0][0] * m[1][1] - m[0][1] * m[1][0]
            assert norm(u.element, params) == u.norm


def test_h_alpha_even_units():
    for k, l in FAMILIES:
        params = family_params(k, l)
        for m in unit_search_even(k, l, 6)[:20]:
            u = family_unit(m, k, l)
            h = h_alpha(u, params)
            assert h.det == 1
            assert h.in_kernel


def test_h_alpha_identity_and_reflection():
    params = family_params(2, -2)
    ident = CliffordUnit.from_element(EvenCliffordElement(1, 0, 0, 0), params)
    assert h_alpha(ident, params).matrix == la.identity(3)
    # alpha = E2 on a lattice with b = -1: N(E2) = -1, a genuine unit
    p = GramParams(0, -1, 0, 0, 1, 0)           # U(1) + <-2>
    u = CliffordUnit.from_element(OddCliffordElement(0, 0, 1, 0), p)
    h = h_alpha(u, p)
    assert h.det == -1 and h.in_kernel


def test_h_alpha_odd_units():
    params = family_params(1, -1)
    for v in v_set_search(1, -1, 2)[:20]:
        u = CliffordUnit.from_element(v, params)
        h = h_alpha(u, params)
        assert h.det == -1 and h.in_kernel


def test_det_h_equals_grade_sign_on_seeded_units():
    for k, l in ((1, -1), (2, 3)):
        params = family_params(k, l)
        for u in seeded_units(k, l, 50, seed=11):
            eps = 1 if u.grade == "even" else -1
            assert h_alpha(u, params).det == eps


def test_unit_maps_reject_a_unit_whose_norm_disagrees_with_its_forms():
    for k, l in ((1, -1), (2, 3)):
        params = family_params(k, l)
        for u in seeded_units(k, l, 10, seed=5):
            bad = CliffordUnit(u.element, u.grade, -u.norm)
            for f in (h_alpha, g_alpha, phi_alpha):
                with pytest.raises(AssertionError, match="norm form"):
                    f(bad, params)


def test_phi_alpha_properties():
    for k, l in FAMILIES:
        params = family_params(k, l)
        ident = CliffordUnit.from_element(EvenCliffordElement(1, 0, 0, 0), params)
        assert phi_alpha(ident, params).matrix == la.identity(3)
        for u in seeded_units(k, l, 25, seed=3):
            ph = phi_alpha(u, params)
            assert ph.det == u.norm
            if l < 0:
                assert ph.preserves_cone


def test_homomorphism_h_and_phi(rng):
    params = family_params(1, -1)
    units = seeded_units(1, -1, 30, seed=9)
    for _ in range(40):
        u1, u2 = rng.choice(units), rng.choice(units)
        u12 = unit_product(u1, u2, params)
        assert h_alpha(u12, params).matrix == \
            la.mat_mul(h_alpha(u1, params).matrix, h_alpha(u2, params).matrix)
        assert phi_alpha(u12, params).matrix == \
            la.mat_mul(phi_alpha(u1, params).matrix, phi_alpha(u2, params).matrix)


def test_clifford_lift_identity():
    params = family_params(2, -2)
    lift, n = clifford_lift(la.identity(3), params)
    assert n == 1 and sign_class(lift.coords) == (1, 0, 0, 0)


def test_clifford_lift_roundtrip():
    for k, l in FAMILIES:
        params = family_params(k, l)
        for u in seeded_units(k, l, 40, seed=13):
            h = h_alpha(u, params)
            lift, n = clifford_lift(h, params)
            assert n in (1, -1)
            assert sign_class(lift.coords) == sign_class(u.element.coords)


def test_clifford_lift_outside_kernel():
    # reflection in the <-6> generator of U + <-6>: lift is that generator,
    # N = -3, and the isometry is outside the kernel
    lat = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, -6)))
    params = GramParams.from_gram(lat.gram)
    refl = la.mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert not in_discriminant_kernel(refl, lat)
    lift, n = clifford_lift(refl, params)
    assert abs(n) != 1
    assert n == -3
    assert lift.coords == (0, 0, 0, 1)


def test_clifford_lift_rejects_non_isometry():
    params = family_params(2, -2)
    with pytest.raises(ValueError):
        clifford_lift(la.mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), params)
    # a swap is an isometry of <2> + <2> + <-2>, not of U(2) + <-4>
    swap = Isometry3(((0, 1, 0), (1, 0, 0), (0, 0, 1)),
                     Lattice(((2, 0, 0), (0, 2, 0), (0, 0, -2))))
    with pytest.raises(ValueError, match="not an isometry of L"):
        clifford_lift(swap, GramParams(0, -2, 0, 0, 2, 0))


def test_thm3_both_directions_on_scan():
    # every kernel isometry lifts to a unit; every non-kernel one does not
    for gram in (((0, 1, 0), (1, 0, 0), (0, 0, -6)),
                 ((0, 0, 2), (0, -4, 0), (2, 0, 0))):
        lat = Lattice(gram)
        params = GramParams.from_gram(gram)
        isos = isometry_scan(lat, 2)
        assert isos
        for g in isos:
            _, n = clifford_lift(g.matrix, params)
            assert (abs(n) == 1) == g.in_kernel


def test_thm3_dichotomy_on_random_lattices(rng):
    tested = 0
    while tested < 12:
        vals = [rng.randint(-3, 3) for _ in range(6)]
        try:
            p = GramParams(*vals)
        except ValueError:
            continue
        if p.disc == 0 or abs(p.disc) > 64:
            continue
        isos = isometry_scan(Lattice(p.gram), 2)
        if len(isos) < 2:
            continue
        tested += 1
        for g in isos:
            _, n = clifford_lift(g.matrix, p)
            assert (abs(n) == 1) == g.in_kernel


def test_spinor_norm():
    params = family_params(1, -3)
    assert spinor_norm(la.identity(3), params) == 1
    # theta(g_alpha) = Nr(alpha) mod squares for even units
    for m in unit_search_even(1, -3, 4)[:15]:
        u = family_unit(m, 1, -3)
        g = la.mat_scale(u.norm, phi_alpha(u, params).matrix)   # g_alpha
        assert spinor_norm(g, params) == la.squarefree_part(u.norm)
    # reflection with r^2 = -3: class of -3
    lat = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, -6)))
    params6 = GramParams.from_gram(lat.gram)
    refl = la.mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert spinor_norm(refl, params6) == -3


def test_spinor_norm_multiplicative(rng):
    lat = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, -6)))
    params = GramParams.from_gram(lat.gram)
    isos = isometry_scan(lat, 2)
    for _ in range(40):
        g1, g2 = rng.choice(isos), rng.choice(isos)
        t1 = spinor_norm(g1.matrix, params)
        t2 = spinor_norm(g2.matrix, params)
        t12 = spinor_norm(la.mat_mul(g1.matrix, g2.matrix), params)
        assert t12 == la.squarefree_part(t1 * t2)


def test_p_alpha_matrix():
    assert p_alpha_matrix(((1, 0), (0, 1)), 2, -2).matrix == la.identity(3)
    for k, l in FAMILIES:
        m = ((1, 0), (k, 1))
        assert p_alpha_matrix(m, k, l).matrix == \
            la.mat([[1, 0, 0], [k, 1, 0], [-l * k, -2 * l, 1]])
        lat = family_lattice(k, l)
        for mm in unit_search_even(k, l, 6)[:20]:
            p = p_alpha_matrix(mm, k, l)
            assert la.mat_mul(la.mat_mul(la.transpose(p.matrix), lat.gram),
                              p.matrix) == lat.gram
    with pytest.raises(ValueError):
        p_alpha_matrix(((1, 1), (0, 1)), 2, -2)     # b not divisible by l
    with pytest.raises(ValueError):
        p_alpha_matrix(((2, -2), (2, 2)), 2, -2)    # det 8
    for k, l in ((0, -2), (2, 0)):
        for f in (p_alpha_matrix, family_unit):
            with pytest.raises(ValueError, match="k and l must be nonzero"):
                f(((1, 0), (0, 1)), k, l)


def test_p_alpha_equals_phi_alpha_after_basis_bookkeeping():
    # the printed basis ((k/2) te1, -l te2, (k/2) te3) is (E3 E, -E2 E, E1 E)
    for k, l in FAMILIES:
        params = family_params(k, l)
        for m in unit_search_even(k, l, 6)[:20]:
            ph = phi_alpha(family_unit(m, k, l), params)
            pal = p_alpha_matrix(m, k, l)
            assert la.mat_mul(la.mat_mul(BASIS_SWAP, ph.matrix), BASIS_SWAP) \
                == pal.matrix


def test_v_set_search():
    for n in range(2, 11):
        assert v_set_search(n, -n, 50) == ()
    vs = v_set_search(1, -1, 2)
    assert vs
    assert any(v.coords == (0, 1, 0, 1) for v in vs)    # (x1,x2,x3,x4) = (1,0,1,0)
    for v in vs:
        x4, x1, x2, x3 = v.coords
        assert 1 * x1 * x3 + (-1) * x2 * (x2 - 1 * x4) in (1, -1)
    assert v_set_search(5, 1, 3)                        # -1 = 2^2 mod 5
    assert v_set_search(1, -1, 0) == ()


def test_searches_match_box_scans():
    ks = [v for v in range(-7, 8) if v] + [12, -30, 65003]
    for k in ks:
        for l in ks:
            for bound in range(10):
                assert unit_search_even(k, l, bound) == unit_search_scan(k, l, bound), \
                    (k, l, bound)
                assert v_set_search(k, l, bound) == v_set_scan(k, l, bound), \
                    (k, l, bound)


@pytest.mark.parametrize("search", [unit_search_even, v_set_search])
def test_searches_reject_degenerate_input(search):
    for k, l in ((0, 1), (1, 0), (0, 0)):
        with pytest.raises(ValueError, match="k and l must be nonzero"):
            search(k, l, 3)
    with pytest.raises(ValueError, match="bound must be >= 0"):
        search(1, -1, -1)


def test_unit_maps_refuse_a_degenerate_tuple_as_bad_input():
    # ValueError, as clifford_lift raises, not the AssertionError of a failed
    # invariant (which the CLI reports as "invariant failed", exit 3)
    p = GramParams(1, 1, 1, 2, 2, 2)     # Gram matrix of rank 1
    u = CliffordUnit(EvenCliffordElement(1, 0, 0, 0), "even", 1)
    for call in (lambda: h_alpha(u, p), lambda: phi_alpha(u, p), lambda: g_alpha(u, p),
                 lambda: clifford_lift(la.identity(3), p)):
        with pytest.raises(ValueError, match="^lattice must be non-degenerate$"):
            call()
