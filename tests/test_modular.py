import math
from fractions import Fraction

import pytest

from oracles import (element_order, is_torsion, negative_pell_two_stage,
                     order_psl2_zn)
from picard3.isometries import p_alpha_matrix
from picard3.modular import (ModularElement, SubgroupSpec, delta_n, free_rank,
                             g_n_class_witness, index_gamma_n, index_pi_g_n,
                             member, negative_pell, prime_power_generator,
                             qr_minus_one, torsion_search)
from picard3.report import salem_poly


def test_modular_element_normalization():
    assert ModularElement(-1, 0, 0, -1) == ModularElement(1, 0, 0, 1)
    assert ModularElement(0, -1, 1, 0) == ModularElement(0, 1, -1, 0)
    with pytest.raises(ValueError):
        ModularElement(1, 0, 0, 2)
    m = ModularElement(2, 1, 1, 1)
    assert (m * m.inverse()) == ModularElement(1, 0, 0, 1)


def test_member_identity_everywhere():
    i = ModularElement(1, 0, 0, 1)
    for spec in (SubgroupSpec("Pi_n", n=5), SubgroupSpec("Gamma_n", n=7),
                 SubgroupSpec("G_n", n=9), SubgroupSpec("B_kl_units", k=3, l=5),
                 SubgroupSpec("Gamma0_k", k=4)):
        assert member(i, spec)


def test_subgroup_spec_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        SubgroupSpec("Gamma0_plus_l", l=2)


def test_subgroup_spec_rejects_zero_parameters():
    for kind, params in (("Pi_n", {}), ("Gamma_n", {"k": 3}), ("G_n", {"l": 3}),
                         ("B_kl_units", {"k": 3}), ("B_kl_units", {"l": 3}),
                         ("Gamma0_k", {"l": 3})):
        with pytest.raises(ValueError, match=f"parameters of {kind} must be nonzero"):
            SubgroupSpec(kind, **params)


def test_modular_element_entries_must_be_integers():
    # a rational matrix of det 1 is not in GL2(Z), so it gets no Salem
    # verdict; bool is a subclass of int, but True is no matrix entry
    for bad in ((Fraction(1, 2), 0, 0, 2), (1.0, 0, 0, 1), (Fraction(1), 0, 0, 1),
                (True, 0, 0, 1)):
        with pytest.raises(TypeError, match="int arguments required"):
            ModularElement(*bad)
    for m in ([[Fraction(1, 2), 0], [0, 2]], [[True, 0], [0, True]]):
        with pytest.raises(TypeError, match="int arguments required"):
            salem_poly(m)
    with pytest.raises(TypeError, match="int arguments required"):
        member(((1, Fraction(3, 2)), (0, 1)), SubgroupSpec("G_n", n=3))


def test_subgroup_spec_refuses_unread_or_non_integer_parameters():
    for kind, params, unread in (("G_n", {"n": 3, "k": 5}, "k"),
                                 ("Pi_n", {"n": 3, "k": 1, "l": 2}, "k, l"),
                                 ("Gamma_n", {"n": 4, "l": -1}, "l"),
                                 ("B_kl_units", {"n": 2, "k": 2, "l": 3}, "n"),
                                 ("Gamma0_k", {"k": 3, "n": 3}, "n")):
        with pytest.raises(ValueError, match=f"^{kind} does not read {unread}$"):
            SubgroupSpec(kind, **params)
    # with n = 5/2 an entry b = 5 would pass as a multiple of the modulus
    for kind, params in (("G_n", {"n": Fraction(5, 2)}), ("Pi_n", {"n": 3.0}),
                         ("B_kl_units", {"k": 2, "l": Fraction(3)}),
                         ("G_n", {"n": True})):   # bool is an int subclass
        with pytest.raises(TypeError, match="int arguments required"):
            SubgroupSpec(kind, **params)


def test_subgroup_specs_of_one_group_compare_equal():
    pairs = ((SubgroupSpec("G_n", n=-3), SubgroupSpec("G_n", n=3)),
             (SubgroupSpec("Pi_n", n=-5), SubgroupSpec("Pi_n", n=5)),
             (SubgroupSpec("B_kl_units", k=-2, l=-3), SubgroupSpec("B_kl_units", k=2, l=3)),
             (SubgroupSpec("Gamma0_k", k=-4), SubgroupSpec("Gamma0_k", k=4)))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y) and x.moduli == y.moduli
        assert (x.n, x.k, x.l) == (y.n, y.k, y.l) and min(x.n, x.k, x.l) >= 0
    assert len({x for pair in pairs for x in pair}) == len(pairs)
    assert SubgroupSpec("G_n", n=3) != SubgroupSpec("Pi_n", n=3)


def test_member_examples():
    d = ModularElement(1, 0, 0, -1)
    assert member(d, SubgroupSpec("Pi_n", n=2))
    assert not member(d, SubgroupSpec("Gamma_n", n=2))
    for e in (3, 4):
        g = prime_power_generator(2 ** e)
        assert member(g, SubgroupSpec("G_n", n=2 ** e))
        assert not member(g, SubgroupSpec("Gamma_n", n=2 ** e))


@pytest.mark.parametrize("m", [((1, 0, 5), (0, 1, 7), (9, 9, 9)),
                               ((1, 2, 7), (2, 5, 8))])
def test_matrix_inputs_must_be_2x2(m):
    # each top-left 2x2 block has det 1, so reading only that block accepted m
    with pytest.raises(ValueError, match="a 2x2 matrix is required"):
        member(m, SubgroupSpec("G_n", n=3))
    with pytest.raises(ValueError, match="a 2x2 matrix is required"):
        salem_poly(m)
    with pytest.raises(ValueError, match="a 2x2 matrix is required"):
        p_alpha_matrix(m, 1, -1)


def test_member_closure_under_product_and_inverse(rng):
    specs = [SubgroupSpec("Pi_n", n=3), SubgroupSpec("Gamma_n", n=4),
             SubgroupSpec("G_n", n=5), SubgroupSpec("B_kl_units", k=2, l=3),
             SubgroupSpec("Gamma0_k", k=3)]
    for spec in specs:
        members = []
        for a in range(-8, 9):
            for b in range(-8, 9):
                for c in range(-8, 9):
                    num_d = {1 + b * c, -1 + b * c}
                    for nd in num_d:
                        if a != 0 and nd % a == 0 and abs(nd // a) <= 8:
                            try:
                                el = ModularElement(a, b, c, nd // a)
                            except ValueError:
                                continue
                            if member(el, spec):
                                members.append(el)
        assert len(members) > 3, spec
        for _ in range(1000):
            x, y = rng.choice(members), rng.choice(members)
            assert member(x * y, spec)
            assert member(x.inverse(), spec)


def test_index_formula_vs_exhaustive_count():
    assert index_gamma_n(1) == 1
    assert index_gamma_n(2) == 6 == order_psl2_zn(2)
    for n in range(3, 13):
        assert index_gamma_n(n) == order_psl2_zn(n)
    assert index_gamma_n(4) == 24
    assert index_gamma_n(5) == 60


def test_delta_n():
    assert delta_n(1) == 1 and delta_n(2) == 1
    assert delta_n(3) == 1
    assert delta_n(4) == 1
    assert delta_n(5) == 2
    assert delta_n(8) == 2
    # brute re-scan
    for n in range(3, 21):
        sols = {a for a in range(1, n) if math.gcd(a, n) == 1
                and pow(a, 2, n) in (1 % n, n - 1)}
        assert delta_n(n) == len({frozenset((a, n - a)) for a in sols})


def test_index_pi_g_n():
    assert index_pi_g_n(1) == 1
    assert index_pi_g_n(2) == 6
    assert index_pi_g_n(4) == 48
    assert index_pi_g_n(8) == 192
    # n = 4 adjudication: G_4 = Gamma(4) so the indices in Pi agree
    assert index_pi_g_n(4) == 2 * index_gamma_n(4)


def test_g_n_quotient_classes_match_delta():
    for n in range(3, 13):
        classes = set()
        for lam in range(1, n):
            if math.gcd(lam, n) != 1:
                continue
            for eps in (1, -1):
                if (lam * lam - eps) % n == 0:
                    w = g_n_class_witness(n, lam, eps)
                    assert member(w, SubgroupSpec("G_n", n=n))
                    assert w.det == eps
                    classes.add(frozenset((lam % n, (-lam) % n)))
        assert len(classes) == delta_n(n)
    with pytest.raises(ValueError, match=r"^lam\^2 != eps mod n$"):
        g_n_class_witness(5, 2, 1)   # 2^2 = -1, not +1, mod 5


def test_g_n_class_witness_refuses_n_zero_and_takes_negative_n():
    # (0, 1, 1) raised ZeroDivisionError; G_{-n} = G_n
    with pytest.raises(ValueError, match="^n must be nonzero$"):
        g_n_class_witness(0, 1, 1)
    for n, lam, eps in ((-5, 2, -1), (-8, 3, 1), (-2, 1, 1)):
        w = g_n_class_witness(n, lam, eps)
        assert w.det == eps and member(w, SubgroupSpec("G_n", n=-n))


def test_is_torsion_examples():
    assert is_torsion(ModularElement(0, 1, -1, 0)) == (True, 2)
    m = ModularElement(1, 2, -1, -1)        # det 1, trace 0
    assert is_torsion(m) == (True, 2)
    assert element_order(m) == 2
    assert is_torsion(ModularElement(1, 1, 0, 1)) == (False, None)
    assert is_torsion(ModularElement(1, 1, -1, 0)) == (True, 3)
    assert is_torsion(ModularElement(1, 0, 0, -1)) == (True, 2)


def test_is_torsion_matches_power_oracle(rng):
    done = 0
    while done < 300:
        a, b, c, d = (rng.randint(-8, 8) for _ in range(4))
        if a * d - b * c not in (1, -1):
            continue
        el = ModularElement(a, b, c, d)
        done += 1
        finite, order = is_torsion(el)
        oracle = element_order(el, cap=20)
        assert finite == (oracle is not None)
        if finite:
            assert order == oracle


def test_torsion_search():
    found = torsion_search(SubgroupSpec("G_n", n=2), 2)
    assert ModularElement(1, 0, 0, -1) in found
    assert torsion_search(SubgroupSpec("Gamma_n", n=2), 10) == ()
    for n in range(3, 13):
        assert torsion_search(SubgroupSpec("G_n", n=n), 50) == ()


def test_free_rank():
    assert free_rank(192) == 17
    assert free_rank(12) == 2
    assert free_rank(48) == 5
    for bad in (10, 0, -12):
        with pytest.raises(ValueError):
            free_rank(bad)


def test_n_below_1_is_refused():
    for f in (index_gamma_n, delta_n, qr_minus_one):
        with pytest.raises(ValueError, match="^n must be positive$"):
            f(0)


# A bool passes arithmetic as 0 or 1, and a float gives a float out of an
# exact API (index_pi_g_n(2.0) was 6.0): each number-theory export refuses
# both with TypeError.
NON_INTS = (True, 2.0, Fraction(5))


def test_delta_n_refuses_non_ints():
    for bad in NON_INTS + (5.0,):
        with pytest.raises(TypeError):
            delta_n(bad)


def test_index_pi_g_n_refuses_non_ints():
    for bad in NON_INTS:
        with pytest.raises(TypeError):
            index_pi_g_n(bad)


def test_index_gamma_n_refuses_non_ints():
    for bad in NON_INTS + (1.0,):
        with pytest.raises(TypeError):
            index_gamma_n(bad)


def test_free_rank_refuses_non_ints():
    for bad in NON_INTS + (12.0, Fraction(24)):
        with pytest.raises(TypeError):
            free_rank(bad)


def test_qr_minus_one_refuses_non_ints():
    for bad in NON_INTS + (4.0,):
        with pytest.raises(TypeError):
            qr_minus_one(bad)


def test_prime_power_generator_refuses_non_ints():
    for bad in NON_INTS:
        with pytest.raises(TypeError):
            prime_power_generator(bad)


def test_torsion_search_refuses_bad_bounds():
    # as unit_search_even does: a negative bound is a ValueError
    spec = SubgroupSpec("G_n", n=2)
    with pytest.raises(ValueError, match="^bound must be >= 0$"):
        torsion_search(spec, -5)
    for bad in NON_INTS:
        with pytest.raises(TypeError):
            torsion_search(spec, bad)
    assert torsion_search(spec, 0) == ()


def test_qr_minus_one():
    assert qr_minus_one(1) and qr_minus_one(2) and qr_minus_one(5)
    assert qr_minus_one(13) and qr_minus_one(25)
    assert not qr_minus_one(3) and not qr_minus_one(4)
    assert not qr_minus_one(8) and not qr_minus_one(12)


def test_negative_pell_examples():
    assert negative_pell(5) == (1, 1)
    assert negative_pell(3) is None
    assert negative_pell(2) == (2, 2)
    assert negative_pell(13) == (3, 1)
    assert negative_pell(8) == (2, 1)
    assert negative_pell(12) is None        # through d/4 = 3
    assert negative_pell(34) is None        # although -1 is a square mod 34
    assert negative_pell(52) == (36, 5)
    assert negative_pell(58) == (198, 26)
    with pytest.raises(ValueError):
        negative_pell(9)
    with pytest.raises(ValueError):
        negative_pell(-5)


def test_negative_pell_against_brute_force():
    for d in range(2, 300):
        if math.isqrt(d) ** 2 == d:
            continue
        sol = negative_pell(d)
        brute = None
        for y in range(1, 300):
            xx = d * y * y - 4
            if xx >= 0 and math.isqrt(xx) ** 2 == xx:
                brute = (math.isqrt(xx), y)
                break
        if sol is not None:
            x, y = sol
            assert x * x - d * y * y == -4
            if brute is not None:
                assert sol == brute          # witness is fundamental
        else:
            assert brute is None


def test_negative_pell_matches_two_stage_solver():
    solvable = 0
    for d in range(2, 10 ** 4):
        if math.isqrt(d) ** 2 == d:
            continue
        sol = negative_pell(d)
        assert sol == negative_pell_two_stage(d), d
        if sol is not None:
            x, y = sol
            assert x * x - d * y * y == -4
            solvable += 1
    assert solvable == 1685


def test_prime_power_generator_table():
    assert prime_power_generator(2) == ModularElement(1, 0, 0, -1)
    assert prime_power_generator(4) is None
    for n in (3, 7, 9, 11, 19, 23, 27, 31, 43, 47, 49):
        assert prime_power_generator(n) is None
    for n in (8, 16, 32):
        g = prime_power_generator(n)
        assert g.det == 1
        assert member(g, SubgroupSpec("G_n", n=n))
        assert not member(g, SubgroupSpec("Gamma_n", n=n))
    for n in (5, 13, 17, 25, 29, 37, 41, 5 ** 3, 13 ** 2, 17 ** 3):
        g = prime_power_generator(n)
        assert g.det == -1
        assert member(g, SubgroupSpec("G_n", n=n))
        assert not member(g, SubgroupSpec("Pi_n", n=n))
    with pytest.raises(ValueError):
        prime_power_generator(6)


def test_prime_power_generator_entries_stay_small():
    g = prime_power_generator(401)
    assert g == ModularElement(8040, 401, 401, 20)
    assert all(len(str(abs(x))) <= 4 for x in (g.a, g.b, g.c, g.d))


def test_b_kl_units_positive_det_when_minus_one_not_qr():
    # k divisible by 4 or by a prime p = 3 mod 4 forces det = +1
    from picard3.isometries import unit_search_even
    for k, l in ((3, -3), (4, -4), (7, 2), (12, -1)):
        assert not qr_minus_one(abs(k))
        for m in unit_search_even(k, l, 8):
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
