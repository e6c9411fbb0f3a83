from fractions import Fraction
from itertools import product

import pytest

from oracles import (cone_test_by_two_diagonalizations,
                     form_orthogonal_group_bijective,
                     generator_lifts_by_inverse, induced_action_trivial,
                     is_isometry_by_products, isometry_scan, signature_of)
from picard3 import lattice as lattice_module
from picard3 import linalg as la
from picard3.clifford import GramParams
from picard3.isometries import Isometry3, h_alpha, phi_alpha, seeded_units
from picard3.lattice import (Lattice, _positive_vector, disc, discriminant_form,
                             discriminant_group, family_lattice,
                             form_orthogonal_group, in_discriminant_kernel,
                             is_isometry, m_n_lattice, preserves_positive_cone,
                             represents, signature)
from picard3.verify import FAMILIES

WEHLER = Lattice(((0, 2, 2), (2, 0, 2), (2, 2, 0)))
U = Lattice(((0, 1), (1, 0)))


def test_construction_rejects_bad_lattices():
    with pytest.raises(ValueError, match="must be square"):
        Lattice(((2, 1, 0), (1, 2, 0)))
    with pytest.raises(ValueError):
        Lattice(((1, 0), (0, 2)))        # odd diagonal
    with pytest.raises(ValueError):
        Lattice(((2, 1), (2, 2)))        # not symmetric
    with pytest.raises(ValueError):
        Lattice(((2, 2), (2, 2)))        # degenerate
    with pytest.raises(ValueError):
        family_lattice(0, 1)


def test_gram_entries_must_be_ints():
    for gram in (((False, True), (True, False)),
                 ((Fraction(2), 0), (0, Fraction(2)))):
        with pytest.raises(TypeError, match="int arguments required"):
            Lattice(gram)


def test_disc():
    assert disc(Lattice(((4,),))) == 4
    assert disc(WEHLER) == 16
    for k, l in [(1, 1), (2, -2), (3, 5), (5, -7)]:
        assert disc(family_lattice(k, l)) == -2 * k * k * l


def test_signature():
    assert signature(Lattice(((2, 0), (0, -2)))) == (1, 1)
    assert signature(family_lattice(2, -2)) == (1, 2)
    assert signature(Lattice(((6, 0, 0), (0, -10, 0), (0, 0, -18)))) == (1, 2)


def test_discriminant_group_invariant_factors():
    assert discriminant_group(U).invariant_factors == ()
    assert discriminant_group(WEHLER).invariant_factors == (2, 2, 4)
    for n in range(2, 7):
        assert discriminant_group(m_n_lattice(n)).invariant_factors == (n, n, 2 * n)


def test_generator_lift_orders():
    for n in (2, 3, 5):
        dg = discriminant_group(m_n_lattice(n))
        for d, lift in zip(dg.invariant_factors, dg.generator_lifts):
            for mult in range(1, d + 1):
                integral = all(Fraction(mult * x).denominator == 1 for x in lift)
                assert integral == (mult == d)


def _random_even_lattice(rng, n):
    while True:
        b = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(n)]
        try:
            return Lattice(tuple(tuple(b[i][j] + b[j][i] for j in range(n))
                                 for i in range(n)))
        except ValueError:
            continue


def test_generator_lifts_match_the_inverse_formula(rng):
    """Lifts read off the Smith column transform equal Q^{-1} U^{-1}, entry
    for entry and as Fractions, and so give the same discriminant form."""
    lats = [U, WEHLER, Lattice(((2,),)), Lattice(((-10,),))]
    lats += [m_n_lattice(n) for n in range(2, 7)]
    lats += [family_lattice(k, l) for k, l in ((1, -1), (2, 3), (5, -7), (12, -30))]
    lats += [_random_even_lattice(rng, n) for n in (1, 2, 3, 4) for _ in range(60)]
    for lat in lats:
        group = discriminant_group(lat)
        assert group.generator_lifts == generator_lifts_by_inverse(lat), lat
        assert all(type(x) is Fraction for lift in group.generator_lifts
                   for x in lift)
        values = tuple(tuple(lat.pairing(a, b) for b in group.generator_lifts)
                       for a in group.generator_lifts)
        form = discriminant_form(lat)
        for i, row in enumerate(values):
            for j, v in enumerate(row):
                assert form.values[i][j] == v % (2 if i == j else 1)


def test_q_and_b_are_the_pairing_of_the_lifted_vectors(rng):
    """q(c) and b(c1, c2) equal <x, x> mod 2Z and <x, y> mod Z for the lifts
    x = sum_i c_i g_i, y of the exponent tuples (exponents outside 0..d_i-1
    included)."""
    lats = [U, WEHLER, m_n_lattice(3), family_lattice(5, -7)]
    lats += [_random_even_lattice(rng, n) for n in (1, 2, 3, 4) for _ in range(25)]
    for lat in lats:
        form = discriminant_form(lat)
        factors, lifts = form.group.invariant_factors, form.group.generator_lifts

        def lift(c):
            return tuple(sum((ci * g[r] for ci, g in zip(c, lifts)), Fraction(0))
                         for r in range(lat.rank))

        for _ in range(10):
            c1, c2 = (tuple(rng.randrange(-d, 2 * d) for d in factors)
                      for _ in range(2))
            x, y = lift(c1), lift(c2)
            assert form.q_of(c1) == lat.pairing(x, x) % 2, (lat, c1)
            assert form.bilinear(c1, c2) == lat.pairing(x, y) % 1, (lat, c1, c2)
            assert type(form.q_of(c1)) is type(form.bilinear(c1, c2)) is Fraction


def test_group_order_equals_disc(rng):
    for _ in range(40):
        lat = _random_even_lattice(rng, rng.randint(1, 3))
        assert discriminant_group(lat).order == abs(disc(lat))


def test_discriminant_form_values():
    assert discriminant_form(U).values == ()
    f = discriminant_form(Lattice(((2,),)))
    assert f.group.invariant_factors == (2,)
    assert f.values[0][0] == Fraction(1, 2)
    for n in (1, 2, 3, 5):
        f = discriminant_form(Lattice(((-2 * n,),)))
        assert f.group.invariant_factors == (2 * n,)
        assert f.values[0][0] == (-Fraction(1, 2 * n)) % 2


def test_form_orthogonal_group_trivial():
    # the trivial group has exactly one automorphism, the empty 0 x 0 matrix
    assert form_orthogonal_group(discriminant_form(U)) == ((),)


@pytest.mark.parametrize("l,order", [(-2, 2), (-3, 2), (-5, 2), (-6, 4), (-10, 4)])
def test_form_orthogonal_group_u_plus_2l(l, order):
    lat = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, 2 * l)))
    assert len(form_orthogonal_group(discriminant_form(lat))) == order


def test_form_orthogonal_group_wehler_exhaustive():
    # U(2) + <-4>: enumerated order, frozen
    assert len(form_orthogonal_group(discriminant_form(WEHLER))) == 12


def test_form_orthogonal_group_cap():
    form = discriminant_form(m_n_lattice(8))
    assert form.group.order == 1024
    with pytest.raises(ValueError, match="exceeds cap 1000"):
        form_orthogonal_group(form)


def test_automorphisms_preserve_form(rng):
    done = 0
    while done < 25:
        n = rng.randint(1, 3)
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        q = tuple(tuple(b[i][j] + b[j][i] for j in range(n)) for i in range(n))
        try:
            lat = Lattice(q)
        except ValueError:
            continue
        if abs(disc(lat)) > 60:
            continue
        done += 1
        form = discriminant_form(lat)
        m = len(form.group.invariant_factors)
        gens = [tuple(int(i == j) for j in range(m)) for i in range(m)]
        for aut in form_orthogonal_group(form):
            cols = [tuple(aut[r][i] for r in range(m)) for i in range(m)]
            for i in range(m):
                assert form.q_of(cols[i]) == form.q_of(gens[i])
                for j in range(m):
                    assert form.bilinear(cols[i], cols[j]) == form.bilinear(gens[i], gens[j])


def test_form_orthogonal_group_matches_bijectivity_checked_search():
    lats = [WEHLER] + [family_lattice(k, l) for k in range(-6, 7)
                       for l in range(-6, 7) if k and l]
    compared = 0
    for lat in lats:
        form = discriminant_form(lat)
        if form.group.order <= 32:
            assert form_orthogonal_group(form) == form_orthogonal_group_bijective(form)
            compared += 1
    assert compared == 49


def test_in_discriminant_kernel():
    i3 = la.identity(3)
    assert in_discriminant_kernel(i3, WEHLER)
    neg = tuple(tuple(-x for x in row) for row in i3)
    # A(U(2)+<-4>) = Z/2+Z/2+Z/4 is not 2-elementary: -I acts as -id != id
    assert not in_discriminant_kernel(neg, family_lattice(2, -2))
    # on a 2-elementary group -I is trivial
    lat = family_lattice(2, -1)
    assert discriminant_group(lat).invariant_factors == (2, 2, 2)
    assert in_discriminant_kernel(neg, lat)
    # an Isometry3 of another lattice is checked on the lattice given
    assert not in_discriminant_kernel(Isometry3(neg, lat), family_lattice(2, -2))
    with pytest.raises(ValueError):
        in_discriminant_kernel(((1, 1, 0), (0, 1, 0), (0, 0, 1)), WEHLER)


def test_kernel_matches_induced_action(rng):
    from oracles import isometry_scan
    for lat in (family_lattice(1, -3), family_lattice(2, -2)):
        for g in isometry_scan(lat, 1):
            assert in_discriminant_kernel(g.matrix, lat) == \
                induced_action_trivial(g.matrix, lat)
    # kernel elements produced by the unit machinery are seen as trivial
    from picard3.clifford import GramParams
    from picard3.isometries import h_alpha, seeded_units
    for k, l in ((2, -2), (3, -3)):
        lat = family_lattice(k, l)
        params = GramParams.from_gram(lat.gram)
        for u in seeded_units(k, l, 15, seed=1):
            h = h_alpha(u, params)
            assert in_discriminant_kernel(h, lat) == h.in_kernel
            assert in_discriminant_kernel(h.matrix, lat)
            assert induced_action_trivial(h.matrix, lat)


def test_power_lemma(rng):
    # if Q/s is integral and g is in the kernel, g^s is in the kernel of L(s)
    from picard3.clifford import GramParams
    from picard3.isometries import h_alpha, seeded_units
    for s in (2, 3):
        k, l = s, -s
        lat = family_lattice(k, l)
        assert all(x % s == 0 for row in lat.gram for x in row)
        scaled = Lattice(tuple(tuple(x * s for x in row) for row in lat.gram))
        params = GramParams.from_gram(lat.gram)
        for u in seeded_units(k, l, 10, seed=5):
            g = h_alpha(u, params).matrix
            assert in_discriminant_kernel(g, lat)
            gs = g
            for _ in range(s - 1):
                gs = la.mat_mul(gs, g)
            assert in_discriminant_kernel(gs, scaled)


def test_positive_cone():
    lat = family_lattice(2, -2)
    i3 = la.identity(3)
    neg = tuple(tuple(-x for x in row) for row in i3)
    assert preserves_positive_cone(i3, lat)
    assert not preserves_positive_cone(neg, lat)
    # signature (n, 1) is handled by negating the form
    assert preserves_positive_cone(la.identity(3),
                                   Lattice(((2, 0, 0), (0, 2, 0), (0, 0, -2))))
    with pytest.raises(ValueError):
        preserves_positive_cone(la.identity(3),
                                Lattice(((2, 0, 0), (0, 2, 0), (0, 0, 2))))
    # the signature is checked before the isometry
    with pytest.raises(ValueError, match="unsupported for signature"):
        preserves_positive_cone(la.mat_scale(2, la.identity(3)),
                                Lattice(((2, 0, 0), (0, 2, 0), (0, 0, 2))))
    with pytest.raises(ValueError, match="not an isometry"):
        preserves_positive_cone(la.mat_scale(2, la.identity(3)), lat)
    # an isometry of another lattice is checked against lat
    swap = Isometry3(((0, 1, 0), (1, 0, 0), (0, 0, 1)),
                     Lattice(((2, 0, 0), (0, 2, 0), (0, 0, -2))))
    with pytest.raises(ValueError, match="not an isometry"):
        preserves_positive_cone(swap, lat)


def test_cone_test_reads_the_signature_once_per_gram_matrix(monkeypatch):
    lattice_module._cone_vectors.cache_clear()
    calls = {"char_poly": 0, "_positive_vector": 0}

    def counted(name):
        real = getattr(lattice_module, name)

        def wrapper(a):
            calls[name] += 1
            return real(a)
        monkeypatch.setattr(lattice_module, name, wrapper)

    counted("char_poly")
    counted("_positive_vector")
    i3 = la.identity(3)
    neg = la.mat_scale(-1, i3)
    for lat in (family_lattice(2, -6), family_lattice(2, -6)):   # equal, not one
        assert [preserves_positive_cone(g, lat) for g in (i3, neg, i3, neg, i3)] \
            == [True, False, True, False, True]
    assert calls == {"char_poly": 1, "_positive_vector": 1}
    assert signature(lat) == (1, 2) and calls["char_poly"] == 2


def test_cone_test_matches_two_diagonalizations():
    # l < 0 gives signature (1, 2); the family with l > 0, signature (2, 1)
    assert any(l > 0 for _, l in FAMILIES)
    for k, l in FAMILIES:
        params = GramParams(0, l, 0, 0, k, 0)
        lat = family_lattice(k, l)
        for u in seeded_units(k, l, 40, 21):
            g = phi_alpha(u, params).matrix
            for m in (g, tuple(tuple(-x for x in row) for row in g)):
                assert preserves_positive_cone(m, lat) == \
                    cone_test_by_two_diagonalizations(m, lat), (k, l, m)


def test_cone_action_is_homomorphism(rng):
    lat = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, -6)))
    isos = isometry_scan(lat, 2)
    for _ in range(60):
        g1, g2 = rng.choice(isos), rng.choice(isos)
        both = preserves_positive_cone(la.mat_mul(g1.matrix, g2.matrix), lat)
        assert both == (g1.preserves_cone == g2.preserves_cone)


def random_even_gram(rng, n, bound=4):
    """A random even symmetric integer n x n matrix of nonzero determinant."""
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-bound // 2, bound // 2)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-bound, bound)
        if la.det(g) != 0:
            return la.mat(g)


def negated(m):
    return tuple(tuple(-x for x in row) for row in m)


def test_signature_matches_diagonalization(rng):
    for n in (1, 2, 3, 4):
        for _ in range(300):
            g = random_even_gram(rng, n)
            assert signature(Lattice(g)) == signature_of(g), g


# One signature-(1, 2) Gram matrix per case of _positive_vector, with its
# vector; Lattice(r) and Lattice(-r) both give eps Q = r.
POSITIVE_VECTOR_CASES = (
    (((2, 1, 0), (1, -2, 0), (0, 0, -2)), (1, 0, 0)),         # r_00 > 0
    (((-2, 3, 0), (3, -2, 0), (0, 0, -2)), (-2, -3, 0)),      # negative minor
    (family_lattice(2, -2).gram, (2, 0, 1)),                  # r_00 = 0
    (((0, 1, 0), (1, 0, 0), (0, 0, -2)), (1, 1, 0)),          # U + <-2>
    (((-2, 2, 2), (2, -2, 2), (2, 2, -2)), (48, 48, 1)),      # zero minors
    (((-6, 4, 4), (4, -6, 4), (4, 4, -6)), (20, 40, 40)),     # adj(r) column
)


def test_positive_vector_cases():
    for r, v in POSITIVE_VECTOR_CASES:
        assert signature_of(r) == (1, 2)
        assert _positive_vector(r) == v
        assert la.vec_dot(v, la.mat_vec(r, v)) > 0
        for lat in (Lattice(r), Lattice(negated(r))):
            for g in isometry_scan(lat, 1):
                assert preserves_positive_cone(g, lat) == \
                    cone_test_by_two_diagonalizations(g.matrix, lat), (r, g)


def shifted_by_one(m):
    """The 18 matrices that differ from m by +-1 in one entry."""
    for i, j, d in product(range(3), range(3), (1, -1)):
        out = [list(row) for row in m]
        out[i][j] += d
        yield la.mat(out)


def test_isometry_check_matches_the_generic_products():
    # scanned isometries, and each with one entry moved by +-1
    seen = set()
    for r, _ in POSITIVE_VECTOR_CASES:
        for lat in (Lattice(r), Lattice(negated(r))):
            for g in isometry_scan(lat, 1):
                for m in (g.matrix, *shifted_by_one(g.matrix)):
                    seen.add(is_isometry(m, lat))
                    assert is_isometry(m, lat) == is_isometry_by_products(m, lat), (r, m)
    assert seen == {True, False}
    # an h_alpha matrix with one entry moved by +-1 is none
    for k, l in ((1, -1), (2, 3), (5, -7)):
        params, lat = GramParams(0, l, 0, 0, k, 0), family_lattice(k, l)
        for u in seeded_units(k, l, 4, 17):
            h = h_alpha(u, params).matrix
            assert is_isometry(h, lat) and is_isometry_by_products(h, lat)
            for m in shifted_by_one(h):
                assert not is_isometry(m, lat) and not is_isometry_by_products(m, lat)
    # Isometry3 is rank 3 only: other shapes and ranks raise the one message,
    # also where the generic products accept the matrix
    lat3, lat2 = family_lattice(2, -2), U
    assert is_isometry_by_products(la.identity(2), lat2)
    for g, lat in ((la.identity(2), lat3), (((1, 0, 0), (0, 1, 0)), lat3),
                   (((1, 0, 0), (0, 1), (0, 0, 1)), lat3),
                   (la.identity(2), lat2), (la.identity(3), lat2)):
        assert not is_isometry(g, lat)
        with pytest.raises(ValueError, match="^g is not an isometry of L$"):
            Isometry3(g, lat)


def test_cone_test_matches_the_oracle_on_random_lattices(rng):
    i3 = la.identity(3)
    for sig in ((1, 2), (2, 1)):
        count = 0
        while count < 300:
            g = random_even_gram(rng, 3)
            if signature_of(g) != sig:
                continue
            count += 1
            lat, r = Lattice(g), g if sig == (1, 2) else negated(g)
            v = _positive_vector(r)
            assert la.vec_dot(v, la.mat_vec(r, v)) > 0, g
            for m in (i3, negated(i3)):
                assert preserves_positive_cone(m, lat) == \
                    cone_test_by_two_diagonalizations(m, lat) == (m == i3), g


def test_cone_test_refuses_rank_4():
    # every rank but 3 is refused before a positive vector is looked for
    lat = Lattice(((2, 0, 0, 0), (0, -2, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2)))
    with pytest.raises(ValueError, match="rank"):
        preserves_positive_cone(la.identity(4), lat)
    with pytest.raises(ValueError, match="^cone test unsupported for rank 2$"):
        preserves_positive_cone(la.identity(2), U)


def test_represents():
    assert represents(1, 7, 1) and represents(1, 7, -1)
    for n in range(2, 11):
        assert not represents(n, -n, 1)
        assert not represents(n, -n, -1)
    assert represents(5, 1, -1)          # -1 = 2^2 mod 5
    assert not represents(5, -7, 1) and not represents(5, -7, -1)
    with pytest.raises(ValueError):
        represents(0, 1, 1)
    with pytest.raises(ValueError):
        represents(2, 3, 2)
