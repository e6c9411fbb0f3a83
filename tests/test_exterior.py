from fractions import Fraction

import pytest

from picard3 import exterior as ext
from picard3 import linalg as la
from picard3.clifford import (EvenCliffordElement, GramParams,
                              OddCliffordElement, clifford_mul, element_E, norm)
from picard3.exterior import (GRAM_W, eta_matrix, lambda_minus_matrix,
                              lambda_plus_matrix, mu_matrix,
                              mu_of_unit_conjugation, mu_tilde_matrix,
                              p_bases, pair_w)
from picard3.verify import exterior_suite
from conftest import random_gram_params
from oracles import (compound_by_definition, inverse,
                     iota_inverse_by_definition, mat_mul_reference,
                     wedge_of_even)

WEHLER = GramParams.from_gram(((0, 2, 2), (2, 0, 2), (2, 2, 0)))
ONE = EvenCliffordElement(1, 0, 0, 0)


def iota_matrix(params: GramParams):
    """Matrix of iota: W -> W' = wedge^2 Cl^- in the wedge bases.

    iota(w) is the unique xi with (v, xi) = <v, w>_W for all v, where (,) is
    the wedge-square of the duality pairing C; in coordinates C^{-1} G_W,
    the inverse of the oracle's iota^{-1}, which does not go through the
    library's compound.
    """
    return inverse(iota_inverse_by_definition(params))


def test_w_form_values():
    e01, e02, e23 = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)
    assert pair_w(e01, e23) == 1
    assert pair_w(e01, e02) == 0
    basis = la.identity(6)
    assert la.mat([[pair_w(basis[i], basis[j]) for j in range(6)]
                   for i in range(6)]) == GRAM_W
    w = (1, 2, 3, 4, 5, 6)
    assert pair_w(w, w) == 2 * (1 * 4 + 2 * 5 + 3 * 6)
    assert type(pair_w(w, w)) is int


def test_p_bases_rows_and_certificates(rng):
    pb = p_bases(WEHLER)
    # w1+ = a e01 + u e02 + e23, as an integer 6-tuple
    assert pb.plus[0] == (0, 2, 0, 1, 0, 0)
    # Gram(w+) = the Wehler matrix exactly
    for i in range(3):
        for j in range(3):
            assert pair_w(pb.plus[i], pb.plus[j]) == WEHLER.gram[i][j]
    for _ in range(50):
        p = random_gram_params(rng)
        pb = p_bases(p)   # certificates built in
        for rows in (pb.plus, pb.minus):
            assert len(rows) == 3
            assert all(len(w) == 6 and all(type(x) is int for x in w)
                       for w in rows)
        assert lambda_plus_matrix(p) == la.transpose(pb.plus)
        assert lambda_minus_matrix(p) == la.transpose(pb.minus)


def test_mu_identities(rng):
    assert mu_matrix(ONE, ONE, WEHLER) == la.identity(6)
    for _ in range(20):
        p = random_gram_params(rng)
        lp, lm = lambda_plus_matrix(p), lambda_minus_matrix(p)
        for _ in range(5):
            x = EvenCliffordElement(*(rng.randint(-3, 3) for _ in range(4)))
            nx = norm(x, p)
            assert la.mat_mul(mu_matrix(x, ONE, p), lp) == la.mat_scale(nx, lp)
            assert la.mat_mul(mu_matrix(ONE, x, p), lm) == la.mat_scale(nx, lm)


def test_mu_functoriality_and_scaling(rng):
    for _ in range(15):
        p = random_gram_params(rng)
        xs = [EvenCliffordElement(*(rng.randint(-2, 2) for _ in range(4)))
              for _ in range(4)]
        x1, x2, y1, y2 = xs
        x12 = clifford_mul(x1, x2, p)
        y21 = clifford_mul(y2, y1, p)
        assert mu_matrix(x12, y21, p) == \
            la.mat_mul(mu_matrix(x1, y1, p), mu_matrix(x2, y2, p))
        mm = mu_matrix(x1, y1, p)
        n1, n2 = norm(x1, p), norm(y1, p)
        w1 = tuple(rng.randint(-3, 3) for _ in range(6))
        w2 = tuple(rng.randint(-3, 3) for _ in range(6))
        assert pair_w(la.mat_vec(mm, w1), la.mat_vec(mm, w2)) == \
            n1 * n1 * n2 * n2 * pair_w(w1, w2)


def test_wedge_matches_the_oracle(rng):
    for _ in range(300):
        v, w = ([rng.randint(-10 ** 6, 10 ** 6) for _ in range(4)] for _ in range(2))
        assert ext._wedge(v, w) == wedge_of_even(v, w)
        assert ext._wedge(tuple(v), w) == ext._wedge(v, tuple(w))
    assert ext._wedge((1, 0, 0, 0), (0, 1, 0, 0)) == (1, 0, 0, 0, 0, 0)   # e01
    assert ext._wedge((0, 0, 0, 1), (0, 1, 0, 0)) == (0, 0, 0, 0, 1, 0)   # e31


def random_4x4(rng, fractions=False):
    t = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(4)]
    if fractions:
        t = [[Fraction(x, rng.randint(1, 7)) for x in row] for row in t]
    return t


def test_compound_matches_the_definition(rng):
    for _ in range(200):
        for t in (random_4x4(rng), random_4x4(rng, fractions=True)):
            want = compound_by_definition(t)
            for m in (t, la.mat(t)):
                got = ext._compound_matrix(m)
                assert got == want
                assert type(got) is tuple and all(type(row) is tuple for row in got)
                assert [type(x) for row in got for x in row] \
                    == [type(x) for row in want for x in row]


def test_compound_is_multiplicative(rng):
    # Cauchy-Binet: C2(AB) = C2(A) C2(B)
    for _ in range(100):
        for frac in (False, True):
            a, b = random_4x4(rng, frac), random_4x4(rng, frac)
            assert ext._compound_matrix(mat_mul_reference(a, b)) == mat_mul_reference(
                ext._compound_matrix(a), ext._compound_matrix(b))


def test_iota_sample(rng):
    # iota(te0 ^ te1) = E2 ^ E3; te0 ^ te1 = e0 ^ e1 has coordinates e01
    for _ in range(10):
        p = random_gram_params(rng)
        img = la.mat_vec(iota_matrix(p), (1, 0, 0, 0, 0, 0))
        assert list(img) == [0, 0, 0, 1, 0, 0]


def test_mu_tilde_identities(rng):
    for _ in range(25):
        p = random_gram_params(rng)
        lp, lm = lambda_plus_matrix(p), lambda_minus_matrix(p)
        while True:
            x = OddCliffordElement(*(rng.randint(-3, 3) for _ in range(4)))
            nx = norm(x, p)
            if nx != 0:
                break
        mt = mu_tilde_matrix(x, p)
        assert la.mat_mul(mt, lm) == la.mat_scale(-nx, lm)
        assert la.mat_mul(mt, lp) == \
            la.mat_mul(la.mat_scale(-nx, lp), eta_matrix(x, p))


def test_mu_tilde_rejects_norm_zero():
    x = OddCliffordElement(0, 1, 0, 0)      # N(E1) = a = 0 on Wehler
    assert norm(x, WEHLER) == 0
    with pytest.raises(ValueError):
        mu_tilde_matrix(x, WEHLER)
    with pytest.raises(ValueError):
        eta_matrix(x, WEHLER)


def test_exterior_suite_checks_each_odd_element_once(monkeypatch):
    # the suite draws odd elements of nonzero norm itself and hands their
    # coordinates to the unchecked integer cores: no second norm check
    checked = []
    odd_norm = ext._odd_norm
    monkeypatch.setattr(ext, "_odd_norm", lambda x, p: checked.append(x) or odd_norm(x, p))
    res = exterior_suite(3, 0)
    assert (res.passed, res.failed, checked) == (75, 0, [])
    mu_tilde_matrix(element_E(WEHLER), WEHLER)
    assert checked == [element_E(WEHLER)]


def test_mu_tilde_on_central_element(rng):
    for _ in range(10):
        p = random_gram_params(rng)
        mt = mu_tilde_matrix(element_E(p), p)
        lp, lm = lambda_plus_matrix(p), lambda_minus_matrix(p)
        assert la.mat_mul(mt, lp) == la.mat_scale(p.disc_half, lp)
        assert la.mat_mul(mt, lm) == la.mat_scale(-p.disc_half, lm)


def test_claim1_roundtrip():
    # lambda+ conjugates g_alpha into mu(alpha, alpha^{-1}) on P+
    from picard3.isometries import family_unit, g_alpha, unit_search_even
    for k, l in ((1, -1), (2, -2), (2, 3)):
        params = GramParams(0, l, 0, 0, k, 0)
        lam = lambda_plus_matrix(params)
        for m in unit_search_even(k, l, 4)[:12]:
            u = family_unit(m, k, l)
            g = g_alpha(u, params)
            mm = mu_of_unit_conjugation(u.element, params)
            assert la.mat_mul(mm, lam) == la.mat_mul(lam, g)
    with pytest.raises(ValueError, match="^alpha must be a unit$"):
        mu_of_unit_conjugation(EvenCliffordElement(2, 0, 0, 0), WEHLER)


def test_gram_w_is_its_own_inverse():
    assert inverse(GRAM_W) == GRAM_W
