"""The acceptance gate: one test per criterion, exact tolerances, timed
against the stated runtime budgets.  conftest prints one pass/fail line per
criterion.
"""

import time

from oracles import inverse, order_psl2_zn
from picard3 import linalg as la
from picard3.clifford import GramParams, OddCliffordElement, norm
from picard3.exterior import (eta_matrix, lambda_minus_matrix,
                              lambda_plus_matrix, mu_tilde_matrix)
from picard3.isometries import (CliffordUnit, clifford_lift, h_alpha,
                                p_alpha_matrix, seeded_units,
                                unit_search_even, v_set_search)
from picard3.lattice import (Lattice, discriminant_form,
                             form_orthogonal_group, represents)
from picard3.linalg import char_poly
from picard3.modular import (delta_n, free_rank, index_gamma_n, index_pi_g_n,
                             negative_pell)
from picard3.report import salem_poly
from picard3.verify import clifford_suite, exterior_suite

FAMILIES = ((1, -1), (2, -2), (3, -3), (2, 3), (5, -7))
SEED = 20240901


class budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.limit, f"runtime {elapsed:.1f}s over budget"


def test_criterion_1_isometry_law():
    with budget(5):
        for k, l in FAMILIES:
            gram = Lattice(((0, 0, k), (0, 2 * l, 0), (k, 0, 0))).gram
            units = unit_search_even(k, l, 25)
            assert len(units) > 1
            for m in units:
                p = p_alpha_matrix(m, k, l).matrix
                assert la.mat_mul(la.mat_mul(la.transpose(p), gram), p) == gram


def test_criterion_2_main_theorem_roundtrip():
    with budget(10):
        for k, l in FAMILIES:
            params = GramParams(0, l, 0, 0, k, 0)
            qinv = inverse(params.gram)
            for u in seeded_units(k, l, 200, SEED):
                h = h_alpha(u, params)
                diff = la.mat_sub(h.matrix, la.identity(3))
                assert all(x.denominator == 1 for row in la.mat_mul(diff, qinv)
                           for x in row)
                lift, n = clifford_lift(h, params)
                assert n in (1, -1)
                assert _sign_class(lift.coords) == _sign_class(u.element.coords)


def _sign_class(coords):
    for x in coords:
        if x != 0:
            return coords if x > 0 else tuple(-v for v in coords)
    return coords


def test_criterion_3_clifford_identity_suite():
    with budget(10):
        res = clifford_suite(100, SEED)
        assert res.failed == 0, res.failures


def test_criterion_4_exterior_suite():
    with budget(20):
        # 5 random even and odd actions on each of 60 Gram tuples
        res = exterior_suite(50, SEED)
        assert res.failed == 0, res.failures
        res2 = exterior_suite(10, SEED + 1)
        assert res2.failed == 0, res2.failures
        # mu~ identities on genuine units of the (1,-1) family
        params = GramParams(0, -1, 0, 0, 1, 0)
        lp, lm = lambda_plus_matrix(params), lambda_minus_matrix(params)
        for v in v_set_search(1, -1, 2)[:20]:
            u = CliffordUnit.from_element(v, params)
            nx = u.norm
            mt = mu_tilde_matrix(v, params)
            assert la.mat_mul(mt, lm) == la.mat_scale(-nx, lm)
            assert la.mat_mul(mt, lp) == \
                la.mat_mul(la.mat_scale(-nx, lp), eta_matrix(v, params))


def test_criterion_5_congruence_numerics():
    with budget(5):
        for n in range(3, 13):
            assert index_gamma_n(n) == order_psl2_zn(n)
        assert index_pi_g_n(2) == 6
        assert index_pi_g_n(8) == 192
        assert free_rank(192) == 17
        # delta_n scans consistent with the [Pi : G_n] formula
        for n in range(3, 21):
            assert index_pi_g_n(n) * delta_n(n) == 2 * index_gamma_n(n)
        # n = 4 adjudication: G_4 = Gamma(4) index agreement
        assert delta_n(4) == 1
        assert index_pi_g_n(4) == 2 * index_gamma_n(4) == 48


def test_criterion_6_v_set_dichotomy():
    with budget(5):
        for n in range(2, 11):
            assert v_set_search(n, -n, 50) == ()
            assert not represents(n, -n, 1)
            assert not represents(n, -n, -1)
        assert v_set_search(1, -1, 2) != ()


def test_criterion_7_salem():
    with budget(1):
        for n in range(1, 21):
            s = salem_poly([[1, 2], [2 * n, 4 * n + 1]])
            assert s.a_value == (4 * n + 2) ** 2 - 2
            t = salem_poly([[1, 2], [2 * n, 4 * n - 1]])
            assert t.a_value == (4 * n) ** 2 + 2
            for m, datum in ((((1, 2), (2 * n, 4 * n + 1)), s),
                             (((1, 2), (2 * n, 4 * n - 1)), t)):
                p = p_alpha_matrix(m, 2, -2)
                assert char_poly(p.matrix) == datum.cubic_coeffs


def test_criterion_8_appendix_fixtures():
    with budget(1):
        params = GramParams.from_gram(((6, 0, 0), (0, -10, 0), (0, 0, -18)))
        alpha = OddCliffordElement(1, 0, 5, 1)      # 5 E2 + E3 + E1E2E3
        assert norm(alpha, params) == 1
        assert negative_pell(5) == (1, 1)
        assert negative_pell(3) is None


def test_criterion_9_discriminant_form_brute_force():
    with budget(30):
        expected = {-2: 2, -3: 2, -5: 2, -6: 4, -10: 4}
        for l, order in expected.items():
            lat = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, 2 * l)))
            group = form_orthogonal_group(discriminant_form(lat))
            assert len(group) == order
