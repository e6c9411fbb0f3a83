"""phi_rep, the exterior-square actions mu, mu~, eta and the alternating E,
which run in integers, against the Fraction paths they replaced
(tests/oracles.py), plus the verify outputs of the Fraction paths kept in
tests/golden/ and the stream of the suites' random draws."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (alternating_E_by_fractions, eta_matrix_by_fractions,
                     mu_matrix_by_fractions, mu_tilde_matrix_by_fractions,
                     phi_rep_by_fractions, w_form_by_fractions)
from picard3.cli import main
from picard3.clifford import (EvenCliffordElement, GramParams,
                              OddCliffordElement, alternating_E, element_E,
                              gram_B, integer_norm, norm, phi_rep, trace)
from picard3.exterior import (eta_matrix, integer_eta, integer_mu_tilde,
                              lambda_minus_matrix, lambda_plus_matrix,
                              mu_matrix, mu_tilde_matrix, pair_w)
from picard3.linalg import det, mat_mul, mat_scale, mat_vec
from picard3.verify import _draws
from conftest import random_gram_params

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_trials3.json"


def _even(rng, den):
    return EvenCliffordElement(*(Fraction(rng.randint(-6, 6), den) for _ in range(4)))


def _odd_unit_norm(rng, p, den):
    """A random odd element with coordinates in (1/den) Z and N != 0."""
    while True:
        x = OddCliffordElement(*(Fraction(rng.randint(-6, 6), den) for _ in range(4)))
        if norm(x, p) != 0:
            return x


def _all_int(m):
    return all(type(v) is int for row in m for v in row)


def _exact(m):
    """Each entry is an int when it is integral and a Fraction otherwise."""
    return all(type(v) is (int if v == int(v) else Fraction) for row in m for v in row)


def test_integer_paths_match_the_fraction_oracles():
    rng = random.Random(20261018)
    for _ in range(300):
        p = random_gram_params(rng)
        xs = [_even(rng, 1), _even(rng, 2)]           # integral, half-integral
        for x in xs:
            m = phi_rep(x, p)
            assert m == phi_rep_by_fractions(x, p), (p, x)
            assert _all_int(m) == x.is_integral
        one = EvenCliffordElement(1, 0, 0, 0)
        for x, y in ((xs[0], _even(rng, 1)), (xs[1], xs[0]), (xs[0], xs[1]),
                     (one, xs[1]), (xs[0], one)):
            m = mu_matrix(x, y, p)
            assert m == mu_matrix_by_fractions(x, y, p), (p, x, y)
            assert _exact(m)
        odds = [_odd_unit_norm(rng, p, 1), _odd_unit_norm(rng, p, 2), element_E(p)]
        for ox in odds:
            mt, eta = mu_tilde_matrix(ox, p), eta_matrix(ox, p)
            assert mt == mu_tilde_matrix_by_fractions(ox, p), (p, ox)
            assert eta == eta_matrix_by_fractions(ox, p), (p, ox)
            assert _exact(mt) and _exact(eta)
        assert _all_int(mu_tilde_matrix(odds[0], p))
        acc, hats = alternating_E(p)
        acc0, hats0 = alternating_E_by_fractions(p)
        assert acc.coeffs == acc0.coeffs
        assert [h.coeffs for h in hats] == [h.coeffs for h in hats0]
        assert _all_int(lambda_plus_matrix(p)) and _all_int(lambda_minus_matrix(p))


def test_division_builds_a_fraction_only_for_a_non_integral_entry():
    # integral eta matrices over a divisor other than 1, the second on a
    # nondegenerate lattice
    assert GramParams(1, 1, -1, 1, 0, 1).disc == -8
    for x, p in ((OddCliffordElement(0, 1, 0, 0), GramParams(1, 0, 0, 0, 0, 0)),
                 (OddCliffordElement(1, 1, 0, 0), GramParams(1, 1, -1, 1, 0, 1))):
        assert _all_int(eta_matrix(x, p))
    p = GramParams(1, 2, 3, 1, 1, 1)
    mt = mu_tilde_matrix(element_E(p), p)
    assert _exact(mt) and not _all_int(mt)
    # the Bareiss tail of det, and norm and trace of a non-integral element
    assert type(det(gram_B(p))) is Fraction
    assert type(det(gram_B(GramParams(0, 2, 2, 2, 2, 0)))) is int
    x = EvenCliffordElement(Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 2))
    assert (norm(x, p), trace(x, p)) == (2, 2)
    assert type(norm(x, p)) is int and type(trace(x, p)) is int


def test_integer_paths_keep_their_errors():
    p = random_gram_params(random.Random(3))
    even = EvenCliffordElement(1, 2, 0, 1)
    with pytest.raises(ValueError):
        mu_tilde_matrix(even, p)
    with pytest.raises(ValueError):
        eta_matrix(even + OddCliffordElement(1, 0, 0, 0), p)


def _params_with_den_E(rng, den):
    """A random Gram tuple whose central element E has denominator den:
    1 when s, t, u are all even, else 2."""
    while True:
        p = random_gram_params(rng)
        if (p.s % 2 or p.t % 2 or p.u % 2) == (den == 2):
            return p


@pytest.mark.parametrize("den_E", [1, 2])
def test_integer_exterior_checks_match_the_fraction_forms(den_E):
    """Each check of the exterior suite in its integer form (as verify runs
    it) and in its Fraction form on the oracle matrices: both hold on the
    true values, and both fail on a wrong scalar or a wrong eta entry."""
    rng = random.Random(20261018 + den_E)
    for _ in range(40):
        p = _params_with_den_E(rng, den_E)
        lp, lm = lambda_plus_matrix(p), lambda_minus_matrix(p)
        for ox in (_odd_unit_norm(rng, p, 1), _odd_unit_norm(rng, p, 2)):
            mt, eta_t = integer_mu_tilde(ox.ints, p), integer_eta(ox.ints, p)
            dt, de = ox.den ** 2, -integer_norm(ox.ints, p)
            mt_f = mu_tilde_matrix_by_fractions(ox, p)
            eta_f = eta_matrix_by_fractions(ox, p)
            nx = norm(ox, p)
            for wrong in (0, 1):        # claimed norm Nx + wrong
                int_ok = mat_mul(mt, lm) == mat_scale(de - wrong * dt, lm)
                frac_ok = mat_mul(mt_f, lm) == mat_scale(-(nx + wrong), lm)
                assert int_ok == frac_ok == (wrong == 0), (p, ox, wrong)
            for bump in (0, 1):         # eta with one entry off by bump
                eta_b = ((eta_t[0][0] + bump,) + eta_t[0][1:],) + eta_t[1:]
                int_ok = mat_mul(mt, lp) == mat_mul(lp, eta_b)
                eta_bf = tuple(tuple(Fraction(v, de) for v in row) for row in eta_b)
                assert bump or eta_bf == eta_f
                frac_ok = mat_mul(mt_f, lp) == mat_mul(mat_scale(-nx, lp), eta_bf)
                assert int_ok == frac_ok == (bump == 0), (p, ox, bump)
        E = element_E(p)
        mt, dt = integer_mu_tilde(E.ints, p), E.den ** 2
        assert E.den == den_E
        mt_f = mu_tilde_matrix_by_fractions(E, p)
        for wrong in (0, 1):            # claimed D0 + wrong
            for sign, lam in ((1, lp), (-1, lm)):
                int_ok = (mat_scale(8, mat_mul(mt, lam))
                          == mat_scale(sign * dt * (p.disc + 8 * wrong), lam))
                frac_ok = (mat_mul(mt_f, lam)
                           == mat_scale(sign * (p.disc_half + wrong), lam))
                assert int_ok == frac_ok == (wrong == 0), (p, sign, wrong)
        x, y = _even(rng, 1), _even(rng, 1)
        mm = mu_matrix(x, y, p)
        w1, w2 = (tuple(rng.randint(-3, 3) for _ in range(6)) for _ in range(2))
        n4 = norm(x, p) ** 2 * norm(y, p) ** 2
        pw = pair_w(w1, w2)
        assert pw == w_form_by_fractions(w1, w2)
        for wrong in (0, 1):            # scaling law with N^2 N^2 + wrong
            int_ok = pair_w(mat_vec(mm, w1), mat_vec(mm, w2)) == (n4 + wrong) * pw
            frac_ok = (w_form_by_fractions(mat_vec(mm, w1), mat_vec(mm, w2))
                       == (n4 + wrong) * w_form_by_fractions(w1, w2))
            assert int_ok == frac_ok == (wrong == 0 or pw == 0), (p, wrong)


@pytest.mark.parametrize("bound", [2, 3, 4, 5])
def test_draws_are_the_randint_stream(bound):
    # the goldens pin only check counts: this pins the drawn values, and the
    # generator state each draw leaves behind
    seeds = list(range(8)) + [f"picard3:{s}:{name}" for s in range(3)
                              for name in ("clifford", "exterior")]
    for seed in seeds:
        for n in (1, 4, 6, 1000):
            mine, ref = random.Random(seed), random.Random(seed)
            assert _draws(mine, bound, n) == [ref.randint(-bound, bound)
                                              for _ in range(n)], (seed, n)
            assert mine.getstate() == ref.getstate()


@pytest.mark.parametrize("suite", ["clifford", "exterior"])
def test_verify_matches_golden_outputs(suite):
    golden = json.loads(GOLDEN.read_text())
    for seed in range(15):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["verify", "--suite", suite, "--seed", str(seed),
                         "--trials", "3", "--format", "json"]) == 0
        assert buf.getvalue() == golden[f"{suite} {seed}"], (suite, seed)
