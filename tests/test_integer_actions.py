"""phi_rep, the exterior-square actions mu, mu~, eta and the alternating E,
which run in integers, against the Fraction paths they replaced
(tests/oracles.py), plus the verify outputs of the Fraction paths kept in
tests/golden/."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (alternating_E_by_fractions, eta_matrix_by_fractions,
                     mu_matrix_by_fractions, mu_tilde_matrix_by_fractions,
                     phi_rep_by_fractions)
from picard3.cli import main
from picard3.clifford import (EvenCliffordElement, OddCliffordElement,
                              alternating_E, element_E, norm, phi_rep)
from picard3.exterior import (eta_matrix, lambda_minus_matrix,
                              lambda_plus_matrix, mu_matrix, mu_tilde_matrix)
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


def test_integer_paths_match_the_fraction_oracles():
    rng = random.Random(20261018)
    for _ in range(300):
        p = random_gram_params(rng)
        xs = [_even(rng, 1), _even(rng, 2)]           # integral, half-integral
        for x in xs:
            m = phi_rep(x, p)
            assert m == phi_rep_by_fractions(x, p), (p, x)
            assert _all_int(m) == x.is_integral
        for x, y in ((xs[0], _even(rng, 1)), (xs[1], xs[0]), (xs[0], xs[1])):
            m = mu_matrix(x, y, p)
            assert m == mu_matrix_by_fractions(x, y, p), (p, x, y)
            assert _all_int(m) == (x.is_integral and y.is_integral)
        odds = [_odd_unit_norm(rng, p, 1), _odd_unit_norm(rng, p, 2), element_E(p)]
        for ox in odds:
            assert mu_tilde_matrix(ox, p) == mu_tilde_matrix_by_fractions(ox, p), (p, ox)
            assert eta_matrix(ox, p) == eta_matrix_by_fractions(ox, p), (p, ox)
        assert _all_int(mu_tilde_matrix(odds[0], p))
        acc, hats = alternating_E(p)
        acc0, hats0 = alternating_E_by_fractions(p)
        assert acc.coeffs == acc0.coeffs
        assert [h.coeffs for h in hats] == [h.coeffs for h in hats0]
        assert _all_int(lambda_plus_matrix(p)) and _all_int(lambda_minus_matrix(p))


def test_integer_paths_keep_their_errors():
    p = random_gram_params(random.Random(3))
    even = EvenCliffordElement(1, 2, 0, 1)
    with pytest.raises(ValueError):
        mu_tilde_matrix(even, p)
    with pytest.raises(ValueError):
        eta_matrix(even + OddCliffordElement(1, 0, 0, 0), p)


@pytest.mark.parametrize("suite", ["clifford", "exterior"])
def test_verify_matches_golden_outputs(suite):
    golden = json.loads(GOLDEN.read_text())
    for seed in range(15):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["verify", "--suite", suite, "--seed", str(seed),
                         "--trials", "3", "--format", "json"]) == 0
        assert buf.getvalue() == golden[f"{suite} {seed}"], (suite, seed)
